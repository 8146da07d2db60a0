"""Task pipelines: pair planning, sliding-window tracking, depth, reconstruction.

A predictor maps an ordered frame pair (view1, view2) to three pointmaps, all
expressed in view1's camera frame:

  x_ii          view1's own content (ego map),
  x_ji          view2's content under the static-world hypothesis,
  x_ji_matched  view2's content where it actually is at view1's time.

The oracle predictor reads those from a synthetic scene and optionally
perturbs them: per-coordinate Gaussian noise scaled by depth, and one
log-normal scale factor per pair (monocular scale wobble). Its heads render
on first read, so a task pays only for the maps it consumes; each head draws
its noise from its own (seed, pair, role) stream, so the maps do not depend
on which heads were read or in what order. The predictor memoizes its heads
by (view1, view2, role), up to _HEAD_MEMO_BYTES of maps with the least
recently used evicted first, so windows of different lengths that read the
same pair render it once; a re-rendered head is bit-identical by the same
per-stream argument. read_heads reads one head of many predictions at once:
the matched heads the memo lacks render in one gt_pointmap_matchings call,
which sizes its own visibility batches, and track_3d reads every window's
maps in one such read. Long sequences are processed in overlapping windows
and stitched: scales harmonized by a median norm ratio over overlap frames,
later windows win on overlap, and queries re-seed at each new window's
keyframe by rounding projected track positions to the nearest pixel.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import check_finite
from .geometry import (
    ConfidenceMap,
    DepthMap,
    Pointmap,
    depth_channel,
    pixel_indices,
    project_points,
    unproject,
)
from .matching import sparsify_tracks
from .scenes import (
    SceneSequence,
    check_frame,
    gt_pointmap_matching,
    gt_pointmap_matchings,
    gt_rigid_pointmap,
)

DEFAULT_WINDOW = 12
DEFAULT_OVERLAP = 4

_ROLE_EGO, _ROLE_RIGID, _ROLE_MATCHED, _ROLE_JITTER = 1, 2, 3, 9
_HEAD_ROLES = {"x_ii": _ROLE_EGO, "x_ji": _ROLE_RIGID, "x_ji_matched": _ROLE_MATCHED}
# bytes of rendered heads a predictor keeps: about 30 heads at 48x64, where
# an ablation pass needs 2.25 MiB to keep every repeat
_HEAD_MEMO_BYTES = 3 << 20


@dataclass
class PairPrediction:
    """Predictor output for an ordered pair; all maps live in view1's camera."""

    frames: tuple[int, int]
    x_ii: Pointmap
    x_ji: Pointmap
    x_ji_matched: Pointmap
    conf_ii: ConfidenceMap
    conf_ji: ConfidenceMap


class Predictor(Protocol):
    def predict(self, view1: int, view2: int) -> PairPrediction: ...

    def read_heads(self, preds: Sequence[PairPrediction], head: str) -> list[Pointmap]:
        """getattr(p, head) for each of preds, predictions this predictor made;
        head is "x_ii", "x_ji" or "x_ji_matched". A predictor may compute the
        maps together."""
        ...


class OraclePredictor:
    """Scene-backed predictor with optional noise and per-pair scale jitter.

    sigma_point scales per-coordinate Gaussian noise by each pixel's depth;
    sigma_scale draws one exp(N(0, sigma^2)) factor per pair, applied to all
    three maps (they share the pair's unknown scale). Outputs are deterministic
    per (seed, pair): repeated calls return identical maps, from a memo of
    recently read heads when they are still in it.

    confidence_mode "uniform" emits raw logit 1 everywhere; "noise" lowers the
    logit monotonically with the actually-injected noise magnitude.
    """

    def __init__(
        self,
        seq: SceneSequence,
        sigma_point: float = 0.0,
        sigma_scale: float = 0.0,
        seed: int = 0,
        confidence_mode: str = "uniform",
    ):
        check_finite(sigma_point=sigma_point, sigma_scale=sigma_scale)
        if sigma_point < 0 or sigma_scale < 0:
            raise ValueError("noise magnitudes must be >= 0")
        if confidence_mode not in ("uniform", "noise"):
            raise ValueError("confidence_mode must be uniform or noise")
        self.seq = seq
        self.sigma_point = float(sigma_point)
        self.sigma_scale = float(sigma_scale)
        self.seed = int(seed)
        self.confidence_mode = confidence_mode
        # (view1, view2, role) -> ((map, conf), bytes), least recently read first
        self._memo: OrderedDict = OrderedDict()
        self._memo_bytes = 0

    def _rng(self, i: int, j: int, role: int) -> np.random.Generator:
        ss = np.random.SeedSequence((self.seed, i, j, role))
        return np.random.Generator(np.random.Philox(ss))

    def _perturb(self, pm: Pointmap, i: int, j: int, role: int) -> tuple[Pointmap, ConfidenceMap]:
        if self.sigma_point <= 0:
            return pm, ConfidenceMap(np.ones(pm.resolution))
        rng = self._rng(i, j, role)
        z = np.abs(pm.points[..., 2:3])
        eps = rng.normal(size=pm.points.shape) * (self.sigma_point * z)
        pts = pm.points + eps
        pts[~pm.valid] = 0.0
        if self.confidence_mode == "noise":
            mag = np.linalg.norm(eps, axis=-1)
            ref = self.sigma_point * np.maximum(z[..., 0], 1e-9)
            raw = 1.0 / (1.0 + mag / ref)
        else:
            raw = np.ones(pm.resolution)
        return Pointmap(pts, pm.valid), ConfidenceMap(raw)

    def _head(self, view1: int, view2: int, role: int) -> tuple[Pointmap, ConfidenceMap | None]:
        """A head's (map, conf), rendered unless the memo holds it; the
        matched head has no confidence output, so its conf is None."""
        key = (view1, view2, role)
        if key in self._memo:
            self._memo.move_to_end(key)
            return self._memo[key][0]
        return self._remember(key, self._render(view1, view2, role))

    def _remember(self, key, head: tuple[Pointmap, ConfidenceMap | None]):
        """Put a rendered head into the memo, evicting the least recently read
        heads beyond _HEAD_MEMO_BYTES; returns the head."""
        size = head[0].points.nbytes + head[0].valid.nbytes
        size += 0 if head[1] is None else head[1].values.nbytes
        self._memo[key] = head, size
        self._memo_bytes += size
        while self._memo_bytes > _HEAD_MEMO_BYTES:
            self._memo_bytes -= self._memo.popitem(last=False)[1][1]
        return head

    def _render(self, view1: int, view2: int, role: int) -> tuple[Pointmap, ConfidenceMap | None]:
        seq = self.seq
        if role == _ROLE_EGO:
            pm = unproject(seq.depths[view1], seq.intrinsics[view1])
        elif role == _ROLE_RIGID:
            pm = gt_rigid_pointmap(seq, view1, view2)
        else:
            pm = gt_pointmap_matching(seq, view1, view2)
        return self._finish(pm, view1, view2, role)

    def _finish(self, pm: Pointmap, view1: int, view2: int, role: int):
        """A head from its ground-truth map: noise, the pair's scale, and no
        confidence for the matched head."""
        pm, conf = self._perturb(pm, view1, view2, role)
        if self.sigma_scale > 0:
            f = float(np.exp(self._rng(view1, view2, _ROLE_JITTER).normal() * self.sigma_scale))
            pm = pm.scaled(f)
        return pm, None if role == _ROLE_MATCHED else conf

    def predict(self, view1: int, view2: int) -> PairPrediction:
        """The pair's prediction, each head rendered on its first read.
        Raises ValueError unless both views are frame indices of the scene."""
        check_frame(self.seq, view1)
        check_frame(self.seq, view2)
        return _OraclePair(self, view1, view2)

    def read_heads(self, preds: Sequence[PairPrediction], head: str) -> list[Pointmap]:
        """getattr(p, head) for each of preds, predictions this predictor made.

        The memo's heads come from the memo. The matched heads it lacks are
        rendered by one gt_pointmap_matchings call, in the batches it sizes,
        and each enters the memo as it arrives. The maps are returned from
        the read itself, so a read larger than the memo renders no head twice.
        """
        if head not in _HEAD_ROLES:
            raise ValueError(f"head must be one of {tuple(_HEAD_ROLES)}")
        role = _HEAD_ROLES[head]
        pairs = [p.frames for p in preds]
        if role != _ROLE_MATCHED:
            return [self._head(*pair, role)[0] for pair in pairs]
        maps = {pair: self._head(*pair, role)[0] for pair in pairs if (*pair, role) in self._memo}
        missing = list(dict.fromkeys(pair for pair in pairs if pair not in maps))
        for (i, j), pm in zip(missing, gt_pointmap_matchings(self.seq, missing)):
            maps[i, j] = self._remember((i, j, role), self._finish(pm, i, j, role))[0]
        return [maps[pair] for pair in pairs]


class _OraclePair(PairPrediction):
    """An oracle pair prediction whose heads are read through the predictor's
    memo, so each renders on its first read."""

    def __init__(self, oracle: OraclePredictor, view1: int, view2: int):
        self.frames = (view1, view2)
        self._oracle = oracle

    def _read(self, role: int) -> tuple[Pointmap, ConfidenceMap | None]:
        return self._oracle._head(*self.frames, role)

    x_ii = property(lambda self: self._read(_ROLE_EGO)[0])
    conf_ii = property(lambda self: self._read(_ROLE_EGO)[1])
    x_ji = property(lambda self: self._read(_ROLE_RIGID)[0])
    conf_ji = property(lambda self: self._read(_ROLE_RIGID)[1])
    x_ji_matched = property(lambda self: self._read(_ROLE_MATCHED)[0])


@dataclass
class TaskPlan:
    """Ordered pair list for one window of a task.

    pairs are (view1, view2); heads names the decoder outputs the task
    consumes downstream.
    """

    task: str
    frames: tuple[int, ...]
    keyframe: int | None
    pairs: list[tuple[int, int]]
    heads: tuple[str, ...]


def plan_pairs(task: str, frames: Sequence[int]) -> TaskPlan:
    """Pair template per task over a window of frame indices.

    tracking: keyframe is the window's first frame, pairs (t, keyframe);
    video_depth: identical pairs (t, t);
    reconstruction: keyframe is the window's last frame, pairs (keyframe, t).
    """
    fr = tuple(int(f) for f in frames)
    if not fr:
        raise ValueError("empty frame window")
    if task == "tracking":
        kf = fr[0]
        return TaskPlan(task, fr, kf, [(t, kf) for t in fr], ("head3",))
    if task == "video_depth":
        return TaskPlan(task, fr, None, [(t, t) for t in fr], ("head1",))
    if task == "reconstruction":
        kf = fr[-1]
        return TaskPlan(task, fr, kf, [(kf, t) for t in fr], ("head1", "head2"))
    raise ValueError(f"unknown task {task!r}")


def window_starts(length: int, window: int = DEFAULT_WINDOW, overlap: int = DEFAULT_OVERLAP) -> list[int]:
    """Start indices of sliding windows covering a sequence.

    Stride is window - overlap; a final tail-aligned window is appended when
    the regular grid leaves frames uncovered. A sequence shorter than one
    window yields the single start 0 (callers clip the window).
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if window < 2:
        raise ValueError("window must be >= 2")
    if overlap < 0 or overlap >= window:
        raise ValueError("overlap must be in [0, window)")
    if length <= window:
        return [0]
    stride = window - overlap
    starts = list(range(0, length - window + 1, stride))
    if starts[-1] + window < length:
        starts.append(length - window)
    return starts


@dataclass
class TrackingResult:
    tracks: np.ndarray  # (Q, L, 3), per-frame camera coordinates
    valid: np.ndarray  # (Q, L)
    starts: list[int]
    scales: list[float]  # harmonization factor applied to each window
    queries: np.ndarray  # (Q, 2) original pixels at frame 0


def track_3d(
    seq: SceneSequence,
    predictor: Predictor,
    queries: np.ndarray,
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
    mode: str = "matched",
) -> TrackingResult:
    """Track query pixels of frame 0 across the whole sequence in 3D.

    Each window anchors at its first frame and reads that keyframe's content
    from the predictor's matched maps (pairs (t, keyframe)); mode "rigid"
    consumes the static-hypothesis maps instead (the no-motion baseline).
    Windows are stitched by median norm-ratio scale harmonization over overlap
    frames, later windows overwrite, and queries re-seed at the next keyframe
    by nearest-pixel rounding of the projected track.
    """
    if mode not in ("matched", "rigid"):
        raise ValueError("mode must be matched or rigid")
    length = seq.frame_count
    h, w = seq.resolution
    starts = window_starts(length, window, overlap)
    q = pixel_indices(queries, h, w)
    nq = q.shape[0]

    out = np.zeros((nq, length, 3))
    out_valid = np.zeros((nq, length), dtype=bool)
    cur_pix = q
    alive = np.ones(nq, dtype=bool)
    scales: list[float] = []
    prev_end = 0

    # every window's maps are read up front, in one read: they do not depend
    # on where the queries land
    plans = [plan_pairs("tracking", range(s, min(s + window, length))) for s in starts]
    preds = [predictor.predict(*pair) for plan in plans for pair in plan.pairs]
    all_maps = predictor.read_heads(preds, "x_ji_matched" if mode == "matched" else "x_ji")

    for wi, plan in enumerate(plans):
        frames = list(plan.frames)
        maps, all_maps = all_maps[:len(frames)], all_maps[len(frames):]
        tr_w, va_w = sparsify_tracks(maps, cur_pix)
        va_w &= alive[:, None]
        tr_w[~va_w] = 0.0

        # the window's leading frames that earlier windows wrote (none for the
        # first window, whose scale is then 1)
        ov = frames[:max(0, prev_end - frames[0])]
        both = va_w[:, :len(ov)] & out_valid[:, ov]
        prev_n = np.linalg.norm(out[:, ov][both], axis=1)
        new_n = np.linalg.norm(tr_w[:, :len(ov)][both], axis=1)
        ok = new_n > 1e-12
        s = float(np.median(prev_n[ok] / new_n[ok])) if ok.any() else 1.0
        tr_w = tr_w * s
        scales.append(s)

        out[:, frames] = tr_w
        out_valid[:, frames] = va_w
        prev_end = frames[-1] + 1

        if wi + 1 < len(starts):
            ns = starts[wi + 1]
            reseed_f = ns if ns in frames else frames[-1]
            ri = frames.index(reseed_f)
            pix, pv = project_points(tr_w[:, ri], seq.intrinsics[reseed_f])
            rounded = np.rint(pix).astype(np.int64)
            inb = ((rounded >= 0) & (rounded < (w, h))).all(axis=1)
            alive = alive & va_w[:, ri] & pv & inb
            cur_pix = np.where(alive[:, None], rounded, 0)

    return TrackingResult(tracks=out, valid=out_valid, starts=starts, scales=scales, queries=q)


def video_depth(seq: SceneSequence, predictor: Predictor) -> list[DepthMap]:
    """Per-frame depth from the ego maps of identical pairs (t, t)."""
    plan = plan_pairs("video_depth", range(seq.frame_count))
    return [depth_channel(predictor.predict(*pair).x_ii) for pair in plan.pairs]


@dataclass
class ReconResult:
    points: np.ndarray  # (M, 3) merged cloud in keyframe camera coordinates
    maps: list[Pointmap]
    keyframe: int
    frames: list[int]


def feedforward_recon(
    seq: SceneSequence, predictor: Predictor, window: int = DEFAULT_WINDOW
) -> ReconResult:
    """Reconstruct one window, anchored at its last frame (the keyframe).

    Uses the final `window` frames (whole sequence if shorter). Each frame's
    content lands in keyframe coordinates via pairs (keyframe, t); the merged
    cloud stacks all valid points.
    """
    length = seq.frame_count
    plan = plan_pairs("reconstruction", range(max(0, length - window), length))
    maps = [predictor.predict(*pair).x_ji for pair in plan.pairs]
    clouds = [m.points[m.valid] for m in maps]
    points = np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 3))
    return ReconResult(
        points=points, maps=maps, keyframe=plan.keyframe, frames=list(plan.frames)
    )
