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
by (view1, view2, role) in a least-recently-used cache of as many heads as
_HEAD_MEMO_BYTES holds, so windows of different lengths that read the same
pair render it once; a re-rendered head is bit-identical by the same
per-stream argument. Long sequences are processed in overlapping windows
and stitched: scales harmonized by a median norm ratio over overlap frames,
later windows win on overlap, and queries re-seed at each new window's
keyframe by rounding projected track positions to the nearest pixel.
Tracking reads one window's maps at a time, so beyond the memo it holds
one window of maps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import check_finite
from .geometry import (
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
    gt_rigid_pointmap,
)

DEFAULT_WINDOW = 12
DEFAULT_OVERLAP = 4

_ROLE_EGO, _ROLE_RIGID, _ROLE_MATCHED, _ROLE_JITTER = 1, 2, 3, 9
# bytes of rendered heads a predictor keeps: 40 heads at 48x64, where an
# ablation pass needs 2.05 MiB to keep every repeat, and 10 at 96x128
_HEAD_MEMO_BYTES = 3 << 20


@dataclass
class PairPrediction:
    """Predictor output for an ordered pair; all maps live in view1's camera."""

    frames: tuple[int, int]
    x_ii: Pointmap
    x_ji: Pointmap
    x_ji_matched: Pointmap


class OraclePredictor:
    """Scene-backed predictor with optional noise and per-pair scale jitter.

    sigma_point scales per-coordinate Gaussian noise by each pixel's depth;
    sigma_scale draws one exp(N(0, sigma^2)) factor per pair, applied to all
    three maps (they share the pair's unknown scale); reading a head raises
    ValueError when its pair's factor overflows or underflows. Outputs are
    deterministic per (seed, pair): repeated calls return identical maps, from
    a memo of recently read heads when they are still in it.
    """

    def __init__(
        self,
        seq: SceneSequence,
        sigma_point: float = 0.0,
        sigma_scale: float = 0.0,
        seed: int = 0,
    ):
        check_finite(sigma_point=sigma_point, sigma_scale=sigma_scale)
        if sigma_point < 0 or sigma_scale < 0:
            raise ValueError("noise magnitudes must be >= 0")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.seq = seq
        self.sigma_point = float(sigma_point)
        self.sigma_scale = float(sigma_scale)
        self.seed = int(seed)
        # a head is 25 bytes a pixel: float64 points and a bool validity. The
        # cache wraps a partial, not a bound method, so it holds no reference
        # back to the predictor
        heads = _HEAD_MEMO_BYTES // (25 * math.prod(seq.resolution))
        self._head = functools.lru_cache(maxsize=heads)(functools.partial(
            _render, seq, self.sigma_point, self.sigma_scale, self.seed))

    def predict(self, view1: int, view2: int) -> PairPrediction:
        """The pair's prediction, each head rendered on its first read.
        Raises ValueError unless both views are frame indices of the scene."""
        check_frame(self.seq, view1)
        check_frame(self.seq, view2)
        return _OraclePair(self, view1, view2)


def _render(seq: SceneSequence, sigma_point: float, sigma_scale: float, seed: int,
            view1: int, view2: int, role: int) -> Pointmap:
    """A head from its ground-truth map, with its noise and the pair's scale,
    each drawn from its own (seed, pair, role) stream."""

    def rng(stream):
        ss = np.random.SeedSequence((seed, view1, view2, stream))
        return np.random.Generator(np.random.Philox(ss))

    if role == _ROLE_EGO:
        pm = unproject(seq.depths[view1], seq.intrinsics[view1])
    elif role == _ROLE_RIGID:
        pm = gt_rigid_pointmap(seq, view1, view2)
    else:
        pm = gt_pointmap_matching(seq, view1, view2)
    if sigma_point > 0:
        z = np.abs(pm.points[..., 2:3])
        eps = rng(role).normal(size=pm.points.shape) * (sigma_point * z)
        pm = Pointmap(pm.points + eps, pm.valid)
    if sigma_scale > 0:
        draw = rng(_ROLE_JITTER).normal()
        with np.errstate(over="ignore"):
            f = float(np.exp(draw * sigma_scale))
        if not 0.0 < f < math.inf:
            raise ValueError(f"jitter {sigma_scale} gives pair ({view1}, {view2}) the "
                             f"scale factor {f}; it must be finite and positive")
        pm = pm.scaled(f)
    return pm


class _OraclePair(PairPrediction):
    """An oracle pair prediction whose maps are read through the predictor's
    memo, so each renders on its first read."""

    def __init__(self, oracle: OraclePredictor, view1: int, view2: int):
        self.frames = (view1, view2)
        self._oracle = oracle

    def _read(self, role: int) -> Pointmap:
        return self._oracle._head(*self.frames, role)

    x_ii = property(lambda self: self._read(_ROLE_EGO))
    x_ji = property(lambda self: self._read(_ROLE_RIGID))
    x_ji_matched = property(lambda self: self._read(_ROLE_MATCHED))


@dataclass
class TaskPlan:
    """Ordered pair list for one window of a task; pairs are (view1, view2)."""

    frames: tuple[int, ...]
    keyframe: int | None
    pairs: list[tuple[int, int]]


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
        return TaskPlan(fr, kf, [(t, kf) for t in fr])
    if task == "video_depth":
        return TaskPlan(fr, None, [(t, t) for t in fr])
    if task == "reconstruction":
        kf = fr[-1]
        return TaskPlan(fr, kf, [(kf, t) for t in fr])
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
    predictor: OraclePredictor,
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
    head = "x_ji_matched" if mode == "matched" else "x_ji"

    for wi, start in enumerate(starts):
        plan = plan_pairs("tracking", range(start, min(start + window, length)))
        frames = list(plan.frames)
        # the window's maps are dropped once its tracks are read, so no two
        # windows' maps are alive together
        tr_w, va_w = sparsify_tracks(
            [getattr(predictor.predict(*pair), head) for pair in plan.pairs], cur_pix)
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


def video_depth(seq: SceneSequence, predictor: OraclePredictor) -> list[DepthMap]:
    """Per-frame depth from the ego maps of identical pairs (t, t)."""
    plan = plan_pairs("video_depth", range(seq.frame_count))
    return [depth_channel(predictor.predict(*pair).x_ii) for pair in plan.pairs]


@dataclass
class ReconResult:
    points: np.ndarray  # (M, 3) merged cloud in keyframe camera coordinates
    keyframe: int
    frames: list[int]


def feedforward_recon(
    seq: SceneSequence, predictor: OraclePredictor, window: int = DEFAULT_WINDOW
) -> ReconResult:
    """Reconstruct one window, anchored at its last frame (the keyframe).

    Uses the final `window` frames (whole sequence if shorter). Each frame's
    content lands in keyframe coordinates via pairs (keyframe, t); the merged
    cloud stacks all valid points.
    """
    length = seq.frame_count
    plan = plan_pairs("reconstruction", range(max(0, length - window), length))
    maps = (predictor.predict(*pair).x_ji for pair in plan.pairs)
    clouds = [m.points[m.valid] for m in maps]
    points = np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 3))
    return ReconResult(points=points, keyframe=plan.keyframe, frames=list(plan.frames))
