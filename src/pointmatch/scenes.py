"""Synthetic dynamic scenes with analytic ground truth.

A scene is a sinusoidal height-field backdrop plus a few convex rigid objects
(spheres, axis-aligned boxes) moving with constant world velocity, observed by
a smooth camera path. Everything is raycast analytically, so depth maps,
cross-time correspondences, occlusion and tracks come out in closed form
instead of from a mesh rasterizer.

Design notes that matter for exactness:
  - ray directions are z-normalized in the camera frame, so the ray parameter
    equals camera depth;
  - every ground-truth observation runs through one kernel, _observe: groups
    of (frame i, world points) -> per group frame-i camera points, pixels and
    visibility (in view and the first surface along the camera ray). The
    matching map feeds it W_j + span * v, the tracks feed it each query's
    W_q + span * v, so a track and the matching map agree wherever they see
    the same point. One call bisects the backdrop once for all its groups'
    rays (build_tracks renders every frame, gt_pointmap_matchings a batch of
    pairs sized here to fill the cores, gt_pointmap_matching a group of one);
    only the analytic object hits run per group;
  - the rigid map is P_i(W_j). Static pixels have v = 0, so W_j + span * v
    is W_j bit for bit there and the two maps' residuals are exactly zero;
  - the backdrop is bisected with two stop rules. A depth raycast
    (HeightField.intersect) stops once no valid ray's bracket moves, a fixed
    point no longer run can change. A visibility query
    (HeightField.crossing_beyond) also stops once every valid ray's bracket
    lies on one side of its threshold dist - _OCCLUSION_TOL: brackets only
    shrink, so that side is the side of the fixed point, and visibility is
    the same boolean a full refinement gives;
  - assemble_scene bisects the backdrop once per scene, for every frame's
    pixel rays together; only the analytic object hits run per frame. Every
    bisection takes one origin per group of rays (a camera center) and
    expands it to rows one chunk at a time, so no call holds a row per ray
    for its origins;
  - a bisection is split into contiguous chunks: one per core the process
    may run on once each gets at least _MIN_CHUNK_RAYS rays, and more where
    a chunk would exceed _MAX_CHUNK_RAYS, so a whole scene's rays become
    bounded pieces spread over the cores. The chunks run on a private
    thread pool and the calling thread, and are joined in ray order. This
    is exact on every valid ray: its brackets depend only on that ray, and
    both stop rules are per ray (a bracket that stops moving is a fixed
    point, a decided visibility bracket stays decided), so a chunk that
    stops before the others, or holds rays of other frames or groups,
    returns the same values. The one step that is not elementwise is
    height's two small matrix products; BLAS gives each row the same value
    in any call of two or more rows, but a one-row call takes another path
    that can differ in the last bit, and both chunk bounds keep every chunk
    far above one row.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import EmptyDomainError, check_finite
from .geometry import (
    DepthMap,
    Intrinsics,
    Pointmap,
    Pose,
    pixel_grid,
    pixel_indices,
    pixel_rays,
    project_points,
)

_RAY_TMIN = 1e-6
_OCCLUSION_TOL = 1e-6
_MIN_DZ = 1e-6
_BISECT_ITERS = 80
_SLOPE_BOUND = 0.3  # max |grad h|; keeps ray-surface crossings monotone in t
# a bisection splits into chunks of at least this many rays, one per core;
# smaller chunks lose more to the interpreter lock than the second core gains
_MIN_CHUNK_RAYS = 4096
# and into more where one would exceed this many rays, which bounds the
# memory a whole scene's call holds at once; on a 96x128x12 scene this was as
# fast as 16,384 or two chunks, with less memory (>= 2 * _MIN_CHUNK_RAYS)
_MAX_CHUNK_RAYS = 8192
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_CAMERA_PATHS = ("orbit", "linear", "random-smooth")


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    frame_count: int = 6
    height: int = 24
    width: int = 32
    object_count: int = 2
    motion_magnitude: float = 0.05
    camera_path: str = "orbit"
    camera_magnitude: float = 0.02
    track_count: int = 16

    def __post_init__(self):
        check_finite(motion_magnitude=self.motion_magnitude,
                     camera_magnitude=self.camera_magnitude)
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.height < 4 or self.width < 4:
            raise ValueError("resolution must be at least 4x4")
        if self.object_count < 0:
            raise ValueError("object_count must be >= 0")
        if self.motion_magnitude < 0 or self.camera_magnitude < 0:
            raise ValueError("magnitudes must be >= 0")
        if self.camera_path not in _CAMERA_PATHS:
            raise ValueError(f"camera_path must be one of {_CAMERA_PATHS}")
        if self.track_count < 0:
            raise ValueError("track_count must be >= 0")


@dataclass
class HeightField:
    """z = base + sum_k amp_k * sin(fx_k x + fy_k y + phase_k), slope-bounded."""

    base: float
    amps: np.ndarray  # (K,)
    freqs: np.ndarray  # (K, 2)
    phases: np.ndarray  # (K,)

    def height(self, xy: np.ndarray) -> np.ndarray:
        args = xy @ self.freqs.T + self.phases  # (..., K)
        return self.base + np.sin(args) @ self.amps

    @property
    def z_bounds(self) -> tuple[float, float]:
        a = float(np.abs(self.amps).sum())
        return self.base - a, self.base + a

    def intersect(
        self, origins: np.ndarray, dirs: np.ndarray, counts
    ) -> tuple[np.ndarray, np.ndarray]:
        """First crossing along each ray: (t, ok); dirs need not be normalized.

        origins holds one row per group of rays: row g is the origin of the
        next counts[g] rays (a camera center and the rays it casts).

        Assumes origins lie below the surface band (z < zmin) and rays point
        toward +z steeply enough that the crossing is unique; callers enforce
        that through the camera-path contract. Bisection stops once no valid
        ray's bracket moves: a bracket that stops moving is a fixed point, so
        t equals what any longer run would return.
        """
        return self._bisect(origins, dirs, None, counts)

    def crossing_beyond(
        self, origins: np.ndarray, dirs: np.ndarray, thr: np.ndarray, counts
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whether each ray's first crossing t satisfies t >= thr: (beyond, ok).

        Same crossing, origins and contract as intersect, but bisection also
        stops once every valid ray's bracket lies on one side of its
        threshold. The answer is exact: lo only rises and hi only falls with
        lo <= hi, so a bracket with lo >= thr ends with t >= thr, one with
        hi < thr ends with t < thr, and a straddling bracket that no longer
        moves is already at intersect's fixed point.
        """
        hi, ok = self._bisect(origins, dirs, thr, counts)
        return hi >= thr, ok

    def _bisect(self, origins, dirs, thr, counts):
        """(hi, ok) of intersect's bisection, with crossing_beyond's extra stop
        rule where thr is given; hi is meaningful only where ok.

        A call is split into contiguous chunks, one per core when each gets
        at least _MIN_CHUNK_RAYS rays and more where one would exceed
        _MAX_CHUNK_RAYS, that are bisected concurrently and joined in ray
        order; wherever ok, hi equals one serial call's (see the module note).
        Grouped origins are expanded to rows one chunk at a time.
        """
        n = len(dirs)
        bounds = np.cumsum([0, *counts])

        def rows(a, b):
            held = np.clip(bounds[1:], a, b) - np.clip(bounds[:-1], a, b)
            return np.repeat(origins, held, axis=0)

        def chunk(a, b):
            return self._bisect_chunk(rows(a, b), dirs[a:b], None if thr is None else thr[a:b])

        k = max(min(_CORES, n // _MIN_CHUNK_RAYS), -(-n // _MAX_CHUNK_RAYS))
        if k <= 1:
            return chunk(0, n)
        edges = [c * n // k for c in range(k + 1)]
        # this thread bisects the first chunk while the pool runs the rest
        pool = _pool()
        futures = [pool.submit(chunk, a, b) for a, b in zip(edges[1:-1], edges[2:])]
        results = [chunk(edges[0], edges[1])] + [f.result() for f in futures]
        hi, ok = zip(*results)
        return np.concatenate(hi), np.concatenate(ok)

    def _bisect_chunk(self, origins, dirs, thr):
        zmin, zmax = self.z_bounds
        oz, dz = origins[:, 2], dirs[:, 2]
        ok = dz > _MIN_DZ
        safe_dz = np.where(ok, dz, 1.0)
        lo = np.maximum((zmin - oz) / safe_dz, 0.0)
        hi = (zmax - oz) / safe_dz
        ok &= hi > 0

        def g(t):
            p = origins + t[:, None] * dirs
            return p[:, 2] - self.height(p[:, :2])

        hi = np.where(ok, hi, lo + 1.0)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            below = g(mid) < 0
            active = ok & np.where(below, mid != lo, mid != hi)
            if thr is not None:
                active &= (lo < thr) & (hi >= thr)
            if not active.any():
                break
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return hi, ok


_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The raycast's thread pool, created on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=_CORES, thread_name_prefix="raycast")
        return _executor


def _forget_pool() -> None:
    # a forked child inherits the pool object and lock state, not the threads
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass
class SceneObject:
    """Convex rigid body translating with constant world velocity.

    kind "sphere": size = (radius,); kind "box": size = half extents (3,),
    axis-aligned (objects translate, they do not spin).
    """

    kind: str
    center: np.ndarray
    size: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.size = np.atleast_1d(np.asarray(self.size, dtype=np.float64))
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        if self.kind not in ("sphere", "box"):
            raise ValueError("kind must be sphere or box")

    @property
    def dynamic(self) -> bool:
        return bool(np.linalg.norm(self.velocity) > 0)

    def offset_at(self, frame: int) -> np.ndarray:
        return frame * self.velocity

    def intersect(
        self, origins: np.ndarray, dirs: np.ndarray, frame: int
    ) -> tuple[np.ndarray, np.ndarray]:
        c = self.center + self.offset_at(frame)
        if self.kind == "sphere":
            r = float(self.size[0])
            oc = origins - c
            a = np.einsum("ij,ij->i", dirs, dirs)
            b = 2.0 * np.einsum("ij,ij->i", oc, dirs)
            cc = np.einsum("ij,ij->i", oc, oc) - r * r
            disc = b * b - 4.0 * a * cc
            hit = disc > 0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            t = (-b - sq) / (2.0 * a)
            return t, hit & (t > _RAY_TMIN)
        lo, hi = c - self.size, c + self.size
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo[None, :] - origins) / dirs
            t2 = (hi[None, :] - origins) / dirs
        tn = np.nanmax(np.minimum(t1, t2), axis=1)
        tf = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (tn <= tf) & (tn > _RAY_TMIN)
        return tn, hit


@dataclass
class TrackSet:
    """Ground-truth 3D tracks for a set of query pixels.

    query_frames: (Q,) frame each query was issued at.
    query_pixels: (Q, 2) integer (x, y).
    world/camera: (Q, T, 3); camera holds the point in frame t's camera frame.
    pixels: (Q, T, 2) projected pixel positions (zero where invisible).
    visible: (Q, T) bool; occluded or out-of-view frames are False.
    """

    query_frames: np.ndarray
    query_pixels: np.ndarray
    world: np.ndarray
    camera: np.ndarray
    pixels: np.ndarray
    visible: np.ndarray

    def __len__(self) -> int:
        return int(self.query_frames.shape[0])


@dataclass
class SceneSequence:
    config: SceneConfig
    intrinsics: list[Intrinsics]
    poses: list[Pose]  # world-to-camera, one per frame
    depths: list[DepthMap]
    dynamic_labels: np.ndarray  # (T, H, W) bool
    objects: list[SceneObject]
    background: HeightField
    tracks: TrackSet = field(default=None)  # type: ignore[assignment]
    # raycast caches: world hit points, surface ids (-1 bg, k>=0 object, miss invalid)
    hit_world: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    hit_id: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    hit_valid: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def frame_count(self) -> int:
        return len(self.poses)

    @property
    def resolution(self) -> tuple[int, int]:
        return self.config.height, self.config.width


def _look_at(eye: np.ndarray, target: np.ndarray) -> Pose:
    fwd = target - eye
    n = np.linalg.norm(fwd)
    if not n > 1e-9:
        raise ValueError("camera eye and target coincide")
    zc = fwd / n
    up = np.array([0.0, 1.0, 0.0])
    xc = np.cross(up, zc)
    xn = np.linalg.norm(xc)
    if xn < 1e-9:
        raise ValueError("camera looking along the up axis")
    xc /= xn
    yc = np.cross(zc, xc)
    r_c2w = np.stack([xc, yc, zc], axis=1)
    return Pose(r_c2w.T, -r_c2w.T @ eye)


def _camera_path(cfg: SceneConfig, rng: np.random.Generator) -> list[Pose]:
    t_idx = np.arange(cfg.frame_count, dtype=np.float64) - (cfg.frame_count - 1) / 2.0
    dist = 4.0
    target = np.array([0.0, 0.0, 0.0]) + rng.uniform(-0.1, 0.1, size=3) * np.array([1, 1, 0])
    poses = []
    if cfg.camera_path == "orbit":
        theta0 = rng.uniform(-0.05, 0.05)
        y0 = rng.uniform(-0.2, 0.2)
        for ti in t_idx:
            th = theta0 + ti * cfg.camera_magnitude
            eye = np.array([dist * np.sin(th), y0, -dist * np.cos(th)])
            poses.append(_look_at(eye, target))
    elif cfg.camera_path == "linear":
        x0 = rng.uniform(-0.2, 0.2)
        y0 = rng.uniform(-0.2, 0.2)
        for ti in t_idx:
            eye = np.array([x0 + ti * cfg.camera_magnitude, y0, -dist])
            poses.append(_look_at(eye, target))
    else:  # random-smooth: sum of two low-frequency sinusoids per axis
        base = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), -dist])
        amps = cfg.camera_magnitude * rng.uniform(0.3, 1.0, size=(2, 3))
        omegas = rng.uniform(0.3, 0.8, size=(2, 3))
        phis = rng.uniform(0.0, 2 * np.pi, size=(2, 3))
        for ti in t_idx:
            wob = (amps * np.sin(omegas * ti + phis)).sum(axis=0)
            poses.append(_look_at(base + wob, target))
    return poses


def _sample_background(rng: np.random.Generator) -> HeightField:
    k = 3
    amps = rng.uniform(0.04, 0.1, size=k)
    freqs = rng.uniform(0.3, 0.9, size=(k, 2)) * rng.choice([-1.0, 1.0], size=(k, 2))
    phases = rng.uniform(0.0, 2 * np.pi, size=k)
    # enforce the slope bound that makes raycast brackets monotone
    slope = float((np.abs(amps) * np.linalg.norm(freqs, axis=1)).sum())
    if slope > _SLOPE_BOUND:
        amps *= _SLOPE_BOUND / slope
    return HeightField(base=0.0, amps=amps, freqs=freqs, phases=phases)


def _sample_objects(cfg: SceneConfig, rng: np.random.Generator) -> list[SceneObject]:
    objects = []
    for _ in range(cfg.object_count):
        kind = "sphere" if rng.uniform() < 0.5 else "box"
        center = np.array(
            [rng.uniform(-0.9, 0.9), rng.uniform(-0.7, 0.7), rng.uniform(-1.6, -0.6)]
        )
        if kind == "sphere":
            size = np.array([rng.uniform(0.22, 0.45)])
        else:
            size = rng.uniform(0.18, 0.4, size=3)
        if cfg.motion_magnitude > 0:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            velocity = cfg.motion_magnitude * d
        else:
            velocity = np.zeros(3)
        objects.append(SceneObject(kind, center, size, velocity))
    return objects


def _nearest_surface(
    seq_objects: list[SceneObject],
    backdrop: tuple[np.ndarray, np.ndarray],
    origins: np.ndarray,
    dirs: np.ndarray,
    frame: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest surface along each ray, (t, surface_id, hit), given the rays'
    backdrop crossing (t, ok) from HeightField.intersect."""
    t_best, hit_best = backdrop
    t_best = np.where(hit_best, t_best, np.inf)
    id_best = np.where(hit_best, -1, -2)
    for k, obj in enumerate(seq_objects):
        t_k, hit_k = obj.intersect(origins, dirs, frame)
        closer = hit_k & (t_k < t_best)
        t_best = np.where(closer, t_k, t_best)
        id_best = np.where(closer, k, id_best)
    hit = id_best > -2
    return np.where(hit, t_best, 0.0), id_best, hit


def raycast_pixels(
    seq: SceneSequence, frame: int, pix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raycast arbitrary (possibly fractional) pixels at a frame.

    pix must be (N, 2) and finite. Returns (points_cam (N, 3), surface_id (N,),
    hit (N,)). The ray parameter is camera depth, so points_cam = depth *
    pixel_rays(k, pix).
    """
    check_frame(seq, frame)
    pix = np.asarray(pix, dtype=np.float64)
    if pix.ndim != 2 or pix.shape[1] != 2:
        raise ValueError(f"pixels must be (N, 2), got shape {pix.shape}")
    if not np.all(np.isfinite(pix)):
        raise ValueError("pixels must be finite")
    d_cam = pixel_rays(seq.intrinsics[frame], pix)
    pose = seq.poses[frame]
    dirs = d_cam @ pose.rotation
    backdrop = seq.background.intersect(pose.center[None], dirs, [len(dirs)])
    origins = np.broadcast_to(pose.center, dirs.shape)
    t, sid, hit = _nearest_surface(seq.objects, backdrop, origins, dirs, frame)
    pts = np.where(hit[:, None], t[:, None] * d_cam, 0.0)
    return pts, sid, hit


def _visible_from(seq: SceneSequence, groups) -> list[np.ndarray]:
    """For each (frame, world points (..., 3)) group: True where a point is the
    first surface hit from the frame's camera. The backdrop is bisected once
    for every group's rays; the objects are hit per group, at its frame."""
    rays = []
    for frame, world_pts in groups:
        o = seq.poses[frame].center
        delta = world_pts - o
        dist = np.linalg.norm(delta, axis=-1)
        ok = dist > _RAY_TMIN
        safe = np.where(ok[..., None], delta, np.array([0.0, 0.0, 1.0]))
        dirs = (safe / np.maximum(dist, _RAY_TMIN)[..., None]).reshape(-1, 3)
        # the ray re-hits the queried surface at t == dist unless something is
        # in front, so the point is visible when some surface is hit and none
        # before thr
        rays.append((frame, o, dirs, dist.ravel() - _OCCLUSION_TOL, ok))
    if not rays:
        return []
    _, centers, group_dirs, thrs, _ = zip(*rays)
    clear, hit = seq.background.crossing_beyond(
        np.array(centers), np.concatenate(group_dirs), np.concatenate(thrs),
        [len(d) for d in group_dirs],
    )
    clear |= ~hit
    visible, a = [], 0
    for frame, o, dirs, thr, ok in rays:
        b = a + len(dirs)
        origins = np.broadcast_to(o, dirs.shape)
        hit_g, clear_g = hit[a:b], clear[a:b]
        for obj in seq.objects:
            t_k, hit_k = obj.intersect(origins, dirs, frame)
            hit_g = hit_g | hit_k
            clear_g = clear_g & (~hit_k | (t_k >= thr))
        visible.append(ok & (hit_g & clear_g).reshape(ok.shape))
        a = b
    return visible


def _in_bounds(pix: np.ndarray, height: int, width: int) -> np.ndarray:
    # open pixel-extent rectangle: a point is in view if its projection falls
    # strictly inside the image footprint
    x, y = pix[..., 0], pix[..., 1]
    return (x > -0.5) & (x < width - 0.5) & (y > -0.5) & (y < height - 0.5)


def _observe(seq: SceneSequence, groups) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each (frame, world points (..., 3)) group seen from its frame:
    (camera points, pixels, visible).

    visible: in front of the camera, projecting inside the image, and the first
    surface along the camera ray at that frame. All groups share one
    visibility call.
    """
    h, w = seq.resolution
    seen = []
    for (frame, world), clear in zip(groups, _visible_from(seq, groups)):
        cam = seq.poses[frame].apply(world)
        pix, in_front = project_points(cam, seq.intrinsics[frame])
        seen.append((cam, pix, in_front & _in_bounds(pix, h, w) & clear))
    return seen


def _velocities(seq: SceneSequence, surface_ids: np.ndarray) -> np.ndarray:
    """World velocity (..., 3) per surface id; zero for the backdrop (-1) and misses (-2)."""
    # the zero row is last, so clamping every negative id to -1 selects it
    table = np.array([o.velocity for o in seq.objects] + [np.zeros(3)])
    return table[np.maximum(surface_ids, -1)]


def check_frame(seq: SceneSequence, frame: int):
    """Raise ValueError unless frame is an integer (not a bool) frame index of seq."""
    if isinstance(frame, bool) or not isinstance(frame, (int, np.integer)):
        raise ValueError("frame index must be an integer")
    if frame < 0 or frame >= seq.frame_count:
        raise ValueError(f"frame index {frame} out of range [0, {seq.frame_count})")


def generate_scene(config: SceneConfig) -> SceneSequence:
    """Build a fully deterministic scene sequence from a config.

    The same config always produces the bitwise-identical sequence (the RNG is
    counter-based and every op is plain numpy).
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    background = _sample_background(rng)
    objects = _sample_objects(config, rng)
    poses = _camera_path(config, rng)
    return assemble_scene(config, background, objects, poses, rng)


def assemble_scene(
    config: SceneConfig,
    background: HeightField,
    objects: list[SceneObject],
    poses: list[Pose],
    rng: np.random.Generator | None = None,
) -> SceneSequence:
    """Render a sequence from explicit components (for scenes with pinned
    objects or trajectories); generate_scene is the sampled front door.

    rng only drives track-query sampling; None derives one from config.seed.
    """
    if len(poses) != config.frame_count:
        raise ValueError("pose count must match frame_count")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(config.seed))

    zmin, _ = background.z_bounds
    for p in poses:
        if p.center[2] > zmin - 0.5:
            raise ValueError("camera path runs into the scene volume; lower camera_magnitude")

    h, w = config.height, config.width
    f = 1.25 * max(h, w)
    k = Intrinsics(fx=f, fy=f, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)
    intrinsics = [k] * config.frame_count

    hit_world = np.zeros((config.frame_count, h, w, 3))
    hit_id = np.full((config.frame_count, h, w), -2, dtype=np.int32)
    hit_valid = np.zeros((config.frame_count, h, w), dtype=bool)
    depths = []
    # one backdrop bisection for every frame's rays; objects hit per frame
    d_cam = pixel_rays(k, pixel_grid(h, w).reshape(-1, 2))
    all_dirs = np.concatenate([d_cam @ pose.rotation for pose in poses])
    centers = np.array([pose.center for pose in poses])
    t_bg, ok_bg = background.intersect(centers, all_dirs, [h * w] * config.frame_count)
    for t in range(config.frame_count):
        f = slice(t * h * w, (t + 1) * h * w)
        dirs = all_dirs[f]
        origins = np.broadcast_to(centers[t], dirs.shape)
        tpar, sid, hit = _nearest_surface(objects, (t_bg[f], ok_bg[f]), origins, dirs, t)
        hit = hit.reshape(h, w)
        depths.append(DepthMap(np.where(hit, tpar.reshape(h, w), 0.0), hit))
        world = (origins + tpar[:, None] * dirs).reshape(h, w, 3)
        hit_world[t] = np.where(hit[..., None], world, 0.0)
        hit_id[t] = sid.reshape(h, w)
        hit_valid[t] = hit

    # the trailing False serves the backdrop and misses, whose ids clamp to -1
    dynamic = np.array([o.dynamic for o in objects] + [False])
    seq = SceneSequence(
        config=config,
        intrinsics=intrinsics,
        poses=poses,
        depths=depths,
        dynamic_labels=dynamic[np.maximum(hit_id, -1)],
        objects=objects,
        background=background,
        hit_world=hit_world,
        hit_id=hit_id,
        hit_valid=hit_valid,
    )

    q = min(config.track_count, int(hit_valid[0].sum()))
    flat = np.flatnonzero(hit_valid[0].ravel())
    chosen = rng.choice(flat, size=q, replace=False)
    qy, qx = np.unravel_index(np.sort(chosen), (h, w))
    seq.tracks = build_tracks(seq, np.zeros(q, dtype=np.int64), np.stack([qx, qy], axis=1))
    return seq


def build_tracks(seq: SceneSequence, query_frames: np.ndarray, query_pixels: np.ndarray) -> TrackSet:
    """Analytic 3D tracks for integer query pixels.

    Raises ValueError if a query pixel is not a whole pixel of the image
    (geometry.pixel_indices), a query frame is not a frame index, or a query
    pixel hits no surface at its query frame.
    """
    qp = pixel_indices(query_pixels, *seq.resolution)
    qf = np.asarray(query_frames)
    if qf.shape != (qp.shape[0],):
        raise ValueError("queries must be (Q,) frames and (Q, 2) pixels")
    for f0, (x, y) in zip(qf.tolist(), qp.tolist()):
        check_frame(seq, f0)
        if not seq.hit_valid[f0, y, x]:
            raise ValueError(f"query pixel ({x}, {y}) hits no surface at frame {f0}")
    qf = qf.astype(np.int64)

    qx, qy = qp[:, 0], qp[:, 1]
    spans = np.arange(seq.frame_count, dtype=np.float64)[None, :] - qf[:, None]  # (Q, T)
    vel = _velocities(seq, seq.hit_id[qf, qy, qx])
    world = seq.hit_world[qf, qy, qx][:, None, :] + spans[..., None] * vel[:, None, :]
    seen = _observe(seq, [(t, world[:, t, :]) for t in range(seq.frame_count)])
    camera, pixels, visible = (np.stack(a, axis=1) for a in zip(*seen))
    pixels = np.where(visible[..., None], pixels, 0.0)
    return TrackSet(qf, qp, world, camera, pixels, visible)


def gt_pointmap_matching(seq: SceneSequence, i: int, j: int) -> Pointmap:
    """Ground-truth matching pointmap: frame j's pixels located in frame i's camera.

    Cell (x, y) holds the frame-i camera coordinates of the scene point seen at
    frame j's pixel (x, y), after that point moved with its object. Pixels whose
    point is occluded or out of view at frame i are invalid.
    """
    return next(gt_pointmap_matchings(seq, [(i, j)]))


def gt_pointmap_matchings(seq: SceneSequence, pairs) -> Iterator[Pointmap]:
    """gt_pointmap_matching of each (i, j) in pairs, in order and bit-identical.

    The maps render in batches of at most _CORES * _MAX_CHUNK_RAYS rays (one
    pair where a pair alone is larger), one visibility call whose chunks fill
    the cores per batch, each when its first map is asked for.
    """
    pairs = list(pairs)
    for i, j in pairs:
        check_frame(seq, i)
        check_frame(seq, j)
    h, w = seq.resolution
    step = max(1, _CORES * _MAX_CHUNK_RAYS // (h * w))
    return (pm for b in range(0, len(pairs), step) for pm in _matchings(seq, pairs[b:b + step]))


def _matchings(seq: SceneSequence, pairs) -> list[Pointmap]:
    """The matching maps of pairs, from one visibility call."""
    groups = [(i, seq.hit_world[j] + float(i - j) * _velocities(seq, seq.hit_id[j]))
              for i, j in pairs]
    return [Pointmap(cam, seq.hit_valid[j] & visible)
            for (cam, _, visible), (_, j) in zip(_observe(seq, groups), pairs)]


def gt_rigid_pointmap(seq: SceneSequence, i: int, j: int) -> Pointmap:
    """Static-world transport of frame j's pointmap into frame i's camera.

    Every scene point is treated as static, and no visibility filtering is
    applied: validity is frame j's own. Dynamic pixels therefore disagree with
    gt_pointmap_matching by exactly the object displacement.
    """
    check_frame(seq, i)
    check_frame(seq, j)
    return Pointmap(seq.poses[i].apply(seq.hit_world[j]), seq.hit_valid[j])


def dynamic_pixel_fraction(seq: SceneSequence) -> float:
    """Fraction of valid pixels on moving objects, over all frames."""
    tot = int(seq.hit_valid.sum())
    if tot == 0:
        raise EmptyDomainError("scene has no valid pixels")
    return float(seq.dynamic_labels[seq.hit_valid].sum()) / tot
