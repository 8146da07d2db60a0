"""Synthetic dynamic scenes with analytic ground truth.

A scene is a sinusoidal height-field backdrop plus a few convex rigid objects
(spheres, axis-aligned boxes) moving with constant world velocity, observed by
a smooth camera path. Everything is raycast analytically, so depth maps,
cross-time correspondences, occlusion and tracks come out in closed form
instead of from a mesh rasterizer.

Design notes that matter for exactness:
  - ray directions are z-normalized in the camera frame, so the ray parameter
    equals camera depth;
  - every raycast, of the backdrop or of an object (at each group's frame),
    takes G camera centers (G, 3) and a (G, N, 3) block of rays, N from each
    center, and returns (G, N) results; a chunk of rays reads its origins
    from the centers, so only one chunk at a time holds a row per ray for
    them;
  - every ground-truth observation runs through one kernel, _observe: a
    (G, ..., 3) stack of world points, group g seen from frame frames[g] ->
    camera points, pixels and visibility (in view and the first surface
    along the camera ray). The matching map feeds it W_j + span * v, the
    tracks feed it each query's W_q + span * v, so a track and the matching
    map agree wherever they see the same point. One call raycasts the
    backdrop and each object once for all its groups' rays (build_tracks
    renders every frame, gt_pointmap_matching a group of one);
  - the rigid map is P_i(W_j). Static pixels have v = 0, so W_j + span * v
    is W_j bit for bit there and the two maps' residuals are exactly zero;
  - a depth raycast (HeightField.intersect) bisects the backdrop until no
    valid ray's bracket moves, a fixed point no longer run can change. A
    visibility query (HeightField.crossing_beyond) needs only the side of
    its threshold dist - _OCCLUSION_TOL that fixed point lies on. It reads
    that side from the sign of one height evaluation at the threshold,
    wherever the field's slope bound makes the crossing unique along the ray
    and the value clears three times a bound on its rounding error (the
    proof is in its docstring), and bisects only the rays this leaves
    undecided, to that fixed point. Visibility is the boolean a full
    refinement gives, for one evaluation per ray instead of about twenty;
  - assemble_scene bisects the backdrop once per scene, for every frame's
    pixel rays together; objects are hit one frame at a time.
    scene_from_depths verifies stored depths instead: one height evaluation
    at each backdrop pixel's depth proves it within its margin, by the
    field's slope bound and the same error bound (_verified_ids), and
    crossing_beyond decides the rest;
  - a depth raycast is split into contiguous chunks: one per core the
    process may run on once each gets at least _MIN_CHUNK_RAYS rays, and more
    where a chunk would exceed _MAX_CHUNK_RAYS, so a whole scene's rays become
    bounded pieces spread over the cores. The chunks run on a thread pool that
    lives for the one call, and are joined in ray order; a visibility query
    runs in the calling thread, since the certified test leaves it one
    evaluation per ray. Chunking is exact on every valid ray: its answer
    depends only on that ray, since the certified test is elementwise and the
    stop rule is per ray (a bracket that stops moving is a fixed point), so a
    chunk that stops before the others, or holds rays of other frames or
    groups, returns the same values. The one step that is not elementwise is
    height's two small matrix products; BLAS gives each row the same value in
    any call of two or more rows, but a one-row call takes another path that
    can differ in the last bit, so both chunk bounds keep every chunk far
    above one row, and a visibility query bisects a lone undecided ray as two
    rows. The certified test's bound holds on either path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import check_finite
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
# the relative margin of crossing_beyond's certificates: 2^13 unit roundoffs,
# over 800 times the rounding error its docstring derives
_SIGN_TOL = 2.0**-40
# scene_from_depths accepts a depth d within _DEPTH_TOL (1 + |d|) of its
# surface: far above 3E (1.5e-10 on a 96x128 scene), so one evaluation at d
# certifies a backdrop depth (_verified_ids), and far below what a changed
# low mantissa word of a float64 depth moves it (6e-7)
_DEPTH_TOL = 1e-9
# a bisection splits into chunks of at least this many rays, one per core;
# smaller chunks lose more to the interpreter lock than the second core gains
_MIN_CHUNK_RAYS = 4096
# and into more where one would exceed this many rays, which bounds the
# memory a whole scene's call holds at once; on a 96x128x12 scene this was as
# fast as 16,384 or two chunks, with less memory (>= 2 * _MIN_CHUNK_RAYS)
_MAX_CHUNK_RAYS = 8192
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_CAMERA_PATHS = ("orbit", "linear", "random-smooth")
# the largest motion_magnitude and camera_magnitude a scene accepts; far
# beyond any sensible scene (the camera sits 4 units from the target), and far
# below the magnitudes at which a stored camera center no longer round-trips
# to 1e-9 (millions) or the raycast's squares overflow (1e154)
_MAX_MAGNITUDE = 1e3


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.height < 4 or self.width < 4:
            raise ValueError("resolution must be at least 4x4")
        if self.object_count < 0:
            raise ValueError("object_count must be >= 0")
        for name in ("motion_magnitude", "camera_magnitude"):
            if not 0 <= getattr(self, name) <= _MAX_MAGNITUDE:
                raise ValueError(f"{name} must be in [0, {_MAX_MAGNITUDE:g}]")
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
        self, centers: np.ndarray, dirs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First crossing along each ray: (t, ok), each (G, N); dirs need not
        be normalized.

        centers (G, 3) holds one origin per group of rays, dirs (G, N, 3) the
        N rays each casts (a camera center and its rays).

        Assumes centers lie below the surface band (z < zmin) and rays point
        toward +z steeply enough that the crossing is unique; callers enforce
        that through the camera-path contract. Bisection (_bisect_chunk) stops
        once no valid ray's bracket moves: a bracket that stops moving is a
        fixed point, so t equals what any longer run would return.

        The G x N rays, in row-major order, are split into contiguous chunks,
        one per core when each gets at least _MIN_CHUNK_RAYS rays and more
        where one would exceed _MAX_CHUNK_RAYS. Two or more chunks run on a
        thread pool that is shut down before the call returns; wherever ok,
        the result equals one serial call's (see the module note). A chunk's
        origins are its rays' centers, centers[ray // N].
        """
        g, n = dirs.shape[:2]
        flat = dirs.reshape(-1, 3)

        def chunk(a, b):
            return self._bisect_chunk(centers[np.arange(a, b) // n], flat[a:b])

        rays = g * n
        k = max(1, min(_CORES, rays // _MIN_CHUNK_RAYS), -(-rays // _MAX_CHUNK_RAYS))
        if k == 1:
            t, ok = chunk(0, rays)
            return t.reshape(g, n), ok.reshape(g, n)
        edges = [c * rays // k for c in range(k + 1)]
        with ThreadPoolExecutor(max_workers=_CORES) as pool:
            t, ok = zip(*pool.map(chunk, edges[:-1], edges[1:]))
        return np.concatenate(t).reshape(g, n), np.concatenate(ok).reshape(g, n)

    def crossing_beyond(
        self, centers: np.ndarray, dirs: np.ndarray, thr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whether each ray's first crossing t satisfies t >= thr (G, N):
        (beyond, ok), each (G, N); beyond is meaningful only where ok.

        Same crossing, rays and contract as intersect, and the boolean
        intersect's t >= thr gives, mostly from one evaluation per ray. With
        [lo0, hi0] a ray's initial bracket, a ray with thr <= lo0 is beyond
        and one with thr > hi0 is not. Any other valid ray is decided by one
        float evaluation of g(t) = p_z - height(p_xy), p = o + t d, as
        beyond = g(thr) < 0, when two certificates hold:
          (a) d_z - s |d_xy| > 2^-40 (d_z + s |d_xy|) and lo0 > 0, with
              s = sum_k |a_k| |f_k| this field's slope bound: |grad height|
              <= s, so the exact G(t) = o_z + t d_z - height(o_xy + t d_xy)
              is nondecreasing (the margin covers the test's own rounding),
              and the origin lies below the band, as the proof's lo = lo0
              case needs;
          (b) |g(thr)| > 3E, E = 2^-40 P S (below) >= |g(t) - G(t)| for all t
              in [0, hi0] and any order of BLAS's sums.
        The rays these leave undecided run intersect's bisection
        (_bisect_chunk) on their own, in a call of at least two rows like
        its chunks, and read hi >= thr. A visible point's threshold
        lies _OCCLUSION_TOL before its crossing, so |g(thr)| is near 1e-6
        there, far above 3E (about 1e-10 on the sampled scenes): only
        grazing rays are left.

        Why the sign is the bisection's answer. The bisection keeps lo0 <= lo
        <= hi <= hi0, raises lo only to a midpoint m with g(m) < 0, lowers hi
        only to one with g(m) >= 0, and stops once its bracket stops moving,
        whose ends are then equal or adjacent floats (so with lo < thr <= hi,
        thr == hi); the answer is hi >= thr.
          - g(thr) < -3E: G(thr) < -2E, so every m <= thr has G(m) < -2E by
            (a) and g(m) < -E: hi never falls to thr or below, and the
            answer is True.
          - g(thr) > 3E: G(thr) > 2E, so every m >= thr has g(m) > E and lo
            stays below thr: the answer is False unless the still bracket
            has lo one float below thr == hi. There G(lo) < E: either
            g(lo) < 0, or lo = lo0, the float of the t where p_z = zmin <=
            height, so G(lo0) <= 4u P S. And G(thr) - G(lo) <= (d_z + s
            |d_xy|) (thr - lo) <= 2u hi0 |d|_1 S <= 2u P S < E, so G(thr) <
            2E: a contradiction.
        The bound, with u = 2^-53 and the standard model (each operation
        exact to a relative u, a K-term sum to K u of its terms' magnitudes,
        np.sin to 8u absolute): for t in [0, hi0], P = 1 + |o|_1 + hi0 |d|_1
        bounds 1 + |p|_1, and S = 1 + |base| + A (1 + K + sum |f| + sum
        |phi|), A = sum |a_k|. The point's rounding (2u P over its
        coordinates) moves p_z and, through s, the height; each sine's
        argument carries 3u (|f_k|_1 P + |phi_k|) and np.sin 8u, weighted
        by |a_k|; the amplitude sum adds K u A, the base and the subtraction
        u (P + |base| + A). Together |g(t) - G(t)| <= 10u P S, and E is over
        800 times that.
        """
        n = dirs.shape[1]
        origins = centers[:, None]
        lo, hi, ok = self._bracket(origins, dirs)
        beyond = thr <= lo
        open_ = ok & (lo < thr) & (thr <= hi)
        g = self._excess(origins, dirs, np.where(open_, thr, lo))
        _, rising = self._rise(dirs, lo)
        sure = open_ & rising & (np.abs(g) > 3.0 * self._sign_error(origins, dirs, hi))
        beyond[sure] = g[sure] < 0
        rest = np.flatnonzero(open_ & ~sure)
        if len(rest):
            # a one-row matmul takes another BLAS path than intersect's chunks
            pick = np.repeat(rest, 2) if len(rest) == 1 else rest
            hi_rest, _ = self._bisect_chunk(centers[pick // n], dirs.reshape(-1, 3)[pick])
            beyond.flat[pick] = hi_rest >= thr.flat[pick]
        return beyond, ok

    def _bracket(self, origins, dirs):
        """Each ray's initial bracket and validity, (lo, hi, ok), of dirs'
        shape without its last axis; origins broadcast against dirs. hi is
        lo + 1 where not ok."""
        zmin, zmax = self.z_bounds
        oz, dz = origins[..., 2], dirs[..., 2]
        ok = dz > _MIN_DZ
        safe_dz = np.where(ok, dz, 1.0)
        lo = np.maximum((zmin - oz) / safe_dz, 0.0)
        hi = (zmax - oz) / safe_dz
        ok &= hi > 0
        return lo, np.where(ok, hi, lo + 1.0), ok

    def _rise(self, dirs, lo):
        """crossing_beyond's certificate (a) per ray, (m, rising): m = d_z -
        s |d_xy| in float, the bound on dG/dt, and rising where m clears its
        margin and the bracket's lo is above 0."""
        run = self.slope * np.hypot(dirs[..., 0], dirs[..., 1])
        m = dirs[..., 2] - run
        return m, (m > _SIGN_TOL * (dirs[..., 2] + run)) & (lo > 0)

    def _excess(self, origins, dirs, t):
        """g(t) = p_z - height(p_xy) at p = origins + t * dirs, of t's shape;
        negative below the surface. height's matrix products take the points
        as one block of rows, as a bisection chunk does."""
        p = (origins + t[..., None] * dirs).reshape(-1, 3)
        return (p[:, 2] - self.height(p[:, :2])).reshape(t.shape)

    def _bisect_chunk(self, origins, dirs):
        """(hi, ok) of the bisection, which stops once no valid ray's bracket
        moves; hi is meaningful only where ok."""
        lo, hi, ok = self._bracket(origins, dirs)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            below = self._excess(origins, dirs, mid) < 0
            active = ok & np.where(below, mid != lo, mid != hi)
            if not active.any():
                break
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return hi, ok

    @property
    def slope(self) -> float:
        """sum_k |a_k| |f_k|, a bound on |grad height|."""
        return float((np.abs(self.amps) * np.linalg.norm(self.freqs, axis=1)).sum())

    def _sign_error(self, origins, dirs, hi):
        """crossing_beyond's E: a bound on |g(t) - G(t)| for t in [0, hi];
        origins broadcast against dirs. Any order of P's sums is within E's
        margin."""
        a = float(np.abs(self.amps).sum())
        shape = 1.0 + abs(self.base) + a * (
            1 + len(self.amps) + np.abs(self.freqs).sum() + np.abs(self.phases).sum())
        dirs_l1 = np.abs(dirs[..., 0]) + np.abs(dirs[..., 1]) + np.abs(dirs[..., 2])
        reach = 1.0 + np.abs(origins).sum(axis=-1) + hi * dirs_l1
        return _SIGN_TOL * shape * reach


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

    def intersect(
        self, centers: np.ndarray, dirs: np.ndarray, frames
    ) -> tuple[np.ndarray, np.ndarray]:
        """First hit (t, hit), each (G, N), of each group's rays dirs (G, N,
        3) from its camera center centers (G, 3) on the object at frames[g];
        the terms of one origin are taken once and broadcast over its rays."""
        c = self.center + np.asarray(frames)[:, None] * self.velocity
        if self.kind == "sphere":
            r = float(self.size[0])
            oc = centers - c
            a = np.einsum("gni,gni->gn", dirs, dirs)
            b = 2.0 * np.einsum("gi,gni->gn", oc, dirs)
            cc = np.einsum("gi,gi->g", oc, oc) - r * r
            disc = b * b - 4.0 * a * cc[:, None]
            hit = disc > 0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            t = (-b - sq) / (2.0 * a)
            return t, hit & (t > _RAY_TMIN)
        lo, hi = c - self.size, c + self.size
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - centers)[:, None] / dirs
            t2 = (hi - centers)[:, None] / dirs
        # a NaN slab (0 / 0: the center on a slab plane, the ray parallel to
        # it) bounds nothing; fmax / fmin skip it, as a nanmax would
        near, far = np.minimum(t1, t2), np.maximum(t1, t2)
        tn = np.fmax(np.fmax(near[..., 0], near[..., 1]), near[..., 2])
        tf = np.fmin(np.fmin(far[..., 0], far[..., 1]), far[..., 2])
        hit = (tn <= tf) & (tn > _RAY_TMIN)
        return tn, hit


@dataclass
class TrackSet:
    """Ground-truth 3D tracks for a set of query pixels.

    query_frames: (Q,) zeros, the frame every query is issued at.
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
    # raycast cache: surface ids (-1 bg, k>=0 object, -2 miss, which is
    # invalid in depths); a frame's world hit points are world_points, from
    # its depth and pose
    hit_id: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

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
    field = HeightField(base=0.0, amps=amps, freqs=freqs, phases=phases)
    # enforce the slope bound that makes raycast brackets monotone
    slope = field.slope
    if slope > _SLOPE_BOUND:
        amps *= _SLOPE_BOUND / slope
    return field


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
    centers: np.ndarray,
    dirs: np.ndarray,
    frames,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest surface along each group's rays dirs (G, N, 3) from its camera
    center centers (G, 3) at its frame frames[g], (t, surface_id, hit), each
    (G, N), given the rays' backdrop crossing (t, ok) from
    HeightField.intersect."""
    t_best, hit_best = backdrop
    t_best = np.where(hit_best, t_best, np.inf)
    id_best = np.where(hit_best, -1, -2)
    for k, obj in enumerate(seq_objects):
        t_k, hit_k = obj.intersect(centers, dirs, frames)
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
    centers, dirs = pose.center[None], (d_cam @ pose.rotation)[None]
    [t], [sid], [hit] = _nearest_surface(seq.objects, seq.background.intersect(centers, dirs),
                                         centers, dirs, [frame])
    pts = np.where(hit[:, None], t[:, None] * d_cam, 0.0)
    return pts, sid, hit


def _visible_from(seq: SceneSequence, frames, world: np.ndarray) -> np.ndarray:
    """(G, ...) bool: True where a point of world (G, ..., 3) is the first
    surface hit from its group's frame's camera, frames[g]. The backdrop and
    each object are raycast once for every group's rays."""
    centers = np.array([seq.poses[f].center for f in frames])
    delta = world.reshape(len(centers), -1, 3) - centers[:, None]
    dist = np.linalg.norm(delta, axis=-1)
    ok = dist > _RAY_TMIN
    safe = np.where(ok[..., None], delta, np.array([0.0, 0.0, 1.0]))
    dirs = safe / np.maximum(dist, _RAY_TMIN)[..., None]
    # the ray re-hits the queried surface at t == dist unless something is in
    # front, so the point is visible when some surface is hit and none before thr
    thr = dist - _OCCLUSION_TOL
    clear, hit = seq.background.crossing_beyond(centers, dirs, thr)
    clear |= ~hit
    for obj in seq.objects:
        t_k, hit_k = obj.intersect(centers, dirs, frames)
        hit |= hit_k
        clear &= ~hit_k | (t_k >= thr)
    return (ok & hit & clear).reshape(world.shape[:-1])


def _in_bounds(pix: np.ndarray, height: int, width: int) -> np.ndarray:
    # open pixel-extent rectangle: a point is in view if its projection falls
    # strictly inside the image footprint
    x, y = pix[..., 0], pix[..., 1]
    return (x > -0.5) & (x < width - 0.5) & (y > -0.5) & (y < height - 0.5)


def _observe(
    seq: SceneSequence, frames, world: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World points (G, ..., 3), group g seen from frame frames[g] (a
    sequence of G frames): camera points (G, ..., 3), pixels (G, ..., 2) and
    visible (G, ...).

    visible: in front of the camera, projecting inside the image, and the first
    surface along the camera ray at that frame. All groups share one
    visibility call.
    """
    h, w = seq.resolution
    cam = np.stack([seq.poses[f].apply(x) for f, x in zip(frames, world)])
    seen = [project_points(c, seq.intrinsics[f]) for f, c in zip(frames, cam)]
    pix, in_front = (np.stack(a) for a in zip(*seen))
    return cam, pix, in_front & _in_bounds(pix, h, w) & _visible_from(seq, frames, world)


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


def _sample_scene(config: SceneConfig):
    """A config's backdrop, objects and camera path, and the RNG that then
    draws its track queries."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    background = _sample_background(rng)
    objects = _sample_objects(config, rng)
    return background, objects, _camera_path(config, rng), rng


def generate_scene(config: SceneConfig) -> SceneSequence:
    """Build a fully deterministic scene sequence from a config.

    The same config always produces the bitwise-identical sequence (the RNG is
    counter-based and every op is plain numpy).
    """
    return assemble_scene(config, *_sample_scene(config))


def assemble_scene(
    config: SceneConfig,
    background: HeightField,
    objects: list[SceneObject],
    poses: list[Pose],
    rng: np.random.Generator,
) -> SceneSequence:
    """Render a sequence from explicit components (for scenes with pinned
    objects or trajectories); generate_scene is the sampled front door.

    rng only drives track-query sampling.
    """
    k = _intrinsics(config, background, poses)
    h, w = config.height, config.width
    hit_id = np.full((config.frame_count, h, w), -2, dtype=np.int32)
    depths = []
    # one backdrop bisection for every frame's rays; objects are hit one
    # frame at a time, so a box's (G, N, 3) temporaries hold one frame
    all_dirs = np.stack([_frame_rays(k, pose, h, w) for pose in poses])
    centers = np.array([pose.center for pose in poses])
    t_bg, ok_bg = background.intersect(centers, all_dirs)
    for t in range(config.frame_count):
        [tpar], [sid], _ = _nearest_surface(objects, (t_bg[t:t + 1], ok_bg[t:t + 1]),
                                            centers[t:t + 1], all_dirs[t:t + 1], [t])
        depths.append(tpar.reshape(h, w))
        hit_id[t] = sid.reshape(h, w)
    return _sequence(config, k, background, objects, poses, depths, hit_id, rng)


def scene_from_depths(config: SceneConfig, depths) -> SceneSequence:
    """generate_scene(config) with depths (T maps of (H, W)) as its depth
    maps, once every pixel's depth d is verified, one frame at a time, to lie
    within delta = _DEPTH_TOL (1 + |d|) of the surface generate_scene reports
    there, and to be 0 exactly where that is a miss (_verified_ids). The
    backdrop is not bisected: a backdrop pixel costs one height evaluation
    at d, and crossing_beyond runs only on the pixels that evaluation cannot
    certify (objects' pixels, tampered depths) and on the objects' pixels'
    backdrop-behind tests. Surface ids, labels and tracks follow from the
    verified depths, so generate_scene's own depths give its scene bit for
    bit. Raises ValueError naming the first frame and pixel that fails.
    """
    background, objects, poses, rng = _sample_scene(config)
    k = _intrinsics(config, background, poses)
    h, w = config.height, config.width
    if len(depths) != config.frame_count or any(np.shape(d) != (h, w) for d in depths):
        raise ValueError(f"depths must be {config.frame_count} maps of {h}x{w}")
    hit_id = np.empty((config.frame_count, h, w), dtype=np.int32)
    for t, pose in enumerate(poses):
        ids = _verified_ids(background, objects, pose.center, _frame_rays(k, pose, h, w),
                            t, np.ravel(depths[t]))
        bad = np.flatnonzero(ids == -3)
        if len(bad):
            y, x = divmod(int(bad[0]), w)
            raise ValueError(f"depth of frame {t} at pixel ({x}, {y}) does not match "
                             "the scene config")
        hit_id[t] = ids.reshape(h, w)
    return _sequence(config, k, background, objects, poses, depths, hit_id, rng)


def _verified_ids(background, objects, center, dirs, frame, depth) -> np.ndarray:
    """Each ray's surface id (N,) as the generator gives it, where depth (N,)
    is within delta of that surface's t (0 on a miss); -3 elsewhere.

    The object hits are the generator's. The backdrop's crossing t_bg enters
    only through whether d - delta <= t_bg < d + delta, and through
    crossing_beyond's exact t_bg >= thr at the next float above the nearest
    object's t. The generator takes the backdrop unless an object's t is
    below t_bg, so d names the nearest object when its t is within delta of d
    and the backdrop is missed or behind it; else, for d != 0, the backdrop,
    when t_bg is within delta of d and no object's t is below d - delta; for
    d = 0, a miss of every surface.

    Whether t_bg is within delta of d takes one height evaluation, g(d), on
    every ray where it can be certified, and crossing_beyond at lo = d -
    delta and hi = d + delta elsewhere, in the same call as the object
    tests. With [lo0, hi0] the ray's initial bracket, E crossing_beyond's
    error bound and m = d_z - s |d_xy| the float of its certificate (a)'s
    bound on dG/dt, the ray is certified within when (a) holds (rising: G is
    nondecreasing with slope at least the exact m, and lo0 > 0), lo0 < lo
    and hi <= hi0, and |g(d)| + 3E < m min(d - lo, hi - d) / 2. Then
    crossing_beyond at lo and at hi gives what this proof reads:
      - lo0 < lo < d < hi <= hi0, so both thresholds are inside the bracket,
        each is decided by crossing_beyond's own proof, and d is in [0, hi0],
        where |g(d) - G(d)| <= E;
      - d - lo and hi - d are exact (Sterbenz: lo and hi are within a factor
        of 2 of d > 0), and the 1/2 covers the rounding of m, of the sum and
        of the product, so the exact m min(d - lo, hi - d) exceeds |g(d)| +
        3E;
      - G(lo) <= G(d) - m (d - lo) <= |g(d)| + E - m (d - lo) < -2E, and
        G(hi) >= G(d) + m (hi - d) >= -|g(d)| - E + m (hi - d) > 2E;
      - these are the premises of the two cases of crossing_beyond's proof:
        G(lo) < -2E gives t_bg >= lo, and G(hi) > 2E gives t_bg < hi.
    A depth the generator gave sits at the bisection's fixed point, so
    |g(d)| is rounding noise, and 3E (under 2e-10 on the sampled scenes) is
    far below m delta / 2 (over 4e-10 (1 + d) there): every such backdrop
    pixel is certified. A depth 2 delta off is not within, so no pixel of it
    is certified, and the two thresholds reject it.
    """
    [t_obj], [id_obj], [on_obj] = _nearest_surface(
        objects, (depth[None], np.zeros((1, len(depth)), bool)), center[None], dirs[None],
        [frame])
    t_obj = np.where(on_obj, t_obj, np.inf)
    margin = _DEPTH_TOL * (1.0 + np.abs(depth))
    lo, hi = depth - margin, depth + margin
    hit, near = depth != 0, (lo <= t_obj) & (t_obj <= hi)
    lo0, hi0, ok = background._bracket(center, dirs)
    m, rising = background._rise(dirs, lo0)
    inside = hit & ok & rising & (lo0 < lo) & (hi <= hi0)
    # evaluate at d only where inside: elsewhere d may be far outside the band
    g = background._excess(center, dirs, np.where(inside, depth, lo0))
    bound = np.abs(g) + 3.0 * background._sign_error(center, dirs, hi0)
    within = inside & (bound < 0.5 * m * np.minimum(depth - lo, hi - depth))
    bg, ob = np.flatnonzero(hit & ~within), np.flatnonzero(near)
    thr = np.concatenate([lo[bg], hi[bg], np.nextafter(t_obj[ob], np.inf)])
    [beyond], _ = background.crossing_beyond(center[None], dirs[np.concatenate([bg, bg, ob])][None],
                                             thr[None])
    within[bg] = beyond[:len(bg)] & ~beyond[len(bg):2 * len(bg)]
    behind = ~ok
    behind[ob] |= beyond[2 * len(bg):]
    is_obj = hit & near & behind
    is_bg = hit & ~is_obj & ok & within & ~(t_obj < lo)
    is_miss = ~hit & ~ok & ~on_obj
    return np.select([is_obj, is_bg, is_miss], [id_obj, -1, -2], -3)


def _intrinsics(config: SceneConfig, background: HeightField, poses: list[Pose]) -> Intrinsics:
    """Every frame's intrinsics, once the poses are checked against config
    and the backdrop."""
    if len(poses) != config.frame_count:
        raise ValueError("pose count must match frame_count")
    zmin, _ = background.z_bounds
    for p in poses:
        if p.center[2] > zmin - 0.5:
            raise ValueError("camera path runs into the scene volume; lower camera_magnitude")
    h, w = config.height, config.width
    f = 1.25 * max(h, w)
    return Intrinsics(fx=f, fy=f, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


def _sequence(config, k, background, objects, poses, depths, hit_id, rng) -> SceneSequence:
    """The sequence of per-frame depths (H, W) and surface ids (T, H, W),
    with its dynamic labels and the tracks of rng's queries."""
    h, w = config.height, config.width
    # the trailing False serves the backdrop and misses, whose ids clamp to -1
    dynamic = np.array([o.dynamic for o in objects] + [False])
    seq = SceneSequence(
        config=config,
        intrinsics=[k] * config.frame_count,
        poses=poses,
        depths=[DepthMap(d, ids > -2) for d, ids in zip(depths, hit_id)],
        dynamic_labels=dynamic[np.maximum(hit_id, -1)],
        objects=objects,
        background=background,
        hit_id=hit_id,
    )
    valid = seq.depths[0].valid
    q = min(config.track_count, int(valid.sum()))
    chosen = rng.choice(np.flatnonzero(valid.ravel()), size=q, replace=False)
    qy, qx = np.unravel_index(np.sort(chosen), (h, w))
    seq.tracks = build_tracks(seq, np.stack([qx, qy], axis=1))
    return seq


def _frame_rays(k: Intrinsics, pose: Pose, h: int, w: int) -> np.ndarray:
    """World directions (h * w, 3) of a frame's pixel rays, in raster order;
    each is z-normalized in the camera, so its parameter is camera depth."""
    return pixel_rays(k, pixel_grid(h, w).reshape(-1, 2)) @ pose.rotation


def world_points(seq: SceneSequence, j: int) -> np.ndarray:
    """Frame j's world hit points (H, W, 3): the camera center plus each
    pixel's depth along its ray, 0 where the pixel hits no surface."""
    check_frame(seq, j)
    h, w = seq.resolution
    dirs = _frame_rays(seq.intrinsics[j], seq.poses[j], h, w).reshape(h, w, 3)
    world = seq.poses[j].center + seq.depths[j].depth[..., None] * dirs
    return np.where(seq.depths[j].valid[..., None], world, 0.0)


def build_tracks(seq: SceneSequence, query_pixels: np.ndarray) -> TrackSet:
    """Analytic 3D tracks for integer query pixels of frame 0.

    Raises ValueError if a query pixel is not a whole pixel of the image
    (geometry.pixel_indices) or hits no surface at frame 0.
    """
    qp = pixel_indices(query_pixels, *seq.resolution)
    qx, qy = qp[:, 0], qp[:, 1]
    missed = ~seq.depths[0].valid[qy, qx]
    if missed.any():
        x, y = qp[missed][0].tolist()
        raise ValueError(f"query pixel ({x}, {y}) hits no surface at frame 0")
    spans = np.arange(seq.frame_count, dtype=np.float64)  # (T,) frames since frame 0
    vel = _velocities(seq, seq.hit_id[0, qy, qx])
    world = world_points(seq, 0)[qy, qx][:, None, :] + spans[None, :, None] * vel[:, None, :]
    seen = _observe(seq, range(seq.frame_count), world.swapaxes(0, 1))
    camera, pixels, visible = (a.swapaxes(0, 1).copy() for a in seen)
    pixels = np.where(visible[..., None], pixels, 0.0)
    return TrackSet(np.zeros(len(qp), np.int64), qp, world, camera, pixels, visible)


def gt_pointmap_matching(seq: SceneSequence, i: int, j: int) -> Pointmap:
    """Ground-truth matching pointmap: frame j's pixels located in frame i's camera.

    Cell (x, y) holds the frame-i camera coordinates of the scene point seen at
    frame j's pixel (x, y), after that point moved with its object. Pixels whose
    point is occluded or out of view at frame i are invalid. Visibility costs
    one backdrop height evaluation per pixel, plus a bisection for the rare
    ray whose sign that evaluation cannot certify (HeightField.crossing_beyond).
    """
    check_frame(seq, i)
    world = world_points(seq, j) + float(i - j) * _velocities(seq, seq.hit_id[j])
    [cam], _, [visible] = _observe(seq, [i], world[None])
    return Pointmap(cam, seq.depths[j].valid & visible)


def gt_rigid_pointmap(seq: SceneSequence, i: int, j: int) -> Pointmap:
    """Static-world transport of frame j's pointmap into frame i's camera.

    Every scene point is treated as static, and no visibility filtering is
    applied: validity is frame j's own. Dynamic pixels therefore disagree with
    gt_pointmap_matching by exactly the object displacement.
    """
    check_frame(seq, i)
    return Pointmap(seq.poses[i].apply(world_points(seq, j)), seq.depths[j].valid)
