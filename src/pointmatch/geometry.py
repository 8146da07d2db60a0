"""Pointmap algebra: pinhole projection, rigid transforms, validity-carrying grids.

Conventions used everywhere in this package:
  - pixel centers sit at integer coordinates; pixel (x, y) indexes arrays as [y, x]
  - depth is the camera-frame z coordinate, not ray length
  - Pose objects are world-to-camera maps: x_cam = R @ x_world + t
  - pointmaps are (H, W, 3) float64 with a boolean validity grid; invalid cells
    are zero-filled so serialized outputs are reproducible
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS_Z = 1e-9  # depth floor below which projection is undefined

_POSE_ORTHO_TOL = 1e-6


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics (square pixels not assumed, zero skew)."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")


@dataclass(frozen=True)
class Pose:
    """World-to-camera rigid transform.

    rotation: (3, 3) proper orthonormal, translation: (3,).
    Arrays are copied and made read-only at construction.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be (3,3), translation (3,)")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise ValueError("pose entries must be finite")
        if np.abs(r @ r.T - np.eye(3)).max() > _POSE_ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation


def invert_pose(p: Pose) -> Pose:
    rt = p.rotation.T
    return Pose(rt, -rt @ p.translation)


def relative_pose(src: Pose, dst: Pose) -> tuple[np.ndarray, np.ndarray]:
    """The motion (R, t) mapping src-camera coordinates into the dst camera,
    x -> R x + t, which is dst o src^-1. Arrays, not a Pose: a product of two
    rotations each orthonormal within Pose's tolerance may fail its check."""
    r = dst.rotation @ src.rotation.T
    return r, dst.translation - r @ src.translation


def rotation_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation matrix -> unit quaternion (w, x, y, z), w >= 0."""
    r = np.asarray(r, dtype=np.float64)
    t = np.trace(r)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) -> rotation matrix."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if not n > 0:
        raise ValueError("zero quaternion")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass
class Pointmap:
    """Grid of 3D points with per-pixel validity.

    points: (H, W, 3) float64, zero at invalid cells.
    valid: (H, W) bool.
    """

    points: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        val = np.asarray(self.valid, dtype=bool)
        if pts.ndim != 3 or pts.shape[2] != 3:
            raise ValueError("points must be (H, W, 3)")
        if val.shape != pts.shape[:2]:
            raise ValueError("valid grid must match points resolution")
        if val.any() and not np.all(np.isfinite(pts[val])):
            raise ValueError("valid points must be finite")
        pts = pts.copy()
        pts[~val] = 0.0
        self.points = pts
        self.valid = val.copy()

    @property
    def resolution(self) -> tuple[int, int]:
        return self.points.shape[0], self.points.shape[1]

    def scaled(self, s: float) -> "Pointmap":
        return Pointmap(self.points * float(s), self.valid)


@dataclass
class DepthMap:
    """Per-pixel camera-frame depth with validity; valid cells are positive finite."""

    depth: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        d = np.asarray(self.depth, dtype=np.float64)
        if d.ndim != 2:
            raise ValueError("depth must be (H, W)")
        if self.valid is None:
            val = np.isfinite(d) & (d > 0)
        else:
            val = np.asarray(self.valid, dtype=bool)
            if val.shape != d.shape:
                raise ValueError("valid grid must match depth resolution")
        if val.any():
            dv = d[val]
            if not (np.all(np.isfinite(dv)) and np.all(dv > 0)):
                raise ValueError("valid depth must be positive and finite")
        d = d.copy()
        d[~val] = 0.0
        self.depth = d
        self.valid = val.copy()

    @property
    def resolution(self) -> tuple[int, int]:
        return self.depth.shape[0], self.depth.shape[1]


def pixel_grid(height: int, width: int) -> np.ndarray:
    """(H, W, 2) grid of pixel-center coordinates (x, y)."""
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    g = np.empty((height, width, 2))
    g[..., 0] = xs[None, :]
    g[..., 1] = ys[:, None]
    return g


def pixel_indices(pix: np.ndarray, height: int, width: int) -> np.ndarray:
    """Pixels (x, y) as (Q, 2) int64 indices; ValueError unless pix is (Q, 2),
    finite, whole-numbered (floats included) and inside the H x W image."""
    p = np.asarray(pix)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError(f"pixels must be (Q, 2), got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p != np.round(p)):
        raise ValueError("pixels must be finite whole numbers")
    if np.any(p < 0) or np.any(p[:, 0] >= width) or np.any(p[:, 1] >= height):
        raise ValueError(f"pixels must lie inside the {width}x{height} image")
    return p.astype(np.int64)


def pixel_rays(k: Intrinsics, pix: np.ndarray) -> np.ndarray:
    """Camera-frame rays ((x-cx)/fx, (y-cy)/fy, 1) through pixels pix (..., 2).

    The rays are z-normalized, so depth times a pixel's ray is the camera
    point seen there at that depth.
    """
    pix = np.asarray(pix, dtype=np.float64)
    rays = np.ones(pix.shape[:-1] + (3,))
    rays[..., 0] = (pix[..., 0] - k.cx) / k.fx
    rays[..., 1] = (pix[..., 1] - k.cy) / k.fy
    return rays


def unproject(depth: DepthMap, k: Intrinsics) -> Pointmap:
    """Lift a depth map to a camera-frame pointmap: depth times each pixel's ray."""
    return Pointmap(depth.depth[..., None] * pixel_rays(k, pixel_grid(*depth.resolution)),
                    depth.valid)


def project_points(points: np.ndarray, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project loose camera-frame points (..., 3) -> ((..., 2), valid)."""
    pts = np.asarray(points, dtype=np.float64)
    z = pts[..., 2]
    valid = np.isfinite(z) & (z > EPS_Z)
    out = np.zeros(pts.shape[:-1] + (2,))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * pts[..., 0] / z + k.cx
        v = k.fy * pts[..., 1] / z + k.cy
    out[..., 0] = np.where(valid, u, 0.0)
    out[..., 1] = np.where(valid, v, 0.0)
    return out, valid


def transform_pointmap(pm: Pointmap, src: Pose, dst: Pose) -> Pointmap:
    """Re-express a pointmap given in the src camera frame in the dst frame.

    Validity is preserved: this is the rigid-scene change of coordinates and
    says nothing about visibility from dst.
    """
    r, t = relative_pose(src, dst)
    return Pointmap(pm.points @ r.T + t, pm.valid)


def depth_channel(pm: Pointmap) -> DepthMap:
    """Extract the z channel as a depth map; non-positive z becomes invalid."""
    z = pm.points[..., 2]
    valid = pm.valid & (z > EPS_Z)
    return DepthMap(np.where(valid, z, 0.0), valid)
