"""Evaluation metrics: aligned depth error, 3D track accuracy, trajectory error.

Monocular predictions come with an unknown global scale (and sometimes shift),
so every metric aligns first: depth by per-sequence median scale or least
squares scale+shift, tracks by median depth scale, trajectories by a
similarity (Umeyama) fit. Percentages are reported in [0, 100].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDomainError
from .geometry import DepthMap, Pose, relative_pose

APD_THRESHOLDS = (0.01, 0.02, 0.04, 0.08, 0.16)

_DEG = 180.0 / np.pi


def fit_scale(pred: np.ndarray, gt: np.ndarray) -> float:
    """Median of gt/pred over positive pred entries (robust scale fit)."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    gt = np.asarray(gt, dtype=np.float64).ravel()
    ok = pred > 0
    if not ok.any():
        raise EmptyDomainError("no positive predictions to fit a scale")
    return float(np.median(gt[ok] / pred[ok]))


def fit_scale_shift(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """Least-squares (s, b) minimizing ||s*pred + b - gt||^2.

    Zero-variance pred degenerates to s=1 with a pure shift.
    """
    pred = np.asarray(pred, dtype=np.float64).ravel()
    gt = np.asarray(gt, dtype=np.float64).ravel()
    if pred.size == 0:
        raise EmptyDomainError("no pixels to fit")
    mp, mg = pred.mean(), gt.mean()
    var = ((pred - mp) ** 2).mean()
    if var < 1e-18:
        return 1.0, float(mg - mp)
    s = float(((pred - mp) * (gt - mg)).mean() / var)
    return s, float(mg - s * mp)


@dataclass
class DepthEvalReport:
    abs_rel: float
    delta1: float  # percent of pixels with max(d/g, g/d) < 1.25
    scale: float
    shift: float
    pixel_count: int


def depth_metrics(
    preds: Sequence[DepthMap], gts: Sequence[DepthMap], alignment: str = "scale"
) -> DepthEvalReport:
    """Pooled Abs Rel and delta<1.25 over a sequence after per-sequence alignment.

    Pixels must be valid on both sides; the alignment is fitted once over the
    pooled pixels. Aligned predictions that land non-positive count as delta
    outliers but still enter abs_rel.
    """
    if len(preds) != len(gts) or not preds:
        raise ValueError("pred/gt sequences must align and be non-empty")
    ps, gs = [], []
    for p, g in zip(preds, gts):
        if p.resolution != g.resolution:
            raise ValueError("depth maps must share resolution")
        sel = p.valid & g.valid
        ps.append(p.depth[sel])
        gs.append(g.depth[sel])
    pred = np.concatenate(ps)
    gt = np.concatenate(gs)
    if pred.size == 0:
        raise EmptyDomainError("no jointly-valid pixels")
    if alignment == "none":
        s, b = 1.0, 0.0
    elif alignment == "scale":
        s, b = fit_scale(pred, gt), 0.0
    elif alignment == "scale_shift":
        s, b = fit_scale_shift(pred, gt)
    else:
        raise ValueError(f"unknown alignment {alignment!r}")
    d = s * pred + b
    abs_rel = float((np.abs(d - gt) / gt).mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        thresh = np.maximum(d / gt, gt / d)
    inlier = (d > 0) & (thresh < 1.25)
    return DepthEvalReport(
        abs_rel=abs_rel,
        delta1=100.0 * float(inlier.mean()),
        scale=float(s),
        shift=float(b),
        pixel_count=int(pred.size),
    )


@dataclass
class TrackEvalReport:
    apd: float  # percent, averaged over thresholds
    per_threshold: dict[float, float]
    scale: float


def apd(
    pred_tracks: np.ndarray,
    gt_tracks: np.ndarray,
    gt_visible: np.ndarray,
    pred_valid: np.ndarray | None = None,
) -> TrackEvalReport:
    """Average percent of 3D points within the depth-relative APD_THRESHOLDS.

    Tracks are (Q, T, 3) in per-frame camera coordinates; only gt-visible
    points are scored. Predictions are pre-aligned by the median gt/pred depth
    scale; points with invalid predictions count as misses at every threshold.
    """
    pred = np.asarray(pred_tracks, dtype=np.float64)
    gt = np.asarray(gt_tracks, dtype=np.float64)
    vis = np.asarray(gt_visible, dtype=bool)
    if pred.shape != gt.shape or pred.shape[:2] != vis.shape:
        raise ValueError("track tensors must share (Q, T)")
    if pred_valid is None:
        pv = np.ones(vis.shape, dtype=bool)
    else:
        pv = np.asarray(pred_valid, dtype=bool)
        if pv.shape != vis.shape:
            raise ValueError("pred_valid must be (Q, T)")
    if not vis.any():
        raise EmptyDomainError("no visible ground-truth points")

    fit_dom = vis & pv & (pred[..., 2] > 0)
    s = fit_scale(pred[..., 2][fit_dom], gt[..., 2][fit_dom]) if fit_dom.any() else 1.0
    err = np.linalg.norm(s * pred - gt, axis=-1)
    gt_depth = gt[..., 2]
    per = {}
    for th in APD_THRESHOLDS:
        good = pv & (err < th * gt_depth)
        per[float(th)] = 100.0 * float(good[vis].mean())
    return TrackEvalReport(
        apd=float(np.mean(list(per.values()))),
        per_threshold=per,
        scale=float(s),
    )


def umeyama(src: np.ndarray, dst: np.ndarray):
    """Similarity fit dst ~ s * R @ src + t (least squares).

    Returns (s, R, t). Degenerate spreads (either cloud collapses to a point)
    fall back to s = 1 so relative-error metrics stay meaningful. Raises
    ValueError when a cloud holds a non-finite value or their covariance
    overflows.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("need matching (N, 3) clouds")
    if src.shape[0] < 1:
        raise EmptyDomainError("empty clouds")
    # a non-finite point makes the covariance non-finite too
    with np.errstate(over="ignore", invalid="ignore"):
        mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
        sc, dc = src - mu_s, dst - mu_d
        cov = dc.T @ sc / src.shape[0]
    if not np.isfinite(cov).all():
        raise ValueError("cloud covariance is not finite: a cloud holds a non-finite "
                         "value or its spread overflows")
    u, sv, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u @ vt))
    if d == 0:
        d = 1.0
    dd = np.array([1.0, 1.0, d])
    r = (u * dd) @ vt
    with np.errstate(over="ignore"):  # an overflowing spread reads inf: s stays finite
        var_s = (sc**2).sum() / src.shape[0]
        var_d = (dc**2).sum() / src.shape[0]
    if var_s > 1e-15 and var_d > 1e-15:
        s = float((sv * dd).sum() / var_s)
        if s <= 1e-15:
            s = 1.0
    else:
        s = 1.0
    t = mu_d - s * (r @ mu_s)
    return s, r, t


@dataclass
class TrajectoryEvalReport:
    ate: float
    rpe_trans: float
    rpe_rot_deg: float
    scale: float


def trajectory_metrics(pred: Sequence[Pose], gt: Sequence[Pose]) -> TrajectoryEvalReport:
    """ATE (RMSE after similarity alignment) and consecutive-step RPE.

    Poses are world-to-camera. RPE compares consecutive relative motions after
    applying the fitted global scale to predicted translations; rotation error
    is the geodesic angle in degrees. Both aggregate by RMSE.
    """
    if len(pred) != len(gt):
        raise ValueError("trajectory lengths differ")
    if len(pred) < 2:
        raise ValueError("need at least two poses")
    cp = np.stack([p.center for p in pred])
    cg = np.stack([g.center for g in gt])
    s, r, t = umeyama(cp, cg)
    aligned = cp @ (s * r).T + t
    ate = float(np.sqrt(((aligned - cg) ** 2).sum(axis=1).mean()))

    d_trans, d_rot = [], []
    for k in range(len(pred) - 1):
        r_p, t_p = relative_pose(pred[k], pred[k + 1])
        r_g, t_g = relative_pose(gt[k], gt[k + 1])
        dr = r_g.T @ r_p
        dt = r_g.T @ (s * t_p - t_g)
        d_trans.append((dt**2).sum())
        ang = np.arccos(np.clip((np.trace(dr) - 1.0) / 2.0, -1.0, 1.0))
        d_rot.append(ang * ang)
    return TrajectoryEvalReport(
        ate=ate,
        rpe_trans=float(np.sqrt(np.mean(d_trans))),
        rpe_rot_deg=float(np.sqrt(np.mean(d_rot)) * _DEG),
        scale=float(s),
    )

