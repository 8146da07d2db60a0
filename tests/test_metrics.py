import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pointmatch.errors import EmptyDomainError
from pointmatch.geometry import DepthMap, Pose
from pointmatch.metrics import (
    apd,
    depth_metrics,
    fit_scale,
    fit_scale_shift,
    trajectory_metrics,
    umeyama,
)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_fit_scale_hand_value():
    gt = np.array([1.0, 2.0, 3.0])
    assert fit_scale(2.0 * gt, gt) == 0.5


def test_fit_scale_shift_exact_recovery():
    gt = np.array([1.0, 2.0, 3.0, 5.0])
    pred = 2.0 * gt + 3.0
    s, b = fit_scale_shift(pred, gt)
    npt.assert_allclose([s, b], [0.5, -1.5], atol=1e-12)


def test_fit_scale_shift_degenerate():
    s, b = fit_scale_shift(np.full(4, 2.0), np.full(4, 5.0))
    assert s == 1.0 and b == 3.0


def test_depth_metrics_hand_values():
    gt = [DepthMap(np.array([[1.0]]))]
    r = depth_metrics([DepthMap(np.array([[1.2]]))], gt, alignment="none")
    npt.assert_allclose(r.abs_rel, 0.2, atol=1e-12)
    assert r.delta1 == 100.0
    r2 = depth_metrics([DepthMap(np.array([[1.3]]))], gt, alignment="none")
    assert r2.delta1 == 0.0  # ratio 1.3 fails the 1.25 bar


def test_depth_metrics_scale_alignment_fixes_global_scale():
    rng = np.random.default_rng(0)
    gt = [DepthMap(rng.uniform(1.0, 4.0, size=(6, 8))) for _ in range(3)]
    pred = [DepthMap(0.37 * g.depth) for g in gt]
    r = depth_metrics(pred, gt, alignment="scale")
    assert r.abs_rel < 1e-12 and r.delta1 == 100.0
    npt.assert_allclose(r.scale, 1.0 / 0.37, rtol=1e-12)


def test_depth_metrics_scale_shift_alignment():
    rng = np.random.default_rng(1)
    gt = [DepthMap(rng.uniform(1.0, 4.0, size=(5, 5)))]
    pred = [DepthMap(2.0 * gt[0].depth + 0.7)]
    r = depth_metrics(pred, gt, alignment="scale_shift")
    assert r.abs_rel < 1e-12 and r.delta1 == 100.0
    npt.assert_allclose([r.scale, r.shift], [0.5, -0.35], atol=1e-10)


def test_depth_metrics_joint_validity():
    gt = [DepthMap(np.array([[1.0, 2.0]]), np.array([[True, False]]))]
    pred = [DepthMap(np.array([[1.0, 99.0]]))]
    r = depth_metrics(pred, gt, alignment="none")
    assert r.pixel_count == 1 and r.abs_rel == 0.0


def test_depth_metrics_validation():
    with pytest.raises(ValueError):
        depth_metrics([], [])
    gt = [DepthMap(np.ones((2, 2)))]
    with pytest.raises(ValueError):
        depth_metrics([DepthMap(np.ones((3, 2)))], gt)
    with pytest.raises(ValueError):
        depth_metrics([DepthMap(np.ones((2, 2)))], gt, alignment="affine")


def test_apd_hand_value():
    # single point, error exactly 0.05 * depth: passes 0.08 and 0.16 only
    t = 4
    gt = np.zeros((1, t, 3))
    gt[..., 2] = 2.0
    pred = gt.copy()
    pred[..., 0] += 0.05 * 2.0
    vis = np.ones((1, t), bool)
    r = apd(pred, gt, vis)
    assert r.apd == 40.0
    assert r.per_threshold[0.04] == 0.0 and r.per_threshold[0.08] == 100.0


def test_apd_perfect_and_scale_invariant():
    rng = np.random.default_rng(2)
    gt = rng.uniform(0.5, 3.0, size=(5, 6, 3))
    gt[..., 2] = np.abs(gt[..., 2]) + 1.0
    vis = rng.uniform(size=(5, 6)) < 0.8
    vis[0, 0] = True
    r = apd(0.25 * gt, gt, vis)
    assert r.apd == 100.0
    npt.assert_allclose(r.scale, 4.0, rtol=1e-12)


def test_apd_invalid_predictions_count_as_misses():
    gt = np.zeros((2, 3, 3))
    gt[..., 2] = 1.0
    pred = gt.copy()
    pv = np.ones((2, 3), bool)
    pv[1, :] = False
    r = apd(pred, gt, np.ones((2, 3), bool), pred_valid=pv)
    assert r.apd == 50.0


def test_apd_requires_visible_points():
    gt = np.ones((1, 2, 3))
    with pytest.raises(EmptyDomainError):
        apd(gt, gt, np.zeros((1, 2), bool))


def test_umeyama_recovers_similarity():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(20, 3))
    r = _random_rotation(rng)
    s, t = 2.3, np.array([0.5, -1.0, 2.0])
    dst = s * src @ r.T + t
    s2, r2, t2 = umeyama(src, dst)
    npt.assert_allclose(s2, s, rtol=1e-9)
    npt.assert_allclose(r2, r, atol=1e-9)
    npt.assert_allclose(t2, t, atol=1e-9)


def test_umeyama_degenerate_scale_falls_back():
    src = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    dst = np.tile(np.array([0.0, 0.0, 0.0]), (4, 1))
    s, _, _ = umeyama(src, dst)
    assert s == 1.0


def test_umeyama_rejects_non_finite_clouds():
    src = np.random.default_rng(4).normal(size=(6, 3))
    nan, inf = src.copy(), src.copy()
    nan[2, 1], inf[3, 0] = np.nan, np.inf
    # the last pair is finite, but its covariance overflows
    pairs = [(src, nan), (nan, src), (inf, src), (src, inf), (1e200 * src, 1e200 * src)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in pairs:
            with pytest.raises(ValueError, match="covariance is not finite"):
                umeyama(a, b)


def test_umeyama_fits_an_overflowing_spread_without_a_warning():
    # the destination's squared spread overflows to inf; the covariance does
    # not, so the fit stands, scale 1e200 and the identity rotation
    a = np.random.default_rng(0).normal(size=(10, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, r, t = umeyama(a, a * 1e200)
    assert abs(s / 1e200 - 1.0) <= 1e-12
    npt.assert_allclose(r, np.eye(3), atol=1e-12)
    assert np.abs(t).max() <= 1e-12 * 1e200


def _pose_from(r, t):
    return Pose(r, t)


def test_rpe_hand_value():
    gt = [Pose.identity(), Pose.identity()]
    pred = [Pose.identity(), Pose(np.eye(3), [0.1, 0.0, 0.0])]
    r = trajectory_metrics(pred, gt)
    npt.assert_allclose(r.rpe_trans, 0.1, atol=1e-12)  # degenerate gt: scale 1
    assert r.rpe_rot_deg == 0.0


def test_trajectory_metrics_sim3_invariance():
    rng = np.random.default_rng(4)
    gt = []
    for k in range(6):
        gt.append(Pose(_random_rotation(rng), rng.normal(size=3)))
    s = 3.1
    r_g = _random_rotation(rng)
    t_g = np.array([1.0, -2.0, 0.5])
    pred = []
    for p in gt:
        # world transformed by similarity: new pose maps transformed world to cam
        rot = p.rotation @ r_g.T
        trans = p.translation - rot @ t_g
        # scale the world: centers scale, translation scales accordingly
        pred.append(Pose(rot, s * (trans)))
    r = trajectory_metrics(pred, gt)
    assert r.ate < 1e-9
    assert r.rpe_trans < 1e-9
    # arccos near the identity amplifies fp noise to sqrt(eps) scale
    assert r.rpe_rot_deg < 1e-5


def test_trajectory_metrics_brute_force_agreement():
    rng = np.random.default_rng(5)
    gt = [Pose(_random_rotation(rng), rng.normal(size=3)) for _ in range(5)]
    pred = [
        Pose(q.rotation @ _small_rot(rng, 0.02), q.translation + rng.normal(scale=0.05, size=3))
        for q in gt
    ]
    fast = trajectory_metrics(pred, gt)
    slow = _brute_force_metrics(pred, gt)
    npt.assert_allclose(fast.ate, slow["ate"], rtol=1e-9)
    npt.assert_allclose(fast.rpe_trans, slow["rpe_trans"], rtol=1e-9)
    npt.assert_allclose(fast.rpe_rot_deg, slow["rpe_rot"], rtol=1e-9)


def _small_rot(rng, scale):
    w = rng.normal(scale=scale, size=3)
    th = np.linalg.norm(w)
    if th < 1e-12:
        return np.eye(3)
    k = w / th
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(th) * kx + (1 - np.cos(th)) * kx @ kx


def _brute_force_metrics(pred, gt):
    # 4x4 matrix route, no shared code with the library implementation
    def mat(p):
        m = np.eye(4)
        m[:3, :3] = p.rotation
        m[:3, 3] = p.translation
        return m

    cp = np.stack([-p.rotation.T @ p.translation for p in pred])
    cg = np.stack([-g.rotation.T @ g.translation for g in gt])
    s, r, t = umeyama(cp, cg)
    ate = np.sqrt(np.mean(np.sum((cp @ (s * r).T + t - cg) ** 2, axis=1)))
    dts, drs = [], []
    for k in range(len(pred) - 1):
        qp = mat(pred[k + 1]) @ np.linalg.inv(mat(pred[k]))
        qg = mat(gt[k + 1]) @ np.linalg.inv(mat(gt[k]))
        qp_scaled = qp.copy()
        qp_scaled[:3, 3] *= s
        e = np.linalg.inv(qg) @ qp_scaled
        dts.append(np.sum(e[:3, 3] ** 2))
        ang = np.arccos(np.clip((np.trace(e[:3, :3]) - 1) / 2, -1, 1))
        drs.append(ang**2)
    return {
        "ate": ate,
        "rpe_trans": np.sqrt(np.mean(dts)),
        "rpe_rot": np.degrees(np.sqrt(np.mean(drs))),
    }


def test_trajectory_validation():
    with pytest.raises(ValueError):
        trajectory_metrics([Pose.identity()], [Pose.identity()])
    with pytest.raises(ValueError):
        trajectory_metrics([Pose.identity()] * 2, [Pose.identity()] * 3)
