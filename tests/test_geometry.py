import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch.geometry import (
    DepthMap,
    Intrinsics,
    Pointmap,
    Pose,
    depth_channel,
    invert_pose,
    pixel_grid,
    project_points,
    quat_to_rotation,
    relative_pose,
    rotation_to_quat,
    transform_pointmap,
    unproject,
)

K = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)


def random_rotation(rng):
    # QR of a gaussian matrix, sign-fixed to det +1
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng):
    return Pose(random_rotation(rng), rng.normal(scale=2.0, size=3))


def test_unproject_hand_value():
    # fx=fy=100, cx=cy=50, depth 1 at pixel (x=150, y=50) -> (1, 0, 1)
    depth = np.zeros((60, 160))
    depth[50, 150] = 1.0
    dm = DepthMap(depth)
    pm = unproject(dm, K)
    npt.assert_allclose(pm.points[50, 150], [1.0, 0.0, 1.0], atol=1e-15)
    assert pm.valid[50, 150]
    assert not pm.valid[0, 0]
    npt.assert_array_equal(pm.points[0, 0], 0.0)


def test_project_hand_value():
    pts = np.zeros((1, 1, 3))
    pts[0, 0] = [1.0, 0.0, 1.0]
    pix, valid = project_points(pts, K)
    npt.assert_allclose(pix[0, 0], [150.0, 50.0], atol=1e-12)
    assert valid[0, 0]


def test_project_rejects_tiny_depth():
    pts = np.zeros((1, 2, 3))
    pts[0, 0] = [0.0, 0.0, 1e-12]
    pts[0, 1] = [0.0, 0.0, -1.0]
    pix, valid = project_points(pts, K)
    assert not valid.any()
    npt.assert_array_equal(pix, 0.0)


def test_relative_pose_translations():
    src = Pose(np.eye(3), [1.0, 2.0, 3.0])
    dst = Pose(np.eye(3), [11.0, 2.0, 3.0])
    r, t = relative_pose(src, dst)
    npt.assert_array_equal(r, np.eye(3))
    npt.assert_allclose(t, [10.0, 0.0, 0.0])


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    bad = np.eye(3)
    bad[0, 0] = -1.0  # det -1 reflection
    with pytest.raises(ValueError):
        Pose(bad, np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.eye(3), [np.nan, 0, 0])


def test_pose_immutable():
    p = Pose.identity()
    with pytest.raises(Exception):
        p.rotation[0, 0] = 2.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pose_roundtrip(seed):
    rng = np.random.default_rng(seed)
    p = random_pose(rng)
    pts = rng.normal(size=(17, 3))
    back = invert_pose(p).apply(p.apply(pts))
    npt.assert_allclose(back, pts, atol=1e-9)
    r, t = relative_pose(p, p)  # p^-1 then p
    npt.assert_allclose(r, np.eye(3), atol=1e-9)
    npt.assert_allclose(t, 0.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unproject_project_roundtrip(seed):
    rng = np.random.default_rng(seed)
    h, w = 6, 8
    depth = DepthMap(rng.uniform(0.5, 5.0, size=(h, w)))
    pm = unproject(depth, K)
    pix, valid = project_points(pm.points, K)
    assert valid.all()
    npt.assert_allclose(pix, pixel_grid(h, w), atol=1e-9)
    npt.assert_allclose(pm.points[..., 2], depth.depth)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transform_roundtrip(seed):
    rng = np.random.default_rng(seed)
    depth = DepthMap(rng.uniform(0.5, 5.0, size=(5, 7)))
    pm = unproject(depth, K)
    pa, pb = random_pose(rng), random_pose(rng)
    there = transform_pointmap(pm, pa, pb)
    back = transform_pointmap(there, pb, pa)
    npt.assert_allclose(back.points, pm.points, atol=1e-9)
    npt.assert_array_equal(back.valid, pm.valid)


def test_transform_matches_world_route():
    rng = np.random.default_rng(3)
    depth = DepthMap(rng.uniform(0.5, 5.0, size=(4, 6)))
    pm = unproject(depth, K)
    pa, pb = random_pose(rng), random_pose(rng)
    via_rel = transform_pointmap(pm, pa, pb)
    world = invert_pose(pa).apply(pm.points)
    direct = pb.apply(world)
    npt.assert_allclose(via_rel.points, direct, atol=1e-9)


def test_relative_pose_identity():
    p = random_pose(np.random.default_rng(0))
    r, t = relative_pose(p, p)
    npt.assert_allclose(r, np.eye(3), atol=1e-12)
    npt.assert_allclose(t, 0.0, atol=1e-12)


def test_depthmap_rejects_bad_valid_cells():
    with pytest.raises(ValueError):
        DepthMap(np.array([[-1.0]]), np.array([[True]]))
    # invalid cells may hold anything; they get zeroed
    dm = DepthMap(np.array([[-1.0, 2.0]]), np.array([[False, True]]))
    npt.assert_array_equal(dm.depth, [[0.0, 2.0]])


def test_pointmap_zero_fills_invalid():
    pts = np.full((2, 2, 3), 7.0)
    valid = np.array([[True, False], [False, True]])
    pm = Pointmap(pts, valid)
    npt.assert_array_equal(pm.points[0, 1], 0.0)
    npt.assert_array_equal(pm.points[1, 0], 0.0)
    npt.assert_array_equal(pm.points[0, 0], 7.0)


def test_depth_channel():
    pts = np.zeros((1, 2, 3))
    pts[0, 0] = [1.0, 2.0, 3.0]
    pts[0, 1] = [1.0, 2.0, -3.0]
    dm = depth_channel(Pointmap(pts, np.ones((1, 2), bool)))
    assert dm.valid[0, 0] and not dm.valid[0, 1]
    npt.assert_allclose(dm.depth[0, 0], 3.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_quat_roundtrip(seed):
    rng = np.random.default_rng(seed)
    r = random_rotation(rng)
    q = rotation_to_quat(r)
    npt.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)
    npt.assert_allclose(quat_to_rotation(q), r, atol=1e-9)
