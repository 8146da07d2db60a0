import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import scenes
from pointmatch.geometry import (
    invert_pose,
    pixel_grid,
    project_points,
    transform_pointmap,
    unproject,
)
from pointmatch.scenes import (
    _OCCLUSION_TOL,
    _RAY_TMIN,
    SceneConfig,
    SceneObject,
    _nearest_surface,
    _observe,
    _velocities,
    _visible_from,
    assemble_scene,
    build_tracks,
    generate_scene,
    gt_pointmap_matching,
    gt_rigid_pointmap,
    raycast_pixels,
    world_points,
)

CFG = SceneConfig(seed=7, frame_count=4, height=16, width=20, object_count=2,
                  motion_magnitude=0.06, camera_path="orbit", camera_magnitude=0.02,
                  track_count=10)


@pytest.fixture(scope="module")
def seq():
    return generate_scene(CFG)


def all_world_points(s):
    """Every frame's world hit points, (T, H, W, 3)."""
    return np.array([world_points(s, t) for t in range(s.frame_count)])


def test_deterministic_regeneration(seq):
    other = generate_scene(CFG)
    for a, b in zip(seq.depths, other.depths):
        npt.assert_array_equal(a.depth, b.depth)
        npt.assert_array_equal(a.valid, b.valid)
    for pa, pb in zip(seq.poses, other.poses):
        npt.assert_array_equal(pa.rotation, pb.rotation)
        npt.assert_array_equal(pa.translation, pb.translation)
    npt.assert_array_equal(seq.tracks.pixels, other.tracks.pixels)
    npt.assert_array_equal(seq.tracks.visible, other.tracks.visible)


def test_depth_maps_well_formed(seq):
    for d in seq.depths:
        assert d.valid.all()  # backdrop covers the whole frustum
        assert (d.depth > 0.5).all()
        assert np.isfinite(d.depth).all()


def test_depth_is_camera_z(seq):
    # unprojecting the stored depth must land on the raycast hit points
    for t in range(seq.frame_count):
        pm = unproject(seq.depths[t], seq.intrinsics[t])
        world = invert_pose(seq.poses[t]).apply(pm.points)
        npt.assert_allclose(world[pm.valid], world_points(seq, t)[pm.valid], atol=1e-9)


@pytest.mark.parametrize("cfg", [
    CFG,
    SceneConfig(seed=1, frame_count=3, height=12, width=9, object_count=4, camera_path="linear",
                track_count=0),
    SceneConfig(seed=5, frame_count=5, height=7, width=16, object_count=0,
                camera_path="random-smooth", track_count=3),
], ids=["orbit", "linear", "random-smooth"])
def test_world_points_are_depth_along_each_pixel_ray(cfg):
    # bit for bit the camera center plus depth times the pixel's world ray,
    # which is how the raycast places each hit, and 0 off the surface
    s = generate_scene(cfg)
    h, w = s.resolution
    ys, xs = np.mgrid[0:h, 0:w]
    for t, (k, pose) in enumerate(zip(s.intrinsics, s.poses)):
        d_cam = np.stack([(xs - k.cx) / k.fx, (ys - k.cy) / k.fy, np.ones((h, w))], axis=-1)
        dirs = (d_cam.reshape(-1, 3) @ pose.rotation).reshape(h, w, 3)
        hit, depth = s.depths[t].valid, s.depths[t].depth
        want = np.where(hit[..., None], pose.center + depth[..., None] * dirs, 0.0)
        npt.assert_array_equal(world_points(s, t), want)
    with pytest.raises(ValueError, match="out of range"):
        world_points(s, s.frame_count)


def test_scene_holds_no_per_pixel_world_points():
    # a 48x64x12 scene keeps depth, ids and validity per pixel, and no
    # (frames, H, W, 3) array: world points are computed per frame when read
    s = generate_scene(SceneConfig(seed=0, frame_count=12, height=48, width=64, track_count=8))

    def arrays(x, seen):
        if id(x) in seen:
            return
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (list, tuple)):
            for y in x:
                yield from arrays(y, seen)
        elif hasattr(x, "__dict__"):
            for y in vars(x).values():
                yield from arrays(y, seen)

    shapes = [a.shape for a in arrays(s, set())]
    assert (12, 48, 64) in shapes  # the walk reaches the per-pixel caches
    assert all(len(shape) < 4 for shape in shapes), shapes


def test_height_field_points_on_surface(seq):
    t = 0
    bg = seq.hit_id[t] == -1
    pts = world_points(seq, t)[bg]
    npt.assert_allclose(pts[:, 2], seq.background.height(pts[:, :2]), atol=1e-10)


def test_sphere_points_on_surface(seq):
    spheres = [(k, o) for k, o in enumerate(seq.objects) if o.kind == "sphere"]
    for t in range(seq.frame_count):
        for k, obj in spheres:
            sel = seq.hit_id[t] == k
            if not sel.any():
                continue
            c = obj.center + obj.offset_at(t)
            r = np.linalg.norm(world_points(seq, t)[sel] - c, axis=1)
            npt.assert_allclose(r, obj.size[0], atol=1e-9)


def test_dynamic_labels_track_objects(seq):
    assert seq.dynamic_labels.shape == (seq.frame_count, *seq.resolution)
    for t in range(seq.frame_count):
        on_moving = (seq.hit_id[t] >= 0) & seq.dynamic_labels[t]
        npt.assert_array_equal(seq.dynamic_labels[t], on_moving)


def test_static_config_has_no_dynamic_pixels():
    cfg = SceneConfig(seed=3, frame_count=3, height=12, width=16, object_count=2,
                      motion_magnitude=0.0, track_count=4)
    s = generate_scene(cfg)
    assert not s.dynamic_labels.any()


def test_known_velocity_track_advance(seq):
    vel = np.array([0.1, 0.0, 0.0])
    objects = [SceneObject("sphere", [0.1, 0.0, -1.0], [0.35], vel)]
    cfg = SceneConfig(seed=CFG.seed, frame_count=4, height=16, width=20, object_count=1,
                      motion_magnitude=0.1, camera_path="orbit", camera_magnitude=0.0,
                      track_count=0)
    s = assemble_scene(cfg, seq.background, objects, [seq.poses[0]] * 4)
    ys, xs = np.nonzero(s.hit_id[0] == 0)
    q = np.array([[xs[0], ys[0]]])
    tr = build_tracks(s, np.zeros(1, np.int64), q)
    w0 = tr.world[0, 0]
    for t in range(4):
        npt.assert_array_equal(tr.world[0, t], w0 + t * vel)  # position exactly w0 + t*v
    npt.assert_allclose(np.diff(tr.world[0], axis=0), np.tile(vel, (3, 1)), atol=1e-15)


def test_matching_dichotomy(seq):
    i, j = 3, 0
    xm = gt_pointmap_matching(seq, i, j)
    xr = gt_rigid_pointmap(seq, i, j)
    joint = xm.valid & xr.valid
    static = joint & ~seq.dynamic_labels[j]
    dyn = joint & seq.dynamic_labels[j]
    res = np.linalg.norm(xm.points - xr.points, axis=-1)
    assert res[static].max() == 0.0  # bitwise-shared kernel
    ids = seq.hit_id[j]
    for k, obj in enumerate(seq.objects):
        sel = dyn & (ids == k)
        if sel.any():
            expect = np.linalg.norm((i - j) * obj.velocity)
            npt.assert_allclose(res[sel], expect, atol=1e-9)


def test_matching_self_pair_is_unprojection(seq):
    t = 2
    xm = gt_pointmap_matching(seq, t, t)
    ego = unproject(seq.depths[t], seq.intrinsics[t])
    assert xm.valid.mean() > 0.95  # self-visibility holds except boundary slivers
    npt.assert_allclose(xm.points[xm.valid], ego.points[xm.valid], atol=1e-9)


def test_rigid_matches_transform_route(seq):
    i, j = 1, 3
    xr = gt_rigid_pointmap(seq, i, j)
    via = transform_pointmap(unproject(seq.depths[j], seq.intrinsics[j]),
                             seq.poses[j], seq.poses[i])
    npt.assert_array_equal(xr.valid, via.valid)
    npt.assert_allclose(xr.points[xr.valid], via.points[via.valid], atol=1e-9)


def test_static_scene_cross_view_consistency():
    # co-visible pixels of frame n, carried rigidly into camera m, must land on
    # the surface m actually sees through the reprojected (fractional) pixels
    cfg = SceneConfig(seed=11, frame_count=3, height=14, width=18, object_count=1,
                      motion_magnitude=0.0, camera_path="linear", camera_magnitude=0.06,
                      track_count=0)
    s = generate_scene(cfg)
    n, m = 0, 2
    xm = gt_pointmap_matching(s, m, n)  # occlusion-filtered by construction
    pix, pv = project_points(xm.points, s.intrinsics[m])
    sel = xm.valid & pv
    pts, _, hit = raycast_pixels(s, m, pix[sel])
    assert hit.all()
    npt.assert_allclose(pts, xm.points[sel], atol=1e-6)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_pixel_raycast_is_the_ego_map(path, objects, seed):
    # raycast_pixels and unproject share one pixel-ray map, so casting every
    # pixel center reproduces the stored depth's unprojection bit for bit
    s = generate_scene(SceneConfig(seed=seed, frame_count=3, height=16, width=20,
                                   object_count=objects, camera_path=path,
                                   camera_magnitude=0.05, track_count=0))
    h, w = s.resolution
    for f in range(s.frame_count):
        pts, sid, hit = raycast_pixels(s, f, pixel_grid(h, w).reshape(-1, 2))
        npt.assert_array_equal(pts.reshape(h, w, 3),
                               unproject(s.depths[f], s.intrinsics[f]).points)
        npt.assert_array_equal(sid.reshape(h, w), s.hit_id[f])
        npt.assert_array_equal(hit.reshape(h, w), s.depths[f].valid)


@pytest.mark.parametrize("pix", [
    np.array([3.0, 4.0]),
    np.zeros((4, 3)),
    np.array([[1.0, 2.0], [np.nan, 2.0]]),
    np.array([[1.0, np.inf]]),
], ids=["one-dim", "three-columns", "nan", "inf"])
def test_raycast_pixels_rejects_malformed_pixels(pix):
    s = generate_scene(SceneConfig(seed=3, frame_count=2, height=8, width=10, track_count=0))
    with pytest.raises(ValueError):
        raycast_pixels(s, 0, pix)


def test_occlusion_invalidates_matching():
    # an object moving sideways uncovers/covers backdrop; some frame-0 pixels
    # must become invalid (occluded) at a later frame
    cfg = SceneConfig(seed=5, frame_count=5, height=16, width=20, object_count=1,
                      motion_magnitude=0.12, camera_path="orbit", camera_magnitude=0.0,
                      track_count=0)
    s = generate_scene(cfg)
    if not s.dynamic_labels[0].any():
        pytest.skip("object out of view for this seed")
    xm = gt_pointmap_matching(s, 4, 0)
    lost = s.depths[0].valid & ~xm.valid
    assert lost.any()
    # and the invalid cells are zero-filled
    npt.assert_array_equal(xm.points[~xm.valid], 0.0)


def test_tracks_consistent_with_matching(seq):
    tr = seq.tracks
    for t in range(seq.frame_count):
        xm = gt_pointmap_matching(seq, t, 0)
        for qi in range(len(tr)):
            x, y = tr.query_pixels[qi]
            assert tr.visible[qi, t] == xm.valid[y, x]
            if tr.visible[qi, t]:
                npt.assert_allclose(xm.points[y, x], tr.camera[qi, t], atol=1e-9)


def test_track_pixels_reproject(seq):
    tr = seq.tracks
    for t in range(seq.frame_count):
        vis = tr.visible[:, t]
        if not vis.any():
            continue
        pix, ok = project_points(tr.camera[vis, t], seq.intrinsics[t])
        assert ok.all()
        npt.assert_allclose(pix, tr.pixels[vis, t], atol=1e-9)


def test_query_validation(seq):
    with pytest.raises(ValueError):
        build_tracks(seq, np.array([0]), np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        build_tracks(seq, np.array([99]), np.array([[0, 0]]))


def test_frame_index_validation(seq):
    with pytest.raises(ValueError):
        gt_pointmap_matching(seq, 0, seq.frame_count)
    with pytest.raises(ValueError):
        gt_rigid_pointmap(seq, -1, 0)


def test_camera_paths_all_run():
    for path in ("orbit", "linear", "random-smooth"):
        cfg = SceneConfig(seed=2, frame_count=3, height=10, width=12, object_count=1,
                          camera_path=path, camera_magnitude=0.03, track_count=2)
        s = generate_scene(cfg)
        assert s.frame_count == 3
        if path != "orbit":
            moved = np.linalg.norm(s.poses[0].center - s.poses[2].center)
            assert moved > 1e-4


def test_static_camera_magnitude_zero():
    cfg = SceneConfig(seed=9, frame_count=5, camera_magnitude=0.0, track_count=0,
                      height=10, width=12, object_count=1)
    s = generate_scene(cfg)
    for p in s.poses[1:]:
        npt.assert_array_equal(p.rotation, s.poses[0].rotation)
        npt.assert_array_equal(p.translation, s.poses[0].translation)


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(frame_count=0)
    with pytest.raises(ValueError):
        SceneConfig(camera_path="spline")
    with pytest.raises(ValueError):
        SceneConfig(motion_magnitude=-0.1)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SceneConfig(seed=-1)


@pytest.mark.parametrize("name", ["motion_magnitude", "camera_magnitude"])
def test_magnitudes_above_the_line_are_rejected(name):
    SceneConfig(**{name: 1e3})
    with pytest.raises(ValueError, match=f"{name} must be in \\[0, 1000\\]"):
        SceneConfig(**{name: np.nextafter(1e3, np.inf)})


def _bisect_80(field, center, dirs):
    """Reference: HeightField.intersect's bisection run for all 80 steps."""
    zmin, zmax = field.z_bounds
    oz, dz = center[2], dirs[:, 2]
    ok = dz > 1e-6
    safe_dz = np.where(ok, dz, 1.0)
    lo = np.maximum((zmin - oz) / safe_dz, 0.0)
    hi = (zmax - oz) / safe_dz
    ok &= hi > 0
    hi = np.where(ok, hi, lo + 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        p = center + mid[:, None] * dirs
        below = p[:, 2] - field.height(p[:, :2]) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi, ok


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.integers(4, 20),
)
def test_early_stopped_bisection_matches_80_steps(path, objects, seed, h, w):
    # rays through every pixel plus the visibility rays toward every hit point
    s = generate_scene(SceneConfig(seed=seed, frame_count=2, height=h, width=w,
                                   object_count=objects, camera_path=path,
                                   camera_magnitude=0.05, track_count=0))
    k = s.intrinsics[0]
    ys, xs = np.mgrid[0:h, 0:w].reshape(2, -1)
    d_cam = np.stack([(xs - k.cx) / k.fx, (ys - k.cy) / k.fy, np.ones(h * w)], axis=1)
    for pose in s.poses:
        toward_hits = all_world_points(s).reshape(-1, 3) - pose.center
        dirs = np.concatenate([d_cam @ pose.rotation, toward_hits])
        [got], [ok] = s.background.intersect(pose.center[None], dirs[None])
        want, ok_ref = _bisect_80(s.background, pose.center, dirs)
        npt.assert_array_equal(ok, ok_ref)
        assert ok.any()
        npt.assert_array_equal(got[ok], want[ok])


def _visible_full(seq, frame, world_pts):
    """Reference: visibility from the fully refined first hit along each ray."""
    o = seq.poses[frame].center
    delta = world_pts - o
    dist = np.linalg.norm(delta, axis=-1)
    ok = dist > _RAY_TMIN
    safe = np.where(ok[..., None], delta, np.array([0.0, 0.0, 1.0]))
    dirs = (safe / np.maximum(dist, _RAY_TMIN)[..., None]).reshape(-1, 3)
    [t_bg], [ok_bg] = seq.background.intersect(o[None], dirs[None])
    t, _, hit = _nearest_surface(seq.objects, (t_bg, ok_bg), o, dirs, frame)
    return ok & (hit & (t >= dist.ravel() - _OCCLUSION_TOL)).reshape(dist.shape)


def _nudged_to_threshold(seq, frame, max_ulps=4):
    """Points along the frame's own pixel rays whose threshold dist - tol lies
    within max_ulps ulps of the surface each ray hits: (2 max_ulps + 1, N, 3)."""
    o = seq.poses[frame].center
    delta = world_points(seq, frame)[seq.depths[frame].valid] - o
    dist = np.linalg.norm(delta, axis=-1)
    target = dist + _OCCLUSION_TOL
    down, up = [target], [target]
    for _ in range(max_ulps):
        down.insert(0, np.nextafter(down[0], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    targets = np.stack(down[:-1] + up)
    return o + (delta / dist[:, None])[None] * targets[..., None]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.integers(4, 20),
)
def test_early_visibility_matches_full_refinement(path, objects, seed, h, w):
    s = generate_scene(SceneConfig(seed=seed, frame_count=3, height=h, width=w,
                                   object_count=objects, camera_path=path,
                                   camera_magnitude=0.05, track_count=0))
    for j in range(s.frame_count):
        vel = _velocities(s, s.hit_id[j])
        for i in range(s.frame_count):
            # frame j's hit points, moved with their objects to frame i's time
            world = world_points(s, j) + float(i - j) * vel
            npt.assert_array_equal(_visible_from(s, [i], world[None])[0],
                                   _visible_full(s, i, world))
        near = _nudged_to_threshold(s, j)
        npt.assert_array_equal(_visible_from(s, [j], near[None])[0], _visible_full(s, j, near))




def _pixel_and_visibility_rays(s, frame):
    """Two ray sets from a frame's camera, each one group (centers (1, 3),
    dirs (1, N, 3), thr (1, N)): the rays through its pixels, with the other
    frame's depth at that pixel as the threshold, and the visibility rays
    toward every frame's hit points, with dist - _OCCLUSION_TOL as in
    _visible_from."""
    k, pose = s.intrinsics[frame], s.poses[frame]
    h, w = s.resolution
    ys, xs = np.mgrid[0:h, 0:w].reshape(2, -1)
    d_cam = np.stack([(xs - k.cx) / k.fx, (ys - k.cy) / k.fy, np.ones(h * w)], axis=1)
    delta = all_world_points(s)[s.hit_id > -2] - pose.center
    dist = np.linalg.norm(delta, axis=1)
    pixel = d_cam @ pose.rotation, s.depths[1 - frame].depth.ravel()
    visibility = delta / dist[:, None], dist - _OCCLUSION_TOL
    return [(pose.center[None], d[None], thr[None]) for d, thr in (pixel, visibility)]


class _NoPool(ThreadPoolExecutor):
    def __init__(self, *args, **kwargs):
        raise AssertionError("a serial raycast built a thread pool")


def _count_pools(mp):
    """Patch scenes' thread pool class with one that counts the chunks each
    pool it builds is given; returns those counts, one per pool, in order."""
    counts = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(0)

        def submit(self, *args, **kwargs):
            counts[-1] += 1
            return super().submit(*args, **kwargs)

    mp.setattr(scenes, "ThreadPoolExecutor", Counting)
    return counts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.integers(4, 20),
    st.sampled_from([2, 3]),
)
def test_chunked_bisection_matches_serial(path, objects, seed, h, w, cores):
    s = generate_scene(SceneConfig(seed=seed, frame_count=2, height=h, width=w,
                                   object_count=objects, camera_path=path,
                                   camera_magnitude=0.05, track_count=0))
    bg = s.background
    for frame in range(s.frame_count):
        for centers, dirs, thr in _pixel_and_visibility_rays(s, frame):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scenes, "_MIN_CHUNK_RAYS", 2)
                mp.setattr(scenes, "ThreadPoolExecutor", _NoPool)
                mp.setattr(scenes, "_CORES", 1)
                want_t, want_ok = bg.intersect(centers, dirs)
                want_beyond, want_bok = bg.crossing_beyond(centers, dirs, thr)
                # under two rays per chunk a call stays serial at any core count
                mp.setattr(scenes, "_CORES", cores)
                t3, ok3 = bg.intersect(centers, dirs[:, :3])
                beyond3, _ = bg.crossing_beyond(centers, dirs[:, :3], thr[:, :3])
                npt.assert_array_equal(t3[ok3], want_t[:, :3][ok3])
                npt.assert_array_equal(beyond3[ok3], want_beyond[:, :3][ok3])

                counts = _count_pools(mp)
                got_t, got_ok = bg.intersect(centers, dirs)
                assert counts == [cores]  # one pool, one chunk per core
                got_beyond, got_bok = bg.crossing_beyond(centers, dirs, thr)
                assert counts == [cores]  # visibility runs in the calling thread
            npt.assert_array_equal(got_ok, want_ok)
            npt.assert_array_equal(got_bok, want_bok)
            assert want_ok.any()
            npt.assert_array_equal(got_t[want_ok], want_t[want_ok])
            npt.assert_array_equal(got_beyond[want_ok], want_beyond[want_ok])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.integers(4, 20),
    st.integers(1, 3),
    st.sampled_from([2, 3]),
    st.sampled_from([4, 7, 12]),
)
def test_batched_scene_raycast_matches_per_frame(path, objects, seed, h, w, frames, cores,
                                                 chunks):
    cfg = SceneConfig(seed=seed, frame_count=frames, height=h, width=w, object_count=objects,
                      camera_path=path, camera_magnitude=0.05, track_count=0)
    rays = frames * h * w
    max_chunk = max(4, rays // chunks)  # at least 2 * _MIN_CHUNK_RAYS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenes, "_MIN_CHUNK_RAYS", 2)
        mp.setattr(scenes, "_MAX_CHUNK_RAYS", max_chunk)
        mp.setattr(scenes, "_CORES", cores)
        counts = _count_pools(mp)
        s = generate_scene(cfg)
    # one call split into more chunks than cores, all run on one pool
    split = -(-rays // max_chunk)
    assert split > cores
    assert counts == [split]

    # reference: each frame's rays cast on their own, serially
    ys, xs = np.mgrid[0:h, 0:w]
    k = s.intrinsics[0]
    d_cam = np.stack([(xs.ravel() - k.cx) / k.fx, (ys.ravel() - k.cy) / k.fy,
                      np.ones(h * w)], axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenes, "_CORES", 1)
        mp.setattr(scenes, "ThreadPoolExecutor", _NoPool)
        for t, pose in enumerate(s.poses):
            dirs = d_cam @ pose.rotation
            [t_bg], [ok_bg] = s.background.intersect(pose.center[None], dirs[None])
            tpar, sid, hit = _nearest_surface(s.objects, (t_bg, ok_bg), pose.center, dirs, t)
            hit = hit.reshape(h, w)
            world = (pose.center + tpar[:, None] * dirs).reshape(h, w, 3)
            npt.assert_array_equal(s.depths[t].depth, np.where(hit, tpar.reshape(h, w), 0.0))
            npt.assert_array_equal(s.depths[t].valid, hit)
            npt.assert_array_equal(world_points(s, t), np.where(hit[..., None], world, 0.0))
            npt.assert_array_equal(s.hit_id[t], sid.reshape(h, w))
            npt.assert_array_equal(s.hit_id[t] > -2, hit)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.integers(4, 16),
    st.integers(4, 20),
    st.integers(2, 4),
    st.sampled_from([2, 3]),
    st.sampled_from([4, 7, 12]),
)
def test_chunked_tracks_and_matching_maps_match_serial(path, objects, seed, h, w, frames,
                                                       cores, chunks):
    s = generate_scene(SceneConfig(seed=seed, frame_count=frames, height=h, width=w,
                                   object_count=objects, camera_path=path,
                                   camera_magnitude=0.05, track_count=0))
    # every pixel that hits a surface, queried at its own frame and tracked
    # through every frame in one multi-group call
    qf, qy, qx = np.nonzero(s.hit_id > -2)
    qp = np.stack([qx, qy], axis=1)
    pairs = [(i, j) for i in range(frames) for j in range(frames)]

    def render():
        return build_tracks(s, qf, qp), [gt_pointmap_matching(s, i, j) for i, j in pairs]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenes, "_CORES", 1)
        mp.setattr(scenes, "ThreadPoolExecutor", _NoPool)
        want_tracks, want_maps = render()
    max_chunk = max(4, h * w // chunks)  # at least 2 * _MIN_CHUNK_RAYS
    # visibility never splits, at any core count or chunk bound: one
    # visibility call for the tracks and one per pair, each in this thread
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenes, "_MIN_CHUNK_RAYS", 2)
        mp.setattr(scenes, "_MAX_CHUNK_RAYS", max_chunk)
        mp.setattr(scenes, "_CORES", cores)
        mp.setattr(scenes, "ThreadPoolExecutor", _NoPool)
        got_tracks, got_maps = render()
    for name in ("camera", "pixels", "visible"):
        npt.assert_array_equal(getattr(got_tracks, name), getattr(want_tracks, name),
                               err_msg=name)
    for (i, j), a, b in zip(pairs, got_maps, want_maps):
        npt.assert_array_equal(a.points, b.points, err_msg=f"pair {(i, j)}")
        npt.assert_array_equal(a.valid, b.valid, err_msg=f"pair {(i, j)}")


def test_multi_group_observe_matches_one_group_calls(seq):
    # build_tracks' (T, Q, 3) stack for every pixel that hits a surface at
    # frame 0; Q >= 2, since a one-row BLAS call may differ in the last bit
    qy, qx = np.nonzero(seq.hit_id[0] > -2)
    tracks = build_tracks(seq, np.zeros(len(qx), dtype=np.int64), np.stack([qx, qy], axis=1))
    stack = tracks.world.swapaxes(0, 1)
    frames = range(seq.frame_count)
    got = _observe(seq, frames, stack)
    assert got[2].any() and not got[2].all()
    for t in frames:
        for name, a, [b] in zip(("camera", "pixels", "visible"), got,
                                _observe(seq, [t], stack[t:t + 1])):
            npt.assert_array_equal(a[t], b, err_msg=f"{name} at frame {t}")


def _intersect_matches(bg, centers, dirs, want):
    got, ok = bg.intersect(centers, dirs)
    if not np.array_equal(got[ok], want[ok]):
        raise AssertionError("forked child's bisection differs")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_can_split_a_bisection(seq, monkeypatch):
    # a child forked after a split bisection builds its own pool
    monkeypatch.setattr(scenes, "_MIN_CHUNK_RAYS", 2)
    monkeypatch.setattr(scenes, "_CORES", 2)
    (centers, dirs, _), _ = _pixel_and_visibility_rays(seq, 0)
    want, _ = seq.background.intersect(centers, dirs)
    child = multiprocessing.get_context("fork").Process(
        target=_intersect_matches, args=(seq.background, centers, dirs, want))
    child.start()
    child.join(30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0


def test_no_raycast_thread_outlives_its_call(seq, monkeypatch):
    monkeypatch.setattr(scenes, "_MIN_CHUNK_RAYS", 2)
    monkeypatch.setattr(scenes, "_CORES", 2)
    ran_on = set()
    bisect = scenes.HeightField._bisect_chunk

    def recording(field, origins, dirs):
        ran_on.add(threading.current_thread())
        return bisect(field, origins, dirs)

    monkeypatch.setattr(scenes.HeightField, "_bisect_chunk", recording)
    (centers, dirs, _), _ = _pixel_and_visibility_rays(seq, 0)
    before = threading.enumerate()
    seq.background.intersect(centers, dirs)
    assert set(threading.enumerate()) == set(before)
    # the call was split across threads, each of which has ended
    workers = ran_on - {threading.current_thread()}
    assert workers
    assert not [t.name for t in workers if t.is_alive()]


def _fallback_rows(monkeypatch):
    """Count what crossing_beyond leaves to the bisection: the row count of
    each call that a visibility chunk makes, in a list the caller reads."""
    rows = []
    bisect = scenes.HeightField._bisect_chunk

    def counting(field, origins, dirs):
        if sys._getframe(1).f_code is scenes.HeightField._beyond_chunk.__code__:
            rows.append(len(dirs))
        return bisect(field, origins, dirs)

    monkeypatch.setattr(scenes.HeightField, "_bisect_chunk", counting)
    return rows


@pytest.mark.parametrize("seed,path", [(0, "orbit"), (1, "linear"), (2, "random-smooth")])
def test_certified_edge_matches_full_refinement(monkeypatch, seed, path):
    s = generate_scene(SceneConfig(seed=seed, frame_count=2, height=16, width=20,
                                   object_count=2, camera_path=path, track_count=0))
    bg = s.background
    centers, [dirs], _ = _pixel_and_visibility_rays(s, 0)[1]
    [t], [ok] = bg.intersect(centers, dirs[None])
    assert ok.all()
    # thresholds k E / m past the crossing, where m bounds g's rise per unit t:
    # |g(thr)| >= k E, so |k| > 3 is certified and smaller |k| may not be
    origins = np.broadcast_to(centers, dirs.shape)  # the rows of one chunk
    _, hi0, _ = bg._bracket(origins, dirs)
    rise = dirs[:, 2] - bg.slope * np.hypot(dirs[:, 0], dirs[:, 1])
    unit = bg._sign_error(origins, dirs, hi0) / rise
    thresholds = {f"t + {k} E/m": t + k * unit
                  for k in (-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12)}
    # and the crossing itself and its float neighbours, where g's sign is noise
    thresholds.update({"t - 1 ulp": np.nextafter(t, -np.inf), "t": t,
                       "t + 1 ulp": np.nextafter(t, np.inf)})
    rows = _fallback_rows(monkeypatch)
    for name, thr in thresholds.items():
        [beyond], _ = bg.crossing_beyond(centers, dirs[None], thr[None])
        npt.assert_array_equal(beyond, t >= thr, err_msg=name)
    assert 3 * len(dirs) <= sum(rows) < len(thresholds) * len(dirs)


def test_steep_field_falls_back_on_shallow_rays(monkeypatch):
    # slope bound 0.3 * 5 + 0.2 * 5.39 = 2.58: rays with d_z below 2.58 |d_xy|
    # have no monotone certificate and may cross the surface more than once
    bg = scenes.HeightField(base=0.0, amps=np.array([0.3, 0.2]),
                            freqs=np.array([[4.0, 3.0], [-5.0, 2.0]]),
                            phases=np.array([0.1, 1.0]))
    rng = np.random.default_rng(0)
    n = 400
    angle = rng.uniform(0, 2 * np.pi, n)
    dirs = np.stack([np.cos(angle), np.sin(angle), np.geomspace(0.2, 6.0, n)], axis=1)
    o = np.array([0.1, -0.2, -1.5])
    origins = np.broadcast_to(o, dirs.shape)
    lo0, hi0, ok = bg._bracket(origins, dirs)
    assert ok.all()
    thr = lo0 + rng.uniform(-0.1, 1.1, n) * (hi0 - lo0)
    [t], _ = bg.intersect(o[None], dirs[None])
    rows = _fallback_rows(monkeypatch)
    [beyond], _ = bg.crossing_beyond(o[None], dirs[None], thr[None])
    npt.assert_array_equal(beyond, t >= thr)
    shallow = dirs[:, 2] <= bg.slope * np.hypot(dirs[:, 0], dirs[:, 1])
    in_bracket = (lo0 < thr) & (thr <= hi0)
    assert (shallow & in_bracket).sum() > 0 and (~shallow & in_bracket).sum() > 0
    assert len(rows) == 1 and (shallow & in_bracket).sum() <= rows[0] < in_bracket.sum()


def test_one_undecided_ray_bisects_in_two_rows(seq, monkeypatch):
    bg = seq.background
    centers, dirs, thr = _pixel_and_visibility_rays(seq, 1)[1]
    t, _ = bg.intersect(centers, dirs)
    thr[0, 5] = t[0, 5]  # g(thr) is rounding noise at the crossing itself
    rows = _fallback_rows(monkeypatch)
    beyond, _ = bg.crossing_beyond(centers, dirs, thr)
    assert rows == [2]
    npt.assert_array_equal(beyond, t >= thr)
    assert beyond[0, 5]


def test_matched_renders_need_no_bisection(monkeypatch):
    # the certified test decides every ray of a scene's matching maps and tracks
    s = generate_scene(SceneConfig(seed=0, frame_count=5, height=16, width=20))
    rows = _fallback_rows(monkeypatch)
    maps = [gt_pointmap_matching(s, i, j) for i in range(5) for j in range(5)]
    build_tracks(s, s.tracks.query_frames, s.tracks.query_pixels)
    assert len(maps) == 25 and rows == []
