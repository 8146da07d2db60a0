import gc
import itertools
import tracemalloc
import weakref
from contextlib import suppress

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch import pipelines
from pointmatch.alignment import build_pair_graph
from pointmatch.geometry import Pointmap, unproject
from pointmatch.matching import sparsify_tracks
from pointmatch.metrics import apd
from pointmatch.pipelines import (
    OraclePredictor,
    feedforward_recon,
    plan_pairs,
    track_3d,
    video_depth,
    window_starts,
)
from pointmatch.scenes import (
    SceneConfig,
    build_tracks,
    generate_scene,
    gt_pointmap_matching,
    gt_rigid_pointmap,
    world_points,
)


def _scene(**kw):
    base = dict(seed=31, frame_count=6, height=16, width=20, object_count=1,
                motion_magnitude=0.05, camera_path="orbit", camera_magnitude=0.01,
                track_count=6)
    base.update(kw)
    return generate_scene(SceneConfig(**base))


@pytest.fixture(scope="module")
def seq():
    return _scene()


@pytest.fixture(scope="module")
def oracle(seq):
    return OraclePredictor(seq)


def test_window_starts_hand_cases():
    assert window_starts(24, 12, 4) == [0, 8, 12]
    assert window_starts(24, 12, 0) == [0, 12]
    assert window_starts(12, 12, 4) == [0]
    assert window_starts(5, 12, 4) == [0]
    assert window_starts(25, 12, 0) == [0, 12, 13]


def test_window_starts_cover_everything():
    for length in (13, 24, 37, 100):
        for window in (4, 7, 12):
            for overlap in (0, 1, 3):
                if overlap >= window:
                    continue
                starts = window_starts(length, window, overlap)
                covered = set()
                for s in starts:
                    covered.update(range(s, min(s + window, length)))
                assert covered == set(range(length)), (length, window, overlap)


def test_window_starts_validation():
    with pytest.raises(ValueError):
        window_starts(0, 12, 4)
    with pytest.raises(ValueError):
        window_starts(10, 1, 0)
    with pytest.raises(ValueError):
        window_starts(10, 4, 4)


def test_plan_pairs_templates():
    p = plan_pairs("tracking", [3, 4, 5])
    assert p.keyframe == 3
    assert p.pairs == [(3, 3), (4, 3), (5, 3)]
    d = plan_pairs("video_depth", [0, 1])
    assert d.keyframe is None
    assert d.pairs == [(0, 0), (1, 1)]
    r = plan_pairs("reconstruction", [2, 3, 4])
    assert r.keyframe == 4
    assert r.pairs == [(4, 2), (4, 3), (4, 4)]


def test_plan_pairs_validation():
    with pytest.raises(ValueError):
        plan_pairs("tracking", [])
    with pytest.raises(ValueError):
        plan_pairs("segmentation", [0, 1])


@pytest.mark.parametrize("sigma_point", [0.0, 0.01], ids=["noiseless", "noisy"])
def test_oracle_rejects_a_negative_seed(seq, sigma_point):
    # at construction, noisy or not: a noiseless predictor never draws
    with pytest.raises(ValueError, match="seed must be >= 0"):
        OraclePredictor(seq, sigma_point=sigma_point, seed=-1)


def test_oracle_deterministic(seq):
    a = OraclePredictor(seq, sigma_point=0.05, sigma_scale=0.1, seed=4)
    p1 = a.predict(2, 0)
    p2 = a.predict(2, 0)
    npt.assert_array_equal(p1.x_ji_matched.points, p2.x_ji_matched.points)
    npt.assert_array_equal(p1.x_ii.points, p2.x_ii.points)
    # different pairs draw different noise
    p3 = a.predict(3, 0)
    assert not np.array_equal(p1.x_ii.points, p3.x_ii.points)


def test_oracle_noiseless_is_exact(seq, oracle):
    from pointmatch.geometry import unproject
    from pointmatch.scenes import gt_pointmap_matching, gt_rigid_pointmap

    p = oracle.predict(4, 1)
    npt.assert_array_equal(p.x_ji.points, gt_rigid_pointmap(seq, 4, 1).points)
    npt.assert_array_equal(p.x_ji_matched.points, gt_pointmap_matching(seq, 4, 1).points)
    npt.assert_array_equal(p.x_ii.points, unproject(seq.depths[4], seq.intrinsics[4]).points)


def test_oracle_jitter_shared_within_pair(seq):
    a = OraclePredictor(seq, sigma_scale=0.3, seed=7)
    clean = OraclePredictor(seq)
    p = a.predict(2, 0)
    c = clean.predict(2, 0)
    sel = p.x_ii.valid
    f = p.x_ii.points[sel][:, 2] / c.x_ii.points[sel][:, 2]
    npt.assert_allclose(f, f[0], rtol=1e-12)  # one factor for the whole map
    sel2 = p.x_ji.valid
    f2 = p.x_ji.points[sel2][:, 2] / c.x_ji.points[sel2][:, 2]
    npt.assert_allclose(f2[0], f[0], rtol=1e-12)  # same factor across heads


def _eager_heads(seq, sigma_point, sigma_scale, seed, i, j):
    """Reference: every head of pair (i, j) rendered up front, in a fixed order."""

    def perturb(pm, role):
        if sigma_point <= 0:
            return pm
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i, j, role))))
        z = np.abs(pm.points[..., 2:3])
        eps = rng.normal(size=pm.points.shape) * (sigma_point * z)
        pts = pm.points + eps
        pts[~pm.valid] = 0.0
        return Pointmap(pts, pm.valid)

    ego = perturb(unproject(seq.depths[i], seq.intrinsics[i]), 1)
    rigid = perturb(gt_rigid_pointmap(seq, i, j), 2)
    matched = perturb(gt_pointmap_matching(seq, i, j), 3)
    if sigma_scale > 0:
        jitter = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i, j, 9))))
        f = float(np.exp(jitter.normal() * sigma_scale))
        ego, rigid, matched = ego.scaled(f), rigid.scaled(f), matched.scaled(f)
    return {"x_ii": ego.points, "x_ji": rigid.points, "x_ji_matched": matched.points}


# every order of the three renders (ego, rigid, matched)
_HEAD_ORDERS = list(itertools.permutations(["x_ii", "x_ji", "x_ji_matched"]))


@pytest.mark.parametrize("sigma_scale", [0.0, 0.05])
@pytest.mark.parametrize("sigma_point", [0.0, 0.01])
def test_lazy_heads_match_eager_render_in_any_order(seq, sigma_point, sigma_scale):
    oracle = OraclePredictor(seq, sigma_point=sigma_point, sigma_scale=sigma_scale, seed=5)
    for i, j in [(3, 1), (2, 2)]:
        want = _eager_heads(seq, sigma_point, sigma_scale, 5, i, j)
        for order in _HEAD_ORDERS:
            pred = oracle.predict(i, j)
            assert pred.frames == (i, j)
            for name in order:
                head = getattr(pred, name)
                npt.assert_array_equal(head.points, want[name], err_msg=f"{name} in {order}")
                assert getattr(pred, name) is head  # rendered once per pair


def test_tasks_render_only_the_heads_they_read(seq, monkeypatch):
    built = {"matched": [], "rigid": []}

    def counting(kind, fn):
        def wrapper(s, i, j):
            built[kind].append((i, j))
            return fn(s, i, j)
        return wrapper

    monkeypatch.setattr(pipelines, "gt_pointmap_matching",
                        counting("matched", gt_pointmap_matching))
    monkeypatch.setattr(pipelines, "gt_rigid_pointmap", counting("rigid", gt_rigid_pointmap))
    oracle = OraclePredictor(seq, sigma_point=0.01, sigma_scale=0.05, seed=2)

    video_depth(seq, oracle)
    assert built == {"matched": [], "rigid": []}
    recon = feedforward_recon(seq, oracle, window=4)
    assert built["matched"] == []
    assert built["rigid"] == [(recon.keyframe, t) for t in recon.frames]

    built["rigid"].clear()
    track_3d(seq, oracle, seq.tracks.query_pixels, window=4, overlap=1, mode="matched")
    assert built["rigid"] == []
    assert len(built["matched"]) > 0

    built["matched"].clear()
    problem = build_pair_graph(seq, oracle, stride=1)
    edges = [(e.i, e.j) for e in problem.edges]
    # the ego-map pairs (f, f) build neither map; each edge builds each map once
    assert built["matched"] == edges
    assert built["rigid"] == edges


def _count_renders(monkeypatch):
    """(view1, view2, kind) of every matched and rigid map built, in order."""
    built = []

    def counting(kind, fn):
        def wrapper(s, i, j):
            built.append((i, j, kind))
            return fn(s, i, j)
        return wrapper

    monkeypatch.setattr(pipelines, "gt_pointmap_matching",
                        counting("matched", gt_pointmap_matching))
    monkeypatch.setattr(pipelines, "gt_rigid_pointmap", counting("rigid", gt_rigid_pointmap))
    return built


def test_predictor_renders_each_head_once(seq, monkeypatch):
    built = _count_renders(monkeypatch)
    kw = dict(sigma_point=0.01, sigma_scale=0.05, seed=2)
    oracle = OraclePredictor(seq, **kw)
    reads = 0
    for _ in range(3):
        for pair in [(3, 1), (1, 3), (2, 2)]:
            pred = oracle.predict(*pair)
            pred.x_ji_matched, pred.x_ji, pred.x_ii
            reads += 2
    # windows of every length start at frame 0 and so share its pairs
    for window, overlap in [(4, 1), (6, 2), (3, 1), (2, 0)]:
        for mode in ("matched", "rigid"):
            track_3d(seq, oracle, seq.tracks.query_pixels, window=window, overlap=overlap,
                     mode=mode)
            reads += sum(min(window, seq.frame_count - s)
                         for s in window_starts(seq.frame_count, window, overlap))
    assert len(built) == len(set(built))
    assert reads > 2 * len(built)  # most reads were repeats

    # a repeated call renders nothing, and tracks as a fresh predictor does
    rendered = len(built)
    queries = seq.tracks.query_pixels
    res = track_3d(seq, oracle, queries, window=4, overlap=1)
    assert len(built) == rendered
    want = track_3d(seq, OraclePredictor(seq, **kw), queries, window=4, overlap=1)
    npt.assert_array_equal(res.tracks, want.tracks)
    npt.assert_array_equal(res.valid, want.valid)
    assert res.scales == want.scales and res.starts == want.starts
    # every map the memo serves is bit-identical to a fresh predictor's
    heads = [((t, start), name) for start in res.starts
             for t in range(start, min(start + 4, seq.frame_count))
             for name in ("x_ji_matched", "x_ji")]
    fresh = [getattr(OraclePredictor(seq, **kw).predict(*pair), name) for pair, name in heads]
    rendered = len(built)
    for (pair, name), want in zip(heads, fresh):
        got = getattr(oracle.predict(*pair), name)
        npt.assert_array_equal(got.points, want.points, err_msg=f"{name} of {pair}")
        npt.assert_array_equal(got.valid, want.valid, err_msg=f"{name} of {pair}")
    assert len(built) == rendered


def _held_bytes(oracle):
    h, w = oracle.seq.resolution
    return oracle._head.cache_info().currsize * 25 * h * w  # float64 points, bool validity


def _arrays(head):
    return [head.points, head.valid]


def test_memo_evicts_to_its_budget_and_rerenders_identically(seq, monkeypatch):
    budget = 25_000  # three 16x20 heads of 8,000 bytes
    monkeypatch.setattr(pipelines, "_HEAD_MEMO_BYTES", budget)
    kw = dict(sigma_point=0.01, sigma_scale=0.05, seed=4)
    rng = np.random.default_rng(0)
    names = ["x_ii", "x_ji", "x_ji_matched"]
    reads = []
    for _ in range(60):
        i, j = (int(v) for v in rng.integers(0, 3, size=2))
        reads.append((i, j, names[int(rng.integers(0, 3))]))
        reads.append(reads[-1])  # an immediate repeat always hits
    # each read's reference comes from a predictor that never read anything else
    want = [_arrays(getattr(OraclePredictor(seq, **kw).predict(i, j), name))
            for i, j, name in reads]

    built = _count_renders(monkeypatch)
    oracle = OraclePredictor(seq, **kw)
    for (i, j, name), ref in zip(reads, want):
        got = _arrays(getattr(oracle.predict(i, j), name))
        for a, b in zip(got, ref):
            npt.assert_array_equal(a, b, err_msg=f"{name} of {(i, j)}")
        assert 0 < _held_bytes(oracle) <= budget
    assert len(built) > len(set(built))  # evicted heads were rendered again
    assert len(built) < len(reads)  # and the repeats hit


def test_predictor_is_freed_without_a_collection(seq):
    # its memo holds no reference back to it, so dropping the last reference
    # frees it and its heads at once, with the cycle collector off
    oracle = OraclePredictor(seq, sigma_point=0.01, seed=1)
    pred = oracle.predict(1, 2)
    heads = [weakref.ref(pred.x_ii), weakref.ref(pred.x_ji), weakref.ref(pred.x_ji_matched)]
    assert oracle._head.cache_info().currsize == 3
    gone = weakref.ref(oracle)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del oracle, pred
        assert gone() is None
        assert all(head() is None for head in heads)
    finally:
        if was_enabled:
            gc.enable()


def test_track_holds_one_window_of_maps(monkeypatch):
    monkeypatch.setattr(pipelines, "_HEAD_MEMO_BYTES", 0)
    s = _scene(frame_count=5)
    queries = s.tracks.query_pixels
    window, overlap = 2, 1
    starts = window_starts(s.frame_count, window, overlap)
    assert len(starts) == 4
    pairs = [pair for start in starts
             for pair in plan_pairs("tracking", range(start, start + window)).pairs]

    def peak(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            tracemalloc.stop()

    track_3d(s, OraclePredictor(s), queries, window=window, overlap=overlap)  # warm caches
    render = max(peak(lambda: OraclePredictor(s).predict(*pair).x_ji_matched)[0]
                 for pair in pairs)
    held, res = peak(lambda: track_3d(s, OraclePredictor(s), queries, window=window,
                                      overlap=overlap))
    head = world_points(s, 0).nbytes + s.depths[0].valid.nbytes
    # one render, the rest of its window's maps, and the output: no earlier
    # window's maps and no later one's
    assert held < render + window * head + res.tracks.nbytes + res.valid.nbytes


def test_video_depth_noiseless_matches_gt(seq, oracle):
    depths = video_depth(seq, oracle)
    assert len(depths) == seq.frame_count
    for got, want in zip(depths, seq.depths):
        npt.assert_array_equal(got.valid, want.valid)
        npt.assert_allclose(got.depth[want.valid], want.depth[want.valid], atol=1e-12)


def test_feedforward_recon_shapes(seq, oracle):
    r = feedforward_recon(seq, oracle, window=4)
    assert r.keyframe == seq.frame_count - 1
    assert r.frames == [2, 3, 4, 5]
    total = sum(int(oracle.predict(5, t).x_ji.valid.sum()) for t in r.frames)
    assert r.points.shape == (total, 3)


def test_recon_cloud_lies_on_keyframe_geometry(seq, oracle):
    # keyframe's own map must appear in the cloud exactly
    r = feedforward_recon(seq, oracle, window=3)
    ego = oracle.predict(r.keyframe, r.keyframe).x_ji
    kf_pts = ego.points[ego.valid]
    assert any(np.allclose(r.points[-len(kf_pts):], kf_pts)
               for _ in [0])  # keyframe pair is the last map appended


def test_track_single_window_matches_gt(seq, oracle):
    tr_gt = seq.tracks
    res = track_3d(seq, oracle, tr_gt.query_pixels, window=12, overlap=4)
    assert res.starts == [0]
    both = res.valid & tr_gt.visible
    assert both.any()
    npt.assert_allclose(res.tracks[both], tr_gt.camera[both], atol=1e-9)


def test_track_validity_respects_occlusion(seq, oracle):
    tr_gt = seq.tracks
    res = track_3d(seq, oracle, tr_gt.query_pixels, window=12, overlap=4)
    # a pixel the oracle can't match (occluded/out of view) must not be valid
    assert not (res.valid & ~tr_gt.visible)[:, 1:].any()


def test_track_stitched_windows_static_camera():
    s = _scene(seed=77, frame_count=14, camera_magnitude=0.0, motion_magnitude=0.08,
               object_count=1, track_count=0)
    always_bg = (s.hit_id == -1).all(axis=0)
    ys, xs = np.nonzero(always_bg)
    pick = np.linspace(0, len(xs) - 1, 8).astype(int)
    queries = np.stack([xs[pick], ys[pick]], axis=1)
    oracle = OraclePredictor(s)
    res = track_3d(s, oracle, queries, window=6, overlap=2)
    assert len(res.starts) > 1
    gt = build_tracks(s, queries)
    assert res.valid.all()
    npt.assert_allclose(res.tracks, gt.camera, atol=1e-6)
    npt.assert_allclose(np.array(res.scales), 1.0, atol=1e-12)
    rep = apd(res.tracks, gt.camera, gt.visible, res.valid)
    assert rep.apd == 100.0


def test_track_stitched_windows_moving_camera_trend():
    s = _scene(seed=78, frame_count=14, camera_magnitude=0.015, motion_magnitude=0.0,
               object_count=1, track_count=0)
    always_bg = (s.hit_id == -1).all(axis=0)
    ys, xs = np.nonzero(always_bg)
    pick = np.linspace(0, len(xs) - 1, 8).astype(int)
    queries = np.stack([xs[pick], ys[pick]], axis=1)
    oracle = OraclePredictor(s)
    res = track_3d(s, oracle, queries, window=6, overlap=2)
    gt = build_tracks(s, queries)
    both = res.valid & gt.visible
    err = np.linalg.norm(res.tracks - gt.camera, axis=-1)[both]
    # nearest-pixel re-seeding costs up to ~half a pixel of depth ray; stays small
    assert err.max() < 0.1
    rep = apd(res.tracks, gt.camera, gt.visible, res.valid)
    assert rep.apd > 80.0


def test_track_rigid_mode_misses_dynamic_objects():
    s = _scene(seed=80, frame_count=8, camera_magnitude=0.0, motion_magnitude=0.12,
               object_count=2, track_count=0)
    dyn0 = s.dynamic_labels[0]
    if not dyn0.any():
        pytest.skip("no dynamic pixels at frame 0 for this seed")
    ys, xs = np.nonzero(dyn0)
    pick = np.linspace(0, len(xs) - 1, min(6, len(xs))).astype(int)
    queries = np.stack([xs[pick], ys[pick]], axis=1)
    oracle = OraclePredictor(s)
    gt = build_tracks(s, queries)
    res_m = track_3d(s, oracle, queries, window=8, overlap=4, mode="matched")
    res_r = track_3d(s, oracle, queries, window=8, overlap=4, mode="rigid")
    apd_m = apd(res_m.tracks, gt.camera, gt.visible, res_m.valid).apd
    apd_r = apd(res_r.tracks, gt.camera, gt.visible, res_r.valid).apd
    assert apd_m > apd_r


def test_track_query_validation(seq, oracle):
    with pytest.raises(ValueError):
        track_3d(seq, oracle, np.array([[0, 0, 0]]))
    with pytest.raises(ValueError):
        track_3d(seq, oracle, np.zeros((1, 2), np.int64), mode="hybrid")


@pytest.fixture(scope="module")
def tiny():
    return _scene(frame_count=3, height=8, width=10, track_count=4)


def _set_first(q, col, value):
    q = q.astype(float)
    q[0, col] = value
    return q


_NOT_PIXELS = {
    "shift-0.6": lambda q: q + 0.6,
    "nan": lambda q: _set_first(q, 0, np.nan),
    "inf": lambda q: _set_first(q, 1, np.inf),
    "x-minus-1": lambda q: _set_first(q, 0, -1),
    "x-width": lambda q: _set_first(q, 0, 10),
    "q-by-3": lambda q: np.concatenate([q, q[:, :1]], axis=1),
}


@pytest.mark.parametrize("reader", ["build_tracks", "track_3d", "sparsify_tracks"])
@pytest.mark.parametrize("case", list(_NOT_PIXELS))
def test_pixel_readers_reject_queries_that_are_not_whole_pixels(tiny, reader, case):
    maps = [gt_pointmap_matching(tiny, t, 0) for t in range(tiny.frame_count)]
    read = {
        "build_tracks": lambda q: build_tracks(tiny, q).camera,
        "track_3d": lambda q: track_3d(tiny, OraclePredictor(tiny), q, window=2, overlap=1).tracks,
        "sparsify_tracks": lambda q: sparsify_tracks(maps, q)[0],
    }[reader]
    q = tiny.tracks.query_pixels
    # whole-numbered floats, as read back from a float32 tensor, are pixels
    npt.assert_array_equal(read(q.astype(np.float32)), read(q))
    with pytest.raises(ValueError, match="pixels must"):
        read(_NOT_PIXELS[case](q))


@pytest.mark.parametrize("frame", [-1, 3, True, 1.0], ids=["minus-1", "n", "bool", "float"])
def test_predict_rejects_frames_outside_the_scene(tiny, frame):
    oracle = OraclePredictor(tiny)
    for pair in ((0, frame), (frame, 0)):
        with pytest.raises(ValueError, match="frame index"):
            oracle.predict(*pair)
    assert oracle.predict(np.int64(2), 0).frames == (2, 0)


def _finite_and_zero_where_invalid(values, valid):
    assert np.all(np.isfinite(values))
    assert not np.any(values[~valid])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(["orbit", "linear", "random-smooth"]),
    st.integers(0, 5),
    st.integers(4, 16),
    st.integers(4, 20),
    st.integers(1, 4),
    st.floats(0.0, 0.2),
    st.floats(0.0, 0.2),
    st.floats(0.0, 0.2),
    st.integers(2, 5),
    st.data(),
)
def test_pipelines_return_clean_outputs_or_raise(cam, objects, h, w, frames, noise, jitter,
                                                 motion, window, data):
    """Over scene configs, noise and windows, each pipeline returns finite
    outputs that are zero wherever invalid, or raises a ValueError (EmptyDomainError is
    one)."""
    overlap = data.draw(st.integers(0, window - 1), label="overlap")
    mode = data.draw(st.sampled_from(["matched", "rigid"]), label="mode")
    seq = generate_scene(SceneConfig(seed=frames + objects, frame_count=frames, height=h,
                                     width=w, object_count=objects, motion_magnitude=motion,
                                     camera_path=cam, track_count=6))
    oracle = OraclePredictor(seq, sigma_point=noise, sigma_scale=jitter, seed=1)
    with suppress(ValueError):
        for m in video_depth(seq, oracle):
            _finite_and_zero_where_invalid(m.depth, m.valid)
    with suppress(ValueError):
        recon = feedforward_recon(seq, oracle, window=window)
        assert np.all(np.isfinite(recon.points))
        maps = [oracle.predict(recon.keyframe, t).x_ji for t in recon.frames]
        assert len(recon.points) == sum(int(m.valid.sum()) for m in maps)
        for m in maps:
            _finite_and_zero_where_invalid(m.points, m.valid)
    with suppress(ValueError):
        res = track_3d(seq, oracle, seq.tracks.query_pixels, window=window, overlap=overlap,
                       mode=mode)
        _finite_and_zero_where_invalid(res.tracks, res.valid)
