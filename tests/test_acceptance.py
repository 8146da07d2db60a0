"""Acceptance suite: one test per release criterion, each printing a verdict.

Every test emits exactly one line, ACCEPTANCE <n> PASS|FAIL <name> [<runtime>],
so a plain `pytest tests/test_acceptance.py -s` doubles as the release
checklist. Runtime budgets are asserted where a criterion carries one; the
fixtures are frozen, and the two trend criteria additionally pin their numbers
against committed reference files under tests/reference/ so silent behavior
drift fails loudly.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
from scipy.optimize import minimize_scalar

from pointmatch.alignment import AlignmentOptions, build_pair_graph, global_align
from pointmatch.attention import TokenGrid, forward, init_params, loss_and_grad
from pointmatch.cli import main as cli_main
from pointmatch.geometry import DepthMap, Pointmap, Pose, transform_pointmap
from pointmatch.io import load_json
from pointmatch.losses import (
    ALPHA_CONF,
    WindowPredictions,
    confidence_optimum,
    regression_loss,
    temporal_window_loss,
)
from pointmatch.matching import dynamic_mask
from pointmatch.metrics import apd, depth_metrics, trajectory_metrics
from pointmatch.pipelines import OraclePredictor, plan_pairs, track_3d, window_starts
from pointmatch.scenes import (
    SceneConfig,
    build_tracks,
    generate_scene,
    gt_pointmap_matching,
    gt_rigid_pointmap,
)
from reference_fixtures import (
    FIT_CONFIG,
    HEADS_CONFIG,
    TREND_CONFIG,
    matched_vs_rigid_apds,
    run_fit,
    window_trend_apds,
)

REFERENCE_DIR = Path(__file__).parent / "reference"


@contextmanager
def criterion(num: int, name: str, budget: float | None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(f"runtime {dt:.1f}s exceeds the {budget:.0f}s budget")
        ok = True
    finally:
        dt = time.perf_counter() - t0
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num} {verdict} {name} [{dt:.1f}s]", flush=True)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _small_rotation(rng, scale):
    w = rng.normal(scale=scale, size=3)
    th = np.linalg.norm(w)
    if th < 1e-12:
        return np.eye(3)
    k = w / th
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(th) * kx + (1 - np.cos(th)) * kx @ kx


def test_criterion_01_pointmap_transform_roundtrip():
    with criterion(1, "pointmap transform roundtrip", 5.0):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            valid = rng.uniform(size=(4, 5)) < 0.9
            pts = np.where(
                valid[..., None],
                rng.normal(scale=rng.uniform(0.1, 10.0), size=(4, 5, 3)),
                0.0,
            )
            pm = Pointmap(pts, valid)
            pose_n = Pose(_random_rotation(rng), rng.normal(size=3))
            pose_m = Pose(_random_rotation(rng), rng.normal(size=3))
            back = transform_pointmap(transform_pointmap(pm, pose_n, pose_m), pose_m, pose_n)
            if valid.any():
                worst = max(worst, float(np.abs(back.points[valid] - pts[valid]).max()))
        assert worst <= 1e-9


def test_criterion_02_matching_dichotomy():
    with criterion(2, "matching dichotomy", 60.0):
        dynamic_scenes = 0
        for s in range(100):
            cfg = SceneConfig(
                seed=s,
                frame_count=4,
                height=12,
                width=16,
                object_count=2,
                motion_magnitude=0.12,
                camera_magnitude=0.02,
                track_count=0,
            )
            seq = generate_scene(cfg)
            i, j = 3, 0
            xm = gt_pointmap_matching(seq, i, j)
            xr = gt_rigid_pointmap(seq, i, j)
            joint = xm.valid & xr.valid
            res = np.linalg.norm(xm.points - xr.points, axis=-1)
            static = joint & ~seq.dynamic_labels[j]
            assert static.any()
            assert res[static].max() <= 1e-9
            dyn = joint & seq.dynamic_labels[j]
            if not dyn.any():
                continue
            dynamic_scenes += 1
            ids = seq.hit_id[j]
            for k, obj in enumerate(seq.objects):
                sel = dyn & (ids == k)
                if sel.any():
                    displacement = np.linalg.norm((i - j) * obj.velocity)
                    npt.assert_allclose(res[sel], displacement, atol=1e-9)
        # the dynamic branch must actually be exercised, not pass vacuously
        assert dynamic_scenes >= 90


def test_criterion_03_dynamic_mask_quality():
    with criterion(3, "dynamic mask quality", 60.0):
        motion = 0.15
        ious, floors, first_pairs = [], [], []
        for s in range(100):
            cfg = SceneConfig(
                seed=1000 + s,
                frame_count=3,
                height=16,
                width=20,
                object_count=2,
                motion_magnitude=motion,
                camera_magnitude=0.01,
                track_count=0,
            )
            seq = generate_scene(cfg)
            pair = OraclePredictor(seq, sigma_point=0.001, seed=7).predict(0, 2)
            dm = dynamic_mask(pair.x_ji_matched, pair.x_ji)
            label = seq.dynamic_labels[2] & dm.valid
            static = dm.valid & ~seq.dynamic_labels[2]
            if static.any():
                floors.append(float(np.median(dm.residuals[static])))
            union = dm.mask | label
            inter = dm.mask & label
            ious.append(1.0 if not union.any() else inter.sum() / union.sum())
            if s < 5:
                first_pairs.append(pair)
        # precondition: motion dominates the noise-induced static residual floor
        assert motion >= 10.0 * float(np.median(floors))
        assert float(np.mean(ious)) >= 0.9
        # rescaling both maps must leave the mask bitwise unchanged
        for pair in first_pairs:
            base = dynamic_mask(pair.x_ji_matched, pair.x_ji).mask
            for f in (0.5, 2.0, 10.0):
                scaled = dynamic_mask(pair.x_ji_matched.scaled(f), pair.x_ji.scaled(f)).mask
                npt.assert_array_equal(scaled, base)


def _random_map(rng, shape=(6, 8), keep=0.9, scale=2.0):
    valid = rng.uniform(size=shape) < keep
    pts = np.where(valid[..., None], rng.normal(scale=scale, size=shape + (3,)), 0.0)
    return Pointmap(pts, valid)


def test_criterion_04_loss_identities():
    with criterion(4, "loss identities", 10.0):
        rng = np.random.default_rng(40)

        # normalized regression loss ignores a global rescale of the prediction
        pred = _random_map(rng)
        gt = Pointmap(
            np.where(pred.valid[..., None], pred.points + rng.normal(scale=0.1, size=pred.points.shape), 0.0),
            pred.valid,
        )
        base = regression_loss(pred, gt).mean
        for s in (0.1, 0.5, 2.0, 10.0):
            assert abs(regression_loss(pred.scaled(s), gt).mean - base) <= 1e-9

        # closed-form confidence optimum against a numeric minimizer
        for r in (0.05, 0.19, ALPHA_CONF, 0.3, 2.0, 17.0):
            c_star, v_star = confidence_optimum(r)
            num = minimize_scalar(
                lambda c: c * r - ALPHA_CONF * np.log(c),
                bounds=(1.0, max(4.0, 4.0 * c_star)),
                method="bounded",
                options={"xatol": 1e-10},
            )
            assert abs(c_star - num.x) <= 1e-6
            assert v_star <= num.fun + 1e-9

        # window losses: exactly zero at ground truth
        maps_a = [_random_map(rng) for _ in range(3)]
        maps_b = [_random_map(rng) for _ in range(3)]
        losses = (temporal_window_loss,)
        for fn in losses:
            at_gt = fn(WindowPredictions(maps_a, maps_a), WindowPredictions(maps_b, maps_b))
            assert at_gt == 0.0

        # ... and blind to a scale shared by the whole window
        for s in (0.1, 0.5, 2.0, 10.0):
            sa = [m.scaled(s) for m in maps_a]
            sb = [m.scaled(s) for m in maps_b]
            for fn in losses:
                scaled = fn(WindowPredictions(sa, maps_a), WindowPredictions(sb, maps_b))
                assert abs(scaled) <= 1e-9

        # ... but strictly positive once frames disagree on scale
        ja = [maps_a[0].scaled(1.2), maps_a[1].scaled(0.8)]
        ga = maps_a[:2]
        clean = WindowPredictions(maps_b[:2], maps_b[:2])
        for fn in losses:
            assert fn(WindowPredictions(ja, ga), clean) > 0.0

        # two-frame fixture replicated with explicit loops
        def pooled_norm(maps):
            total, count = 0.0, 0
            for m in maps:
                n = np.linalg.norm(m.points[m.valid], axis=-1)
                total += float(n.sum())
                count += n.size
            return total / count

        z_pred, z_gt = pooled_norm(ja), pooled_norm(ga)
        terms = []
        for p, g in zip(ja, ga):
            v = p.valid & g.valid
            d = p.points[v] / z_pred - g.points[v] / z_gt
            terms.append(float(np.linalg.norm(d, axis=-1).mean()))
        expected = float(np.mean(terms))  # clean second stream contributes zero
        got = temporal_window_loss(WindowPredictions(ja, ga), clean)
        assert abs(got - expected) <= 1e-12


def test_criterion_05_temporal_module():
    with criterion(5, "temporal module", 120.0):
        rng = np.random.default_rng(50)

        # zero-initialized residual branches: the module is the identity, bitwise
        p0 = init_params(channels=8, heads=4, t_max=6, seed=3)
        x0 = TokenGrid(rng.normal(size=(2, 5, 3, 8)))
        npt.assert_array_equal(forward(x0, p0).values, x0.values)

        # finite-difference check of every parameter gradient
        p = init_params(channels=8, heads=2, t_max=4, seed=4)
        rough = np.random.default_rng(5)
        for n in p.names:
            p.tensors[n] = p.tensors[n] + 0.05 * rough.standard_normal(p.tensors[n].shape)
        x = TokenGrid(rng.normal(size=(1, 4, 3, 8)))
        tgt = TokenGrid(rng.normal(size=(1, 4, 3, 8)))
        _, grads = loss_and_grad(x, p, tgt)
        h = 1e-5
        for n in p.names:
            t = p.tensors[n]
            it = np.nditer(t, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = t[idx]
                t[idx] = orig + h
                lp, _ = loss_and_grad(x, p, tgt)
                t[idx] = orig - h
                lm, _ = loss_and_grad(x, p, tgt)
                t[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[n][idx]
                err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert err <= 1e-4, f"{n}{idx}: fd={fd} analytic={an}"

        # attention mixes frames, never tokens: permuting tokens permutes outputs
        perm = rng.permutation(3)
        out = forward(x, p).values
        out_p = forward(TokenGrid(x.values[:, :, perm]), p).values
        npt.assert_array_equal(out_p, out[:, :, perm])

        # denoiser training halves the loss and reproduces the committed curve
        assert FIT_CONFIG["steps"] <= 500
        fit = run_fit()
        losses = np.asarray(fit.losses)
        assert losses[-1] <= 0.5 * losses[0]
        ref = load_json(REFERENCE_DIR / "fit_curve.json")
        assert ref["config"] == FIT_CONFIG
        npt.assert_allclose(losses, np.asarray(ref["losses"]), rtol=1e-7, atol=1e-12)


def test_criterion_06_alignment_recovery():
    with criterion(6, "alignment recovery", 300.0):
        # noiseless static scenes: pose recovery to well under a millimeter
        good = 0
        for s in range(100):
            cfg = SceneConfig(
                seed=500 + s,
                frame_count=5,
                height=16,
                width=20,
                object_count=0,
                camera_magnitude=0.02,
                track_count=0,
            )
            seq = generate_scene(cfg)
            problem = build_pair_graph(seq, OraclePredictor(seq), stride=2)
            result = global_align(problem)
            ate = trajectory_metrics(result.poses, list(seq.poses)).ate
            good += ate <= 1e-3
        assert good >= 95

        # paired A/B on scenes that are about one fifth dynamic: masking the
        # moving pixels out of the energy must not hurt the trajectory
        wins = 0
        dynamic_fractions = []
        for s in range(50):
            cfg = SceneConfig(
                seed=s,
                frame_count=5,
                height=16,
                width=20,
                object_count=3,
                motion_magnitude=0.2,
                camera_magnitude=0.02,
                track_count=4,
            )
            seq = generate_scene(cfg)
            dynamic_fractions.append(float(seq.dynamic_labels.mean()))
            predictor = OraclePredictor(seq, sigma_point=0.003, seed=1)
            opts = AlignmentOptions(max_iters=60, lambda_2d=0.5)
            on = global_align(build_pair_graph(seq, predictor, stride=2), opts)
            off = global_align(build_pair_graph(seq, predictor, stride=2, use_dynamic_mask=False),
                               opts)
            ate_on = trajectory_metrics(on.poses, list(seq.poses)).ate
            ate_off = trajectory_metrics(off.poses, list(seq.poses)).ate
            wins += ate_on <= ate_off
        assert abs(float(np.mean(dynamic_fractions)) - 0.2) <= 0.1
        assert wins >= 45


def test_criterion_07_pipeline_templates_and_stitching():
    with criterion(7, "pipeline templates and stitching", 60.0):
        frames = (5, 6, 7)
        tr = plan_pairs("tracking", frames)
        assert tr.keyframe == 5
        assert tr.pairs == [(5, 5), (6, 5), (7, 5)]
        vd = plan_pairs("video_depth", frames)
        assert vd.keyframe is None
        assert vd.pairs == [(5, 5), (6, 6), (7, 7)]
        rc = plan_pairs("reconstruction", frames)
        assert rc.keyframe == 7
        assert rc.pairs == [(7, 5), (7, 6), (7, 7)]

        assert window_starts(24, 12, 4) == [0, 8, 12]

        seq = generate_scene(
            SceneConfig(
                seed=21,
                frame_count=24,
                height=16,
                width=24,
                camera_magnitude=0.0,
                motion_magnitude=0.08,
                object_count=1,
                track_count=0,
            )
        )
        always_bg = (seq.hit_id == -1).all(axis=0)
        ys, xs = np.nonzero(always_bg)
        pick = np.linspace(0, len(xs) - 1, 8).astype(int)
        queries = np.stack([xs[pick], ys[pick]], axis=1)
        res = track_3d(seq, OraclePredictor(seq), queries, window=12, overlap=4)
        assert res.starts == [0, 8, 12]
        gt = build_tracks(seq, queries)
        assert res.valid.all()
        npt.assert_allclose(res.tracks, gt.camera, atol=1e-6)
        assert apd(res.tracks, gt.camera, gt.visible, res.valid).apd == 100.0


def _brute_force_trajectory(pred, gt):
    # 4x4 matrix route sharing nothing with the library implementation
    from pointmatch.metrics import umeyama

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
        qp = qp.copy()
        qp[:3, 3] *= s
        e = np.linalg.inv(qg) @ qp
        dts.append(np.sum(e[:3, 3] ** 2))
        ang = np.arccos(np.clip((np.trace(e[:3, :3]) - 1) / 2, -1, 1))
        drs.append(ang**2)
    return {
        "ate": ate,
        "rpe_trans": np.sqrt(np.mean(dts)),
        "rpe_rot": np.degrees(np.sqrt(np.mean(drs))),
    }


def test_criterion_08_metric_sanity():
    with criterion(8, "metric sanity", 10.0):
        rng = np.random.default_rng(80)

        gt = [DepthMap(rng.uniform(1.0, 4.0, size=(6, 8))) for _ in range(3)]
        perfect = depth_metrics(gt, gt)
        assert perfect.abs_rel == 0.0
        assert perfect.delta1 == 100.0

        # scale alignment: a power-of-two rescale of the prediction is invisible
        # down to the bit; an arbitrary one still scores perfect against gt
        pred = [DepthMap(g.depth * np.exp(rng.normal(scale=0.05, size=g.depth.shape))) for g in gt]
        base = depth_metrics(pred, gt, alignment="scale")
        for c in (0.25, 2.0, 8.0):
            moved = depth_metrics([DepthMap(c * p.depth) for p in pred], gt, alignment="scale")
            assert moved.abs_rel == base.abs_rel
            assert moved.delta1 == base.delta1
        odd = depth_metrics([DepthMap(3.7 * g.depth) for g in gt], gt, alignment="scale")
        assert odd.abs_rel <= 1e-12
        assert odd.delta1 == 100.0

        # an error of 0.05*depth clears exactly the 0.08 and 0.16 thresholds
        t = 4
        gt_tracks = np.zeros((1, t, 3))
        gt_tracks[..., 2] = 2.0
        off = gt_tracks.copy()
        off[..., 0] += 0.05 * 2.0
        assert apd(off, gt_tracks, np.ones((1, t), bool)).apd == 40.0

        # identical trajectories score zero
        poses = [Pose(_random_rotation(rng), rng.normal(size=3)) for _ in range(6)]
        same = trajectory_metrics(poses, poses)
        assert same.ate <= 1e-12
        assert same.rpe_trans <= 1e-12
        assert same.rpe_rot_deg <= 1e-5  # arccos near 1 amplifies fp noise

        # hand case: one step offset by 0.1 on identity rotations
        pred2 = [Pose.identity(), Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))]
        gt2 = [Pose.identity(), Pose.identity()]
        npt.assert_allclose(trajectory_metrics(pred2, gt2).rpe_trans, 0.1, atol=1e-12)

        gt3 = [Pose(_random_rotation(rng), rng.normal(size=3)) for _ in range(5)]
        pred3 = [
            Pose(q.rotation @ _small_rotation(rng, 0.02), q.translation + rng.normal(scale=0.05, size=3))
            for q in gt3
        ]
        fast = trajectory_metrics(pred3, gt3)
        slow = _brute_force_trajectory(pred3, gt3)
        npt.assert_allclose(
            [fast.ate, fast.rpe_trans, fast.rpe_rot_deg],
            [slow["ate"], slow["rpe_trans"], slow["rpe_rot"]],
            rtol=1e-9,
        )


def test_criterion_09_ablation_trends():
    with criterion(9, "ablation trends", 300.0):
        trend = {name: [] for name in TREND_CONFIG["windows"]}
        for s in range(TREND_CONFIG["seeds"]):
            for name, score in window_trend_apds(s).items():
                trend[name].append(score)
        means = {name: float(np.mean(v)) for name, v in trend.items()}
        assert means["12"] >= means["6"] >= means["pairwise"]

        wins = 0
        matched_all, rigid_all = [], []
        for s in range(HEADS_CONFIG["seeds"]):
            matched, rigid = matched_vs_rigid_apds(s)
            matched_all.append(matched)
            rigid_all.append(rigid)
            wins += matched > rigid
        assert wins >= int(np.ceil(0.9 * HEADS_CONFIG["seeds"]))

        ref = load_json(REFERENCE_DIR / "ablation_trend.json")
        assert ref["trend_config"] == TREND_CONFIG
        assert ref["heads_config"] == HEADS_CONFIG
        order = ("pairwise", "6", "12")
        npt.assert_allclose(
            [means[k] for k in order],
            [ref["window_means"][k] for k in order],
            rtol=1e-6,
        )
        npt.assert_allclose(
            [float(np.mean(matched_all)), float(np.mean(rigid_all))],
            [ref["matched_mean"], ref["rigid_mean"]],
            rtol=1e-6,
        )


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "cli determinism", None):

        def run(*argv):
            assert cli_main([str(a) for a in argv]) == 0

        def tree(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        scene_a = tmp_path / "scene_a"
        scene_b = tmp_path / "scene_b"
        run("synth", "--seed", 3, "--out", scene_a)
        run("synth", "--seed", 3, "--out", scene_b)
        assert tree(scene_a) == tree(scene_b)

        outputs = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            run("track", scene_a, "--out", d / "track", "--window", 6, "--overlap", 2)
            run("depth", scene_a, "--out", d / "depth")
            run("recon", scene_a, "--out", d / "recon")
            run("align", scene_a, "--out", d / "align", "--stride", 2)
            run("eval", "track", d / "track", scene_a, "--out", d / "eval_track.json")
            run("eval", "depth", d / "depth", scene_a, "--out", d / "eval_depth.json")
            run("eval", "traj", d / "align", scene_a, "--out", d / "eval_traj.json")
            run("ablate", scene_a, "--out", d / "ablate.json")
            outputs[tag] = tree(d)
        assert outputs["a"] == outputs["b"]
