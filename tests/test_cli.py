import contextlib
import io
import json
import shutil
import warnings

import numpy as np
import pytest

from pointmatch.cli import main
from pointmatch.io import dump_json, load_json, read_tensor


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "scene"
    code = run_cli("synth", "--seed", 3, "--out", root)
    assert code == 0
    return root


def test_synth_byte_identical(tmp_path, scene_dir):
    other = tmp_path / "again"
    assert run_cli("synth", "--seed", 3, "--out", other) == 0
    assert read_tree(scene_dir) == read_tree(other)


def test_synth_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "frame_count": 3, "track_count": 4}))
    out = tmp_path / "scene"
    assert run_cli("synth", "--config", cfg, "--seed", 9, "--out", out) == 0
    run = load_json(out / "run.json")
    assert run["config"]["seed"] == 9  # flag beats file
    assert run["config"]["frame_count"] == 3  # file beats default
    meta = load_json(out / "meta.json")
    assert meta["config"]["seed"] == 9


def test_track_and_eval(tmp_path, scene_dir):
    out = tmp_path / "tr"
    assert run_cli("track", scene_dir, "--out", out, "--window", 6, "--overlap", 2) == 0
    meta = load_json(out / "meta.json")
    assert meta["format"] == "tracking-result-v1"
    assert meta["window"] == 6
    report_path = tmp_path / "report.json"
    assert run_cli("eval", "track", out, scene_dir, "--out", report_path) == 0
    report = load_json(report_path)["report"]
    # noiseless oracle tracks are exact
    assert report["apd"] == 100.0


def test_depth_eval_pred_equals_gt(tmp_path, scene_dir):
    out = tmp_path / "dp"
    assert run_cli("depth", scene_dir, "--out", out) == 0
    report_path = tmp_path / "report.json"
    assert run_cli("eval", "depth", out, scene_dir, "--out", report_path) == 0
    report = load_json(report_path)["report"]
    assert report["scale"]["abs_rel"] == 0.0
    assert report["scale"]["delta1"] == 100.0
    assert report["scale_shift"]["abs_rel"] == 0.0
    assert report["scale_shift"]["delta1"] == 100.0


def test_recon_output(tmp_path, scene_dir):
    out = tmp_path / "rc"
    assert run_cli("recon", scene_dir, "--out", out, "--window", 4) == 0
    meta = load_json(out / "meta.json")
    assert meta["format"] == "recon-result-v1"
    assert meta["keyframe"] == meta["frames"][-1]
    assert len(meta["frames"]) == 4


def test_align_and_eval_traj(tmp_path, scene_dir):
    out = tmp_path / "al"
    assert run_cli("align", scene_dir, "--out", out, "--stride", 2) == 0
    report = load_json(out / "report.json")
    assert report["converged"] is True
    trace = np.array(report["energy_trace"])
    assert (np.diff(trace) <= 0).all()
    report_path = tmp_path / "traj.json"
    assert run_cli("eval", "traj", out, scene_dir, "--out", report_path) == 0
    rep = load_json(report_path)["report"]
    assert rep["ate"] <= 1e-6


def test_align_byte_identical(tmp_path, scene_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("align", scene_dir, "--out", out, "--stride", 2) == 0
    assert read_tree(a) == read_tree(b)


def test_ablate_table(tmp_path, scene_dir):
    table_path = tmp_path / "ablation.json"
    assert run_cli("ablate", scene_dir, "--out", table_path, "--jitter", 0.15) == 0
    table = load_json(table_path)
    assert table["format"] == "ablation-v1"
    w = {k: v["mean_apd"] for k, v in table["windows"].items()}
    assert set(w) == {"1", "6", "12"}
    assert w["12"] >= w["1"]
    heads = table["heads"]
    assert heads["matched"]["mean_apd"] >= heads["rigid"]["mean_apd"]


def test_file_outputs_create_their_parent_dir(tmp_path, scene_dir):
    table_path = tmp_path / "new" / "ablation.json"
    assert run_cli("ablate", scene_dir, "--out", table_path) == 0
    assert load_json(table_path)["format"] == "ablation-v1"
    depth = tmp_path / "dp"
    assert run_cli("depth", scene_dir, "--out", depth) == 0
    report_path = tmp_path / "reports" / "depth" / "report.json"
    assert run_cli("eval", "depth", depth, scene_dir, "--out", report_path) == 0
    assert load_json(report_path)["kind"] == "depth"


def run_cli_captured(*argv):
    # own capture, so the test also works under pytest -s
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(*argv)
    return code, buf.getvalue()


def test_errors_exit_nonzero_with_json(tmp_path):
    code, out = run_cli_captured("track", tmp_path / "nope", "--out", tmp_path / "x")
    assert code == 1
    err = json.loads(out.strip())
    assert err["error"]["type"] == "FileNotFoundError"

    cfg = tmp_path / "bad.json"
    cfg.write_text('{"zoom": 3}')
    code, out = run_cli_captured("synth", "--config", cfg, "--out", tmp_path / "y")
    assert code == 1
    err = json.loads(out.strip())
    assert err["error"]["type"] == "ValueError"
    assert "zoom" in err["error"]["message"]


@pytest.mark.parametrize("command", ["synth", "depth"])
def test_negative_seed_fails_with_a_json_error_naming_it(tmp_path, scene_dir, command):
    scene = () if command == "synth" else (scene_dir,)
    code, out = run_cli_captured(command, *scene, "--seed", -1, "--out", tmp_path / "out")
    assert code == 1
    err = json.loads(out.strip())["error"]
    assert err == {"type": "ValueError", "message": "seed must be >= 0"}


@pytest.mark.parametrize("keys", [("motion_magnitude",), ("camera_magnitude",),
                                  ("motion_magnitude", "camera_magnitude")],
                         ids=["motion", "camera", "both"])
@pytest.mark.parametrize("path", ["orbit", "linear", "random-smooth"])
def test_scene_at_the_largest_magnitudes_runs_clean(tmp_path, path, keys):
    # magnitudes at the line (README): synth writes a scene that depth and
    # track load and read without a numpy warning, or synth rejects the
    # camera path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"height": 16, "width": 20, "frame_count": 5, "camera_path": path,
                               **dict.fromkeys(keys, 1e3)}))
    scene = tmp_path / "scene"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails its command
        code, out = run_cli_captured("synth", "--config", cfg, "--out", scene)
        if code:
            err = json.loads(out.strip())["error"]
            assert err["type"] == "ValueError"
            assert err["message"].startswith("camera path runs into the scene volume")
            return
        for command in ("depth", "track"):
            assert run_cli_captured(command, scene, "--out", tmp_path / command) == (0, "")


def test_use_dynamic_mask_flag_roundtrip(tmp_path, scene_dir):
    out = tmp_path / "al"
    assert run_cli(
        "align", scene_dir, "--out", out, "--stride", 2, "--no-use-dynamic-mask"
    ) == 0
    run = load_json(out / "run.json")
    assert run["config"]["use_dynamic_mask"] is False


@pytest.mark.parametrize("flag, want", [("--use-dynamic-mask", True),
                                        ("--no-use-dynamic-mask", False)])
def test_use_dynamic_mask_flag_reaches_the_pair_graph(tmp_path, scene_dir, monkeypatch, flag, want):
    import inspect

    from pointmatch import alignment, cli

    seen = []

    def recorded(*args, **kwargs):
        bound = inspect.signature(alignment.build_pair_graph).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["use_dynamic_mask"])
        return alignment.build_pair_graph(*args, **kwargs)

    monkeypatch.setattr(cli, "build_pair_graph", recorded)
    assert run_cli("align", scene_dir, "--out", tmp_path / "al", "--stride", 2, flag) == 0
    assert seen == [want]


def _set_config(key, value):
    def edit(root):
        meta = load_json(root / "meta.json")
        meta["config"][key] = value
        dump_json(root / "meta.json", meta)
    return edit


def _drop_tracks(root):
    (root / "tracks.json").unlink()


def _shift_track_point(root):
    tracks = load_json(root / "tracks.json")
    tracks["world"][0][1][0] += 1e-6
    dump_json(root / "tracks.json", tracks)


def _truncate_depth(root):
    path = root / "depth_0002.bin"
    path.write_bytes(path.read_bytes()[:-4])


def _nan_pose_field(root):
    path = root / "poses.txt"
    lines = path.read_text().splitlines()
    fields = lines[1].split()
    fields[3] = "nan"
    lines[1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def seed1_scene_dir(tmp_path_factory):
    # seed 1, so a boolean seed (True == 1) would regenerate this very scene
    root = tmp_path_factory.mktemp("cli1") / "scene"
    assert run_cli("synth", "--seed", 1, "--out", root) == 0
    return root


@pytest.mark.parametrize(
    "edit",
    [
        _set_config("height", 24.0),
        _set_config("seed", "1"),
        _set_config("frame_count", 6.0),
        _set_config("seed", True),
        _drop_tracks,
        _shift_track_point,
        _truncate_depth,
        _nan_pose_field,
    ],
    ids=["float-height", "string-seed", "float-frame-count", "bool-seed",
         "missing-tracks", "tampered-tracks", "truncated-tensor", "nan-pose"],
)
def test_malformed_scene_dir_fails_at_load(tmp_path, seed1_scene_dir, edit):
    root = tmp_path / "scene"
    shutil.copytree(seed1_scene_dir, root)
    edit(root)
    code, out = run_cli_captured("depth", root, "--out", tmp_path / "d")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ValueError"


@pytest.fixture(scope="module")
def small_scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli16")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"height": 16, "width": 20, "frame_count": 5}))
    assert run_cli("synth", "--config", cfg, "--seed", 0, "--out", root / "scene") == 0
    return root / "scene"


@pytest.mark.parametrize("flags,message", [
    (("--noise", "1e300"), "covariance is not finite"),
    (("--jitter", "1e308"), "jitter 1e+308 gives pair ("),
], ids=["noise-overflows-the-fit", "jitter-overflows-the-scale"])
def test_overflowing_predictor_noise_fails_with_value_error(tmp_path, small_scene_dir, flags,
                                                           message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli_captured("align", small_scene_dir, *flags, "--out", tmp_path / "al")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ValueError"
    assert message in err["message"]
    # the scale factor and the residual norms are computed under errstate:
    # numpy warns of no overflow
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command,tensor", [("depth", "depth_0000"), ("track", "tracks"),
                                            ("recon", "points")])
def test_outputs_float32_cannot_hold_fail_with_value_error(tmp_path, small_scene_dir, command,
                                                          tensor):
    # noise 1e40 is finite in float64 but past the float32 maximum; the error
    # names the first tensor that holds such a value
    out = tmp_path / command
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, printed = run_cli_captured(command, small_scene_dir, "--noise", "1e40",
                                         "--out", out)
    assert code == 1
    lines = printed.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err == {"type": "ValueError",
                   "message": f"tensor {tensor} holds a value float32 cannot hold"}
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not list(out.glob("*.bin"))


# Every subcommand's arguments as (option strings, dest, type or action,
# required, help), in --help order. "-h" is argparse's own.
_SCENE = ((), "scene", "store", True, "scene directory")
_CONFIG = (("--config",), "config", "Path", False, "JSON config file")
_SEED = (("--seed",), "seed", "int", False, "scene and predictor seed")
_WINDOW = (("--window",), "window", "int", False, "temporal window length")
_OVERLAP = (("--overlap",), "overlap", "int", False, "frames shared by adjacent windows")
_STRIDE = (("--stride",), "stride", "int", False, "pair-graph frame stride")
_NOISE = (("--noise",), "noise", "float", False, "per-point noise sigma (depth-relative)")
_JITTER = (("--jitter",), "jitter", "float", False, "per-pair log-scale jitter sigma")
_MASK = (("--use-dynamic-mask", "--no-use-dynamic-mask"), "use_dynamic_mask",
         "BooleanOptionalAction", False, "gate the 2D alignment term by the dynamic mask")
_RESULT = (("--out",), "out", "store", True, "result directory")
CLI_SURFACE = {
    "synth": [_CONFIG, _SEED, (("--out",), "out", "store", True, "scene directory to create")],
    "track": [_SCENE, _CONFIG, _SEED, _WINDOW, _OVERLAP, _NOISE, _JITTER, _RESULT],
    "depth": [_SCENE, _CONFIG, _SEED, _NOISE, _JITTER, _RESULT],
    "recon": [_SCENE, _CONFIG, _SEED, _WINDOW, _NOISE, _JITTER, _RESULT],
    "align": [_SCENE, _CONFIG, _SEED, _STRIDE, _NOISE, _JITTER, _MASK, _RESULT],
    "eval": [
        ((), "kind", "store", True, None),
        ((), "pred", "store", True, "prediction directory"),
        _SCENE,
        (("--out",), "out", "store", True, "report JSON path"),
    ],
    "ablate": [
        ((), "scenes", "store", True, "scene directories"),
        _CONFIG, _SEED, _OVERLAP, _NOISE, _JITTER,
        (("--out",), "out", "store", True, "table JSON path"),
    ],
}


def test_cli_surface_is_pinned():
    import argparse

    from pointmatch.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, want in CLI_SURFACE.items():
        got = []
        for a in sub.choices[name]._actions:
            if a.dest == "help":
                continue
            if a.type is not None:
                kind = a.type.__name__
            elif isinstance(a, argparse.BooleanOptionalAction):
                kind = "BooleanOptionalAction"
            else:
                kind = "store"
            got.append((tuple(a.option_strings), a.dest, kind, a.required, a.help))
        assert got == want, name


def test_out_is_created_before_any_work(tmp_path, scene_dir, monkeypatch):
    import pointmatch.io

    def no_work(path):
        raise AssertionError("the command loaded a scene before creating --out")

    monkeypatch.setattr(pointmatch.io, "load_scene", no_work)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    depth = tmp_path / "dp"
    depth.mkdir()
    for argv in (
        ("depth", scene_dir, "--out", blocker / "d"),
        ("eval", "depth", depth, scene_dir, "--out", blocker / "report.json"),
        ("ablate", scene_dir, "--out", blocker / "table.json"),
    ):
        code, out = run_cli_captured(*argv)
        assert code == 1, argv
        lines = out.splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["error"]["type"] in (
            "NotADirectoryError", "FileExistsError"), argv


@pytest.mark.parametrize("argv", [
    ("track", "--window", 4, "--overlap", 9),
    ("track", "--window", 4),  # the default overlap 4 is not < 4
    ("ablate", "--overlap", 6),  # fine at window 12, not at window 6
    ("ablate", "--overlap", 20),
], ids=["track-overlap-9", "track-default-overlap", "ablate-overlap-6", "ablate-overlap-20"])
def test_overlap_not_below_window_fails_before_work(tmp_path, scene_dir, monkeypatch, argv):
    import pointmatch.io

    def no_work(path):
        raise AssertionError("the command loaded a scene before checking its windows")

    monkeypatch.setattr(pointmatch.io, "load_scene", no_work)
    command, *flags = argv
    code, out = run_cli_captured(command, scene_dir, *flags, "--out", tmp_path / "out")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ValueError"
    assert "overlap" in err["message"]


def test_pairwise_window_still_clamps_its_overlap(tmp_path, scene_dir):
    out = tmp_path / "tr"
    assert run_cli("track", scene_dir, "--out", out, "--window", 1, "--overlap", 9) == 0
    meta = load_json(out / "meta.json")
    assert (meta["window"], meta["overlap"]) == (2, 1)
    table = tmp_path / "ablation.json"
    assert run_cli("ablate", scene_dir, "--out", table) == 0
    assert set(load_json(table)["windows"]) == {"1", "6", "12"}


@pytest.mark.parametrize("argv,config", [
    (("align", "--jitter", "nan"), None),
    (("depth", "--noise", "nan"), None),
    (("track", "--noise", "inf"), None),
    (("synth",), {"motion_magnitude": float("inf")}),
    (("synth",), {"camera_magnitude": float("nan")}),
    (("align",), {"lambda_2d": float("nan")}),
], ids=["align-jitter-nan", "depth-noise-nan", "track-noise-inf", "synth-motion-inf",
        "synth-camera-nan", "align-lambda-nan"])
def test_non_finite_floats_fail_before_work(tmp_path, scene_dir, monkeypatch, argv, config):
    import pointmatch.cli
    import pointmatch.io

    def no_work(*args):
        raise AssertionError("the command started work on a non-finite value")

    monkeypatch.setattr(pointmatch.io, "load_scene", no_work)
    monkeypatch.setattr(pointmatch.cli, "generate_scene", no_work)
    command, *flags = argv
    if command != "synth":
        flags.insert(0, scene_dir)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))  # NaN and Infinity, as Python's json reads them
        flags += ["--config", path]
    code, out = run_cli_captured(command, *flags, "--out", tmp_path / "out")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ValueError"
    assert "must be finite" in err["message"]


def _scene_meta_is_a_list(tmp_path, scene_dir):
    root = tmp_path / "scene"
    shutil.copytree(scene_dir, root)
    dump_json(root / "meta.json", [])
    return ("depth", root, "--out", tmp_path / "out")


def _scene_intrinsics_not_objects(tmp_path, scene_dir):
    root = tmp_path / "scene"
    shutil.copytree(scene_dir, root)
    meta = load_json(root / "meta.json")
    meta["intrinsics"] = [0] * len(meta["intrinsics"])
    dump_json(root / "meta.json", meta)
    return ("depth", root, "--out", tmp_path / "out")


def _depth_meta_without_tensors(tmp_path, scene_dir):
    pred = tmp_path / "dp"
    assert run_cli("depth", scene_dir, "--out", pred) == 0
    meta = load_json(pred / "meta.json")
    del meta["tensors"]
    dump_json(pred / "meta.json", meta)
    return ("eval", "depth", pred, scene_dir, "--out", tmp_path / "r.json")


def _track_manifest_without_tracks(tmp_path, scene_dir):
    pred = tmp_path / "tr"
    assert run_cli("track", scene_dir, "--out", pred) == 0
    meta = load_json(pred / "meta.json")
    meta["tensors"] = [e for e in meta["tensors"] if e["name"] != "tracks"]
    dump_json(pred / "meta.json", meta)
    return ("eval", "track", pred, scene_dir, "--out", tmp_path / "r.json")


def _track_queries_fractional(tmp_path, scene_dir):
    # a cast to integers would truncate x + 0.6 back onto the true pixel
    pred = tmp_path / "tr"
    assert run_cli("track", scene_dir, "--out", pred) == 0
    entry = next(e for e in load_json(pred / "meta.json")["tensors"] if e["name"] == "queries")
    (pred / "queries.bin").write_bytes((read_tensor(pred, entry) + 0.6).astype("<f4").tobytes())
    return ("eval", "track", pred, scene_dir, "--out", tmp_path / "r.json")


def _track_queries_scalar(tmp_path, scene_dir):
    pred = tmp_path / "tr"
    assert run_cli("track", scene_dir, "--out", pred) == 0
    meta = load_json(pred / "meta.json")
    entry = next(e for e in meta["tensors"] if e["name"] == "queries")
    (pred / "queries.bin").write_bytes(np.float32(3.0).tobytes())
    entry["dims"] = []
    dump_json(pred / "meta.json", meta)
    return ("eval", "track", pred, scene_dir, "--out", tmp_path / "r.json")


@pytest.mark.parametrize(
    "make",
    [_scene_meta_is_a_list, _scene_intrinsics_not_objects, _depth_meta_without_tensors,
     _track_manifest_without_tracks, _track_queries_fractional, _track_queries_scalar],
    ids=["scene-meta-list", "scene-intrinsics-not-objects", "depth-meta-no-tensors",
         "track-manifest-no-tracks", "track-queries-fractional", "track-queries-scalar"],
)
def test_malformed_manifest_fails_with_value_error(tmp_path, scene_dir, make):
    code, out = run_cli_captured(*make(tmp_path, scene_dir))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ValueError"
