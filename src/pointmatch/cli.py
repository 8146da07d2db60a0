"""Command-line surface: deterministic file-based experiments.

Subcommands: synth, track, depth, recon, align, eval, ablate. Human-readable
progress goes to stderr; machine output lands in files under --out. Every
command is a pure function of (inputs, config, seed), so rerunning one
reproduces its outputs byte for byte. A failing command prints a single
machine-readable error JSON line to stdout and exits nonzero.

Config precedence: defaults < --config JSON file < explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from .alignment import build_pair_graph, global_align
from .config import build_config
from .geometry import DepthMap
from .metrics import apd, depth_metrics, trajectory_metrics
from .pipelines import OraclePredictor, feedforward_recon, track_3d, video_depth
from .scenes import build_tracks, generate_scene

TRACK_FORMAT = "tracking-result-v1"
DEPTH_FORMAT = "depth-result-v1"
RECON_FORMAT = "recon-result-v1"
ALIGN_FORMAT = "alignment-report-v1"
ABLATION_FORMAT = "ablation-v1"

ABLATION_WINDOWS = (1, 6, 12)

_FLAG_KEYS = ("seed", "window", "overlap", "stride", "noise", "jitter", "use_dynamic_mask")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _overrides(args) -> dict:
    out = {}
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _config_from(args):
    return build_config(getattr(args, "config", None), _overrides(args))


def _predictor(seq, cfg) -> OraclePredictor:
    return OraclePredictor(seq, sigma_point=cfg.noise, sigma_scale=cfg.jitter, seed=cfg.seed)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out_file(args) -> Path:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_run(out: Path, command: str, cfg) -> None:
    io.dump_json(out / "run.json", {"command": command, "config": asdict(cfg)})


def _queries_of(seq) -> np.ndarray:
    q = seq.tracks.query_pixels
    if len(q) == 0:
        raise ValueError("scene has no track queries (track_count was 0)")
    return q


def cmd_synth(args) -> int:
    cfg = _config_from(args)
    seq = generate_scene(cfg.scene_config())
    out = _out_dir(args)
    io.save_scene(out, seq)
    _write_run(out, "synth", cfg)
    _log(f"synth: {seq.frame_count} frames {cfg.height}x{cfg.width} -> {out}")
    return 0


def cmd_track(args) -> int:
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    window, overlap = cfg.effective_window()
    res = track_3d(seq, _predictor(seq, cfg), _queries_of(seq), window=window, overlap=overlap)
    out = _out_dir(args)
    entries = [
        io.write_tensor(out, "tracks", res.tracks),
        io.write_tensor(out, "valid", res.valid.astype(np.float64)),
        io.write_tensor(out, "queries", res.queries.astype(np.float64)),
    ]
    io.dump_json(
        out / "meta.json",
        {
            "format": TRACK_FORMAT,
            "tensors": entries,
            "starts": res.starts,
            "scales": res.scales,
            "window": window,
            "overlap": overlap,
        },
    )
    _write_run(out, "track", cfg)
    _log(f"track: {len(res.queries)} queries over {seq.frame_count} frames, "
         f"{len(res.starts)} windows -> {out}")
    return 0


def cmd_depth(args) -> int:
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    maps = video_depth(seq, _predictor(seq, cfg))
    out = _out_dir(args)
    entries = [
        io.write_tensor(out, f"depth_{f:04d}", m.depth) for f, m in enumerate(maps)
    ]
    io.dump_json(out / "meta.json", {"format": DEPTH_FORMAT, "tensors": entries})
    _write_run(out, "depth", cfg)
    _log(f"depth: {len(maps)} frames -> {out}")
    return 0


def cmd_recon(args) -> int:
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    window, _ = cfg.effective_window()
    res = feedforward_recon(seq, _predictor(seq, cfg), window=window)
    out = _out_dir(args)
    entries = [io.write_tensor(out, "points", res.points)]
    io.dump_json(
        out / "meta.json",
        {
            "format": RECON_FORMAT,
            "tensors": entries,
            "keyframe": res.keyframe,
            "frames": res.frames,
        },
    )
    _write_run(out, "recon", cfg)
    _log(f"recon: {res.points.shape[0]} points anchored at frame {res.keyframe} -> {out}")
    return 0


def cmd_align(args) -> int:
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    problem = build_pair_graph(seq, _predictor(seq, cfg), stride=cfg.stride)
    result = global_align(problem, cfg.alignment_options())
    out = _out_dir(args)
    io.write_trajectory(out / "trajectory.txt", result.poses)
    io.dump_json(
        out / "report.json",
        {
            "format": ALIGN_FORMAT,
            "converged": result.converged,
            "iterations": result.iterations,
            "energy_trace": result.energy_trace,
            "scales": list(result.scales),
        },
    )
    _write_run(out, "align", cfg)
    _log(f"align: {len(problem.edges)} edges, {result.iterations} iterations, "
         f"energy {result.energy_trace[-1]:.3e} -> {out}")
    return 0


def _load_result_meta(path, expected_format: str) -> tuple[Path, dict]:
    root = Path(path)
    meta = io.load_json(root / "meta.json")
    if meta.get("format") != expected_format:
        raise ValueError(f"{root} is not a {expected_format} directory")
    return root, meta


def _stored_depths(scene_path, frame_count: int) -> list[DepthMap]:
    # evaluate in the serialized f32 domain so pred == gt bytes scores exactly 0
    root = Path(scene_path)
    meta = io.load_json(root / "meta.json")
    entries = {e["name"]: e for e in meta["tensors"]}
    return [
        DepthMap(io.read_tensor(root, entries[f"depth_{f:04d}"]))
        for f in range(frame_count)
    ]


def _eval_depth(pred_path, scene_path, seq) -> dict:
    root, meta = _load_result_meta(pred_path, DEPTH_FORMAT)
    entries = meta["tensors"]
    if len(entries) != seq.frame_count:
        raise ValueError("prediction frame count does not match the scene")
    gts = _stored_depths(scene_path, seq.frame_count)
    preds = []
    for entry, gt in zip(entries, gts):
        arr = io.read_tensor(root, entry)
        preds.append(DepthMap(arr, gt.valid & (arr > 0)))
    report = {}
    for mode in ("scale", "scale_shift"):
        rep = depth_metrics(preds, gts, alignment=mode)
        report[mode] = {"abs_rel": rep.abs_rel, "delta1": rep.delta1}
    return report


def _eval_track(pred_path, seq) -> dict:
    root, meta = _load_result_meta(pred_path, TRACK_FORMAT)
    by_name = {e["name"]: e for e in meta["tensors"]}
    tracks = io.read_tensor(root, by_name["tracks"])
    valid = io.read_tensor(root, by_name["valid"]).astype(bool)
    queries = io.read_tensor(root, by_name["queries"]).astype(np.int64)
    gt = build_tracks(seq, np.zeros(len(queries), np.int64), queries)
    rep = apd(tracks, gt.camera, gt.visible, valid)
    return {
        "apd": rep.apd,
        "per_threshold": {str(k): v for k, v in rep.per_threshold.items()},
        "scale": rep.scale,
    }


def _eval_traj(pred_path, seq) -> dict:
    poses = io.read_trajectory(Path(pred_path) / "trajectory.txt")
    rep = trajectory_metrics(poses, list(seq.poses))
    return {"ate": rep.ate, "rpe_trans": rep.rpe_trans, "rpe_rot_deg": rep.rpe_rot_deg}


def cmd_eval(args) -> int:
    seq = io.load_scene(args.scene)
    if args.kind == "depth":
        report = _eval_depth(args.pred, args.scene, seq)
    elif args.kind == "track":
        report = _eval_track(args.pred, seq)
    else:
        report = _eval_traj(args.pred, seq)
    payload = {"kind": args.kind, "report": report}
    io.dump_json(_out_file(args), payload)
    _log(f"eval {args.kind}: {report} -> {args.out}")
    return 0


def cmd_ablate(args) -> int:
    """Paired A/B table over a scene set: window length and map choice.

    Window 1 is the chained pairwise baseline (a pair needs two frames, so it
    maps to the smallest real window); windows 6 and 12 exercise genuine
    temporal context. The matched-vs-rigid rows rerun the longest window with
    the static-hypothesis maps, the artifact analogue of switching the
    matching head off.
    """
    cfg = _config_from(args)
    window_rows = {w: [] for w in ABLATION_WINDOWS}
    matched_rows, rigid_rows = [], []
    for scene_path in args.scenes:
        seq = io.load_scene(scene_path)
        pred = _predictor(seq, cfg)
        queries = _queries_of(seq)
        gt = seq.tracks
        for w in ABLATION_WINDOWS:
            eff = cfg.updated({"window": w})
            t, o = eff.effective_window()
            res = track_3d(seq, pred, queries, window=t, overlap=o, mode="matched")
            window_rows[w].append(apd(res.tracks, gt.camera, gt.visible, res.valid).apd)
        t, o = cfg.updated({"window": max(ABLATION_WINDOWS)}).effective_window()
        for mode, rows in (("matched", matched_rows), ("rigid", rigid_rows)):
            res = track_3d(seq, pred, queries, window=t, overlap=o, mode=mode)
            rows.append(apd(res.tracks, gt.camera, gt.visible, res.valid).apd)

    payload = {
        "format": ABLATION_FORMAT,
        "scenes": [str(s) for s in args.scenes],
        "windows": {
            str(w): {"mean_apd": float(np.mean(window_rows[w])), "per_scene": window_rows[w]}
            for w in ABLATION_WINDOWS
        },
        "heads": {
            "matched": {"mean_apd": float(np.mean(matched_rows)), "per_scene": matched_rows},
            "rigid": {"mean_apd": float(np.mean(rigid_rows)), "per_scene": rigid_rows},
        },
    }
    io.dump_json(_out_file(args), payload)
    for w in ABLATION_WINDOWS:
        _log(f"ablate window {w:>2}: mean APD {payload['windows'][str(w)]['mean_apd']:.3f}")
    _log(f"ablate matched {payload['heads']['matched']['mean_apd']:.3f} "
         f"vs rigid {payload['heads']['rigid']['mean_apd']:.3f} -> {args.out}")
    return 0


def _add_flags(p, *names) -> None:
    if "config" in names:
        p.add_argument("--config", type=Path, help="JSON config file")
    if "seed" in names:
        p.add_argument("--seed", type=int, help="scene and predictor seed")
    if "window" in names:
        p.add_argument("--window", type=int, help="temporal window length")
    if "overlap" in names:
        p.add_argument("--overlap", type=int, help="frames shared by adjacent windows")
    if "stride" in names:
        p.add_argument("--stride", type=int, help="pair-graph frame stride")
    if "noise" in names:
        p.add_argument("--noise", type=float, help="per-point noise sigma (depth-relative)")
    if "jitter" in names:
        p.add_argument("--jitter", type=float, help="per-pair log-scale jitter sigma")
    if "use_dynamic_mask" in names:
        p.add_argument(
            "--use-dynamic-mask",
            dest="use_dynamic_mask",
            action=argparse.BooleanOptionalAction,
            help="gate the 2D alignment term by the dynamic mask",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointmatch",
        description="Dynamic-scene pointmap matching toolkit (synthetic oracle backend)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    _add_flags(p, "config", "seed")
    p.add_argument("--out", required=True, help="scene directory to create")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("track", help="3D point tracking over a scene")
    p.add_argument("scene", help="scene directory")
    _add_flags(p, "config", "seed", "window", "overlap", "noise", "jitter")
    p.add_argument("--out", required=True, help="result directory")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("depth", help="per-frame video depth")
    p.add_argument("scene", help="scene directory")
    _add_flags(p, "config", "seed", "noise", "jitter")
    p.add_argument("--out", required=True, help="result directory")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("recon", help="feed-forward reconstruction of the final window")
    p.add_argument("scene", help="scene directory")
    _add_flags(p, "config", "seed", "window", "noise", "jitter")
    p.add_argument("--out", required=True, help="result directory")
    p.set_defaults(func=cmd_recon)

    p = sub.add_parser("align", help="dynamic-mask-aware global alignment")
    p.add_argument("scene", help="scene directory")
    _add_flags(p, "config", "seed", "stride", "noise", "jitter", "use_dynamic_mask")
    p.add_argument("--out", required=True, help="result directory")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", help="score a task output against its scene")
    p.add_argument("kind", choices=("depth", "track", "traj"))
    p.add_argument("pred", help="prediction directory")
    p.add_argument("scene", help="scene directory")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="window-length and matched-vs-rigid A/B table")
    p.add_argument("scenes", nargs="+", help="scene directories")
    _add_flags(p, "config", "seed", "overlap", "noise", "jitter")
    p.add_argument("--out", required=True, help="table JSON path")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
