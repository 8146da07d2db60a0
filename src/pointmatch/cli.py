"""Command-line surface: deterministic file-based experiments.

Subcommands: synth, track, depth, recon, align, eval, ablate. Human-readable
progress goes to stderr; machine output lands in files under --out, which
each command creates before any other work, so an --out that cannot be
created fails at once. Every command is a pure function of (inputs, config,
seed), so rerunning one reproduces its outputs byte for byte. A failing
command prints a single machine-readable error JSON line to stdout and exits
nonzero.

This module knows commands only: the directory formats are read and written
by `io` (`write_bundle`, `read_meta`, `read_tensors`), and each flag's type
comes from its `RunConfig` field. Config precedence: defaults < --config JSON
file < explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import io
from .alignment import build_pair_graph, global_align
from .config import RunConfig, build_config
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

# flags a command may take, as RunConfig field -> help, in --help order
_FLAG_HELP = {
    "seed": "scene and predictor seed",
    "window": "temporal window length",
    "overlap": "frames shared by adjacent windows",
    "stride": "pair-graph frame stride",
    "noise": "per-point noise sigma (depth-relative)",
    "jitter": "per-pair log-scale jitter sigma",
    "use_dynamic_mask": "gate the 2D alignment term by the dynamic mask",
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _config_from(args):
    flags = {k: v for k in _FLAG_HELP if (v := getattr(args, k, None)) is not None}
    return build_config(args.config, flags)


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
    out = _out_dir(args)
    cfg = _config_from(args)
    seq = generate_scene(cfg.scene_config())
    io.save_scene(out, seq)
    _write_run(out, "synth", cfg)
    _log(f"synth: {seq.frame_count} frames {cfg.height}x{cfg.width} -> {out}")
    return 0


def cmd_track(args) -> int:
    out = _out_dir(args)
    cfg = _config_from(args)
    window, overlap = cfg.effective_window()
    seq = io.load_scene(args.scene)
    res = track_3d(seq, _predictor(seq, cfg), _queries_of(seq), window=window, overlap=overlap)
    tensors = {"tracks": res.tracks, "valid": res.valid, "queries": res.queries}
    io.write_bundle(out, TRACK_FORMAT, tensors, starts=res.starts, scales=res.scales,
                    window=window, overlap=overlap)
    _write_run(out, "track", cfg)
    _log(f"track: {len(res.queries)} queries over {seq.frame_count} frames, "
         f"{len(res.starts)} windows -> {out}")
    return 0


def cmd_depth(args) -> int:
    out = _out_dir(args)
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    maps = video_depth(seq, _predictor(seq, cfg))
    io.write_bundle(out, DEPTH_FORMAT, {f"depth_{f:04d}": m.depth for f, m in enumerate(maps)})
    _write_run(out, "depth", cfg)
    _log(f"depth: {len(maps)} frames -> {out}")
    return 0


def cmd_recon(args) -> int:
    out = _out_dir(args)
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    # window 1 reads two frames, as the pairwise baseline does; recon has no overlap
    res = feedforward_recon(seq, _predictor(seq, cfg), window=max(cfg.window, 2))
    io.write_bundle(
        out, RECON_FORMAT, {"points": res.points}, keyframe=res.keyframe, frames=res.frames
    )
    _write_run(out, "recon", cfg)
    _log(f"recon: {res.points.shape[0]} points anchored at frame {res.keyframe} -> {out}")
    return 0


def cmd_align(args) -> int:
    out = _out_dir(args)
    cfg = _config_from(args)
    seq = io.load_scene(args.scene)
    problem = build_pair_graph(seq, _predictor(seq, cfg), stride=cfg.stride,
                               use_dynamic_mask=cfg.use_dynamic_mask)
    result = global_align(problem, cfg.alignment_options())
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


def _eval_depth(pred_path, seq) -> dict:
    meta = io.read_meta(pred_path, DEPTH_FORMAT)
    if len(meta["tensors"]) != seq.frame_count:
        raise ValueError("prediction frame count does not match the scene")
    preds = io.read_tensors(pred_path, meta, [f"depth_{f:04d}" for f in range(seq.frame_count)])
    # evaluate in the serialized f32 domain so pred == gt bytes scores exactly 0
    gts = [DepthMap(d.depth.astype(np.float32).astype(np.float64)) for d in seq.depths]
    preds = [DepthMap(d, gt.valid & (d > 0)) for d, gt in zip(preds, gts)]
    report = {}
    for mode in ("scale", "scale_shift"):
        rep = depth_metrics(preds, gts, alignment=mode)
        report[mode] = {"abs_rel": rep.abs_rel, "delta1": rep.delta1}
    return report


def _eval_track(pred_path, seq) -> dict:
    meta = io.read_meta(pred_path, TRACK_FORMAT)
    tracks, valid, queries = io.read_tensors(pred_path, meta, ("tracks", "valid", "queries"))
    gt = build_tracks(seq, queries)
    rep = apd(tracks, gt.camera, gt.visible, valid.astype(bool))
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
    out = _out_file(args)
    seq = io.load_scene(args.scene)
    if args.kind == "depth":
        report = _eval_depth(args.pred, seq)
    elif args.kind == "track":
        report = _eval_track(args.pred, seq)
    else:
        report = _eval_traj(args.pred, seq)
    io.dump_json(out, {"kind": args.kind, "report": report})
    _log(f"eval {args.kind}: {report} -> {out}")
    return 0


def _ablate_scene(scene_path, cfg, windows: dict) -> tuple[dict, float]:
    """One scene's APD at each window on the matched maps, and at the longest
    window on the rigid maps. A call of its own, so the scene and its
    predictor's memo are freed before the next scene loads."""
    seq = io.load_scene(scene_path)
    pred = _predictor(seq, cfg)
    queries = _queries_of(seq)
    gt = seq.tracks

    def score(window, mode):
        t, o = windows[window]
        res = track_3d(seq, pred, queries, window=t, overlap=o, mode=mode)
        return apd(res.tracks, gt.camera, gt.visible, res.valid).apd

    return {w: score(w, "matched") for w in windows}, score(max(windows), "rigid")


def cmd_ablate(args) -> int:
    """Paired A/B table over a scene set: window length and map choice.

    Window 1 is the chained pairwise baseline (a pair needs two frames, so it
    maps to the smallest real window); windows 6 and 12 exercise genuine
    temporal context. The matched-vs-rigid rows compare the longest window's
    matched row with a rerun on the static-hypothesis maps, the artifact
    analogue of switching the matching head off.
    """
    out = _out_file(args)
    cfg = _config_from(args)
    longest = max(ABLATION_WINDOWS)
    # every window's config is checked before any scene is loaded
    windows = {w: cfg.updated({"window": w}).effective_window() for w in ABLATION_WINDOWS}
    window_rows = {w: [] for w in ABLATION_WINDOWS}
    rigid_rows = []
    for scene_path in args.scenes:
        matched, rigid = _ablate_scene(scene_path, cfg, windows)
        for w in ABLATION_WINDOWS:
            window_rows[w].append(matched[w])
        rigid_rows.append(rigid)

    def summary(rows):
        return {"mean_apd": float(np.mean(rows)), "per_scene": rows}

    payload = {
        "format": ABLATION_FORMAT,
        "scenes": [str(s) for s in args.scenes],
        "windows": {str(w): summary(window_rows[w]) for w in ABLATION_WINDOWS},
        "heads": {"matched": summary(window_rows[longest]), "rigid": summary(rigid_rows)},
    }
    io.dump_json(out, payload)
    for w in ABLATION_WINDOWS:
        _log(f"ablate window {w:>2}: mean APD {payload['windows'][str(w)]['mean_apd']:.3f}")
    _log(f"ablate matched {payload['heads']['matched']['mean_apd']:.3f} "
         f"vs rigid {payload['heads']['rigid']['mean_apd']:.3f} -> {out}")
    return 0


def _add_options(p, func, out_help: str, *flags) -> None:
    """--config and the named flags, if any, each typed from its RunConfig
    field; then the required --out. func runs the command."""
    if flags:
        p.add_argument("--config", type=Path, help="JSON config file")
    kinds = {f.name: f.type for f in fields(RunConfig)}
    for name in flags:
        flag = "--" + name.replace("_", "-")
        if kinds[name] == "bool":
            p.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction,
                           help=_FLAG_HELP[name])
        else:
            p.add_argument(flag, type={"int": int, "float": float}[kinds[name]],
                           help=_FLAG_HELP[name])
    p.add_argument("--out", required=True, help=out_help)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointmatch",
        description="Dynamic-scene pointmap matching toolkit (synthetic oracle backend)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    _add_options(p, cmd_synth, "scene directory to create", "seed")

    p = sub.add_parser("track", help="3D point tracking over a scene")
    p.add_argument("scene", help="scene directory")
    _add_options(p, cmd_track, "result directory",
                 "seed", "window", "overlap", "noise", "jitter")

    p = sub.add_parser("depth", help="per-frame video depth")
    p.add_argument("scene", help="scene directory")
    _add_options(p, cmd_depth, "result directory", "seed", "noise", "jitter")

    p = sub.add_parser("recon", help="feed-forward reconstruction of the final window")
    p.add_argument("scene", help="scene directory")
    _add_options(p, cmd_recon, "result directory", "seed", "window", "noise", "jitter")

    p = sub.add_parser("align", help="dynamic-mask-aware global alignment")
    p.add_argument("scene", help="scene directory")
    _add_options(p, cmd_align, "result directory",
                 "seed", "stride", "noise", "jitter", "use_dynamic_mask")

    p = sub.add_parser("eval", help="score a task output against its scene")
    p.add_argument("kind", choices=("depth", "track", "traj"))
    p.add_argument("pred", help="prediction directory")
    p.add_argument("scene", help="scene directory")
    _add_options(p, cmd_eval, "report JSON path")

    p = sub.add_parser("ablate", help="window-length and matched-vs-rigid A/B table")
    p.add_argument("scenes", nargs="+", help="scene directories")
    _add_options(p, cmd_ablate, "table JSON path", "seed", "overlap", "noise", "jitter")
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
