"""Benchmark of the pointmatch command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pipelines-L --seed 1 --seconds 30 --trace 0

The run first warms up: every command once, untimed, on a 16x20x5 scene, so
that no timed call pays the process's one-off costs. It then synthesizes
the workload's scenes from --seed (set-up), then calls
`pointmatch.cli.main(argv)` in this process on those scenes, one pass of
the workload's invocations after another, until --seconds have gone by (at
least one pass), then synthesizes the scenes again. Each of the two set-up
rounds repeats the set-up at least twice and for at least two seconds.
Every invocation must exit 0, print no error, pass its output checks and,
when repeated on the same inputs, write a byte-identical output.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced passes, starting traced (at least one of each), and prints the
per-layer metrics of the traced ones (see tracer.py), plus the tracing
overhead between the two kinds of pass.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. The line before it is a report with the environment,
sample counts, per-command timings and the accuracy columns of the outputs.
"""

from __future__ import annotations

import os

# One BLAS thread keeps the single-process load steady on a shared machine;
# it must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from tracer import LAYERS, Tracer, span_name
from workloads import WARMUP, WORKLOADS, Workload, check_finite, quality

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# set-up runs in two rounds, one before the passes and one after them, so its
# median spans the run rather than its first seconds; a round repeats until
# both minimums are met, so a cheap set-up still gets enough samples
SETUP_ROUND_REPEATS = 2
SETUP_ROUND_SECONDS = 2.0
SETUP_MAX_REPEATS = 100
ENERGY_AND_RAYCAST_REPEATS = 3
PROBE_STRIDE = 2

# span names measured only by a direct call in the traced run: one full-frame
# raycast and one public energy evaluation
PROBE_ONLY = ("scenes.raycast_pixels", "alignment.alignment_energy")


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import pointmatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "pointmatch" / "__init__.py").is_file():
        raise ProgramMissing(f"no pointmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pointmatch
    import pointmatch.cli

    if Path(pointmatch.__file__).resolve().parent != SRC / "pointmatch":
        raise ProgramMissing(f"pointmatch was imported from {pointmatch.__file__}")
    return pointmatch


def git_commit() -> str:
    """The checkout's commit, or why there is none. Git does not look above
    the checkout, so an enclosing repository is never reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown (git failed: {exc})"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def environment(seed: int, inputs_seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
        "inputs_seed": inputs_seed,
    }


def invoke(pm, argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI call: exit code, wall seconds, captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = pm.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue()


def error_lines(stdout: str) -> list[str]:
    errors = []
    for line in stdout.splitlines():
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and "error" in payload:
            errors.append(line)
    return errors


def digest(path: Path) -> str | None:
    """Content hash of a file or a directory tree (names and bytes)."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if not path.is_dir():
        return None
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def out_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


class Ledger:
    """Attempted and failed invocations, with the first reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


class Runner:
    def __init__(self, pm, wl: Workload, seed: int, work: Path,
                 ledger: Ledger | None = None, tag: str = ""):
        self.pm = pm
        self.wl = wl
        self.seed = seed
        self.work = work
        self.work.mkdir(exist_ok=True)
        self.ledger = ledger or Ledger()
        self.tag = tag  # prefix of this runner's ledger labels
        self.scenes: list[Path] = []
        self.scene_digests: list[str | None] = []
        self.setup_s: list[float] = []
        self.reference: dict[int, str | None] = {}
        self.command_s: dict[str, list[float]] = defaultdict(list)
        self.quality: dict[str, dict] = {}

    def setup(self, min_repeats: int = SETUP_ROUND_REPEATS,
              min_seconds: float = SETUP_ROUND_SECONDS) -> None:
        """One round of set-ups: synthesize the scenes repeatedly, adding the
        wall seconds of each repeat to `setup_s`. The scenes of the run's
        first set-up are the ones the passes use."""
        configs = []
        for i, overrides in enumerate(self.wl.scenes):
            cfg = self.work / f"scene{i}.json"
            cfg.write_text(json.dumps(overrides))
            configs.append(cfg)
        times = []
        for _ in range(SETUP_MAX_REPEATS):
            if len(times) >= min_repeats and sum(times) >= min_seconds:
                break
            r = len(self.setup_s)
            rep_dir = self.work / f"setup{r}"
            total = 0.0
            for i, cfg in enumerate(configs):
                scene = rep_dir / f"scene{i}"
                scene_seed = self.seed * len(configs) + i
                argv = ["synth", "--config", str(cfg), "--seed", str(scene_seed),
                        "--out", str(scene)]
                rc, dt, stdout = invoke(self.pm, argv)
                total += dt
                problems = self._problems(rc, stdout)
                if r == 0:
                    self.scene_digests.append(digest(scene))
                    self.scenes.append(scene)
                elif digest(scene) != self.scene_digests[i]:
                    problems.append("scene differs from the first set-up")
                self.ledger.record(f"{self.tag}setup {r} synth scene{i}", problems)
            times.append(total)
            self.setup_s.append(total)
            if r > 0:
                shutil.rmtree(rep_dir)

    def _problems(self, rc: int, stdout: str) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        problems += [f"error output {e}" for e in error_lines(stdout)]
        return problems

    def run_pass(self, k: int, timed: bool) -> float:
        """One pass over the workload's steps; returns its invocations' seconds."""
        out = self.work / f"pass{k}"
        out.mkdir()
        fields = {f"s{i}": str(s) for i, s in enumerate(self.scenes)}
        fields.update(out=str(out), seed=str(self.seed))
        total = 0.0
        for idx, step in enumerate(self.wl.steps):
            argv = [a.format(**fields) for a in step.argv.split()]
            rc, dt, stdout = invoke(self.pm, argv)
            total += dt
            if timed:
                self.command_s[step.command].append(dt)
            problems = self._problems(rc, stdout)
            target = out_path(argv)
            got = digest(target)
            if idx not in self.reference:
                self.reference[idx] = got
            elif got != self.reference[idx]:
                problems.append("output differs from the first pass")
            if not problems:
                try:
                    problems += [msg for check in (check_finite, step.check)
                                 if check and (msg := check(target))]
                    if k == 0:
                        self.quality[f"{idx}:{step.command}"] = quality(target)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            self.ledger.record(f"{self.tag}pass {k} step {idx} {step.command}", problems)
        shutil.rmtree(out)
        return total

    def passes(self, seconds: float, tracer: Tracer | None):
        """Passes until `seconds` are used up (at least one). With a tracer,
        traced passes alternate with untraced ones, starting traced (at
        least one of each), so any cost left over from the warm-up counts
        against tracing."""
        untraced, traced = [], []
        t_start = time.perf_counter()
        k = 0
        while True:
            if tracer is not None and k % 2 == 0:
                with tracer:
                    traced.append(self.run_pass(k, timed=False))
            else:
                untraced.append(self.run_pass(k, timed=True))
            k += 1
            if k < (2 if tracer is not None else 1):
                continue
            expected = statistics.median(untraced + traced)
            if time.perf_counter() - t_start + expected > seconds:
                return untraced, traced


def probe(pm, scene: Path, have: Tracer, probe_tracer: Tracer) -> None:
    """Reach, by a direct call, each layer the traced passes did not, and
    make the probe-only calls. Runs inside `probe_tracer`, so the module
    attributes used here are the timing wrappers."""
    seq = pm.io.load_scene(scene)
    pred = pm.pipelines.OraclePredictor(seq)

    def missing(*names):
        return any(not have.samples.get(n) for n in names)

    if missing("pipelines.video_depth", "metrics.depth_metrics"):
        maps = pm.pipelines.video_depth(seq, pred)
        pm.metrics.depth_metrics(maps, list(seq.depths))
    if missing("pipelines.track_3d", "matching.sparsify_tracks", "metrics.apd"):
        res = pm.pipelines.track_3d(seq, pred, seq.tracks.query_pixels)
        pm.metrics.apd(res.tracks, seq.tracks.camera, seq.tracks.visible, res.valid)
    if missing("pipelines.feedforward_recon"):
        pm.pipelines.feedforward_recon(seq, pred)
    if have.last_solve is None or missing(
        "alignment.build_pair_graph", "matching.dynamic_mask", "metrics.trajectory_metrics"
    ):
        problem = pm.alignment.build_pair_graph(seq, pred, stride=PROBE_STRIDE)
        result = pm.alignment.global_align(problem)
        pm.metrics.trajectory_metrics(result.poses, list(seq.poses))
    problem, options, result = have.last_solve or probe_tracer.last_solve
    h, w = seq.resolution
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    pix = np.stack([xs.ravel(), ys.ravel()], axis=1)
    for _ in range(ENERGY_AND_RAYCAST_REPEATS):
        pm.alignment.alignment_energy(problem, result.variables, options)
        pm.scenes.raycast_pixels(seq, 0, pix)


def layer_metrics(traced: Tracer, probed: Tracer, n_traced: int) -> tuple[dict, list[str]]:
    """Per-layer values: from the traced passes where they reach the layer,
    else from the probe. Also the names of the metrics the probe gave."""
    metrics, from_probe = {}, []
    for module, attr in LAYERS:
        name = span_name(module, attr)
        src = probed if name in PROBE_ONLY or not traced.samples.get(name) else traced
        metrics[f"{name}_s"] = (src.median(name), "s")
        if src is probed:
            from_probe.append(f"{name}_s")
    calls = traced.predict_calls / n_traced
    unique = traced.unique_pairs / n_traced
    metrics["pipelines.predict_calls"] = (calls, "count")
    metrics["pipelines.predict_unique_pairs"] = (unique, "count")
    metrics["pipelines.predict_repeat_ratio"] = (1.0 - unique / calls, "ratio")
    solver = traced if traced.last_solve else probed
    edges = traced.edges / n_traced if traced.last_solve else probed.edges
    if solver is probed:
        from_probe += ["alignment.edges", "alignment.iterations", "alignment.s_per_iter",
                       "alignment.converged", "alignment.final_energy"]
    _, _, result = solver.last_solve
    align_s = solver.median("alignment.global_align")
    metrics["alignment.edges"] = (edges, "count")
    metrics["alignment.iterations"] = (result.iterations, "count")
    # a solve that stops at its initial check has no iteration: charge it one
    metrics["alignment.s_per_iter"] = (align_s / max(result.iterations, 1), "s")
    metrics["alignment.converged"] = (int(result.converged), "bool")
    metrics["alignment.final_energy"] = (result.energy_trace[-1], "1")
    return metrics, from_probe


def measure(pm, name: str, seed: int, seconds: float, trace: bool, work: Path):
    wl = WORKLOADS[name]
    inputs_seed = seed if wl.fixed_seed is None else wl.fixed_seed
    runner = Runner(pm, wl, inputs_seed, work / "workload")
    t0 = time.perf_counter()
    warm = Runner(pm, WARMUP, inputs_seed, work / "warmup", runner.ledger, "warm-up ")
    warm.setup(min_repeats=1, min_seconds=0.0)
    warm.run_pass(0, timed=False)
    shutil.rmtree(warm.work)
    warmup_s = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        runner.setup()
    untraced, traced = runner.passes(seconds, tracer)
    with tracer or contextlib.nullcontext():
        runner.setup()
    setup_s = runner.setup_s
    led = runner.ledger
    failed_frac = led.failed / led.attempted
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed, inputs_seed),
        "warmup_s": warmup_s,
        "setup_s": setup_s,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "commands": {
            cmd: {"median_s": statistics.median(v), "samples": len(v)}
            for cmd, v in runner.command_s.items()
        },
        "quality": runner.quality,
        "failed_frac": failed_frac,
        "problems": led.problems,
    }
    if trace:
        probed = Tracer()
        with probed:
            probe(pm, runner.scenes[0], tracer, probed)
        metrics, report["probed"] = layer_metrics(tracer, probed, len(traced))
        base = statistics.median(untraced)
        overhead = statistics.median(traced) - base
        metrics["cli.failed_frac"] = (failed_frac, "ratio")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / base, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pm = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report, result = measure(pm, args.workload, args.seed, args.seconds,
                                 bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
