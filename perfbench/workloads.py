"""The benchmark's workloads: which scenes to synthesize and which CLI
invocations make one pass, plus the output checks each invocation must meet.

A step's argv is a template. `{s0}`, `{s1}` are the synthesized scene
directories, `{out}` is the pass's own output directory and `{seed}` the
predictor seed. The step's output is the path after `--out`.

Why these workloads (timings measured when they were chosen, on a 2-core x86
VM):

- align-jitter is the solver workload: `global_align` runs its full 200
  iterations without converging and takes nearly all of the pass (18-28 s
  as the machine's load varied, so a 30-second run times one pass); the
  predictor is under 1% of it. Its input is one fixed scene and predictor seed whatever `--seed`
  says: the solver's time moves by about a third from one seed to another
  (21-29 s over seeds 1-7 run back to back), more than any bound could
  absorb.
- pipelines-L is the predictor and raycast workload at 96x128 with 12
  frames: every command pays `predict` per pair and `load_scene`
  regenerates the scene by raycasting. One pass takes 15-23 s. (At 24
  frames a pass takes about 40 s, longer than a 30-second run.)
  Its align is noiseless, so the solver stops at its initial check after 0
  iterations: the bypass case for solver changes. No predictor in it is
  asked the same pair twice.
- ablate-reuse repeats pairs: each M scene makes 82 `predict` calls for 44
  distinct pairs, so a per-pair memo pays off here and not on pipelines-L.
- smoke is for the benchmark's own tests: a 16x20x5 scene through every
  command, plus one invocation that must fail. Its steps without the
  failing one are the warm-up every run makes before it measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

S = {}  # RunConfig defaults: 24x32, 6 frames, 16 track queries
M = {"height": 48, "width": 64, "frame_count": 12, "track_count": 64}
L = {"height": 96, "width": 128, "frame_count": 12}  # L resolution, half its 24 frames
SMOKE = {"height": 16, "width": 20, "frame_count": 5}

NOISELESS_ATE_MAX = 1e-9


def _numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def check_finite(path: Path) -> str | None:
    """Every number in every JSON output is finite."""
    for f in [path] if path.is_file() else sorted(path.rglob("*.json")):
        if not all(math.isfinite(x) for x in _numbers(json.loads(f.read_text()))):
            return f"{f.name} holds a non-finite number"
    return None


def check_noiseless_ate(path: Path) -> str | None:
    ate = json.loads(path.read_text())["report"]["ate"]
    if not ate <= NOISELESS_ATE_MAX:
        return f"noiseless alignment has ATE {ate:.3e} > {NOISELESS_ATE_MAX:g}"
    return None


def check_ablation_trends(path: Path) -> str | None:
    """The paper's trends: matched maps beat rigid ones, long windows beat pairs."""
    table = json.loads(path.read_text())
    matched = table["heads"]["matched"]["mean_apd"]
    rigid = table["heads"]["rigid"]["mean_apd"]
    w1 = table["windows"]["1"]["mean_apd"]
    w12 = table["windows"]["12"]["mean_apd"]
    if not matched > rigid:
        return f"matched APD {matched:.3f} is not above rigid APD {rigid:.3f}"
    if not w12 > w1:
        return f"window-12 APD {w12:.3f} is not above window-1 APD {w1:.3f}"
    return None


@dataclass(frozen=True)
class Step:
    command: str  # the CLI command, the key of its per-command timings
    argv: str
    check: Callable[[Path], str | None] | None = None


@dataclass(frozen=True)
class Workload:
    scenes: tuple[dict, ...]  # RunConfig overrides, one synth per scene
    steps: tuple[Step, ...]
    fixed_seed: int | None = None  # inputs ignore --seed when set


# every command on the smoke scene, each of which must succeed
SMOKE_STEPS = (
    Step("depth", "depth {s0} --seed {seed} --noise 0.01 --out {out}/depth"),
    Step("track", "track {s0} --seed {seed} --noise 0.01 --out {out}/track"),
    Step("recon", "recon {s0} --seed {seed} --noise 0.01 --out {out}/recon"),
    Step("align", "align {s0} --seed {seed} --out {out}/align"),
    Step("ablate", "ablate {s0} --seed {seed} --noise 0.01 --out {out}/ablate.json"),
    Step("eval", "eval depth {out}/depth {s0} --out {out}/depth.json"),
    Step("eval", "eval track {out}/track {s0} --out {out}/track.json"),
    Step("eval", "eval traj {out}/align {s0} --out {out}/traj.json", check_noiseless_ate),
)

# run once, untimed, before a run measures: it pays the process's one-off
# costs (lazy imports, first calls) so that no timed pass does
WARMUP = Workload(scenes=(SMOKE,), steps=SMOKE_STEPS)

WORKLOADS = {
    "align-jitter": Workload(
        scenes=(S,),
        steps=(
            Step("align", "align {s0} --seed {seed} --jitter 0.05 --out {out}/align"),
            Step("eval", "eval traj {out}/align {s0} --out {out}/traj.json"),
        ),
        fixed_seed=0,
    ),
    "pipelines-L": Workload(
        scenes=(L,),
        steps=(
            Step("depth", "depth {s0} --seed {seed} --noise 0.01 --out {out}/depth"),
            Step("track", "track {s0} --seed {seed} --noise 0.01 --out {out}/track"),
            Step("recon", "recon {s0} --seed {seed} --noise 0.01 --out {out}/recon"),
            Step("align", "align {s0} --seed {seed} --stride 2 --out {out}/align"),
            Step("eval", "eval depth {out}/depth {s0} --out {out}/depth.json"),
            Step("eval", "eval track {out}/track {s0} --out {out}/track.json"),
            Step("eval", "eval traj {out}/align {s0} --out {out}/traj.json",
                 check_noiseless_ate),
        ),
    ),
    "ablate-reuse": Workload(
        scenes=(M, M),
        steps=(
            Step("ablate", "ablate {s0} {s1} --seed {seed} --noise 0.01 --out {out}/ablate.json",
                 check_ablation_trends),
        ),
    ),
    "smoke": Workload(
        scenes=(SMOKE,),
        steps=SMOKE_STEPS + (
            Step("eval", "eval traj {out}/missing {s0} --out {out}/missing.json"),
        ),
    ),
}


def quality(path: Path) -> dict:
    """The accuracy columns of one output, by name (empty for map outputs)."""
    if path.is_dir() and (path / "report.json").is_file():
        rep = json.loads((path / "report.json").read_text())
        return {
            "iterations": rep["iterations"],
            "converged": rep["converged"],
            "final_energy": rep["energy_trace"][-1],
        }
    if not path.is_file():
        return {}
    payload = json.loads(path.read_text())
    if payload.get("format") == "ablation-v1":
        out = {f"window_{w}_apd": v["mean_apd"] for w, v in payload["windows"].items()}
        out.update({f"{h}_apd": v["mean_apd"] for h, v in payload["heads"].items()})
        return out
    rep = payload["report"]
    if payload["kind"] == "traj":
        return dict(rep)
    if payload["kind"] == "depth":
        return {"abs_rel": rep["scale"]["abs_rel"], "delta1": rep["scale"]["delta1"]}
    return {"apd": rep["apd"]}
