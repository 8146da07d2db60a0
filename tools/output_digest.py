"""Hash every file the CLI writes on a fixed set of synthetic scenes, or
compare two such output trees.

Run from the repository root:

    python3 tools/output_digest.py OUTDIR
    python3 tools/output_digest.py --compare A B

OUTDIR must be empty or absent. For each scene size (24x32x6, 48x64x12 and
96x128x12, seed 0) the script synthesizes a scene under OUTDIR and runs
`depth --noise`, `track --noise` (also with `--jitter`, and with
`--window 4 --overlap 1`, whose windows are stitched), `recon`, `align`
(also with `--jitter --noise --no-use-dynamic-mask`), the three `eval`s and
`ablate` on it. It then runs one two-scene `ablate` (the 48x64x12 scene, then
the 24x32x6 one), whose predictors meet the same pair at several window
lengths. It prints one `sha256  path` line per file under OUTDIR, sorted by
path. Commands run with OUTDIR as the working directory and
relative paths, so the listing does not depend on where OUTDIR is.

The CLI is deterministic for a given BLAS thread count, so two trees that
compute the same outputs under the same count print the same listing: diff the
listings of two checkouts (copy this file into an older one) to check that a
change leaves every output byte-identical. The count matters: the 6
`align-jitter` files of the 24x32x6 and larger scenes change in their last
digits between one and two OpenBLAS threads. So the script first prints its
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to stderr, and both checkouts should
run under the same values, for example OPENBLAS_NUM_THREADS=1. If a command
fails, the script prints it and its error to stderr and exits 1.

`--compare A B` reads two output trees and prints one line per file whose
bytes differ: the largest relative and absolute differences among its numbers,
and whether all of its integers, booleans and strings (and its layout) are
equal. It reads JSON files as JSON, `.bin` tensors as the little-endian float
type their directory's `meta.json` records (float32 or float64) and any other
file as whitespace-separated tokens. It then prints how many
files are identical, differ, or exist in one tree only, and exits 0 if every
file is byte-identical, else 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pointmatch import cli  # noqa: E402

# (height, width, frame_count) of each scene
SIZES = ((24, 32, 6), (48, 64, 12), (96, 128, 12))
# the scenes of each multi-scene ablate, by size, in argument order
ABLATIONS = (((48, 64, 12), (24, 32, 6)),)
NOISE = ("--noise", "0.01")
JITTER = ("--jitter", "0.05")
# several windows on every scene, so tracks are stitched and re-seeded
WINDOWS = ("--window", "4", "--overlap", "1")
# the environment variables that set the BLAS thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# each manifest dtype's numpy type
BIN_TYPES = {"f32": "<f4", "f64": "<f8"}


class CommandFailed(RuntimeError):
    pass


def scene_name(h: int, w: int, t: int) -> str:
    return f"s{h}x{w}x{t}"


def scene_commands(name: str) -> list[list[str]]:
    """CLI argument lists for one scene directory `name`/scene, in run order."""
    scene = f"{name}/scene"
    return [
        ["synth", "--config", f"{name}/config.json", "--out", scene],
        ["depth", scene, *NOISE, "--out", f"{name}/depth"],
        ["track", scene, *NOISE, "--out", f"{name}/track"],
        ["track", scene, *NOISE, *JITTER, "--out", f"{name}/track-jitter"],
        ["track", scene, *NOISE, *WINDOWS, "--out", f"{name}/track-windows"],
        ["recon", scene, "--out", f"{name}/recon"],
        ["align", scene, "--out", f"{name}/align"],
        ["align", scene, *JITTER, *NOISE, "--no-use-dynamic-mask",
         "--out", f"{name}/align-jitter"],
        ["eval", "depth", f"{name}/depth", scene, "--out", f"{name}/eval/depth.json"],
        ["eval", "track", f"{name}/track", scene, "--out", f"{name}/eval/track.json"],
        ["eval", "traj", f"{name}/align", scene, "--out", f"{name}/eval/traj.json"],
        ["ablate", scene, *NOISE, "--out", f"{name}/ablate.json"],
    ]


def ablation_command(sizes) -> list[str]:
    """CLI argument list of one ablate over the scenes of the given sizes."""
    names = [scene_name(*size) for size in sizes]
    out = f"ablate/{'+'.join(names)}.json"
    return ["ablate", *(f"{name}/scene" for name in names), *NOISE, "--out", out]


def run_all(outdir, sizes=SIZES, ablations=ABLATIONS) -> list[str]:
    """Run every scene's commands, then each multi-scene ablate (its scenes'
    sizes must be in sizes), under outdir; return the sorted listing.

    Raises ValueError if outdir is not empty, and CommandFailed at the first
    command that exits nonzero.
    """
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise ValueError(f"{root} is not empty")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for h, w, t in sizes:
            name = scene_name(h, w, t)
            Path(name).mkdir()
            cfg = {"height": h, "width": w, "frame_count": t}
            Path(name, "config.json").write_text(json.dumps(cfg, sort_keys=True) + "\n")
            for argv in scene_commands(name):
                run(argv)
        for scenes in ablations:
            run(ablation_command(scenes))
    finally:
        os.chdir(cwd)
    return listing(root)


def run(argv: list[str]) -> None:
    """Run one CLI command; CommandFailed with its error line if it fails."""
    stdout = io.StringIO()  # the CLI prints its error line there
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"{' '.join(argv)}: {stdout.getvalue().strip()}")


def files(root: Path) -> list[str]:
    """The relative paths of the files under root, sorted."""
    return sorted(p.relative_to(root).as_posix() for p in Path(root).rglob("*") if p.is_file())


def listing(root: Path) -> list[str]:
    """One `sha256  relative/path` line per file under root, sorted by path."""
    return [f"{hashlib.sha256((root / f).read_bytes()).hexdigest()}  {f}" for f in files(root)]


def token(text: str):
    """A whitespace token as an int, else a float, else the string."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def values(path: Path) -> tuple[list[float], list]:
    """A file's numbers (floats) and its other values (ints, bools, strings,
    None, and the keys and lengths that give its layout), in file order."""
    if path.suffix == ".bin":
        entries = json.loads((path.parent / "meta.json").read_text())["tensors"]
        [dtype] = [e["dtype"] for e in entries if e["name"] == path.stem]
        return np.frombuffer(path.read_bytes(), dtype=BIN_TYPES[dtype]).astype(float).tolist(), []
    leaves = []

    def walk(x):
        if isinstance(x, dict):
            leaves.append(sorted(x))
            for k in sorted(x):
                walk(x[k])
        elif isinstance(x, list):
            leaves.append(len(x))
            for y in x:
                walk(y)
        else:
            leaves.append(x)

    text = path.read_text()
    walk(json.loads(text) if path.suffix == ".json" else [token(t) for t in text.split()])
    return [x for x in leaves if type(x) is float], [x for x in leaves if type(x) is not float]


def difference(a: float, b: float) -> tuple[float, float]:
    """Relative and absolute difference of two numbers; equal ones (NaNs
    included) differ by 0."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    gap = abs(a - b)
    return gap / max(abs(a), abs(b)), gap


def compare(a, b) -> tuple[list[str], bool]:
    """One line per file of trees a and b that differs or exists in one only,
    then a summary line; and whether every file is byte-identical."""
    a, b = Path(a), Path(b)
    in_a, in_b = files(a), files(b)
    lines, same = [], 0
    for f in sorted(set(in_a) | set(in_b)):
        if f not in in_a or f not in in_b:
            lines.append(f"{f}  only in {a if f in in_a else b}")
            continue
        if (a / f).read_bytes() == (b / f).read_bytes():
            same += 1
            continue
        (num_a, rest_a), (num_b, rest_b) = values(a / f), values(b / f)
        if len(num_a) != len(num_b):
            lines.append(f"{f}  {len(num_a)} numbers against {len(num_b)}  "
                         f"other values equal: {rest_a == rest_b}")
            continue
        gaps = [difference(x, y) for x, y in zip(num_a, num_b)]
        rel, gap = (max(g[k] for g in gaps) if gaps else 0.0 for k in (0, 1))
        lines.append(f"{f}  max rel diff {rel:.3g}  max abs diff {gap:.3g}  "
                     f"other values equal: {rest_a == rest_b}")
    differ = len(lines)
    lines.append(f"{same} identical, {differ} differ or in one tree only")
    return lines, differ == 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        if not all(Path(d).is_dir() for d in args[1:]):
            print("output_digest: --compare needs two directories", file=sys.stderr)
            return 2
        lines, identical = compare(*args[1:])
        print("\n".join(lines))
        return 0 if identical else 1
    if len(args) != 1:
        print("usage: output_digest.py OUTDIR | --compare A B", file=sys.stderr)
        return 2
    print("output_digest: " + " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in THREAD_VARS),
          file=sys.stderr)
    try:
        lines = run_all(args[0])
    except (CommandFailed, ValueError) as exc:
        print(f"output_digest: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
