"""Hash every file the CLI writes on a fixed set of synthetic scenes.

Run from the repository root:

    python3 tools/output_digest.py OUTDIR

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

The CLI is deterministic, so two trees that compute the same outputs print the
same listing: diff the listings of two checkouts (copy this file into an older
one) to check that a change leaves every output byte-identical. If a command
fails, the script prints it and its error to stderr and exits 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

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


def listing(root: Path) -> list[str]:
    """One `sha256  relative/path` line per file under root, sorted by path."""
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((root / f).read_bytes()).hexdigest()}  {f}" for f in files]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: output_digest.py OUTDIR", file=sys.stderr)
        return 2
    try:
        lines = run_all(args[0])
    except (CommandFailed, ValueError) as exc:
        print(f"output_digest: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
