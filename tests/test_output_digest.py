import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# runs every command on one scene, then prints the scipy modules it loaded
_LOADED_SCIPY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import output_digest
output_digest.run_all(sys.argv[2], ((16, 20, 5),), ())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_command_loads_scipy_special(tmp_path):
    # a fresh interpreter, since this one may have loaded it for other tests
    argv = [sys.executable, "-c", _LOADED_SCIPY, str(TOOL.parent), str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "scipy.special" not in json.loads(done.stdout)


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """Two output trees of one 16x20x5 scene, each run from scratch, and
    their listings."""
    tool, root = _load_tool(), tmp_path_factory.mktemp("digest")
    sizes = ((16, 20, 5),)
    ablations = ((sizes[0], sizes[0]),)
    return [(root / name, tool.run_all(root / name, sizes, ablations)) for name in "ab"]


def test_digest_listing_is_reproducible(trees):
    (_, first), (_, second) = trees
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    # every command left its output in the listing
    assert "ablate/s16x20x5+s16x20x5.json" in paths
    tops = {p.split("/")[1] for p in paths if p.startswith("s16x20x5/")}
    assert tops == {"config.json", "scene", "depth", "track", "track-jitter", "track-windows",
                    "recon", "align", "align-jitter", "eval", "ablate.json"}
    assert {p for p in paths if "/eval/" in p} == {
        f"s16x20x5/eval/{k}.json" for k in ("depth", "track", "traj")
    }


def test_digest_exits_nonzero_on_a_failing_command(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "scene_commands",
                        lambda name: [["depth", f"{name}/missing", "--out", f"{name}/depth"]])
    assert tool.main([str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output_digest: depth s24x32x6/missing" in captured.err
    assert "OPENBLAS_NUM_THREADS=" in captured.err and "OMP_NUM_THREADS=" in captured.err
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "x").write_text("")
    assert tool.main([str(tmp_path / "full")]) == 1


def test_compare_reports_each_changed_file_by_its_largest_difference(trees, tmp_path, capsys):
    tool = _load_tool()
    (a, _), (b, _) = trees
    assert tool.main(["--compare", str(a), str(b)]) == 0
    count = len(tool.files(a))
    assert capsys.readouterr().out == f"{count} identical, 0 differ or in one tree only\n"
    b = shutil.copytree(b, tmp_path / "b")
    # a float's last digits, an integer, one tensor entry, a trajectory token
    report = json.loads((b / "s16x20x5/align-jitter/report.json").read_text())
    report["energy_trace"][1] *= 1 + 2e-15
    (b / "s16x20x5/align-jitter/report.json").write_text(json.dumps(report))
    report = json.loads((b / "s16x20x5/align/report.json").read_text())
    report["iterations"] += 1
    (b / "s16x20x5/align/report.json").write_text(json.dumps(report))
    bins = sorted((b / "s16x20x5/depth").glob("*.bin"))
    tensor = np.fromfile(bins[0], dtype="<f4")
    tensor[3] = tensor[3] * np.float32(1.5) + np.float32(1.0)
    tensor.tofile(bins[0])
    traj = b / "s16x20x5/align-jitter/trajectory.txt"
    traj.write_text(traj.read_text().replace("0 ", "zero ", 1))
    (b / "extra.txt").write_text("1\n")

    assert tool.main(["--compare", str(a), str(b)]) == 1
    lines = dict(line.split("  ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
    assert set(lines) == {"s16x20x5/align-jitter/report.json", "s16x20x5/align/report.json",
                          bins[0].relative_to(b).as_posix(), "s16x20x5/align-jitter/trajectory.txt",
                          "extra.txt"}
    rel = float(lines["s16x20x5/align-jitter/report.json"].split()[3])
    assert 0 < rel <= 4e-15
    assert lines["s16x20x5/align-jitter/report.json"].endswith("other values equal: True")
    assert lines["s16x20x5/align/report.json"] == (
        "max rel diff 0  max abs diff 0  other values equal: False")
    assert float(lines[bins[0].relative_to(b).as_posix()].split()[3]) > 0.3
    assert lines["s16x20x5/align-jitter/trajectory.txt"].endswith("other values equal: False")
    assert lines["extra.txt"] == f"only in {b}"
