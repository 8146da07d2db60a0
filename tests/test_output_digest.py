import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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


def test_digest_listing_is_reproducible(tmp_path):
    tool = _load_tool()
    sizes = ((16, 20, 5),)
    ablations = ((sizes[0], sizes[0]),)
    first = tool.run_all(tmp_path / "a", sizes, ablations)
    second = tool.run_all(tmp_path / "b", sizes, ablations)
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
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "x").write_text("")
    assert tool.main([str(tmp_path / "full")]) == 1
