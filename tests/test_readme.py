"""README's library tour runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    # the first python block; the suite turns a RuntimeWarning into an error
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})
    score, ate = map(float, capsys.readouterr().out.split())
    assert math.isfinite(score) and math.isfinite(ate)
