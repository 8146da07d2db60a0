"""Per-layer spans and counts, recorded from outside the program.

A `Tracer` swaps each traced public function of `pointmatch` for a timing
wrapper while it is entered, and puts the originals back on exit, so untimed
passes run the program untouched. The wrapper is installed wherever the
function is bound: in its defining module and in every module that imported
it by name (for example `pointmatch.cli` binds `global_align` itself).

Every span is inclusive: `predict` contains its `gt_*` calls, `video_depth`
contains its `predict` calls. A layer metric is the median seconds of one
call, so it does not depend on how many calls a workload makes; the counts
say how many there were.
"""

from __future__ import annotations

import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, function) pairs timed per call. `OraclePredictor.predict` is a
# method and is patched on its class.
LAYERS = (
    ("scenes", "generate_scene"),
    ("scenes", "raycast_pixels"),
    ("scenes", "gt_pointmap_matching"),
    ("scenes", "gt_rigid_pointmap"),
    ("io", "save_scene"),
    ("io", "load_scene"),
    ("pipelines", "OraclePredictor.predict"),
    ("pipelines", "video_depth"),
    ("pipelines", "track_3d"),
    ("pipelines", "feedforward_recon"),
    ("matching", "sparsify_tracks"),
    ("matching", "dynamic_mask"),
    ("alignment", "build_pair_graph"),
    ("alignment", "global_align"),
    ("alignment", "alignment_energy"),
    ("metrics", "trajectory_metrics"),
    ("metrics", "apd"),
    ("metrics", "depth_metrics"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


class Tracer:
    """Collects per-call durations and the counts the layer metrics need."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.predict_calls = 0
        self.unique_pairs = 0
        self._pairs = weakref.WeakKeyDictionary()  # predictor -> pairs it was asked
        self.edges = 0
        self.last_solve: tuple | None = None  # (problem, options, result)
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        pkg = "pointmatch"
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == pkg or name.startswith(pkg + "."))]
        for module, attr in LAYERS:
            owner = sys.modules[f"{pkg}.{module}"]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[fn_name]
                self._restore.append((cls, fn_name, orig))
                setattr(cls, fn_name, self._predict_wrapper(orig))
                continue
            orig = getattr(owner, fn_name)
            wrapped = self._wrapper(span_name(module, attr), orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    def _wrapper(self, name: str, fn):
        samples = self.samples[name]

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            samples.append(time.perf_counter() - t0)
            if name == "alignment.build_pair_graph":
                self.edges += len(out.edges)
            elif name == "alignment.global_align":
                problem = args[0] if args else kwargs["problem"]
                options = args[1] if len(args) > 1 else kwargs.get("options")
                self.last_solve = (problem, options, out)
            return out

        return timed

    def _predict_wrapper(self, fn):
        samples = self.samples["pipelines.predict"]

        def timed(predictor, view1, view2):
            t0 = time.perf_counter()
            out = fn(predictor, view1, view2)
            samples.append(time.perf_counter() - t0)
            self.predict_calls += 1
            asked = self._pairs.setdefault(predictor, set())
            if (view1, view2) not in asked:
                asked.add((view1, view2))
                self.unique_pairs += 1
            return out

        return timed

    def median(self, name: str) -> float | None:
        s = self.samples.get(name)
        return statistics.median(s) if s else None
