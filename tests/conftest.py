"""Suite-wide Hypothesis settings: every property test draws the same examples
on every run (derandomize) and no example database is read or written, so a
run's result depends on the code alone. A test's own @settings override the
profile's other fields only."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
