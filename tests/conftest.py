"""Settings shared by every test module."""

from hypothesis import settings

# Derandomized, so that every run of the suite draws the same examples and a
# result reproduces; no deadline, because example times vary with load.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
