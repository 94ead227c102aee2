"""Settings and helpers shared by every test module."""

import numpy as np
from hypothesis import settings

# Derandomized, so that every run of the suite draws the same examples and a
# result reproduces; no deadline, because example times vary with load.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def not_real(inputs: dict) -> dict:
    """For each ``name: (call, good)`` of ``inputs``, where ``call`` takes
    one array input and ``good`` is a valid value of it: the calls on the
    ragged, string, bool and complex forms of ``good``, under the ids
    "name-ragged" and so on.  None of these forms is an array of reals."""
    calls = {}
    for name, (call, good) in inputs.items():
        a = np.asarray(good, dtype=float)
        for kind, bad in (("ragged", [a.tolist(), a.tolist() + [0.0]]),
                          ("string", a.astype(str)), ("bool", a != 0),
                          ("complex", a + 0j)):
            calls[f"{name}-{kind}"] = lambda call=call, bad=bad: call(bad)
    return calls
