"""A fixed computation that measures how fast the machine runs right now.

Per-operation times on a shared machine move between a common level and
faster phases that can last a whole run. The benchmark runs this computation
between operations and reports times at the reference speed: measured time x
NOMINAL_S / the reference's time in the same run. It uses no minima code, so a
change to the program cannot move it. Its parts follow what the workloads do:
interpreter work on a small and on a large working set, small numpy
operations in a Python loop, and LAPACK calls.
"""

import time

import numpy as np

NOMINAL_S = 0.3  # the scale of the reported times: the reference taking 0.3 s

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((48, 48))
_V = _rng.standard_normal((48, 48))
_N = 200_000
_ROWS = [(i, float(i)) for i in range(_N)]
_TABLE = {i: (0.5 * i, i) for i in range(_N)}
_ORDER = _rng.permutation(_N)[:50_000].tolist()


def _work() -> float:
    x = 0.0
    for i in range(150_000):
        x += (i % 7) * 1.5
    for k in _ORDER:
        x += _ROWS[k][1] + _TABLE[k][0]
    w = _V.copy()
    for p in range(47):
        for q in range(p + 1, 48):
            c = 1.0 / np.sqrt(1.0 + (float(np.dot(w[p], w[q])) / (float(np.dot(w[p], w[p])) + 1.0)) ** 2)
            wp = w[p].copy()
            w[p] = c * wp - 1e-3 * c * w[q]
            w[q] = 1e-3 * c * wp + c * w[q]
    for _ in range(40):
        x += float(np.linalg.svd(_A, compute_uv=False)[0])
    return x


def seconds() -> float:
    """Wall time of one run of the reference computation (three passes)."""
    t0 = time.perf_counter()
    for _ in range(3):
        _work()
    return time.perf_counter() - t0
