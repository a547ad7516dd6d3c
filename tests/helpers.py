"""Reference measures the tests compare layers and probes by."""

import numpy as np


def reconstruction_error(a, b) -> float:
    """Frobenius-relative error ||a - b|| / ||a|| of two same-shape arrays."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, (a.shape, b.shape)
    return float(np.linalg.norm(np.ravel(a - b))) / float(np.linalg.norm(np.ravel(a)))


def output_error(w, w_hat, x) -> float:
    """Relative deviation of a layer's output, ||(W - What) X|| / ||W X||, by
    the operations a probe takes it with; 0.0 where ||W X|| is 0."""
    base = float(np.linalg.norm(w @ x))
    return 0.0 if base == 0.0 else float(np.linalg.norm((w - w_hat) @ x)) / base
