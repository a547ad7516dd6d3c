"""Reference measures the tests compare layers and probes by, and planner
options built from candidate lists."""

import numpy as np

from minima.planner import NO_FIT, PlanOptions, tie_order


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


def pack_options(rows):
    """``PlanOptions`` laid out as ``build_options`` lays them out, from
    ``(patch, candidates[, compressible[, pinned]])`` rows: patches sorted
    by id, a column per (family, ratio) pair in ``tie_order``, and each
    candidate in its patch's cell of its pair. A patch lists a pair once."""
    rows = sorted(rows, key=lambda row: row[0].patch_id)
    keys = sorted({(c.family, c.ratio) for row in rows for c in row[1]}, key=tie_order)
    column = {key: j for j, key in enumerate(keys)}
    params = np.full((len(rows), len(keys)), NO_FIT, dtype=np.int64)
    predicted = np.zeros((len(rows), len(keys)))
    ranks = {}
    for i, (patch, candidates, *_) in enumerate(rows):
        for c in candidates:
            j = column[c.family, c.ratio]
            assert params[i, j] == NO_FIT, f"patch {patch.patch_id} lists {keys[j]} twice"
            params[i, j], predicted[i, j] = c.params, c.predicted_degradation
            ranks[(patch.rows, patch.cols), keys[j]] = c.ranks
    compressible = np.array([row[2] if len(row) > 2 else True for row in rows], dtype=bool)
    pinned = np.array([row[3] if len(row) > 3 else False for row in rows], dtype=bool)
    return PlanOptions([row[0] for row in rows], compressible, pinned, keys, params, predicted, ranks)


def unpack_options(options) -> list:
    """``(patch, candidates, compressible, pinned)`` of each patch of ``options``:
    ``pack_options`` of the list gives the same options."""
    return [(o.patch, o.candidates, o.compressible, o.pinned) for o in options]
