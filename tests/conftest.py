import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def lapack_calls(monkeypatch):
    """The shape of every ``np.linalg.svd`` call the test makes, in call order."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every ``np.linalg.eigh`` call the test makes, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """The right-hand side shape of every ``np.linalg.solve`` call the test
    makes, in call order."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b, *args, **kwargs):
        calls.append(np.shape(b))
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.fixture
def policy(monkeypatch):
    """``policy(**values)`` sets any of sensitivity's ``FAMILIES``,
    ``RATIO_GRID``, ``DEGRADATION_CAP`` and ``EXCLUDED_KINDS``, which
    ``analyze``, ``predict`` and the planner read when they run, to the
    given values for the rest of the test; ``FAMILIES`` takes a subset in
    its own order."""

    def set_values(**values) -> None:
        for name, value in values.items():
            assert name in ("FAMILIES", "RATIO_GRID", "DEGRADATION_CAP", "EXCLUDED_KINDS"), name
            monkeypatch.setattr(f"minima.sensitivity.{name}", value)

    return set_values
