"""Fixtures shared by the test modules."""

import pytest

from epsgeom import groebner


@pytest.fixture
def pair_runs(monkeypatch):
    """The number of Buchberger pair-loop runs, counted as they happen."""
    runs = []
    loop = groebner._buchberger_pairs

    def counted(*args, **kwargs):
        runs.append(1)
        return loop(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_pairs", counted)
    return runs


@pytest.fixture
def reduce_runs(monkeypatch):
    """The number of reduce steps run on a pair loop's basis, counted as they happen."""
    runs = []
    step = groebner._reduce_basis

    def counted(*args, **kwargs):
        runs.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce_basis", counted)
    return runs
