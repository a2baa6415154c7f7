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
