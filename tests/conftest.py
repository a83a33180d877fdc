"""Fixtures shared by the test modules."""

import pytest

from metriflow import Grid


@pytest.fixture
def deriv_calls(monkeypatch):
    """The list to which each Grid.deriv call of the test appends its axis."""
    calls = []
    plain = Grid.deriv

    def counted(self, f, axis, out=None):
        calls.append(axis)
        return plain(self, f, axis, out=out)

    monkeypatch.setattr(Grid, "deriv", counted)
    return calls
