"""Fixtures shared by the test modules."""

from dataclasses import fields

import numpy as np
import pytest

from metriflow import Grid, OnsagerBlocks, eval_eos, lam4
from metriflow.metriplectic import _embed3_matrix, _onsager_blocks


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


def reference_onsager_blocks(T, mu, v3, eta, zeta, kap3, dmat3) -> OnsagerBlocks:
    """The Onsager blocks at one point, written out without leading axes:
    T, mu, eta and zeta floats, v3 a 3-vector, kap3 and dmat3 3x3."""
    lam = lam4(eta, zeta)
    return OnsagerBlocks(
        L_mm=T * lam,
        L_me=T * np.einsum("ijkl,l->ijk", lam, v3),
        L_ee=T * T * kap3 + T * np.einsum("jikl,j,l->ik", lam, v3, v3) + T * mu * mu * dmat3,
        L_ec=T * mu * dmat3,
        L_cc=T * dmat3)


@pytest.fixture
def onsager_reference():
    """The per-point reference body of the Onsager blocks (see
    reference_onsager_blocks), which takes _onsager_blocks' arguments."""
    return reference_onsager_blocks


@pytest.fixture
def onsager_point():
    """(rho, s, c, v3, model) -> the Onsager blocks that _onsager_blocks
    gives at that thermodynamic point of model (a scalar or matrix kappa and
    dcoef), each block checked bit for bit against the reference body."""

    def blocks_at(rho, s, c, v3, model):
        tr, pt = model.transport, eval_eos(rho, s, c, model.eos)
        args = (float(pt.T), float(pt.mu), np.asarray(v3, dtype=float), tr.eta, tr.zeta,
                _embed3_matrix(tr.kappa), _embed3_matrix(tr.dcoef))
        blocks, ref = _onsager_blocks(*args), reference_onsager_blocks(*args)
        for f in fields(OnsagerBlocks):
            assert np.array_equal(getattr(blocks, f.name), getattr(ref, f.name)), f.name
        return blocks

    return blocks_at
