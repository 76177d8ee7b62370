"""Fixtures shared by the test modules."""

import pytest

from qaffine import verify
from qaffine.linalg import OpMatrix, OscPoly, _pack


@pytest.fixture
def perturb_r(monkeypatch):
    """A function that, once called, makes the identity checks read every
    R-matrix with its first entry, in sorted order, multiplied by q."""
    real = verify.r_form
    q = OscPoly({_pack(0, 0, 6): 1})

    def perturbed(*args):
        mat, den = real(*args)
        ij = min(mat.entries)
        entries = dict(mat.entries)
        entries[ij] = entries[ij] * q
        return OpMatrix(mat.dim, entries, mat.one), den

    return lambda: monkeypatch.setattr(verify, "r_form", perturbed)
