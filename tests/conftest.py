"""Fixtures shared by the test modules."""

import pytest

from qaffine import verify
from qaffine.linalg import OpMatrix
from qaffine.rational import ZetaRational
from qaffine.scalars import q_power


@pytest.fixture
def perturb_r(monkeypatch):
    """A function that, once called, makes the identity checks read every
    R-matrix with its first entry, in sorted order, multiplied by q."""
    real = verify.reference_matrix

    def perturbed(kind, *args, **kwargs):
        ref = real(kind, *args, **kwargs)
        if kind == "r":
            mat = ref.matrix
            ij = min(mat.entries)
            entries = dict(mat.entries)
            entries[ij] = entries[ij] * ZetaRational({0: q_power(1)})
            ref.matrix = OpMatrix(mat.dim, entries, mat.one)
        return ref

    return lambda: monkeypatch.setattr(verify, "reference_matrix", perturbed)
