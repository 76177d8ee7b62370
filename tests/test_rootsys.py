from fractions import Fraction

import pytest

from qaffine.rootsys import (
    CartanData, AffineRoot, extend_cartan, finite_cartan, positive_roots,
)
from oracles import bilinear, normal_order_check


def test_extended_matrices():
    a1 = extend_cartan(finite_cartan("a1"))
    assert a1.matrix == ((2, -2), (-2, 2))
    a2 = extend_cartan(finite_cartan("a2"))
    assert a2.matrix == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert a1.matrix[0][0] == 2
    with pytest.raises(ValueError):
        finite_cartan("b2")


def test_pairings():
    for label in ("a1", "a2"):
        fin = finite_cartan(label)
        for i in range(fin.rank):
            for j in range(fin.rank):
                assert fin.pairing(i, j) == fin.symmetrizers[i] * fin.matrix[i][j]
        assert fin.pairing(0, 0) == 2
    a2 = finite_cartan("a2")
    assert a2.pairing(0, 1) == -1


def test_finite_inverse():
    a1 = finite_cartan("a1")
    assert a1.finite_inverse == ((Fraction(1, 2),),)
    a2 = finite_cartan("a2")
    # inverse of [[2,-1],[-1,2]] is (1/3)[[2,1],[1,2]]
    m = a2.matrix
    inv = a2.finite_inverse
    for i in range(2):
        for j in range(2):
            s = sum(Fraction(m[i][k]) * inv[k][j] for k in range(2))
            assert s == (1 if i == j else 0)


def test_bilinear_form_on_roots():
    fin = finite_cartan("a1")
    alpha = AffineRoot((1,), 0, "real_plus")
    delta = AffineRoot((0,), 1, "imaginary")
    dma = AffineRoot((-1,), 1, "real_minus")
    assert bilinear(fin, alpha, alpha) == 2
    assert bilinear(fin, delta, delta) == 0
    assert bilinear(fin, delta, alpha) == 0
    assert bilinear(fin, alpha, dma) == -2
    fin2 = finite_cartan("a2")
    a = AffineRoot((1, 0), 0, "real_plus")
    b = AffineRoot((0, 1), 0, "real_plus")
    assert bilinear(fin2, a, b) == -1
    assert bilinear(fin2, a, a) == 2
    ab = AffineRoot((1, 1), 0, "real_plus")
    assert bilinear(fin2, ab, ab) == 2


def test_positive_roots_a1_cutoff0():
    aff = extend_cartan(finite_cartan("a1"))
    roots = positive_roots(aff, 0)
    assert roots == [AffineRoot((1,), 0, "real_plus"),
                     AffineRoot((-1,), 1, "real_minus")]


def test_positive_roots_counts_and_order():
    aff1 = extend_cartan(finite_cartan("a1"))
    roots = positive_roots(aff1, 3)
    assert len(roots) == 4 + 3 + 4
    assert normal_order_check(roots)
    aff2 = extend_cartan(finite_cartan("a2"))
    roots2 = positive_roots(aff2, 3)
    # 3 finite positives, interleaved plus tails
    assert len(roots2) == 3 * 4 + 3 + 3 * 4
    assert normal_order_check(roots2)
    # finite positive roots of rank 2: alpha, alpha+beta, beta
    finite = [r for r in roots2 if r.kind == "real_plus" and r.delta_mult == 0]
    assert sorted(r.finite_part for r in finite) == [(0, 1), (1, 0), (1, 1)]


def test_a2_printed_sequence_prefix():
    aff2 = extend_cartan(finite_cartan("a2"))
    roots = positive_roots(aff2, 1)
    seq = [(r.finite_part, r.delta_mult) for r in roots]
    assert seq == [
        ((1, 0), 0), ((1, 1), 0), ((1, 0), 1), ((1, 1), 1),
        ((0, 1), 0), ((0, 1), 1),
        ((0, 0), 1),
        ((0, -1), 2), ((0, -1), 1),
        ((-1, 0), 2), ((-1, -1), 2), ((-1, 0), 1), ((-1, -1), 1),
    ]


def test_coroot_decomposition():
    # alpha + m delta has k_0 = m over the affine simple roots
    r = AffineRoot((1,), 2, "real_plus")
    assert r.simple_coefficients() == (2, 3)
    # (delta - alpha - beta) + m delta -> (m+1, m, m)
    r2 = AffineRoot((-1, -1), 3, "real_minus")
    assert r2.simple_coefficients() == (3, 2, 2)
    r3 = AffineRoot((-1, -1), 1, "real_minus")
    assert r3.simple_coefficients() == (1, 0, 0)
    # (delta - beta) + m delta -> (m+1, m+1, m)
    r4 = AffineRoot((0, -1), 3, "real_minus")
    assert r4.simple_coefficients() == (3, 3, 2)


def test_normal_order_violation_detected():
    aff = extend_cartan(finite_cartan("a1"))
    roots = positive_roots(aff, 2)
    bad = list(reversed(roots))
    assert not normal_order_check(bad)
