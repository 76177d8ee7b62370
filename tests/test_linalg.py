import itertools
import random

import pytest

from qaffine.scalars import QScalar, q_power
from oracles import diagonal_matrix, fock_window
from tuple_ring import (
    OscElement, TupleLaurent2, flat, nested_matrix, tuple_qpow,
)

from qaffine.linalg import (
    OpMatrix, OscPoly, kron, perm_operator, hat_or_check, embed_legs,
    Grid, grid_akp,
)

ONE = QScalar.ONE


def unit(dim, a, b):
    return OpMatrix.unit(dim, a, b, ONE)


def rand_matrix(rng, dim):
    return OpMatrix(dim, {(rng.randrange(dim), rng.randrange(dim)):
                          q_power(rng.randint(-2, 2)).scale(rng.randint(1, 3))
                          for _ in range(dim * 2)}, ONE)


def test_matrix_unit_relations_exhaustive():
    # E_ab E_cd = delta_bc E_ad, for all indices up to dim 4
    for dim in (2, 3, 4):
        for a, b, c, d in itertools.product(range(1, dim + 1), repeat=4):
            prod = unit(dim, a, b) * unit(dim, c, d)
            expect = unit(dim, a, d) if b == c else OpMatrix.zero(dim, ONE)
            assert prod == expect


def test_kron_units_and_identity():
    e11, e22 = unit(2, 1, 1), unit(2, 2, 2)
    k = kron(e11, e22)
    assert k.entries == {(1, 1): ONE}
    eye2 = OpMatrix.identity(2, ONE)
    assert kron(eye2, eye2) == OpMatrix.identity(4, ONE)


def test_kron_of_cartan_images():
    h = diagonal_matrix([ONE, -ONE], ONE)
    hh = kron(h, h)
    expect = (kron(unit(2, 1, 1), unit(2, 1, 1)) - kron(unit(2, 1, 1), unit(2, 2, 2))
              - kron(unit(2, 2, 2), unit(2, 1, 1)) + kron(unit(2, 2, 2), unit(2, 2, 2)))
    assert hh == expect


def test_kron_mixed_product_rule():
    rng = random.Random(5)
    for _ in range(10):
        a, b, c, d = (rand_matrix(rng, 2) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_kron_associative_bilinear():
    rng = random.Random(11)
    a, b, c = (rand_matrix(rng, 2) for _ in range(3))
    assert kron(kron(a, b), c) == kron(a, kron(b, c))
    d = rand_matrix(rng, 2)
    assert kron(a + d, b) == kron(a, b) + kron(d, b)


def test_perm_operator_identity_and_swap():
    assert perm_operator((0, 1), [2, 2], ONE) == OpMatrix.identity(4, ONE)
    p = perm_operator((1, 0), [2, 2], ONE)
    # P (e_a x e_b) = e_b x e_a for all a, b
    for a in range(2):
        for b in range(2):
            col = a * 2 + b
            expect_row = b * 2 + a
            assert p.entries.get((expect_row, col)) == ONE


def test_perm_composition_and_braid():
    dims = [2, 2, 2]
    perms = list(itertools.permutations(range(3)))
    mats = {s: perm_operator(s, dims, ONE) for s in perms}
    for s in perms:
        for t in perms:
            st = tuple(s[t[i]] for i in range(3))
            assert mats[s] * mats[t] == mats[st]
    p12 = perm_operator((1, 0, 2), dims, ONE)
    p13 = perm_operator((2, 1, 0), dims, ONE)
    p23 = perm_operator((0, 2, 1), dims, ONE)
    assert p12 * p13 * p23 == p23 * p13 * p12


def test_perm_conjugation_matches_leg_relabeling():
    rng = random.Random(3)
    m = rand_matrix(rng, 4)  # payload on two legs of dim 2
    for s in itertools.permutations(range(3)):
        for legs in itertools.permutations(range(3), 2):
            emb = embed_legs(m, legs, 3, 2)
            ps = perm_operator(s, [2, 2, 2], ONE)
            moved = embed_legs(m, tuple(s[l] for l in legs), 3, 2)
            assert ps * emb == moved * ps


def test_hat_and_check_index_relations():
    rng = random.Random(17)
    r = rand_matrix(rng, 4)
    rhat, rcheck = (hat_or_check(r, kind) for kind in ("hat", "check"))
    idx = lambda a, b: (a - 1) * 2 + (b - 1)
    for a, b, c, d in itertools.product((1, 2), repeat=4):
        assert rhat.entry(idx(a, b), idx(c, d)) == r.entry(idx(a, b), idx(d, c))
        assert rcheck.entry(idx(a, b), idx(c, d)) == r.entry(idx(b, a), idx(c, d))
    eye4 = OpMatrix.identity(4, ONE)
    p = perm_operator((1, 0), [2, 2], ONE)
    assert hat_or_check(eye4, "hat") == hat_or_check(eye4, "check") == p
    with pytest.raises(ValueError):
        hat_or_check(OpMatrix.identity(5, ONE), "hat")


def test_grid_akp_definition():
    rng = random.Random(23)
    ops = [rand_matrix(rng, 3) for _ in range(8)]
    g1 = Grid(2, {(0, 0): ops[0], (0, 1): ops[1], (1, 1): ops[2]}, 3, ONE)
    g2 = Grid(2, {(0, 0): ops[3], (1, 0): ops[4], (1, 1): ops[5]}, 3, ONE)
    prod = grid_akp(g1, g2)
    zero = OpMatrix.zero(3, ONE)
    for a, b, i, j in itertools.product(range(2), repeat=4):
        expect = g1.entries.get((a, b), zero) * g2.entries.get((i, j), zero)
        assert prod.entries.get((a * 2 + i, b * 2 + j), zero) == expect


def test_grid_flatten_roundtrip():
    rng = random.Random(29)
    g = Grid(2, {(0, 1): rand_matrix(rng, 3), (1, 0): rand_matrix(rng, 3)}, 3, ONE)
    for op_first in (True, False):
        flat = g.flatten(op_first)
        # operator entry (i, j) of grid entry (a, b), at the flat index of
        # the chosen leg order; nothing else
        expect = {}
        for (a, b), m in g.entries.items():
            for (i, j), v in m.entries.items():
                ij = ((i * 2 + a, j * 2 + b) if op_first else
                      (a * 3 + i, b * 3 + j))
                expect[ij] = v
        assert flat.dim == 6
        assert flat.entries == expect


def test_fock_window_keeps_every_level_up_to_the_margin():
    for d, copies, margin in ((5, 1, 0), (5, 1, 2), (4, 2, 1), (3, 2, 2)):
        keep = fock_window(d, copies, margin)
        for idx, state in enumerate(itertools.product(range(d),
                                                      repeat=copies)):
            assert keep(idx) == (max(state) <= d - 1 - margin)


def test_mixed_scalar_kinds_rejected():
    from qaffine.rational import ZetaRational
    a = OpMatrix.identity(2, ONE)
    b = OpMatrix.identity(2, ZetaRational.ONE)
    with pytest.raises(TypeError):
        kron(a, b)
    with pytest.raises(TypeError):
        a * b


@pytest.mark.parametrize("seed", range(6))
def test_scaled_is_the_product_with_diagonal_matrices(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3, 4))
    weights = lambda: [q_power(rng.randint(-2, 2)).scale(rng.randint(0, 2))
                       for _ in range(dim)]
    rows, cols = weights(), weights()
    diag = lambda w: diagonal_matrix(w, ONE)
    m = rand_matrix(rng, dim)
    assert m.scaled(rows, cols) == diag(rows) * m * diag(cols)
    assert m.scaled(rows) == diag(rows) * m
    assert m.scaled(cols=cols) == m * diag(cols)
    assert m.scaled() == m
    # a zero weight drops its row or column, and no zero is stored
    assert all(m.scaled(rows, cols).entries.values())
    for bad in (rows[1:], rows + rows):
        with pytest.raises(ValueError):
            m.scaled(bad)
        with pytest.raises(ValueError):
            m.scaled(cols=bad)


def _scale_then_sum(s, g, left):
    """s . G (left) or G . s, for s a matrix of scalars and G one over the
    oscillator ring, as a sum of the elements of G with every coefficient
    scaled, one element per term, over the full scan of s and G: the
    definition."""
    out = {}
    for (a, k), c in s.entries.items():
        for (kk, b), x in g.entries.items():
            if left and kk == k:
                ab = (a, b)
            elif not left and b == a:
                ab = (kk, k)
            else:
                continue
            p = x.map(lambda v: c * v)
            out[ab] = out[ab] + p if ab in out else p
    return OpMatrix(g.dim, out, g.one)


def _constants(s, one):
    """The matrix s of scalars as one over the oscillator ring of `one`,
    each entry placed at delta = kappa = 0."""
    (key, _), = one.terms.items()
    return s.map_values(lambda c: OscElement({key: c}, one.qpow), one)


def _laurent2_scalars(rng):
    """The two-variable ring: the matrices are built over OscElement with
    TupleLaurent2 coefficients and multiplied in the flat ring
    `linalg.OscPoly`, constants lifted at delta = kappa = 0."""

    def value():
        return TupleLaurent2({
            (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-6, 6)):
            rng.choice((-2, -1, 1, 3)) for _ in range(rng.randint(1, 3))})
    to_ring = (lambda m: m.map_values(flat, OscPoly.ONE),
               lambda m: nested_matrix(m, 1))
    return TupleLaurent2.ONE, tuple_qpow, value, to_ring


def _qscalar_scalars(rng):
    return ONE, q_power, lambda: q_power(rng.randint(-2, 2)).scale(
        rng.choice((-2, -1, 1, 3))) + q_power(rng.randint(-2, 2)), (
        lambda m: m, lambda m: m)


def _stored_nonzero(m):
    return all(m.entries.values()) and all(
        c for x in m.entries.values() for c in x.terms.values())


@pytest.mark.parametrize("scalars", [_qscalar_scalars, _laurent2_scalars])
@pytest.mark.parametrize("seed", range(8))
def test_scalar_matrix_products_equal_scale_then_sum(scalars, seed):
    # a matrix of scalars placed at delta = kappa = 0 of the oscillator
    # ring, as the relation checks place R, multiplies a matrix over the
    # ring by scaling coefficients; `to_ring` takes a matrix into the ring
    # the product is taken in and `back` brings the product back
    rng = random.Random(seed)
    c_one, qpow, value, (to_ring, back) = scalars(rng)
    one = OscElement({((0,), (0,)): c_one}, qpow)
    n = rng.choice((2, 3))

    def element():
        # a value may be zero, and no zero coefficient is stored
        terms = {((rng.randint(-1, 1),), (rng.randint(-2, 2),)): value()
                 for _ in range(3)}
        return OscElement({k: v for k, v in terms.items() if v}, qpow)
    g = OpMatrix(n, {(rng.randrange(n), rng.randrange(n)): element()
                     for _ in range(2 * n)}, one)
    s = OpMatrix(n, {(rng.randrange(n), rng.randrange(n)): value()
                     for _ in range(n + 1)}, c_one)
    ring_s, ring_g = to_ring(_constants(s, one)), to_ring(g)
    for got, left in ((ring_s * ring_g, True), (ring_g * ring_s, False)):
        assert back(got) == _scale_then_sum(s, g, left)
        assert _stored_nonzero(got)
    # cancelling: two elements of G are equal and another two differ by
    # m, and s weighs each pair with opposite signs, so one output element
    # vanishes and in another every term of h cancels
    m, h = element(), element()
    c = value()
    g = OpMatrix(2, {(0, 0): m, (1, 0): m, (0, 1): h + m, (1, 1): h}, one)
    s = OpMatrix(2, {(0, 0): c, (0, 1): -c}, c_one)
    got = back(to_ring(_constants(s, one)) * to_ring(g))
    assert got == _scale_then_sum(s, g, True)
    assert got.entries == {(0, 1): m.map(lambda v: c * v)}
    g = OpMatrix(2, {(0, 0): m, (0, 1): m, (1, 0): h + m, (1, 1): h}, one)
    s = OpMatrix(2, {(0, 0): c, (1, 0): -c}, c_one)
    got = back(to_ring(g) * to_ring(_constants(s, one)))
    assert got == _scale_then_sum(s, g, False)
    assert got.entries == {(1, 0): m.map(lambda v: v * c)}
