import itertools
import sys
from functools import reduce

import pytest

from qaffine.scalars import QScalar, q_power
from qaffine.rational import ZetaRational
from qaffine.series import series_exp
from qaffine.linalg import (
    OpMatrix, OscElement, Grid, hat_and_check, kron, perm_operator,
)
from qaffine.reference import (
    PrefactorTag, reference_matrix, list_variants, r0_hat_matrix, render,
    grid_inverse, op_inverse, l_table, exponent_tuple,
)
from qaffine import verify
from qaffine.engine import EngineParams, assemble
from derivation_factors import ordered_factors
from product_builders import apply_two_copy_normalization
from oracles import (
    fock_window, grid_identity, render_ring, restrict, tag_inverse,
    tag_series,
)

ONE = QScalar.ONE
ZR_ONE = ZetaRational.ONE


def zr(num, den=None):
    return ZetaRational(num, den if den is not None else {0: ONE})


def test_r_a1_symmetric_entry():
    # at (s, s1) = (-2, -1) the raising-lowering entry reads
    # (1 - q^-2) z^-1 / (1 - q^-2 z^-2)
    ref = reference_matrix("r", "a1", s=-2, s1=-1)
    got = ref.matrix.entry(1, 2)  # E12 x E21 slot
    expect = zr({-1: ONE - q_power(-2)}, {0: ONE, -2: -q_power(-2)})
    assert got == expect
    assert ref.matrix.entry(0, 0) == ZR_ONE
    # prefactor tag: q^(1/2) e^(lambda2(q z^s) - lambda2(q^-1 z^s))
    assert ref.tag == PrefactorTag(3, ((2, 6, -2, 1), (2, -6, -2, -1)))


def test_r_hat_index_relation():
    ref = reference_matrix("r", "a1", s=1, s1=0)
    rhat, _ = hat_and_check(ref.matrix)
    # hat entry (12,12) equals plain entry (12,21)
    assert rhat.entry(1, 1) == ref.matrix.entry(1, 2)
    expect = zr({0: ONE - q_power(-2)}, {0: ONE, 1: -q_power(-2)})
    assert rhat.entry(1, 1) == expect


def test_l_a1_hat_entries():
    ref = reference_matrix("l", "a1", "hat", s=1, s1=0, d=6)
    m22 = ref.matrix.entries[(1, 1)]
    # q^-D - q^D z^s on each Fock state
    for n in range(6):
        assert m22.entry(n, n) == zr({0: q_power(-n), 1: -q_power(n)})
    m12 = ref.matrix.entries[(0, 1)]
    for n in range(1, 6):
        assert m12.entry(n - 1, n) == zr({1: (ONE - q_power(2 * n))
                                          * q_power(-n)})


def test_unsupported_variant_rejected():
    with pytest.raises(ValueError) as e:
        reference_matrix("l", "a1", "hat-3")
    assert "supported" in str(e.value)


def grid_product(factors):
    return reduce(lambda a, b: a * b, factors)


def test_a1_factor_products_match_displays():
    # products of the printed factors reproduce the printed assembled form
    # away from the truncated top state, where a a-dagger is cut off
    d = 6
    for variant in ("hat", "check"):
        ref = reference_matrix("l", "a1", variant, s=2, s1=1, d=d)
        factors = ordered_factors("a1", variant, s=2, s1=1, d=d)
        assert factors
        prod = grid_product(factors)
        keep = fock_window(d, 1, 1)
        assert restrict(prod, keep) == restrict(ref.matrix, keep)


def test_a2_factor_products_match_displays():
    d = 4
    for variant in ("hat-1", "check-1"):
        for exps in ((1, 0, 0), (2, 1, 0)):
            ref = reference_matrix("l", "a2", variant, *exps, d=d)
            prod = grid_product(ordered_factors("a2", variant, *exps, d=d))
            keep = fock_window(d, 2, 1)
            assert restrict(prod, keep) == restrict(ref.matrix, keep)


def test_ordered_factors_only_where_transcribed():
    for algebra, variant in (("a1", "hat-twisted"), ("a1", "check-twisted"),
                             ("a2", "hat-2"), ("a2", "check-2"),
                             ("a2", "check-inv"), ("a2", "hat-2-inv"),
                             ("a2", "hat"), ("a1", "hat-1")):
        with pytest.raises(ValueError, match="no ordered factors"):
            ordered_factors(algebra, variant, s=1, s1=0, d=4)
    with pytest.raises(ValueError, match="nonzero"):
        ordered_factors("a1", "hat", s=0, s1=0, d=4)
    # the closed form carries no factor list
    assert not hasattr(reference_matrix("l", "a1", "hat", d=4), "factors")


def _rendered_inverse_is_exact_below_the_top(algebra, variant, exps, d):
    """The ring inverse of an L-operator is two-sided, and rendered on d
    Fock states it inverts the rendered operator below the top level: a
    path of inv * L climbs at most one level above its ends."""
    table = l_table(algebra, variant, exps)
    l_mat = table.ring()
    inv = grid_inverse(l_mat)
    eye = OpMatrix.identity(l_mat.dim, l_mat.one)
    assert l_mat * inv == eye and inv * l_mat == eye
    keep = fock_window(d, table.copies, 1)
    assert restrict(render(inv, d) * render(l_mat, d), keep) == restrict(
        grid_identity(l_mat.dim, d ** table.copies, ZR_ONE), keep)
    return l_mat, inv


def test_grid_inverse_roundtrip():
    _rendered_inverse_is_exact_below_the_top("a1", "hat", (1, 0), 5)


def test_grid_inverse_a2():
    _rendered_inverse_is_exact_below_the_top("a2", "hat-2", (1, 0, 0), 3)


@pytest.mark.parametrize("algebra, variant", [
    (algebra, v) for kind, algebra, v in list_variants()
    if kind == "l" and v != "hat-2-inv"])
def test_ring_inverse_is_the_rendered_inverse_below_the_top_level(algebra,
                                                                  variant):
    # the production renderer against the state-by-state oracle, on the
    # operator and on its inverse from the elimination on the ring
    d = 4 if algebra == "a1" else 3
    for m in _rendered_inverse_is_exact_below_the_top(
            algebra, variant, exponent_tuple(algebra, 1, 0, 0), d):
        assert render(m, d) == render_ring(m, d)


def test_render_sums_over_every_denominator():
    # numerators with t-denominators, two zeta-denominators in one entry,
    # and terms that cancel on a state, against the state-by-state oracle
    one = l_table("a1", "hat", (1, 0)).ring().one
    half = QScalar.ONE / (ONE - q_power(2))
    x = OscElement({
        ((0,), (0,)): zr({0: half, 1: q_power(1)}),
        ((0,), (1,)): zr({0: -half}),
        ((0,), (2,)): zr({0: ONE / (ONE + q_power(1))}, {0: ONE, 1: -ONE}),
        ((-1,), (1,)): zr({1: half}, {0: ONE, 2: -q_power(2)}),
        ((1,), (-1,)): zr({0: q_power(3)}, {0: ONE, 1: -ONE})}, one.qpow)
    m = OpMatrix(2, {(0, 0): x, (1, 0): x * x, (0, 1): one}, one)
    for d in (1, 2, 4):
        assert render(m, d) == render_ring(m, d)
    # at n = 0 the first two terms cancel down to q zeta
    assert render(OpMatrix(1, {(0, 0): OscElement(
        {k: x.terms[k] for k in (((0,), (0,)), ((0,), (1,)))}, one.qpow)},
        one), 1).entries[(0, 0)].entries[(0, 0)] == zr({1: q_power(1)})


def test_op_inverse_takes_units_only():
    # the pivots of the elimination are the units c x^kappa of the ring:
    # a sum of monomials, or a monomial with a ladder, is refused and
    # grid_inverse moves on to the next entry
    one = l_table("a2", "hat-1", (1, 0, 0)).ring().one
    unit = OscElement({((0, 0), (1, -2)): zr({1: q_power(1)})}, one.qpow)
    assert unit * op_inverse(unit) == one == op_inverse(unit) * unit
    ladder = OscElement({((1, 0), (0, 0)): ZR_ONE}, one.qpow)
    for x in (unit + one, ladder, one - one):
        with pytest.raises(ValueError, match="unit"):
            op_inverse(x)


def test_check_inv_derivation_chain():
    # the printed check-type operator is the inverse of the hat-type one at
    # inverted argument, after the oscillator-pair rescaling
    d = 4
    s, s1, s2 = 1, 0, 0
    hat = reference_matrix("l", "a2", "hat-1", s, s1, s2, d=d)
    inv = render(verify._reflected_inverse(
        l_table("a2", "hat-1", (s, s1, s2)).ring()), d)
    normalized = apply_two_copy_normalization(inv, d)
    printed = reference_matrix("l", "a2", "check-inv", s, s1, s2, d=d)
    keep = fock_window(d, 2, 2)
    assert restrict(normalized, keep) == restrict(printed.matrix, keep)
    # the tag of the printed form is the inverse tag at inverted argument
    assert printed.tag == tag_inverse(hat.tag).subs_zeta_power(-1)


def _reflected(m):
    return m.map_values(lambda x: x.map(lambda v: v.subs_power(-1)))


def test_hat2_inverse_variant():
    # hat-2 times hat-2-inv at reflected argument is the identity: exactly
    # on the ring, and below the top level for the rendered blocks
    hat2 = l_table("a2", "hat-2", (1, 0, 0)).ring()
    _, inv = verify._l_operator("a2", "hat-2-inv", (1, 0, 0))
    assert hat2 * _reflected(inv) == OpMatrix.identity(3, hat2.one)
    for d in (3, 4, 5):
        ref = reference_matrix("l", "a2", "hat-2-inv", s=1, s1=0, s2=0, d=d)
        back = ref.matrix.map_values(lambda v: v.subs_power(-1), ZR_ONE)
        keep = fock_window(d, 2, 1)
        assert restrict(render(hat2, d) * back, keep) == \
            restrict(grid_identity(3, d * d, ZR_ONE), keep)


@pytest.mark.parametrize("algebra, variant", [
    (algebra, v) for kind, algebra, v in list_variants() if kind == "l"])
@pytest.mark.parametrize("d", [3, 4])
def test_every_l_operator_is_consistent_under_truncation(algebra, variant,
                                                         d):
    # the block on d Fock states per copy is the d-state block of the one
    # on d + 2: each rendered L-operator is a block of one operator
    small = reference_matrix("l", algebra, variant, 2, 1, -1, d=d)
    big = reference_matrix("l", algebra, variant, 2, 1, -1, d=d + 2)
    states = list(itertools.product(range(d), repeat=small.copies))
    at = {_flat(st, d + 2): _flat(st, d) for st in states}
    cut = {ab: OpMatrix(len(states), {(at[i], at[j]): v
                                      for (i, j), v in m.entries.items()
                                      if i in at and j in at}, ZR_ONE)
           for ab, m in big.matrix.entries.items()}
    assert Grid(big.matrix.n, cut, len(states), ZR_ONE) == small.matrix


def _flat(state, d):
    """The flat index of an occupation tuple on d states per copy, the
    first copy slowest."""
    out = 0
    for n in state:
        out = out * d + n
    return out


def test_r0_matrices():
    r0 = r0_hat_matrix(2) * perm_operator((1, 0), [2, 2], ONE)
    # diag entries q, 1, 1, q and the single raising-lowering coupling
    assert r0.entry(0, 0) == q_power(1)
    assert r0.entry(1, 1) == ONE
    assert r0.entry(1, 2) == q_power(1) - q_power(-1)
    assert r0.entry(2, 1) == QScalar.ZERO
    r0h = r0_hat_matrix(3)
    assert r0h.entry(0, 0) == q_power(1)
    # E_ab x E_ba lands at row (a,b), column (b,a)
    assert r0h.entry(1, 3) == ONE
    assert r0h.entry(1, 1) == q_power(1) - q_power(-1)


@pytest.mark.parametrize("n", [2, 3])
def test_r0_hat_inverse_from_the_hecke_relation(n):
    # check_structure inverts R0 as R0 - (q - q^-1) 1; against elimination
    # on its entries as constants of the oscillator ring
    r0h = r0_hat_matrix(n)
    eye = OpMatrix.identity(n * n, ONE)
    hecke = r0h - eye.scale(q_power(1) - q_power(-1))
    assert r0h * hecke == eye and hecke * r0h == eye
    one = OscElement({((0,), (0,)): ONE}, q_power)

    def constants(m):
        return m.map_values(lambda c: OscElement({((0,), (0,)): c}, q_power),
                            one)
    assert grid_inverse(constants(r0h)) == constants(hecke)


def test_scan_finds_linear_exponents():
    # the first exponents where the table is linear in zeta after one
    # shift and splits with the stated triangularity
    assert verify._decomposed("hat", "a1", "minus")[0] == (2, 0)
    assert verify._decomposed("check", "a1", "plus")[0] == (-2, 0)
    assert verify._decomposed("hat-1", "a2", "minus")[0] == (2, 0, 0)
    assert verify._decomposed("check-1", "a2", "plus")[0] == (-2, 0, 0)


def test_scan_builds_no_grid_point_past_the_first_hit(monkeypatch):
    # the structure check stops at the first tuple that decomposes, so the
    # scan builds the tables one point at a time
    built = []
    real = verify.l_table

    def counted(algebra, variant, exps):
        built.append(exps)
        return real(algebra, variant, exps)
    monkeypatch.setattr(verify, "l_table", counted)
    assert verify._decomposed("hat", "a1", "minus")[0] == (2, 0)
    assert built[-1] == (2, 0) and len(built) == len(set(built)) == 11
    # (-2, 0) is linear too, but its zeta^0 part is not upper-triangular
    table = real("a1", "hat", (-2, 0))
    lp, _ = verify._split(table, 0)
    assert (1, 0) in lp.entries


def test_decompose_hat_and_projector():
    exps, lp, lm, pi = verify._decomposed("hat", "a1", "minus")
    assert exps == (2, 0)
    # plus part degenerate (zero column), minus part invertible diagonal
    assert (0, 0) not in lp.entries
    assert pi * pi == pi
    assert pi * pi * pi == pi


def test_decompose_check_projector():
    exps, lp, lm, pi = verify._decomposed("check", "a1", "plus")
    assert exps == (-2, 0)
    assert (0, 0) not in lm.entries
    assert pi * pi == pi


def test_engine_matches_reference_a1_hat():
    order, d = 5, 7
    ref = reference_matrix("l", "a1", "hat", s=1, s1=0, d=d)
    pref, eng = assemble(EngineParams("a1", 1, 0, order=order, left="chi",
                                      fock_dim=d), split_prefactor=True)
    assert series_exp(pref) == tag_series(ref.tag, order)
    assert eng == ref.expand(order)


def test_engine_matches_reference_a1_r():
    order = 6
    ref = reference_matrix("r", "a1", s=1, s1=0)
    full = assemble(EngineParams("a1", 1, 0, order=order))
    pref = tag_series(ref.tag, order)
    assert full == ref.expand(order).map_values(
        lambda s: (s * pref).truncate(order))


def test_variant_list_complete():
    vs = list_variants()
    assert ("l", "a2", "check-inv") in vs
    assert ("r", "a2", "plain") in vs
    assert len(vs) == 12


def test_tables_render_and_take_tau_without_matrix_products(monkeypatch):
    # every L-operator with a table renders state by state, and tau acts
    # on the table: no OpMatrix product and no truncated ladder matrix
    def forbidden(*args):
        raise AssertionError("a ladder matrix or a matrix product was used")
    monkeypatch.setattr(OpMatrix, "__mul__", forbidden)
    for name, module in sys.modules.items():
        if name.startswith("qaffine") and hasattr(module, "FockCopies"):
            monkeypatch.setattr(module, "FockCopies", forbidden)
    built = 0
    for kind, algebra, variant in list_variants():
        if kind != "l" or variant == "hat-2-inv":
            continue
        ref = reference_matrix("l", algebra, variant, 2, 1, -1, d=5)
        exps = exponent_tuple(algebra, 2, 1, -1)
        image = render(l_table(algebra, variant, exps).tau().ring(), 5)
        assert image.op_dim == ref.matrix.op_dim
        built += 1
    assert built == 9
