import itertools
import sys
from functools import reduce

import pytest

from qaffine.scalars import QScalar, q_power
from qaffine.rational import ZetaRational
from qaffine.series import series_exp
from qaffine.linalg import (
    OpMatrix, OscPoly, Grid, hat_or_check, kron, leg_permutation, _pack,
    _place,
)
from qaffine.reference import (
    PrefactorTag, reference_matrix, list_variants, r0_hat_matrix, render,
    grid_inverse, op_inverse, l_table, l_operator, exponent_tuple, r_form,
    _zeta,
)
from qaffine import verify
from qaffine.engine import EngineParams, assemble
from derivation_factors import ordered_factors
from product_builders import apply_two_copy_normalization
from oracles import (
    fock_window, grid_identity, render_form, restrict, subs_zeta,
    tag_inverse, tag_series,
)

ONE = QScalar.ONE
ZR_ONE = ZetaRational.ONE


def zr(num, den=None):
    return ZetaRational(num, den if den is not None else {0: ONE})


def const(x, e=0):
    """zeta^e x for a QScalar x with no denominator, at delta = kappa = 0
    of the oscillator ring."""
    return OscPoly({_pack(e, 0, k): c for k, c in x.num.items()})


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
    rhat = hat_or_check(ref.matrix, "hat")
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
    # the one L-operator lookup the checks and the printed forms share
    for algebra, variant, exps in (("a1", "hat-1", (1, 0)),
                                   ("a2", "hat", (1, 0, 0)),
                                   ("a3", "hat", (1, 0, 0))):
        with pytest.raises(ValueError, match="supported"):
            l_operator(algebra, variant, exps)
        with pytest.raises(ValueError, match="supported"):
            verify.check_rll(algebra, variant, *exps)


SPAN = range(-6, 7)


def _spanned(algebra):
    """Every exponent tuple of the algebra over -6..6 with s nonzero."""
    return [(s,) + rest for s in SPAN if s
            for rest in itertools.product(SPAN, repeat=len(
                exponent_tuple(algebra, 1, 0, 0)) - 1)]


def test_no_two_closed_form_terms_share_a_zeta_exponent():
    # every transcribed table and the R-matrix over s, s1, s2 in -6..6,
    # s != 0: no two terms of one entry share (zeta exponent, delta,
    # kappa), and an entry of two terms has them at zeta^0 and zeta^s, so
    # no exponent tuple there but s = 0 merges two terms
    tabled = [(algebra, v) for kind, algebra, v in list_variants()
              if kind == "l" and v != "hat-2-inv"]
    assert len(tabled) == 9
    for algebra, variant in tabled:
        for exps in _spanned(algebra):
            table = l_table(algebra, variant, exps)
            num, _ = table.ring()
            for ab, terms in table.terms.items():
                keys = [(e, delta, kappa) for e, _, delta, kappa in terms]
                assert len(set(keys)) == len(keys)
                if len(terms) > 1:
                    assert sorted(e for e, *_ in terms) == sorted(
                        (0, exps[0]))
                # nor do their expansions on the ring: a lowered copy
                # gives one monomial per subset of its lowered copies
                assert len(num.entries[ab].terms) == sum(
                    2 ** sum(x < 0 for x in delta) * len(c.num)
                    for _, c, delta, _ in terms)
    for algebra, n in (("a1", 2), ("a2", 3)):
        for exps in _spanned(algebra):
            num, den = r_form(algebra, *(exps + (0,))[:3])
            # n divisors and n (n - 1) entries g on the diagonal, each at
            # zeta^0 and zeta^|s|, and n (n - 1) couplings c_ab, each at
            # one power of zeta
            assert len(num.entries) == n + 2 * n * (n - 1)
            for (i, j), x in num.entries.items():
                powers = set(_zeta(x))
                assert (powers == {0, abs(exps[0])} if i == j
                        else len(powers) == 1)
            assert set(_zeta(den)) == {0, abs(exps[0])}


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
    """The ring inverse B / P of an L-operator N / D is two-sided, N B =
    B N = P, and the form D B / P rendered on d Fock states inverts the
    rendered operator below the top level: a path of inv * L climbs at
    most one level above its ends."""
    table = l_table(algebra, variant, exps)
    form = l_mat, den = table.ring()
    inv, piv = grid_inverse(l_mat)
    eye = OpMatrix.identity(l_mat.dim, l_mat.one).scale(piv)
    assert l_mat * inv == eye and inv * l_mat == eye
    inv = inv.scale(den), piv
    keep = fock_window(d, table.copies, 1)
    assert restrict(render(inv, d) * render(form, d), keep) == restrict(
        grid_identity(l_mat.dim, d ** table.copies, ZR_ONE), keep)
    return form, inv


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
    # an n x n L-operator acts on n - 1 Fock copies
    for m in _rendered_inverse_is_exact_below_the_top(
            algebra, variant, exponent_tuple(algebra, 1, 0, 0), d):
        assert render(m, d) == render_form(m, d, m[0].dim - 1)


@pytest.mark.parametrize("algebra, variant", [
    (algebra, v) for kind, algebra, v in list_variants()
    if kind == "l" and v != "hat-2-inv"])
@pytest.mark.parametrize("exps", [(1, 0, 0), (-2, 1, -1), (3, -1, 2)])
def test_every_table_times_its_inverse_is_the_divisor(algebra, variant,
                                                      exps):
    # B N = N B = D 1 in the ring for the fraction-free inverse B / D
    num, _ = l_table(algebra, variant, exponent_tuple(algebra, *exps)).ring()
    inv, den = grid_inverse(num)
    eye = OpMatrix.identity(num.dim, OscPoly.ONE).scale(den)
    assert inv * num == eye and num * inv == eye


def test_render_sums_over_every_denominator():
    # terms on several deltas and kappas, terms that cancel on a state, and
    # one divisor for the form, against the state-by-state oracle
    def term(delta, kappa, e, c):
        return OscPoly({_place(delta, kappa) + _pack(e, 0, k): n
                        for k, n in c.num.items()})
    x = (term((0,), (0,), 0, ONE) + term((0,), (0,), 1, q_power(1))
         + term((0,), (1,), 0, -ONE) + term((0,), (2,), 0, q_power(3))
         + term((-1,), (1,), 1, ONE - q_power(2))
         + term((1,), (-1,), 0, q_power(3)))
    m = OpMatrix(2, {(0, 0): x, (1, 0): x * x, (0, 1): OscPoly.ONE},
                 OscPoly.ONE)
    for den in (OscPoly.ONE, const(ONE) - const(ONE, 1),
                const(ONE) - const(q_power(2), 2)):
        for d in (1, 2, 4):
            assert render((m, den), d) == render_form((m, den), d, 1)
    # at n = 0 the first and third terms cancel down to q zeta
    y = term((0,), (0,), 0, ONE) + term((0,), (0,), 1, q_power(1)) + term(
        (0,), (1,), 0, -ONE)
    assert render((OpMatrix(1, {(0, 0): y}, OscPoly.ONE), OscPoly.ONE),
                  1).entries[(0, 0)].entries[(0, 0)] == zr({1: q_power(1)})


def test_op_inverse_takes_units_only():
    # the pivots of the elimination are the units c x^kappa of the ring:
    # a sum of monomials, or a monomial with a ladder, is refused and
    # grid_inverse moves on to the next entry; a unit is c from the left
    # and from the right once multiplied by x^-kappa
    c = const(q_power(1), 1) + const(ONE)
    unit = c * OscPoly({_place((0, 0), (1, -2)): 1})
    assert op_inverse(unit) * unit == c == unit * op_inverse(unit)
    ladder = OscPoly({_place((1, 0), (0, 0)): 1})
    for x in (unit + OscPoly.ONE, ladder, unit - unit):
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


def test_hat2_inverse_variant():
    # hat-2 times hat-2-inv at reflected argument is the identity: exactly
    # on the ring, N / D times D B / P with N B = P, and below the top
    # level for the rendered blocks
    hat2 = num, den = l_table("a2", "hat-2", (1, 0, 0)).ring()
    l_type, (inv, piv) = l_operator("a2", "hat-2-inv", (1, 0, 0))
    assert l_type == "check"
    back = inv.map_values(lambda x: x.spectral(-1, 0))
    assert num * back == OpMatrix.identity(3, num.one).scale(
        den * piv.spectral(-1, 0))
    for d in (3, 4, 5):
        ref = reference_matrix("l", "a2", "hat-2-inv", s=1, s1=0, s2=0, d=d)
        back = ref.matrix.map_values(lambda v: subs_zeta(v, -1), ZR_ONE)
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
    # R0 = R0-hat P, P the swap of the two legs
    r0 = r0_hat_matrix(2) * OpMatrix.identity(4, OscPoly.ONE).relabeled(
        rows=leg_permutation((1, 0), 2))
    # diag entries q, 1, 1, q and the single raising-lowering coupling
    assert r0.entry(0, 0) == const(q_power(1))
    assert r0.entry(1, 1) == OscPoly.ONE
    assert r0.entry(1, 2) == const(q_power(1) - q_power(-1))
    assert not r0.entry(2, 1)
    r0h = r0_hat_matrix(3)
    assert r0h.entry(0, 0) == const(q_power(1))
    # E_ab x E_ba lands at row (a,b), column (b,a)
    assert r0h.entry(1, 3) == OscPoly.ONE
    assert r0h.entry(1, 1) == const(q_power(1) - q_power(-1))


@pytest.mark.parametrize("n", [2, 3])
def test_r0_hat_inverse_from_the_hecke_relation(n):
    # check_structure inverts R0 as R0 - (q - q^-1) 1; against the
    # fraction-free elimination, whose inverse is B / D
    r0h = r0_hat_matrix(n)
    eye = OpMatrix.identity(n * n, OscPoly.ONE)
    hecke = r0h - eye.scale(const(q_power(1) - q_power(-1)))
    assert r0h * hecke == eye and hecke * r0h == eye
    inv, den = grid_inverse(r0h)
    assert inv == hecke.scale(den)


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
    exps, lp, lm, pi, den = verify._decomposed("hat", "a1", "minus")
    assert exps == (2, 0)
    # plus part degenerate (zero column), minus part invertible diagonal;
    # Pi / D is the projector
    assert (0, 0) not in lp.entries
    assert pi * pi == pi.scale(den)
    assert pi * pi * pi == pi.scale(den * den)


def test_decompose_check_projector():
    exps, lp, lm, pi, den = verify._decomposed("check", "a1", "plus")
    assert exps == (-2, 0)
    assert (0, 0) not in lm.entries
    assert pi * pi == pi.scale(den)


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
    assert full == ref.expand(order).map_values(lambda s: s * pref)


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
