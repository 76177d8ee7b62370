import json
import os
import time

import pytest

import derivation_factors
from product_builders import FockCopies
from tuple_ring import TupleLaurent2, flat_key, nested
from qaffine import linalg, reference, scalars, series, verify
from qaffine.cli import main
from qaffine.engine import assemble
from qaffine.linalg import OpMatrix, OscPoly, Grid, _pack, hat_or_check, kron
from qaffine.rational import ZetaRational
from qaffine.reference import exponent_tuple, l_table, r_form
from qaffine.scalars import QScalar, parse_qscalar, q_power
from qaffine.series import ZetaSeries, series_exp
from oracles import diagonal_matrix, render_ring, tag_series
from qaffine.verify import (
    Verdict, check_engine, check_ybe, check_rll, check_duality, check_gauge,
    check_structure, suite_checks, run_suite,
)


def test_ybe_a1_passes_and_perturbation_fails(perturb_r):
    v = check_ybe("a1", s=1, s1=0)
    assert v.passed
    v2 = check_ybe("a1", s=-2, s1=-1)
    assert v2.passed
    perturb_r()
    bad = check_ybe("a1", s=1, s1=0)
    assert not bad.passed
    assert bad.first_failure == {"entry": [1, 2]}


def test_ybe_a2(perturb_r):
    assert check_ybe("a2", s=-2, s1=0, s2=0).passed
    assert check_ybe("a2", s=1, s1=0, s2=0).passed
    perturb_r()
    bad = check_ybe("a2", s=1, s1=0, s2=0)
    assert bad.first_failure == {"entry": [1, 3]}


def test_rll_a1_all_variants(monkeypatch):
    for variant in ("hat", "hat-twisted", "check", "check-twisted"):
        v = check_rll("a1", variant, s=1, s1=0)
        assert v.passed, v
    # scalar dressing never changes the verdict: the L-operator times the
    # rational scalar 1 + q^3 zeta
    real = verify.l_table

    def dressed(*args):
        table = real(*args)
        return table._replace(terms={
            ab: terms + tuple((e + 1, c * q_power(3), delta, kappa)
                              for e, c, delta, kappa in terms)
            for ab, terms in table.terms.items()})
    _read_tables(monkeypatch, dressed)
    v = check_rll("a1", "hat", s=1, s1=0)
    assert v.passed


def test_rll_a1_other_exponents():
    assert check_rll("a1", "hat", s=2, s1=1).passed


def test_rll_a2_family1():
    assert check_rll("a2", "hat-1", s=1, s1=0, s2=0).passed
    assert check_rll("a2", "check-1", s=1, s1=0, s2=0).passed


def test_rll_a2_family2_and_derived():
    assert check_rll("a2", "hat-2", s=1, s1=0, s2=0).passed
    assert check_rll("a2", "check-2", s=1, s1=0, s2=0).passed
    assert check_rll("a2", "check-inv", s=1, s1=0, s2=0).passed
    assert check_rll("a2", "hat-2-inv", s=1, s1=0, s2=0).passed


def test_duality_a1():
    for mode in ("inversion", "tau"):
        assert check_duality("a1", "hat", mode, s=1, s1=0).passed
        assert check_duality("a1", "check", mode, s=1, s1=0).passed
    # the reflected inverse is an involution on the forms: N' / D' = N / D
    l_mat, den = l_table("a1", "hat", (1, 0)).ring()
    twice, den2 = verify._reflected_inverse(verify._reflected_inverse(
        (l_mat, den)))
    assert twice.scale(den) == l_mat.scale(den2)


def test_duality_a2_family1():
    for mode in ("inversion", "tau"):
        assert check_duality("a2", "hat-1", mode, s=1, s1=0, s2=0).passed
        assert check_duality("a2", "check-1", mode, s=1, s1=0, s2=0).passed
    # tau acts on tables, and hat-2-inv has none
    with pytest.raises(ValueError):
        check_duality("a2", "hat-2-inv", "tau", s=1, s1=0, s2=0)


def test_gauge_r():
    assert check_gauge("r", "a1", s=-2, s1=-1).passed
    assert check_gauge("r", "a1", s=3, s1=2).passed
    assert check_gauge("r", "a2", s=-2, s1=0, s2=0).passed
    assert check_gauge("r", "a2", s=2, s1=-1, s2=1).passed


def test_gauge_l():
    assert check_gauge("hat", "a1", s=2, s1=1).passed
    assert check_gauge("check", "a1", s=-2, s1=1).passed
    assert check_gauge("hat", "a2", s=2, s1=1, s2=0).passed
    assert check_gauge("check", "a2", s=2, s1=0, s2=1).passed


def test_structure():
    v1 = check_structure("a1")
    assert v1.passed, v1
    assert v1.exponents == (2, 0)
    v2 = check_structure("a2")
    assert v2.passed, v2
    assert v2.exponents == (2, 0, 0)


@pytest.mark.parametrize("algebra, variant, invert", [
    ("a1", "hat", "minus"), ("a1", "check", "plus"),
    ("a2", "hat-1", "minus"), ("a2", "check-1", "plus"),
])
def test_operator_at_one_kills_the_projector(algebra, variant, invert):
    # at argument one the operator is L_plus - L_minus, and it kills the
    # projector on every Fock state: the product vanishes in the ring
    _, lp, lm, pi, _ = verify._decomposed(variant, algebra, invert)
    at_one = lp - lm
    assert pi and not at_one * pi
    # the operator at one is not zero, and a projector with the identity
    # added on one diagonal entry is not killed
    eye = OpMatrix.identity(pi.dim, pi.one)
    assert at_one * eye
    assert at_one * (pi + OpMatrix(pi.dim, {(0, 0): pi.one}, pi.one))


def test_engine_verdict_json_roundtrip():
    v = check_engine("r", "a1", s=1, s1=0, order=4)
    assert v.passed
    blob = json.dumps(v.to_json())
    back = json.loads(blob)
    assert back["check"] == "engine"
    assert back["pass"] is True
    assert back["wall_time_ms"] >= 0


def test_engine_check_refuses_an_l_operator_no_engine_assembles():
    # the engine check reads its Fock dimension from EngineParams, so it
    # builds the parameters first; a variant with no engine side (the
    # derived check-inv and hat-2-inv, or an unknown one) is a ValueError
    for variant in ("check-inv", "hat-2-inv", "hat-3"):
        with pytest.raises(ValueError, match="no engine assembles"):
            check_engine("l", "a2", variant, s=1, s1=0, s2=0, order=2)


def test_engine_check_reports_failure_location(monkeypatch):
    # the form's numerator with one entry times q: the verdict names the
    # entry, the first degree where D E and ratio N differ, and both
    # coefficients there, D E on the left
    real = verify.r_form

    def perturbed(*args):
        num, den = real(*args)
        entries = dict(num.entries)
        entries[(1, 2)] = entries[(1, 2)] * OscPoly({_pack(0, 0, 6): 1})
        return OpMatrix(num.dim, entries, num.one), den
    monkeypatch.setattr(verify, "r_form", perturbed)
    v = check_engine("r", "a1", s=1, s1=0, order=4)
    assert v.passed is False
    assert v.first_failure["entry"] == [1, 2]
    deg = v.first_failure["degree"]
    lhs, rhs = (parse_qscalar(v.first_failure[k]) for k in ("lhs", "rhs"))
    assert lhs and rhs == lhs * q_power(1)
    # the left side is the engine's entry times D = 1 - q^-2 zeta
    _, engine_mat = assemble(verify.engine_params_for(
        "r", "a1", "plain", 1, 0, 0, 4, None), split_prefactor=True)
    den = ZetaSeries({0: QScalar.ONE, 1: -q_power(-2)}, 4)
    assert (engine_mat.entry(1, 2) * den).coeff(deg) == lhs
    json.dumps(v.to_json())


def test_suite_catalog_and_serial_runner():
    checks = [c for c in suite_checks(algebra="a1", order=4, fock=7)
              if c[0].startswith(("a1-ybe", "a1-gauge"))]
    results = run_suite(checks, workers=1)
    assert [cid for cid, _ in results] == sorted(cid for cid, _, _ in checks)
    assert all(v.passed for _, v in results)


def test_suite_parallel_runner_deterministic():
    # every worker count gives the ids and verdicts of the serial run
    checks = suite_checks(algebra="a1", order=4, fock=7)
    serial, *pooled = (
        [(cid, dict(v.to_json(), wall_time_ms=None))
         for cid, v in run_suite(checks, workers=workers)]
        for workers in (1, 2, 3))
    assert len(serial) == len(checks)
    assert all(v["pass"] for _, v in serial)
    assert pooled == [serial, serial]


@pytest.mark.parametrize("family", ["r", "hat"])
def test_gauge_tag_mismatch_fails_the_verdict(family, monkeypatch):
    from qaffine.reference import PrefactorTag
    shifted = lambda tag, k: PrefactorTag(tag.t_power + 1, tag.terms)
    monkeypatch.setattr(PrefactorTag, "subs_zeta_power", shifted)
    v = check_gauge(family, "a1", s=2, s1=1)
    assert v.passed is False
    assert v.first_failure == {"detail": "prefactor tag mismatch"}


@pytest.mark.parametrize("family", ["r", "hat", "check"])
@pytest.mark.parametrize("algebra, s1, s2", [
    ("a1", 1, 0), ("a1", -2, 0), ("a2", 1, 0), ("a2", -1, 2),
])
def test_gauge_map_matches_products_with_diagonal_matrices(family, algebra,
                                                           s1, s2):
    # the gauge diagonals G_var = diag(var^(e_a)) and the spectral gauge
    # map Gamma_var = diag(var^(s . n)) on the Fock states, built as
    # matrices with their inverses, applied by matrix products
    # the L-operators compared on d Fock states per copy, where the ring's
    # weighting of S_delta by var^(s . delta) is conjugation by Gamma; the
    # rendered operators are over TupleLaurent2, the flat ring's oracle
    d, s = 3, 2
    one = OscPoly.ONE
    expos = (0, -s1) if algebra == "a1" else (0, -s1, -s1 - s2)

    def mono(var, k, tupled=False):
        x = verify._monomial(var, k)
        return nested(x, 1).terms[((0,), (0,))] if tupled else x

    def gauge(var, sign):
        return diagonal_matrix([mono(var, sign * e) for e in expos], one)
    if family == "r":
        base, _ = r_form(algebra, 1, 0, 0)
    else:
        variant = family + ("" if algebra == "a1" else "-1")
        base, _ = l_table(algebra, variant,
                          exponent_tuple(algebra, 1, 0, 0)).ring()
    # the numerator at zeta^s, lifted to zeta = u / v
    base = base.map_values(lambda x: x.spectral(s, -s))
    got = verify._gauged(family, algebra, s1, s2, base)
    if family == "r":
        expect = (kron(gauge("u", 1), gauge("v", 1)) * base
                  * kron(gauge("u", -1), gauge("v", -1)))
        assert got == expect
        return
    s_exps = (s1,) if algebra == "a1" else (s1, s2)
    states = FockCopies(d, len(s_exps)).states

    def gamma(var, sign):
        return diagonal_matrix(
            [mono(var, sign * sum(a * n for a, n in zip(s_exps, st)), True)
             for st in states], TupleLaurent2.ONE)
    g_var, gamma_var = ("v", "u") if family == "hat" else ("u", "v")
    g = [mono(g_var, e, True) for e in expos]
    g_inv = [mono(g_var, -e, True) for e in expos]
    rendered = render_ring(base, d, len(s_exps))
    expect = Grid(rendered.n, {
        (a, b): gamma(gamma_var, 1) * m.scale(g[a] * g_inv[b])
        * gamma(gamma_var, -1)
        for (a, b), m in rendered.entries.items()}, rendered.op_dim,
        TupleLaurent2.ONE)
    assert render_ring(got, d, len(s_exps)) == expect


# -- the exchange relation in the oscillator ring -----------------------------

def _times_q(table, ab, k=0):
    """The table with term k of grid entry ab multiplied by q."""
    terms = dict(table.terms)
    e, c, delta, kappa = terms[ab][k]
    terms[ab] = (terms[ab][:k] + ((e, c * q_power(1), delta, kappa),)
                 + terms[ab][k + 1:])
    return table._replace(terms=terms)


def _read_tables(monkeypatch, fn):
    """Make every check read its L tables from fn: verify reads them
    directly and through `reference.l_operator`."""
    for module in (verify, reference):
        monkeypatch.setattr(module, "l_table", fn)


def _perturb(monkeypatch, ab=(0, 0), when=lambda exps: True):
    """Make the checks read every table with its first term of grid entry
    ab multiplied by q, at the exponents where `when` holds."""
    real = verify.l_table

    def perturbed(algebra, variant, exps):
        table = real(algebra, variant, exps)
        return _times_q(table, ab) if when(exps) else table
    _read_tables(monkeypatch, perturbed)


def _sides(l_mat, l_type, r_flat):
    """Both sides of the exchange relation, as `check_rll` builds them from
    the numerators, zeta = u."""
    rmat = hat_or_check(r_flat, l_type)
    l_v = verify._lift(l_mat, "v")
    r2 = verify._lift(rmat, "ratio")
    return r2 * kron(l_mat, l_v), kron(l_v, l_mat) * r2


@pytest.mark.parametrize("algebra, variant", [("a1", "hat"),
                                              ("a2", "hat-1")])
def test_rll_fails_where_the_ring_relation_differs(algebra, variant,
                                                   monkeypatch):
    exps = exponent_tuple(algebra, 1, 0, 0)
    assert check_rll(algebra, variant, *exps).passed
    table = _times_q(l_table(algebra, variant, exps), (0, 0))
    _perturb(monkeypatch)
    v = check_rll(algebra, variant, *exps)
    assert v.passed is False
    failure = v.first_failure
    assert set(failure) == {"entry", "delta", "kappa", "lhs", "rhs"}
    assert failure["lhs"] != failure["rhs"]
    # the report is the first entry and monomial where the sides differ
    r, _ = r_form(algebra, 1, 0, 0)
    lhs, rhs = _sides(table.ring()[0], "hat", r)
    ij = tuple(failure["entry"])
    assert ij == lhs.first_difference(rhs)
    key = (tuple(failure["delta"]), tuple(failure["kappa"]))
    x, y = (nested(m.entry(*ij), len(exps) - 1).terms for m in (lhs, rhs))
    assert (str(x[key]), str(y[key])) == (failure["lhs"], failure["rhs"])
    assert all(x.get(k) == y.get(k) for k in set(x) | set(y) if k < key)


def test_failing_duality_reports_both_values(monkeypatch):
    # the a1 hat table with its diagonal term q^D moved to zeta q^D: the
    # ring still inverts it
    real = verify.l_table

    def raised(*args):
        table = real(*args)
        (e, c, delta, kappa), = table.terms[(0, 0)]
        return table._replace(terms={**table.terms,
                                     (0, 0): ((e + 1, c, delta, kappa),)})
    _read_tables(monkeypatch, raised)
    for mode in ("tau", "inversion"):
        v = check_duality("a1", "hat", mode, s=1, s1=0)
        assert v.passed is False
        assert set(v.first_failure) == {"entry", "delta", "kappa", "lhs",
                                        "rhs"}
        assert v.first_failure["lhs"] != v.first_failure["rhs"]
        json.dumps(v.to_json())


# -- two-parameter identities in Z[t^(+-1)][u^(+-1), v^(+-1)] ----------------

def test_two_variable_ring_arithmetic():
    def ring(terms):
        # terms keyed by exponent tuples, stored under their packed keys
        return OscPoly({linalg._pack(*key): c for key, c in terms.items()})
    u = ring({(1, 0, 0): 1})
    v = ring({(0, 1, 0): 1})
    t6 = ring({(0, 0, 6): 1})
    # (u - v)(u + v) == u^2 - v^2
    assert (u - v) * (u + v) == u * u - v * v
    assert (u - v) * (u + v) == ring({(2, 0, 0): 1, (0, 2, 0): -1})
    assert u - u == ring({}) and not (u - u)
    u_inv = ring({(-1, 0, 0): 1})
    assert u * u_inv == ring({(0, 0, 0): 1})
    # the ring has no inverse: the identity checks take none in two
    # variables
    assert not hasattr(u, "inverse")
    # the t-terms of each u^i v^j print as one Q(t) coefficient
    x = (t6 - u_inv) * (t6 + u) - ring({(0, 0, 0): 1})
    assert str(x) == ("(-t^6)/(1)*u^-1*v^0 + (-2 + t^12)/(1)*u^0*v^0"
                      " + (t^6)/(1)*u^1*v^0")
    assert str(ring({})) == "0"
    # every key decodes to the exponents it was packed from
    for key in ((1, 0, 0), (-3, 1, -12), (0, -2, 0), (7, -7, 306)):
        assert linalg._unpack(linalg._pack(*key)) == key


def test_two_variable_products_never_take_the_kronecker_path(monkeypatch):
    # the packed keys span about 2^44, so a Kronecker integer built from
    # them would be as many digits wide: every multiplication entry of
    # scalars is refused, where it is defined and in the namespace the
    # ring reads its kernel from
    def refused(a, b):
        raise AssertionError("a two-variable product took the Kronecker path")
    for name in ("_p_mul", "_p_mul_packed", "_p_conv"):
        monkeypatch.setattr(scalars, name, refused)
        monkeypatch.setattr(linalg, name, refused, raising=False)
    a = {(i, j, 6 * (i - j)): i + 3 * j + 5
         for i in range(-1, 2) for j in range(-1, 2)}
    b = {(2 * i, -j, 3 * i * j): 1 - 2 * ((i + j) % 2)
         for i in range(-1, 2) for j in range(-1, 2)}
    assert len(a) == len(b) == 9
    got = (OscPoly({linalg._pack(*k): c for k, c in a.items()})
           * OscPoly({linalg._pack(*k): c for k, c in b.items()}))
    want = TupleLaurent2(a) * TupleLaurent2(b)
    assert {linalg._unpack(k): c for k, c in got.terms.items()} == want.terms


def test_two_parameter_checks_run_on_cleared_polynomials():
    verdicts = [
        check_ybe("a1", s=1, s1=0), check_ybe("a1", s=-2, s1=-1),
        check_ybe("a2", s=1, s1=0, s2=0), check_ybe("a2", s=2, s1=1, s2=-1),
        check_rll("a1", "hat", s=1, s1=0),
        check_rll("a1", "check-twisted", s=1, s1=0),
        check_rll("a2", "check-1", s=1, s1=0, s2=0),
        check_rll("a2", "check-inv", s=1, s1=0, s2=0),
    ]
    for mode in ("inversion", "tau"):
        verdicts += [check_duality("a1", "hat", mode, s=1, s1=0),
                     check_duality("a1", "check", mode, s=1, s1=0),
                     check_duality("a2", "hat-1", mode, s=1, s1=0, s2=0)]
    for family in ("r", "hat", "check"):
        verdicts += [check_gauge(family, "a1", s=-2, s1=-1),
                     check_gauge(family, "a1", s=3, s1=2),
                     check_gauge(family, "a2", s=-3, s1=-2, s2=1),
                     check_gauge(family, "a2", s=2, s1=1, s2=-2)]
    assert [v for v in verdicts if not v.passed] == []
    # the checks read polynomials only: the R form is an integer numerator
    # over a divisor that is not one, and every lift of it stays integer
    r, den = r_form("a1", 1, 0, 0)
    assert den != OscPoly.ONE
    for mode in ("u", "v", "ratio", "uv"):
        lifted = verify._lift(r, mode)
        assert all(type(c) is int for x in lifted.entries.values()
                   for c in x.terms.values())


def test_lift_refuses_an_exponent_beyond_the_packing():
    # the packed key takes exponents below 2^16 in size as they enter, and
    # a lift re-packs its exponents the same way
    bound = linalg._EXPONENT_BOUND
    assert bound == 1 << 16

    def entry(t_exp, z_exp=0):
        v = OscPoly({linalg._pack(z_exp, 0, t_exp): 1})
        return OpMatrix(1, {(0, 0): v}, OscPoly.ONE)
    for mode in verify._LIFT_EXPONENTS:
        verify._lift(entry(bound - 1), mode)
        verify._lift(entry(1 - bound, bound - 1), mode)
        for bad in ((bound, 0), (-bound, 0), (0, bound), (0, -bound)):
            with pytest.raises(ValueError, match="below 2\\^16"):
                entry(*bad)
        with pytest.raises(ValueError):
            verify._monomial(mode, bound)
        verify._monomial(mode, bound - 1)
    # zeta -> zeta^2, as the gauge check substitutes, re-packs too
    entry(0, bound // 2 - 1).entry(0, 0).spectral(2, 0)
    with pytest.raises(ValueError, match="below 2\\^16"):
        entry(0, bound // 2).entry(0, 0).spectral(2, 0)


def test_lift_refuses_an_oscillator_digit_beyond_the_packing():
    # delta and kappa digits below 2^6 in size enter the packed key; the
    # product of two such operands stays exact (below 2^7), and a factor
    # with a larger digit is refused
    bound = linalg._DIGIT_BOUND
    assert bound == 1 << 6

    def entry(delta, kappa):
        return OscPoly({linalg._place(delta, kappa): 1})
    inside = (((bound - 1,), (1 - bound,)),
              ((1 - bound, bound - 1), (bound - 1, 1 - bound)))
    outside = (((bound,), (0,)), ((0,), (-bound,)), ((0, -bound), (0, 0)),
               ((0, 0), (1, bound)))
    for delta, kappa in inside:
        got = verify._lift(OpMatrix(1, {(0, 0): entry(delta, kappa)},
                                    OscPoly.ONE), "uv").entry(0, 0)
        assert nested(got, len(delta)).terms == {
            (delta, kappa): TupleLaurent2.ONE}
    for delta, kappa in outside:
        with pytest.raises(ValueError, match="below 2\\^6"):
            entry(delta, kappa)


def test_an_operand_past_the_packing_bounds_is_refused():
    # the extreme digit 63 and the extreme exponent 2^19 - 1: one product
    # of two operands inside the bounds is exact, and its result, past
    # them, is refused as a factor instead of carrying into the next field
    top = linalg._DIGIT_BOUND - 1
    x = OscPoly({flat_key((top, -top), (-top, top), (0, 0, 0)): 1})
    xx = x * x
    assert nested(xx, 2).terms == {((2 * top, -2 * top), (-2 * top, 2 * top)):
                                   TupleLaurent2({(0, 0, -12 * top * top): 1})}
    for a, b in ((xx, x), (x, xx)):
        with pytest.raises(ValueError, match="left the packing"):
            a * b
    far = (1 << 19) - 1
    for ijk in ((far, 0, 0), (0, -far - 1, 0), (0, 0, far)):
        y = OscPoly({flat_key((0, 0), (0, 0), ijk): 1})
        one_more = OscPoly({flat_key((0, 0), (0, 0),
                                     tuple(1 if e > 0 else -1 if e else 0
                                           for e in ijk)): 1})
        yy = y * one_more
        assert nested(yy, 2).terms == {((0, 0), (0, 0)): TupleLaurent2(
            {tuple(e + (1 if e > 0 else -1 if e else 0) for e in ijk): 1})}
        with pytest.raises(ValueError, match="left the packing"):
            yy * OscPoly.ONE


def test_no_check_but_the_engine_builds_a_zeta_rational(monkeypatch):
    # every catalog check but the engine's reads its closed forms in the
    # one ring, as numerators over divisors, and builds no ZetaRational
    def refusing(self, *args, **kwargs):
        raise AssertionError("a check built a ZetaRational")
    monkeypatch.setattr(ZetaRational, "__init__", refusing)
    with pytest.raises(AssertionError, match="built a ZetaRational"):
        ZetaRational({0: QScalar.ONE})
    items = [item for item in suite_checks() if item[1] != "check_engine"]
    assert len(items) == 32
    assert [cid for cid, v in run_suite(items) if not v.passed] == []


def test_cli_relation_checks_read_no_fock_dimension(capsys):
    # the relation, duality and structure checks compare elements of the
    # oscillator ring, so --fock changes nothing in their verdicts: not at
    # 11000 states, where a rendered a1 L-operator would carry t^65994,
    # beyond the packing, and not at 2
    outputs = []
    for what in ("rll", "duality", "structure"):
        for fock in ("2", "11000"):
            argv = ["verify", what, "--algebra", "a1", "--fock", fock,
                    "--format", "json"]
            assert main(argv) == 0
            verdicts = json.loads(capsys.readouterr().out)
            for v in verdicts:
                del v["wall_time_ms"]
            outputs.append(verdicts)
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert outputs[4] == outputs[5]
    assert all(v["pass"] for out in outputs for v in out)


@pytest.mark.parametrize("d", [3, 4])
def test_an_empty_relation_window_is_refused(d, monkeypatch, capsys):
    # no relation check compares an empty window, where both sides would
    # be empty and compare equal: a Fock dimension below 2 is refused, and
    # from 2 up the relations are compared on the whole oscillator ring, so
    # a perturbed table fails at d = 3 and 4 as at any other d
    for algebra, what in (("a1", "rll"), ("a1", "duality"),
                          ("a1", "structure"), ("a2", "rll")):
        argv = ["verify", what, "--algebra", algebra, "--fock"]
        assert main(argv + ["1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(argv + [str(d)]) == 0
    _perturb(monkeypatch)
    for algebra, what in (("a1", "rll"), ("a1", "duality"),
                          ("a1", "structure"), ("a2", "rll")):
        argv = ["verify", what, "--algebra", algebra, "--fock", str(d)]
        assert main(argv) == 1


def test_a_table_with_no_unit_pivot_fails_the_inverting_checks(monkeypatch,
                                                               capsys):
    # tables with no unit pivot left at some step: the inversion duality,
    # and the exchange relation of hat-2-inv, fail and name the step, and
    # verify reports the failure rather than an error
    hat2 = dict(_mutations(l_table("a2", "hat-2", (1, 0, 0))))[
        ((0, 0), 0, "zeta")]
    _read_tables(monkeypatch, lambda *args: hat2)
    v = check_rll("a2", "hat-2-inv", s=1, s1=0, s2=0)
    assert (v.check, v.passed, v.first_failure) == ("rll-check", False, {
        "detail": "no invertible pivot left at elimination step 2"})
    monkeypatch.undo()
    step = {"detail": "no invertible pivot left at elimination step 1"}
    _perturb(monkeypatch)
    v = check_duality("a1", "hat", "inversion", s=1, s1=0)
    assert (v.check, v.passed, v.first_failure) == (
        "duality-inversion", False, step)
    assert main(["verify", "duality", "--algebra", "a1", "--format",
                 "json"]) == 1
    verdicts = {v["id"]: v for v in json.loads(capsys.readouterr().out)}
    assert verdicts["a1-duality-inversion-hat"]["first_failure"] == step
    monkeypatch.undo()
    with pytest.raises(reference.NoPivotError, match="step 0"):
        reference.grid_inverse(OpMatrix.zero(2, OscPoly.ONE))
    # the structure scan skips exponents whose part has no unit pivot

    def no_pivot(m):
        raise reference.NoPivotError("no invertible pivot left")
    monkeypatch.setattr(verify, "grid_inverse", no_pivot)
    assert verify._decomposed("hat", "a1", "minus") is None
    assert check_structure("a1").first_failure == {
        "detail": "no exponents with the stated triangularity"}


def test_cli_exits_2_where_an_exponent_leaves_the_packing(monkeypatch,
                                                          capsys):
    # no catalog check reaches t^(2^16) any more, so a table term is
    # scaled by q^11000 = t^66000; the check is refused before any product
    real = verify.l_table

    def far(algebra, variant, exps):
        table = real(algebra, variant, exps)
        terms = dict(table.terms)
        e, c, delta, kappa = terms[(0, 0)][0]
        terms[(0, 0)] = (((e, c * q_power(11000), delta, kappa),)
                         + terms[(0, 0)][1:])
        return table._replace(terms=terms)
    _read_tables(monkeypatch, far)
    argv = ["verify", "rll", "--algebra", "a1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exponent") and "2^16" in err


# -- failure text, pinned ------------------------------------------------------

def test_failure_text_of_a_perturbed_rll_relation_is_pinned(monkeypatch):
    # the a1 hat table with its ground diagonal term q^D times q
    _perturb(monkeypatch)
    v = check_rll("a1", "hat", s=1, s1=0)
    assert v.first_failure == {
        "entry": [1, 1], "delta": [0], "kappa": [2],
        "lhs": "(-t^-12 + t^-6 - t^6)/(1)*u^0*v^1 + (t^-12)/(1)*u^1*v^0",
        "rhs": "(-1)/(1)*u^0*v^1 + (t^-6 + 1 - t^6)/(1)*u^1*v^0",
    }


def test_a_failing_relation_reports_an_absent_entry_as_zero():
    # where the two sides first differ only one has a term, or an entry:
    # the report reads the other as zero
    ring_one = OscPoly.ONE
    x = OscPoly({flat_key((1,), (-1,), (0, 0, 0)): 2})
    y = OscPoly({flat_key((0,), (2,), (0, 0, 0)): 1})
    lhs = OpMatrix(2, {(0, 1): x + y}, ring_one)
    rhs = OpMatrix(2, {(0, 1): y}, ring_one)
    assert verify._ring_failure(lhs, rhs, 1) == {
        "entry": [0, 1], "delta": [1], "kappa": [-1],
        "lhs": "(2)/(1)*u^0*v^0", "rhs": "0"}
    assert verify._ring_failure(rhs, OpMatrix.zero(2, ring_one), 1) == {
        "entry": [0, 1], "delta": [0], "kappa": [2],
        "lhs": "(1)/(1)*u^0*v^0", "rhs": "0"}


def test_failure_text_of_a_failing_a2_gauge_verdict_is_pinned(monkeypatch):
    # the gauged table (s = 2) with the first term of grid entry (1, 1)
    # times q; the base table (s = 1) is left as it is
    _perturb(monkeypatch, (1, 1), lambda exps: exps[0] != 1)
    v = check_gauge("hat", "a2", s=2, s1=1, s2=0)
    assert v.passed is False
    assert v.first_failure == {
        "entry": [1, 1], "delta": [0, 0], "kappa": [-1, 1],
        "lhs": "(t^6)/(1)*u^0*v^0", "rhs": "(1)/(1)*u^0*v^0",
    }


# -- no check builds the ordered factors ---------------------------------------

def test_no_check_builds_ordered_factors(monkeypatch):
    # the factors live with the tests, out of the program's reach
    assert not any(hasattr(module, name)
                   for module in (reference, verify)
                   for name in ("ordered_factors", "_geom_inv"))

    def refuse(*args, **kwargs):
        raise AssertionError("a check built the ordered factors")
    monkeypatch.setattr(derivation_factors, "ordered_factors", refuse)
    monkeypatch.setattr(derivation_factors, "_geom_inv", refuse)
    verdicts = [
        check_engine("l", "a1", "hat", s=1, s1=0, order=3, d=5),
        check_engine("l", "a1", "check", s=1, s1=0, order=3, d=5),
        check_engine("l", "a2", "hat-1", s=1, s1=0, s2=0, order=1, d=4),
        check_engine("l", "a2", "check-1", s=1, s1=0, s2=0, order=1, d=4),
        check_rll("a1", "hat", s=1, s1=0),
        check_rll("a1", "check", s=1, s1=0),
        check_rll("a2", "hat-1", s=1, s1=0, s2=0),
        check_rll("a2", "check-1", s=1, s1=0, s2=0),
        check_duality("a1", "hat", "inversion", s=1, s1=0),
        check_duality("a1", "check", "tau", s=1, s1=0),
        check_duality("a2", "hat-1", "inversion", s=1, s1=0, s2=0),
        check_duality("a2", "check-1", "tau", s=1, s1=0, s2=0),
        check_gauge("hat", "a1", s=2, s1=1),
        check_gauge("check", "a1", s=-2, s1=1),
        check_gauge("hat", "a2", s=2, s1=1, s2=0),
        check_gauge("check", "a2", s=2, s1=0, s2=1),
        check_structure("a1"),
        check_structure("a2"),
    ]
    assert [v for v in verdicts if not v.passed] == []


# -- the common scalar is compared without a series division -----------------

_ENGINE_CATALOG = {cid: kw for cid, fn, kw in suite_checks()
                   if fn == "check_engine"}


@pytest.mark.parametrize("cid, anchors_differ", [
    ("a1-engine-r", True), ("a1-engine-check", True),
    ("a1-engine-hat-twisted", True), ("a2-engine-r", True),
    ("a2-engine-hat-2", True), ("a1-engine-hat", False),
])
def test_tag_ratio_equals_quotient_of_exponentials(monkeypatch, cid,
                                                   anchors_differ):
    # the ratio check_engine forms, t^p exp(T - a_00), against the quotient
    # of the two expanded scalars it replaced
    seen = []
    tag_ratio = verify._tag_ratio

    def recording(tag, a00, order):
        seen.append((tag, a00, order, tag_ratio(tag, a00, order)))
        return seen[-1][-1]
    monkeypatch.setattr(verify, "_tag_ratio", recording)
    assert check_engine(**_ENGINE_CATALOG[cid]).passed
    (tag, a00, order, ratio), = seen
    assert ratio == tag_series(tag, order) * series_exp(a00).inverse()
    assert (ratio != ZetaSeries.one(order)) is anchors_differ


def test_no_engine_check_divides_a_series(monkeypatch):
    # the check compares D E with ratio N: it neither inverts a series nor
    # expands a closed form N / D into one
    def refuse(*args, **kwargs):
        raise AssertionError("an engine check divided a series")
    monkeypatch.setattr(ZetaSeries, "inverse", refuse)
    monkeypatch.setattr(reference.ReferenceObject, "expand", refuse)
    monkeypatch.setattr(ZetaRational, "to_series", refuse)
    monkeypatch.setattr(series, "series_quotient", refuse)
    verdicts = [check_engine(**kw) for kw in _ENGINE_CATALOG.values()]
    assert len(verdicts) == 10
    assert [v for v in verdicts if not v.passed] == []


# -- the checks are split over the caller and forked children -----------------

def _ybe_checks():
    return [c for c in suite_checks(algebra="a1", order=4, fock=7)
            if c[0].startswith("a1-ybe")]


@pytest.mark.parametrize("prefix, workers, expected", [
    ("a1-ybe", 500, [1, 2]), ("a1-ybe", 3, [1, 2]), ("a1-ybe", 2, [1]),
    ("a1-ybe", 1, []), ("a1-ybe-1_0", 500, []),
])
def test_pool_is_no_larger_than_the_checks(prefix, workers, expected,
                                           monkeypatch):
    # `expected` lists the slices k = 1, 2, ... run by forked children; the
    # caller runs slice 0, and a single check runs in it whatever the workers
    caller, real_fork, real_run = os.getpid(), os.fork, verify.run_check
    forks, ran_here = [], []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def run_check(item):
        if os.getpid() == caller:
            ran_here.append(item[0])
        return real_run(item)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(verify, "run_check", run_check)
    checks = [c for c in suite_checks(algebra="a1", order=4, fock=7)
              if c[0].startswith(prefix)]
    results = run_suite(checks, workers=workers)
    assert len(forks) == len(expected)
    assert ran_here == [c[0] for c in checks[::len(expected) + 1]]
    assert [cid for cid, _ in results] == sorted(c[0] for c in checks)
    assert all(v.passed for _, v in results)


@pytest.mark.parametrize("where", ["child", "caller"])
def test_a_raising_check_raises_in_the_caller_and_no_child_is_left(
        where, monkeypatch):
    # where the caller raises, the children it has not read are stopped,
    # not waited for
    caller, real_run = os.getpid(), verify.run_check

    def run_check(item):
        if (os.getpid() == caller) == (where == "caller"):
            raise reference.NoPivotError("raised in the %s" % where)
        if where == "caller":
            time.sleep(60)
        return real_run(item)

    monkeypatch.setattr(verify, "run_check", run_check)
    start = time.monotonic()
    with pytest.raises(reference.NoPivotError,
                       match="raised in the %s" % where):
        run_suite(_ybe_checks(), workers=3)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_exits_early_is_an_error(monkeypatch):
    caller, real_run = os.getpid(), verify.run_check

    def run_check(item):
        if os.getpid() != caller:
            os._exit(3)
        return real_run(item)

    monkeypatch.setattr(verify, "run_check", run_check)
    with pytest.raises(RuntimeError, match="exit code 3 before sending"):
        run_suite(_ybe_checks(), workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- single-term mutations of the tables ---------------------------------------

def _mutations(table):
    """Every single-term mutation of a table, named (entry, term, kind):
    the sign of c flipped, zeta^e raised to zeta^(e + 1), or kappa_1
    raised by one."""
    for ab, terms in sorted(table.terms.items()):
        for k, (e, c, delta, kappa) in enumerate(terms):
            for kind, term in (
                    ("sign", (e, -c, delta, kappa)),
                    ("zeta", (e + 1, c, delta, kappa)),
                    ("kappa", (e, c, delta, (kappa[0] + 1,) + kappa[1:]))):
                mutated = dict(table.terms)
                mutated[ab] = terms[:k] + (term,) + terms[k + 1:]
                yield (ab, k, kind), table._replace(terms=mutated)


def test_every_moved_check_fails_on_a_mutated_table(monkeypatch):
    real = verify.l_table
    passing, count = [], 0
    for algebra, variant in (("a1", "hat"), ("a1", "check"),
                             ("a2", "hat-1"), ("a2", "check-2")):
        exps = exponent_tuple(algebra, 1, 0, 0)
        for name, table in _mutations(real(algebra, variant, exps)):
            count += 1
            _read_tables(monkeypatch, lambda *args: table)
            if check_rll(algebra, variant, *exps).passed:
                passing.append((variant, name))
                continue
            # a wrong table fails tau, and inversion: its inverse fails the
            # flipped relation, or the elimination finds no unit pivot
            assert not check_duality(algebra, variant, "tau", *exps).passed
            assert not check_duality(algebra, variant, "inversion",
                                     *exps).passed
    # the sign flip of the zeta^0 term of (1, 1) solves the relation too
    assert count == 90
    assert passing == [(v, ((1, 1), 0, "sign"))
                       for v in ("hat", "check", "hat-1")]


def test_every_table_mutation_fails_the_engine_check(monkeypatch):
    # the engine check kills all 90 single-term table mutations, the three
    # sign flips of the zeta^0 term of (1, 1) that solve the exchange
    # relation included; a1 at order 3 on 4 Fock states, a2 at order 2 on
    # 3 states per copy, where every unmutated table passes
    real = verify.l_table
    passing, count = [], 0
    for algebra, variant, order, d in (("a1", "hat", 3, 4),
                                       ("a1", "check", 3, 4),
                                       ("a2", "hat-1", 2, 3),
                                       ("a2", "check-2", 2, 3)):
        exps = exponent_tuple(algebra, 1, 0, 0)
        assert check_engine("l", algebra, variant, *exps, order=order,
                            d=d).passed
        for name, table in _mutations(real(algebra, variant, exps)):
            count += 1
            _read_tables(monkeypatch, lambda *args: table)
            if check_engine("l", algebra, variant, *exps, order=order,
                            d=d).passed:
                passing.append((variant, name))
            _read_tables(monkeypatch, real)
    assert count == 90
    assert passing == []


@pytest.mark.parametrize("algebra, order", [("a1", 4), ("a2", 2)])
@pytest.mark.parametrize("part", ["numerator", "divisor"])
def test_a_mutated_r_form_fails_the_engine_check(monkeypatch, algebra,
                                                 order, part):
    # one term of the numerator's first entry off the diagonal, a
    # coupling c_ab, with its sign flipped, or the divisor 1 - q^-2 zeta^s
    # as 1 + q^-2 zeta^s
    real = verify.r_form
    exps = exponent_tuple(algebra, 1, 0, 0)
    assert check_engine("r", algebra, "plain", *exps, order=order).passed

    def mutated(*args):
        num, den = real(*args)
        if part == "divisor":
            return num, OscPoly({k: c if k == _pack(0, 0, 0) else -c
                                 for k, c in den.terms.items()})
        ij = min(ij for ij in num.entries if ij[0] != ij[1])
        x = num.entries[ij].terms
        k = min(x)
        entries = dict(num.entries)
        entries[ij] = OscPoly(x | {k: -x[k]})
        return OpMatrix(num.dim, entries, num.one), den
    monkeypatch.setattr(verify, "r_form", mutated)
    v = check_engine("r", algebra, "plain", *exps, order=order)
    assert v.passed is False


def test_the_engine_check_refuses_a_divisor_without_lowest_term_one(
        monkeypatch):
    # D E = ratio N matches E = ratio N / D only for a divisor invertible
    # as a series with lowest term 1 at zeta^0, as every closed form's is
    real = verify.r_form

    def doubled(*args):
        num, den = real(*args)
        return num, den * OscPoly({_pack(0, 0, 0): 2})
    monkeypatch.setattr(verify, "r_form", doubled)
    with pytest.raises(ValueError, match="lowest term is not 1 at zeta"):
        check_engine("r", "a1", s=1, s1=0, order=2)


@pytest.mark.parametrize("wrong", ["matrix leg", "spectral"])
def test_wrong_gauge_weights_fail_the_l_gauge(wrong, monkeypatch):
    cases = (("hat", "a1", 2, 1, 0), ("check", "a1", 3, -1, 0),
             ("hat", "a2", 2, 1, 0), ("check", "a2", 2, 0, 1))
    assert all(check_gauge(*c).passed for c in cases)
    real_weights, real_gauged = verify._gauge_weights, verify._gauged
    if wrong == "matrix leg":
        monkeypatch.setattr(verify, "_gauge_weights",
                            lambda algebra, s1, s2, var:
                            real_weights(algebra, s1 + 1, s2 + 1, var))
    else:
        # the matrix-leg weights stay right, the spectral ones take s1 + 1
        monkeypatch.setattr(verify, "_gauge_weights",
                            lambda algebra, s1, s2, var:
                            real_weights(algebra, s1 - 1, s2, var))
        monkeypatch.setattr(verify, "_gauged",
                            lambda family, algebra, s1, s2, base:
                            real_gauged(family, algebra, s1 + 1, s2, base))
    assert not any(check_gauge(*c).passed for c in cases)


@pytest.mark.parametrize("algebra", ["a1", "a2"])
@pytest.mark.parametrize("ab", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_table_term_times_q_fails_structure(algebra, ab, monkeypatch):
    _perturb(monkeypatch, ab)
    v = check_structure(algebra)
    assert v.passed is False and "not idempotent" in v.first_failure["detail"]
