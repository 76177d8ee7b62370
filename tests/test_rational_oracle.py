"""Rationals in zeta over Q(t), and the q-oscillator ring of the closed
forms and the identity checks, against independent oracles: sympy for
values and reduced forms, hypothesis for the ring laws of the lift.  Both
are development-only and are skipped when not installed."""

import random

import pytest

pytestmark = pytest.mark.oracle

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine import linalg, rational, verify  # noqa: E402
from qaffine.linalg import OpMatrix  # noqa: E402
from qaffine.rational import ZetaRational  # noqa: E402
from qaffine.reference import (  # noqa: E402
    LTable, l_table, list_variants, r_form, render,
)
from qaffine.scalars import QScalar, q_power, qint, t_power  # noqa: E402
from oracles import subs_zeta  # noqa: E402
from tuple_ring import (  # noqa: E402
    OscElement, TupleLaurent2, flat_key, nested, tuple_qpow,
)

# values live in sympy's sparse field Q(t, z, u, v), which keeps every
# element cancelled (sympy.cancel on expressions takes seconds per value at
# these degrees); the ring laws in u, v are checked with sympy.expand
F, TF, ZF, UF, VF = sympy.field("t,z,u,v", sympy.QQ)
T, Z, U, V = sympy.symbols("t z u v")
ONE = QScalar.ONE
Ring = linalg.OscPoly

SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)


def _scalar(x):
    return (sum((F(c) * TF ** k for k, c in x.num.items()), F(0))
            / sum((F(c) * TF ** k for k, c in x.den.items()), F(0)))


def _poly_at(p, z):
    return sum((_scalar(c) * z ** k for k, c in p.items()), F(0))


def _at(x, z):
    """The value of the zeta-rational x at zeta = z."""
    return _poly_at(x.num, z) / _poly_at(x.den, z)


def _value(x):
    return _at(x, ZF)


def _assert_canonical(x):
    """Lowest denominator term 1 at degree 0, no zero coefficient stored,
    and numerator and denominator coprime over Q(t): the reduced value has
    a denominator of the same zeta-degree (plus the pole at zero of a
    Laurent numerator)."""
    assert min(x.den) == 0 and x.den[0] == ONE
    assert all(x.num.values()) and all(x.den.values())
    if x.num:
        pole = max(0, -min(x.num))
        assert _value(x).denom.degree(1) == max(x.den) + pole


# -- random zeta-polynomials with Q(t) coefficients ---------------------------

def _coeff(rng):
    c = q_power(rng.randint(-2, 2)).scale(rng.choice((1, -1, 2, -3)))
    if rng.random() < 0.25:
        c = c * (ONE - q_power(-2)).inverse()
    if rng.random() < 0.25:
        c = c + qint(2)
    return c


def _poly(rng, lo=0, hi=2):
    p = {}
    for _ in range(rng.randint(1, 3)):
        p[rng.randint(lo, hi)] = _coeff(rng)
    p.setdefault(0, _coeff(rng))
    return p


def _times(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, QScalar.ZERO) + ca * cb
    return out


def _factored(rng, g):
    """(f g) / (h g): a rational whose constructor must cancel g."""
    return _times(_poly(rng, -2, 2), g), _times(_poly(rng), g)


def test_constructor_cancels_common_factors():
    rng = random.Random(11)
    for _ in range(12):
        g = _poly(rng, 0, 2)
        num, den = _factored(rng, g)
        x = ZetaRational(num, den)
        _assert_canonical(x)
        assert _value(x) == _poly_at(num, ZF) / _poly_at(den, ZF)


def _expr(p):
    """The zeta-polynomial p as a sympy expression in t and z."""
    return sum((_scalar(c).as_expr() * Z ** k for k, c in p.items()),
               sympy.Integer(0))


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("t_exp", [0, -12])
def test_binomial_divisors_cancel_as_sympy_does(s, t_exp):
    # the divisors of `render` and `compute r`, 1 - t^e zeta^s with e = 0 or
    # -12, are (1 - w zeta)(1 + w zeta + ... + (w zeta)^(s-1)) with
    # w = t^(e/s): numerators that share one of the two factors, neither,
    # or both
    linear = {0: ONE, 1: -t_power(t_exp // s)}
    rest = {i: t_power(i * t_exp // s) for i in range(s)}
    divisor = {0: ONE, s: -t_power(t_exp)}
    assert ZetaRational(_times(linear, rest)) == ZetaRational(divisor)
    rng = random.Random(5)
    cases = []
    for _ in range(3):
        p = _poly(rng)
        cases += [(_times(linear, p), rest), (_times(rest, p), linear),
                  (p, divisor), (_times(divisor, p), {0: ONE})]
    for num, want in cases:
        x = ZetaRational(num, divisor)
        assert x.den == want
        n, d = sympy.fraction(sympy.cancel(_expr(num) / _expr(divisor)))
        lowest = d.subs(Z, 0)
        assert sympy.cancel(d / lowest - _expr(x.den)) == 0
        assert sympy.cancel(n / lowest - _expr(x.num)) == 0


def test_field_ops_match_sympy():
    rng = random.Random(7)
    for _ in range(5):
        g = _poly(rng, 1, 2)
        a = ZetaRational(_poly(rng, -2, 2), _times(g, _poly(rng)))
        b = ZetaRational(_times(_poly(rng), g), _poly(rng))
        c = ZetaRational(_poly(rng, -1, 1), _times(g, _poly(rng)))
        va, vb, vc = _value(a), _value(b), _value(c)
        cases = [(a + b, va + vb), (a - b, va - vb), (a * b, va * vb),
                 (a + c, va + vc), (a - c, va - vc), (a * c, va * vc),
                 (c * b, vc * vb),
                 (a * ZetaRational({0: qint(3)}), va * _scalar(qint(3)))]
        if b:
            cases += [(a / b, va / vb), (b.inverse(), 1 / vb)]
        if c:
            cases += [(a / c, va / vc), (c.inverse(), 1 / vc)]
        for got, want in cases:
            _assert_canonical(got)
            assert _value(got) == want


def test_substitutions_match_sympy():
    # zeta -> zeta^k on a one-variable element of the ring, zeta = u
    rng = random.Random(3)
    for _ in range(6):
        a = _ring({(rng.randint(-2, 2), 0, rng.randint(-12, 12)):
                   rng.choice((1, -1, 2, -3)) for _ in range(4)})
        for k in (-2, -1, 1, 2):
            got = a.spectral(k, 0)
            assert sympy.expand(_ring_expr(got)
                                - _ring_expr(a).subs(U, U ** k)) == 0


def test_exact_division_raises_on_a_remainder():
    f = {0: ONE, 1: q_power(1)}
    g = {0: -ONE, 2: q_power(-1)}
    assert rational._exquo(_times(f, g), g) == f
    with pytest.raises(ArithmeticError):
        rational._exquo(_times(f, g), {0: ONE, 1: ONE})
    # the division itself: a = q b + r with deg r < deg b
    a, b = _times(f, g), {0: ONE, 1: ONE}
    q, r = rational._divmod(a, b)
    assert r and max(r) < max(b)
    assert _poly_at(q, ZF) * _poly_at(b, ZF) + _poly_at(r, ZF) == \
        _poly_at(a, ZF)


# -- the two-variable Laurent ring over Z[t^(+-1)] ----------------------------

def _exponent_terms(x):
    """The terms of x as {(i, j, k): c}, decoded from their packed keys."""
    return {linalg._unpack(key): c for key, c in x.terms.items()}


def _ring(terms):
    return Ring({linalg._pack(*key): c for key, c in terms.items()})


def _ring_expr(x):
    """x as a sympy expression in t, u, v; it is a Laurent polynomial, so
    sympy.expand gives a canonical form."""
    return sympy.Add(*[c * T ** k * U ** i * V ** j
                       for (i, j, k), c in _exponent_terms(x).items()])


def _ring_value(x):
    return sum((F(c) * TF ** k * UF ** i * VF ** j
                for (i, j, k), c in _exponent_terms(x).items()), F(0))


keys_st = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                    st.integers(-12, 12))
ring_st = st.dictionaries(keys_st, st.integers(-3, 3).filter(bool),
                          max_size=6).map(_ring)


@SETTINGS
@hypothesis.given(ring_st, ring_st)
def test_ring_add_mul_match_sympy_expand(a, b):
    ea, eb = _ring_expr(a), _ring_expr(b)
    for got, want in ((a + b, ea + eb), (a - b, ea - eb), (-a, -ea),
                      (a * b, ea * eb)):
        assert all(type(c) is int and c for c in got.terms.values())
        assert sympy.expand(_ring_expr(got) - want) == 0
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert bool(a) == (sympy.expand(ea) != 0)


# packed keys against the tuple-keyed ring, with exponents up to the bound
# the packing accepts
BOUND = linalg._EXPONENT_BOUND
# an operand of a product takes exponents in [-2^19, 2^19) and digits
# below 2^6 in size
OPERAND, DIGIT = 1 << 19, linalg._DIGIT_BOUND
exponent_st = st.one_of(st.integers(-3, 3),
                        st.integers(BOUND - 3, BOUND - 1),
                        st.integers(-BOUND + 1, -BOUND + 3))
wide_terms_st = st.dictionaries(
    st.tuples(exponent_st, exponent_st, exponent_st),
    st.integers(-3, 3).filter(bool), max_size=5)


def _pair(terms):
    return _ring(terms), TupleLaurent2(dict(terms))


def _same(packed, tupled):
    return _exponent_terms(packed) == tupled.terms


@SETTINGS
@hypothesis.given(wide_terms_st, wide_terms_st)
def test_packed_ring_matches_the_tuple_keyed_ring(a, b):
    (pa, ta), (pb, tb) = _pair(a), _pair(b)
    assert _same(pa, ta) and _same(pb, tb)
    for got, want in ((pa + pb, ta + tb), (pa - pb, ta - tb), (-pa, -ta),
                      (pa * pb, ta * tb)):
        assert _same(got, want)
        assert str(got) == str(want)
    assert (pa == pb) == (ta == tb)
    assert (pa * pb == pb * pa) and bool(pa) == bool(ta)


@SETTINGS
@hypothesis.given(st.lists(st.tuples(exponent_st, exponent_st, exponent_st,
                                     st.sampled_from((1, -1))),
                           min_size=16, max_size=32))
@hypothesis.example([(BOUND - 1, 1 - BOUND, BOUND - 1, 1)] * 32)
@hypothesis.example([(1 - BOUND, BOUND - 1, 1 - BOUND, -1)] * 16)
def test_product_of_up_to_32_extreme_monomials(factors):
    # a product of up to 32 monomials with every exponent just inside the
    # bound, and a two-term factor of such products, is exact, or refused
    # with ValueError once a factor leaves the operand bound: never wrong
    pairs = [_pair({(i, j, k): c}) for i, j, k, c in factors]
    half = len(pairs) // 2
    products = [_chain(pairs[:half], _fits), _chain(pairs[half:], _fits)]
    if None in products:
        return
    (pa, ta), (pb, tb) = products
    for p, t in ((pb, tb), (pb + Ring.ONE, tb + TupleLaurent2.ONE)):
        got = _chain([(pa, ta), (p, t)], _fits)
        if got is not None:
            assert _same(*got) and str(got[0]) == str(got[1])


def _fits(t):
    """Whether a TupleLaurent2 may be an operand of a packed product."""
    return all(-OPERAND <= e < OPERAND for key in t.terms for e in key)


def _chain(pairs, fits):
    """The product of the (packed, tupled) pairs as such a pair, checked
    after every factor, or None where a factor that does not fit was
    refused, as it must be."""
    packed, tupled = pairs[0]
    for p, t in pairs[1:]:
        if not (fits(tupled) and fits(t)):
            with pytest.raises(ValueError, match="left the packing"):
                packed * p
            return None
        packed, tupled = packed * p, tupled * t
        assert _osc_same(packed, tupled, 2) if isinstance(
            tupled, OscElement) else _same(packed, tupled)
    return packed, tupled


# the flat oscillator ring against OscElement over the tuple-keyed ring:
# terms c S_delta x^kappa u^i v^j t^k, delta in {-1, 0, 1} and kappa in
# [-3, 3] per copy, on one and two copies
def _osc_terms_st(copies):
    sector = st.tuples(st.tuples(*[st.integers(-1, 1)] * copies),
                       st.tuples(*[st.integers(-3, 3)] * copies))
    return st.dictionaries(st.tuples(sector, keys_st),
                           st.integers(-3, 3).filter(bool), max_size=6)


def _osc_pair(terms):
    """(flat element, OscElement over TupleLaurent2) of the same terms."""
    groups = {}
    for (dk, ijk), c in terms.items():
        groups.setdefault(dk, {})[ijk] = c
    return (Ring({flat_key(*dk, ijk): c for (dk, ijk), c in terms.items()}),
            OscElement({dk: TupleLaurent2(p) for dk, p in groups.items()},
                       tuple_qpow))


def _osc_same(got, want, copies):
    return (all(type(c) is int and c for c in got.terms.values())
            and nested(got, copies).terms == want.terms)


_S, _ONE1 = ((1,), (0,)), ((0,), (0,))


@SETTINGS
@hypothesis.given(st.sampled_from((1, 2)).flatmap(
    lambda n: st.tuples(st.just(n), _osc_terms_st(n), _osc_terms_st(n))))
# (1 + S)(1 - S) = 1 - S^2: the cross terms cancel
@hypothesis.example((1, {(_ONE1, (0, 0, 0)): 1, (_S, (0, 0, 0)): 1},
                     {(_ONE1, (0, 0, 0)): 1, (_S, (0, 0, 0)): -1}))
def test_flat_ring_matches_oscelement_over_the_tuple_ring(case):
    copies, a, b = case
    (fa, oa), (fb, ob) = _osc_pair(a), _osc_pair(b)
    assert _osc_same(fa, oa, copies) and _osc_same(fb, ob, copies)
    for got, want in ((fa + fb, oa + ob), (fa - fb, oa - ob), (-fa, -oa),
                      (fa * fb, oa * ob), (fb * fa, ob * oa),
                      (fa * fb + fa * -fb, oa * ob + oa * -ob),
                      (fa - fa, oa - oa)):
        assert _osc_same(got, want, copies)
    assert not fa - fa and not fa * fb + fa * -fb
    assert (fa == fb) == (oa.terms == ob.terms) and bool(fa) == bool(oa)


digit_st = st.one_of(st.integers(-1, 1), st.sampled_from((-15, 15)),
                     st.sampled_from((1 - DIGIT, DIGIT - 1)))


def _osc_fits(o):
    return all(abs(x) < DIGIT for dk in o.terms for part in dk for x in part
               ) and all(_fits(c) for c in o.terms.values())


@SETTINGS
@hypothesis.given(st.lists(st.tuples(
    st.tuples(digit_st, digit_st), st.tuples(digit_st, digit_st),
    st.tuples(exponent_st, exponent_st, exponent_st),
    st.sampled_from((1, -1))), min_size=2, max_size=8))
@hypothesis.example([((15, 15), (15, 15), (BOUND - 1, 1 - BOUND, BOUND - 1),
                      1)] * 8)
@hypothesis.example([((-15, 15), (15, -15), (1 - BOUND,) * 3, -1)] * 8)
@hypothesis.example([((63, -63), (-63, 63), (BOUND - 1,) * 3, 1)] * 3)
def test_product_of_up_to_8_extreme_oscillator_monomials(factors):
    # digits and exponents just inside their bounds, with their q-shifts,
    # stay exact in the packed key on up to 8 factors, or the product is
    # refused once a factor leaves the operand bounds: never wrong
    _chain([_osc_pair({((delta, kappa), ijk): c})
            for delta, kappa, ijk, c in factors], _osc_fits)


# Laurent polynomials in t, and some of them over the denominator 1 - q^-2;
# a table coefficient has no denominator in t
laurent_t_st = st.builds(lambda k, n, m: q_power(k).scale(n) + q_power(m),
                         st.integers(-2, 2), st.integers(-3, 3),
                         st.integers(-1, 1)).filter(bool)
scalars_st = st.builds(lambda c, den: c * (ONE - q_power(-2)).inverse()
                       if den else c, laurent_t_st, st.booleans())
L_TABLES = [(algebra, v) for kind, algebra, v in list_variants()
            if kind == "l" and v != "hat-2-inv"]
exps_st = st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                    st.integers(-2, 2), st.integers(-2, 2))


def _as_rational(x):
    """A one-variable element (zeta = u) as a ZetaRational polynomial."""
    groups = {}
    for (i, j, k), c in _exponent_terms(x).items():
        assert j == 0
        groups.setdefault(i, {})[k] = c
    return ZetaRational({e: QScalar(p) for e, p in groups.items()})


@SETTINGS
@hypothesis.given(st.sampled_from([("r", "a1"), ("r", "a2")] + L_TABLES),
                  exps_st)
def test_cleared_scales_by_one_common_factor_to_integer_coefficients(what,
                                                                     exps):
    # a form N / D: every rendered cell of N is D times the cell of the
    # object, with integer coefficients, one common factor for them all
    algebra, variant = what if what[0] != "r" else (what[1], "r")
    e = exps if algebra == "a2" else exps[:2]
    form = (r_form(algebra, *exps) if variant == "r"
            else l_table(algebra, variant, e).ring())
    num, den = form
    assert all(type(c) is int and c for x in (*num.entries.values(), den)
               for c in x.terms.values())
    d = 1 if variant == "r" else 2
    whole, part = render(form, d), render((num, Ring.ONE), d)
    assert set(whole.entries) == set(part.entries)
    for ab, op in part.entries.items():
        assert op == whole.entries[ab].scale(_as_rational(den))


@SETTINGS
@hypothesis.given(scalars_st.filter(lambda c: c.den != {0: 1}),
                  st.sampled_from(((0,), (1,), (-1,))))
def test_lift_rejects_a_denominator_in_t(c, delta):
    # a table coefficient lies in Z[t^(+-1)]: one with a denominator in t,
    # which no catalog table has, makes the lift into the ring raise
    # ValueError, the error the command line reports as exit 2
    table = LTable(1, 1, {(0, 0): ((1, c, delta, (0,)),)}, None)
    with pytest.raises(ValueError, match="Z\\[t"):
        table.ring()
    # its numerator alone lifts
    LTable(1, 1, {(0, 0): ((1, QScalar(dict(c.num)), delta, (0,)),)},
           None).ring()


one_variable_st = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.just(0), st.integers(-12, 12)),
    st.integers(-3, 3).filter(bool), max_size=5).map(_ring)


@SETTINGS
@hypothesis.given(one_variable_st, one_variable_st,
                  st.sampled_from(sorted(verify._LIFT_EXPONENTS)))
def test_lift_is_a_ring_homomorphism(a, b, mode):
    # zeta -> u^ea v^eb on one-variable elements of the ring
    ea, eb = verify._LIFT_EXPONENTS[mode]
    lift = lambda x: x.spectral(ea, eb)
    assert lift(a + b) == lift(a) + lift(b)
    assert lift(a - b) == lift(a) - lift(b)
    assert lift(a * b) == lift(a) * lift(b)
    assert lift(Ring.ONE) == Ring.ONE
    assert sympy.expand(_ring_expr(lift(a)) - _ring_expr(a).subs(
        U, U ** ea * V ** eb)) == 0


@SETTINGS
@hypothesis.given(one_variable_st, one_variable_st.filter(bool),
                  st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_subs_power_equals_the_reducing_constructor(num, den, k):
    # zeta -> zeta^k on a form in the ring, then rendered, equals the
    # reducing constructor on the substituted pair of the rendered form
    def rendered(n, d):
        m = OpMatrix(1, {(0, 0): n}, Ring.ONE)
        return render((m, d), 1).entries.get((0, 0), OpMatrix.zero(
            1, ZetaRational.ONE)).entry(0, 0)
    assert rendered(num.spectral(k, 0), den.spectral(k, 0)) == subs_zeta(
        rendered(num, den), k)
