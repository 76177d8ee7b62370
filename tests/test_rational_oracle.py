"""Rationals in zeta over Q(t), and the two-variable Laurent ring of the
identity checks, against independent oracles: sympy for values and
reduced forms, hypothesis for the ring laws of the lift.  Both are
development-only and are skipped when not installed."""

import random

import pytest

pytestmark = pytest.mark.oracle

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine import rational, verify  # noqa: E402
from qaffine.linalg import OpMatrix  # noqa: E402
from qaffine.rational import ZetaRational  # noqa: E402
from qaffine.scalars import QScalar, q_power, qint  # noqa: E402
from qaffine.linalg import OscElement  # noqa: E402
from tuple_ring import (  # noqa: E402
    TupleLaurent2, flat_key, nested, tuple_qpow,
)

# values live in sympy's sparse field Q(t, z, u, v), which keeps every
# element cancelled (sympy.cancel on expressions takes seconds per value at
# these degrees); the ring laws in u, v are checked with sympy.expand
F, TF, ZF, UF, VF = sympy.field("t,z,u,v", sympy.QQ)
T, U, V = sympy.symbols("t u v")
ONE = QScalar.ONE
Ring = verify._Laurent2

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
    rng = random.Random(3)
    for _ in range(6):
        a = ZetaRational(_poly(rng, -1, 2), _poly(rng))
        for k in (-2, -1, 1, 2):
            got = a.subs_power(k)
            _assert_canonical(got)
            assert _value(got) == _at(a, ZF ** k)


def test_exact_division_raises_on_a_remainder():
    f = {0: ONE, 1: q_power(1)}
    g = {0: -ONE, 2: q_power(-1)}
    assert rational._exquo(_times(f, g), g) == f
    with pytest.raises(ArithmeticError):
        rational._exquo(_times(f, g), {0: ONE, 1: ONE})


# -- the two-variable Laurent ring over Z[t^(+-1)] ----------------------------

def _exponent_terms(x):
    """The terms of x as {(i, j, k): c}, decoded from their packed keys."""
    return {verify._unpack(key): c for key, c in x.terms.items()}


def _ring(terms):
    return Ring({verify._pack(*key): c for key, c in terms.items()})


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
BOUND = verify._EXPONENT_BOUND
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
    # the packing stays exact on a product of up to 32 monomials with every
    # exponent just inside the bound, and on a two-term factor of such
    # products
    pairs = [_pair({(i, j, k): c}) for i, j, k, c in factors]
    half = len(pairs) // 2
    products = []
    for part in (pairs[:half], pairs[half:]):
        packed, tupled = Ring.ONE, TupleLaurent2.ONE
        for p, t in part:
            packed, tupled = packed * p, tupled * t
        products.append((packed, tupled))
    (pa, ta), (pb, tb) = products
    for got, want in ((pa * pb, ta * tb),
                      (pa * (pb + Ring.ONE), ta * (tb + TupleLaurent2.ONE))):
        assert _same(got, want) and str(got) == str(want)


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


digit_st = st.one_of(st.integers(-1, 1), st.sampled_from((-15, 15)))


@SETTINGS
@hypothesis.given(st.lists(st.tuples(
    st.tuples(digit_st, digit_st), st.tuples(digit_st, digit_st),
    st.tuples(exponent_st, exponent_st, exponent_st),
    st.sampled_from((1, -1))), min_size=2, max_size=8))
@hypothesis.example([((15, 15), (15, 15), (BOUND - 1, 1 - BOUND, BOUND - 1),
                      1)] * 8)
@hypothesis.example([((-15, 15), (15, -15), (1 - BOUND,) * 3, -1)] * 8)
def test_product_of_up_to_8_extreme_oscillator_monomials(factors):
    # digits just inside their bound, with their q-shifts, and exponents
    # just inside theirs stay exact in the packed key on up to 8 factors
    flat_p, osc_p = Ring.ONE, OscElement({((0, 0), (0, 0)): TupleLaurent2.ONE},
                                         tuple_qpow)
    for delta, kappa, ijk, c in factors:
        f, o = _osc_pair({((delta, kappa), ijk): c})
        flat_p, osc_p = flat_p * f, osc_p * o
    assert _osc_same(flat_p, osc_p, 2)


# Laurent polynomials in t, and some of them over the denominator 1 - q^-2;
# the closed forms carry no denominator in t once cleared in zeta
laurent_t_st = st.builds(lambda k, n, m: q_power(k).scale(n) + q_power(m),
                         st.integers(-2, 2), st.integers(-3, 3),
                         st.integers(-1, 1)).filter(bool)
scalars_st = st.builds(lambda c, den: c * (ONE - q_power(-2)).inverse()
                       if den else c, laurent_t_st, st.booleans())
zpoly_st = st.dictionaries(st.integers(-3, 3), scalars_st, max_size=3).map(
    ZetaRational)
tpoly_st = st.dictionaries(st.integers(-3, 3), laurent_t_st,
                           max_size=3).map(ZetaRational)
zden_st = st.sampled_from(({0: ONE}, {0: ONE, 1: -q_power(-2)},
                           {0: ONE, 2: -ONE}))
zrational_st = st.builds(
    lambda num, den: ZetaRational(num.num, den), tpoly_st, zden_st)
objects_st = st.lists(
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    zrational_st, max_size=3).map(
        lambda e: OpMatrix(2, e, ZetaRational.ONE)),
    min_size=1, max_size=3)


def _is_cleared(x):
    return x.is_polynomial() and all(c.den == {0: 1}
                                     for c in x.num.values())


@SETTINGS
@hypothesis.given(objects_st)
def test_cleared_scales_by_one_common_factor_to_integer_coefficients(objs):
    cleared = verify._cleared(*objs)
    assert len(cleared) == len(objs)
    factors = set()
    for obj, got in zip(objs, cleared):
        assert set(got.entries) == set(obj.entries)
        for ij, v in obj.entries.items():
            w = got.entries[ij]
            assert _is_cleared(w)
            factors.add(_value(w) / _value(v))
    assert len(factors) <= 1 and F(0) not in factors
    # and the lift takes every cleared object
    for got in cleared:
        verify._lift(got, "ratio")


@SETTINGS
@hypothesis.given(zpoly_st.filter(lambda x: not _is_cleared(x)),
                  st.sampled_from(sorted(verify._LIFT_EXPONENTS)))
def test_lift_rejects_a_denominator_in_t(a, mode):
    # `_cleared` clears denominators in zeta only; a coefficient with a
    # denominator in t, which no catalog object has, stays and makes the
    # lift raise ValueError, the error the command line reports as exit 2
    m = OpMatrix(1, {(0, 0): a}, ZetaRational.ONE)
    with pytest.raises(ValueError, match="clear the denominators"):
        verify._lift(m, mode)
    cleared, = verify._cleared(m)
    assert cleared == m
    with pytest.raises(ValueError, match="clear the denominators"):
        verify._lift(cleared, mode)


def _lift(x, mode):
    m = OpMatrix(1, {(0, 0): x}, ZetaRational.ONE)
    return verify._lift(m, mode).entry(0, 0)


@SETTINGS
@hypothesis.given(tpoly_st, tpoly_st,
                  st.sampled_from(sorted(verify._LIFT_EXPONENTS)))
def test_lift_is_a_ring_homomorphism(a, b, mode):
    # on a and b cleared together, so both are polynomials over Z[t^(+-1)]
    a, b = (m.entry(0, 0) for m in verify._cleared(
        OpMatrix(1, {(0, 0): a}, ZetaRational.ONE),
        OpMatrix(1, {(0, 0): b}, ZetaRational.ONE)))
    lift = lambda x: _lift(x, mode)
    assert lift(a + b) == lift(a) + lift(b)
    assert lift(a - b) == lift(a) - lift(b)
    assert lift(a * b) == lift(a) * lift(b)
    assert lift(ZetaRational.ONE) == Ring.ONE
    ea, eb = verify._LIFT_EXPONENTS[mode]
    assert _ring_value(lift(a)) == _at(a, UF ** ea * VF ** eb)


zdict_st = st.dictionaries(st.integers(-3, 3), scalars_st, max_size=3)


@SETTINGS
@hypothesis.given(zdict_st, zdict_st.filter(bool),
                  st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_subs_power_equals_the_reducing_constructor(num, den, k):
    # zeta -> zeta^k keeps a reduced pair reduced, so subs_power takes no
    # gcd; the reducing constructor on the substituted pair agrees
    x = ZetaRational(num, den)
    want = ZetaRational({k * e: v for e, v in x.num.items()},
                        {k * e: v for e, v in x.den.items()})
    assert x.subs_power(k) == want
