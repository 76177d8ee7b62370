"""The Q(t) kernel against independent oracles: sympy for values and gcds,
hypothesis for the canonical form.  Both are development-only and are
skipped when not installed; nothing in src/ imports them."""

import random

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine import scalars  # noqa: E402
from qaffine.scalars import QScalar, parse_qscalar, qint, q_power  # noqa: E402

T = sympy.Symbol("t")

SETTINGS = hypothesis.settings(max_examples=80, deadline=None,
                               derandomize=True, database=None)


def _expr(p):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * T ** k
                       for k, c in p.items()])


def _value(x):
    return _expr(x.num) / _expr(x.den)


def _assert_canonical(x):
    # every coefficient an int, or a Fraction with a denominator above 1
    for p in (x.num, x.den):
        for c in p.values():
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator > 1), repr(c)
    assert min(x.den) == 0 and x.den[max(x.den)] == 1
    if x.num:
        shift = min(x.num)
        num = sympy.Poly(sympy.expand(_expr(x.num) * T ** -shift), T)
        assert sympy.gcd(num, sympy.Poly(_expr(x.den), T)).degree() == 0


def _same_value(x, expr):
    return sympy.cancel(_value(x) - expr) == 0


def _rand_poly(rng, terms, lo, hi, bits, stride=1):
    out = {}
    for _ in range(terms):
        c = rng.randint(-(1 << bits), 1 << bits)
        if c:
            out[stride * rng.randint(lo, hi)] = c
    return out or {0: 1}


def _rand_scalar(rng):
    num = {rng.randint(-8, 8): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
           for _ in range(rng.randint(1, 4))}
    den = _rand_poly(rng, rng.randint(1, 3), 0, 6, 4)
    den[0] = rng.randint(1, 7)
    return QScalar(num, den)


# -- arithmetic against sympy.cancel ------------------------------------------

def test_add_mul_inverse_match_sympy():
    rng = random.Random(5)
    for _ in range(30):
        a, b = _rand_scalar(rng), _rand_scalar(rng)
        for got, want in ((a + b, _value(a) + _value(b)),
                          (a * b, _value(a) * _value(b)),
                          (a - b, _value(a) - _value(b))):
            _assert_canonical(got)
            assert _same_value(got, want)
        if a:
            inv = a.inverse()
            _assert_canonical(inv)
            assert _same_value(inv, 1 / _value(a))


def test_q_numbers_match_sympy():
    q = T ** 6
    for n in range(1, 7):
        x = qint(n) / (q_power(1) - q_power(-1))
        _assert_canonical(x)
        assert _same_value(x, (q ** n - q ** -n) / (q - 1 / q) ** 2)


# -- the polynomial gcd --------------------------------------------------------

def _sympy_monic_gcd(a, b):
    g = sympy.Poly(sympy.gcd(_expr(a), _expr(b)), T).monic()
    return {m[0]: Fraction(int(c.p), int(c.q)) for m, c in g.terms()}


def _gcd_cases():
    rng = random.Random(11)
    cases = []
    for i in range(60):
        stride = 6 if i % 2 else 1
        bits = 22 if i % 3 == 0 else 4
        common = _rand_poly(rng, rng.randint(1, 4), 0, 5, bits, stride)
        if i % 5 == 0:
            common = {0: 1}
        f = scalars._p_mul(common, _rand_poly(rng, 4, 0, 6, bits, stride))
        g = scalars._p_mul(common, _rand_poly(rng, 4, 0, 6, bits, stride))
        if len(f) > 1 and len(g) > 1:
            cases.append((f, g))
    # rational coefficients and a non-monic common factor
    cases.append(({0: Fraction(1, 2), 6: Fraction(3, 4), 12: 1},
                  {0: Fraction(-1, 3), 12: Fraction(2, 3)}))
    cases.append((scalars._p_mul({0: 3, 6: 5}, {0: 1, 1: 7}),
                  scalars._p_mul({0: 3, 6: 5}, {0: -2, 12: 9})))
    return cases


def test_gcd_matches_sympy(monkeypatch):
    monkeypatch.setattr(scalars, "_GCD_CACHE", {})
    cases = _gcd_cases()
    assert any(len(scalars._p_gcd(f, g)) > 1 for f, g in cases)
    for f, g in cases:
        assert scalars._p_gcd(f, g) == _sympy_monic_gcd(f, g)


def test_gcd_fallback_matches_sympy(monkeypatch):
    # with no tries left the heuristic gives up and the PRS answers
    monkeypatch.setattr(scalars, "_GCD_CACHE", {})
    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    for f, g in _gcd_cases():
        ia = scalars._int_primitive(scalars._int_cleared(f)[0])
        ib = scalars._int_primitive(scalars._int_cleared(g)[0])
        assert scalars._heu_gcd(ia, ib) is None
        assert scalars._p_gcd(f, g) == _sympy_monic_gcd(f, g)


def test_heuristic_agrees_with_prs():
    for f, g in _gcd_cases():
        ia = scalars._int_primitive(scalars._int_cleared(f)[0])
        ib = scalars._int_primitive(scalars._int_cleared(g)[0])
        heu = scalars._heu_gcd(ia, ib)
        assert heu is not None
        assert scalars._p_monic(heu) == scalars._p_monic(
            scalars._prs_gcd(ia, ib))


@pytest.mark.parametrize("f, g, want", [
    # the first candidate, t - 1, divides f but not g; the gcd is 1
    ({0: 1, 1: -1}, {0: -1, 1: 1, 3: -3}, {0: 1}),
    # the first candidate fails the division; a larger xi finds t^2 + 3
    ({0: -9, 1: 3, 3: 1, 4: 1}, {1: -6, 2: 3, 3: -2, 4: 1}, {0: 3, 2: 1}),
])
def test_heuristic_retries_after_a_false_candidate(f, g, want, monkeypatch):
    rejected = []
    divides = scalars._divides

    def checked(a, h):
        ok = divides(a, h)
        if not ok:
            rejected.append(h)
        return ok
    monkeypatch.setattr(scalars, "_divides", checked)
    assert scalars._heu_gcd(f, g) == want
    assert rejected
    assert scalars._p_monic(want) == scalars._p_monic(scalars._prs_gcd(f, g))


# -- hypothesis properties of the canonical form -------------------------------

_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_laurent = st.dictionaries(st.integers(-12, 12), _coeff, min_size=1,
                           max_size=4)
_poly = st.dictionaries(st.integers(0, 12), st.integers(-9, 9).filter(bool),
                        max_size=3)


@st.composite
def qscalars(draw):
    num = draw(_laurent)
    den = draw(_poly)
    den[0] = draw(st.integers(1, 9))
    return QScalar(num, den)


@SETTINGS
@hypothesis.given(qscalars())
def test_string_roundtrip_property(x):
    y = parse_qscalar(str(x))
    assert y == x and str(y) == str(x) and hash(y) == hash(x)
    _assert_canonical(y)


@SETTINGS
@hypothesis.given(qscalars(), qscalars(), _poly.filter(bool))
def test_canonical_form_is_unique(x, y, k):
    # the same value reached by different routes is the same object
    routes = [(x * y) / y if y else x, (x + y) - y, x.inverse().inverse()
              if x else x,
              QScalar(scalars._p_mul(x.num, k), scalars._p_mul(x.den, k))]
    for z in routes:
        assert z == x and hash(z) == hash(x)
        assert (z.num, z.den) == (x.num, x.den)


@SETTINGS
@hypothesis.given(qscalars(), qscalars(), _coeff)
def test_no_float_reaches_a_coefficient(x, y, f):
    values = [x + y, x - y, x * y, -x, x.scale(f), x.subs_t_inverse(),
              QScalar.from_fraction(f), QScalar({0: 0.5, 3: 2.0}, {0: 4.0})]
    if y:
        values.append(x / y)
    for z in values:
        _assert_canonical(z)


# -- the packed product against the term-by-term definition --------------------

_big_coeff = st.one_of(_coeff, st.integers(-(1 << 90), 1 << 90)).filter(bool)
_factor = st.dictionaries(st.integers(-40, 40), _big_coeff, min_size=2,
                          max_size=20)


@SETTINGS
@hypothesis.given(_factor, _factor, st.integers(1, 12), st.integers(1, 12))
def test_packed_product_matches_the_term_loop(a, b, sa, sb):
    # strides, signs, Fraction and 90-bit coefficients, Laurent exponents
    a = {k * sa: scalars._coeff(c) for k, c in a.items()}
    b = {k * sb: scalars._coeff(c) for k, c in b.items()}
    want = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            want[ka + kb] = want.get(ka + kb, 0) + ca * cb
    want = {k: c for k, c in want.items() if c}
    got = scalars._p_mul_packed(a, b)
    assert got == want
    assert all(type(c) is int or c.denominator > 1 for c in got.values())
