import random

from fractions import Fraction

import pytest

from qaffine.scalars import QScalar, q_power
from qaffine.linalg import OpMatrix, OscPoly, _pack
from qaffine.rational import ZetaRational
from qaffine.reference import render
from qaffine.series import ZetaSeries
from oracles import zeta_monomial

ONE = QScalar.ONE


def zr(num, den=None):
    return ZetaRational(num, den if den is not None else {0: ONE})


def rand_zr(rng):
    num = {rng.randint(-3, 3): q_power(rng.randint(-2, 2)).scale(rng.randint(1, 3))
           for _ in range(rng.randint(1, 3))}
    den = {rng.randint(0, 3): q_power(rng.randint(-1, 1))
           for _ in range(rng.randint(1, 2))}
    den[0] = QScalar.from_int(rng.randint(1, 3))
    return zr(num, den)


def test_canonical_reduction():
    # (1 - z^2)/(1 - z) reduces to 1 + z
    a = zr({0: ONE, 2: -ONE}, {0: ONE, 1: -ONE})
    assert a == zr({0: ONE, 1: ONE})
    assert a.den == {0: ONE}


def test_field_ops_random():
    rng = random.Random(99)
    for _ in range(40):
        a, b, c = rand_zr(rng), rand_zr(rng), rand_zr(rng)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * a.inverse() == ZetaRational.ONE
        assert a - a == ZetaRational.ZERO


def test_series_expansion_matches_geometric():
    # 1/(1 - q^-2 z) expands to sum q^-2m z^m
    a = zr({0: ONE}, {0: ONE, 1: -q_power(-2)})
    s = a.to_series(6)
    for m in range(7):
        assert s.coeff(m) == q_power(-2 * m)


def test_series_expansion_with_laurent_numerator():
    a = zr({-2: ONE}, {0: ONE, 1: -ONE})
    s = a.to_series(4)
    for m in range(-2, 5):
        assert s.coeff(m) == ONE


def test_expansion_times_reciprocal_is_one():
    a = zr({0: ONE, 1: -q_power(2)}, {0: ONE, 1: -q_power(-2), 2: ONE})
    n = 8
    s = a.to_series(n)
    r = a.inverse().to_series(n)
    assert (s * r).truncate(n) == ZetaSeries.one(n)


def test_substitutions():
    # zeta -> zeta^k on a form N / D of the oscillator ring, rendered
    def rendered(num, den, k):
        m = OpMatrix(1, {(0, 0): num.spectral(k, 0)}, OscPoly.ONE)
        return render((m, den.spectral(k, 0)), 1).entries[(0, 0)].entry(0, 0)
    z = OscPoly({_pack(1, 0, 0): 1})
    one_minus_z = OscPoly.ONE - z                  # z/(1-z)
    b = rendered(z, one_minus_z, 2)                # z^2/(1-z^2)
    assert b == zr({2: ONE}, {0: ONE, 2: -ONE})
    d = rendered(z, one_minus_z, -1)               # z^-1/(1-z^-1) = -1/(1-z)
    assert d == zr({0: -ONE}, {0: ONE, 1: -ONE})


def test_canonical_flag_is_keyword_only():
    # a third positional argument would otherwise skip the reduction
    with pytest.raises(TypeError):
        ZetaRational({0: ONE, 2: -ONE}, {0: ONE, 1: -ONE}, ONE)
    a = ZetaRational({0: ONE, 2: -ONE}, {0: ONE, 1: -ONE})
    assert a == ZetaRational({0: ONE, 1: ONE})
    assert ZetaRational({1: q_power(2)}) == \
        zeta_monomial(1, q_power(2))
    assert ZetaRational({0: ONE}) == ZetaRational.ONE


def test_zero_guards():
    with pytest.raises(ZeroDivisionError):
        zr({0: ONE}, {}).inverse()
    with pytest.raises(ZeroDivisionError):
        zr({}).inverse()
