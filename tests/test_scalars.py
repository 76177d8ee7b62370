import random

from fractions import Fraction

import pytest

from qaffine.scalars import QScalar, q_power, t_power, qint, parse_qscalar
from oracles import qbinom, qint_factorial, subs_t_inverse

ONE = QScalar.ONE
ZERO = QScalar.ZERO


def rand_scalar(rng, maxdeg=4):
    num = {rng.randint(-maxdeg, maxdeg): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
           for _ in range(rng.randint(1, 4))}
    den = {rng.randint(0, maxdeg): Fraction(rng.randint(1, 5))
           for _ in range(rng.randint(1, 3))}
    den[0] = Fraction(rng.randint(1, 5))
    return QScalar(num, den)


def test_q_is_t6():
    assert q_power(1) == t_power(6)
    assert q_power(Fraction(1, 2)) == t_power(3)
    assert q_power(Fraction(1, 3)) == t_power(2)
    assert q_power(Fraction(2, 3)) == t_power(4)
    assert q_power(Fraction(1, 6)) == t_power(1)
    # an int exponent skips Fraction and agrees with the Fraction path
    for k in range(-4, 5):
        assert q_power(k) == q_power(Fraction(k)) == t_power(6 * k)
    with pytest.raises(ValueError):
        q_power(Fraction(1, 4))


def test_qint_values():
    # [0] = 0 is forced by the antisymmetry of the defining formula
    assert qint(0) == ZERO
    # [3] = q^2 + 1 + q^-2
    assert qint(3) == q_power(2) + ONE + q_power(-2)
    # [-2] = -(q + q^-1)
    assert qint(-2) == -(q_power(1) + q_power(-1))
    # definition check against explicit division
    for n in range(-5, 6):
        lhs = (q_power(n) - q_power(-n)) / (q_power(1) - q_power(-1))
        assert qint(n) == lhs


def test_qint_symmetry_under_bar():
    # [n]_q = [-n]_{q^-1} under t -> t^-1
    for n in range(1, 6):
        assert subs_t_inverse(qint(n)) == qint(-(-n)) * ONE
        assert subs_t_inverse(qint(n)) == -qint(-n)


def test_qint_factorials_and_binomials():
    assert qint_factorial(3) == qint(2) * qint(3)
    assert qbinom(4, 2) == qint_factorial(4) / (qint_factorial(2) * qint_factorial(2))
    assert qbinom(3, 1) == qint(3)


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(60):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE
        assert a - a == ZERO


def test_canonical_equality():
    # same value through different routes compares equal syntactically
    x = (q_power(2) - ONE) / (q_power(1) - ONE)
    y = q_power(1) + ONE
    assert x == y
    a = (qint(2) * qint(3)) / qint(3)
    assert a == qint(2)


def test_denominator_normalization():
    a = QScalar({3: Fraction(2)}, {-1: Fraction(4), 1: Fraction(2)})
    # the denominator is an ordinary integer polynomial with nonzero
    # constant term and positive leading coefficient, and the content of
    # numerator and denominator together is 1: 2t^3 / (4t^-1 + 2t)
    # = t^4 / (2 + t^2)
    assert min(a.den) == 0
    assert (a.num, a.den) == ({4: 1}, {0: 2, 2: 1})
    b = QScalar({0: Fraction(1, 2)}, {0: -3, 6: Fraction(-3, 2)})
    assert (b.num, b.den) == ({0: -1}, {0: 6, 6: 3})
    assert all(type(c) is int for p in (b.num, b.den) for c in p.values())
    # printed with a monic denominator
    assert str(b) == "(-1/3)/(2 + t^6)"
    # numeric strings are cleared like any exact input, and a "0" term drops
    c = QScalar({0: "0", 1: "1/2"})
    assert (c.num, c.den) == ({1: 1}, {0: 2})


def test_string_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_scalar(rng)
        assert parse_qscalar(str(a)) == a
    assert parse_qscalar(str(ZERO)) == ZERO
    assert parse_qscalar(str(-ONE)) == -ONE


def power(a, n):
    # a^n by repeated products, through the inverse for n < 0
    if n < 0:
        return power(a.inverse(), -n)
    out = ONE
    for _ in range(n):
        out = out * a
    return out


def test_pow_and_scale():
    a = q_power(1) + ONE
    assert power(a, 3) == a * a * a
    assert power(a, 0) == ONE
    assert power(q_power(1), -2) == q_power(-2)
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a


def test_zero_division_guards():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        QScalar({0: Fraction(1)}, {})


def test_exact_division_kernel():
    from qaffine.scalars import _p_add, _p_exquo, _p_mul
    rng = random.Random(41)
    for _ in range(60):
        stride = rng.choice((1, 2, 6))
        b = {stride * rng.randint(1, 4): rng.randint(-9, 9) or 1
             for _ in range(2)}
        b[0] = rng.randint(1, 5)
        q = {stride * rng.randint(0, 8): rng.randint(-9, 9)
             for _ in range(4)}
        q = {k: c for k, c in q.items() if c} or {0: 1}
        a = _p_mul(q, b)
        got = _p_exquo(a, b)
        assert got == q
        assert all(type(c) is int for c in got.values())
        # a remainder is never dropped, wherever it sits
        for rem in ({0: 1}, {1: 1}, {max(a) + 1: 1}):
            with pytest.raises(ArithmeticError):
                _p_exquo(_p_add(a, rem), b)
    assert _p_exquo({0: 3, 6: 2}, {0: 3, 6: 2}) == {0: 1}
    with pytest.raises(ArithmeticError):
        _p_exquo({0: 1}, {0: 1, 6: 1})
    # the division runs over Z: a quotient 1/2 is not exact
    with pytest.raises(ArithmeticError):
        _p_exquo({0: 1, 6: 1}, {0: 2, 6: 2})
