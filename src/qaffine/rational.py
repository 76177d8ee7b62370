"""Ratios of Laurent polynomials in zeta with coefficients in Q(t).

This is the printed form of a closed form in one spectral variable over
QScalar: `reference.render` divides the numerators of a form by its one
divisor here, for the R-matrix `compute r` prints and the L-operators of
`compute --backend rational`; no check reads one.  The closed forms
themselves, and every identity check, live in the integer q-oscillator
ring (`linalg.OscPoly`), so this field never nests.

Canonical form: the denominator is an ordinary polynomial in zeta with
minimal degree zero and lowest coefficient 1, and numerator and
denominator share no factor.  One division of zeta-polynomials over Q(t)
(`_divmod`, the package's shared long division `scalars._p_divmod`) gives
both: Euclid's remainders find the gcd, and its exact quotients strip it
from numerator and denominator.
"""

from .scalars import QScalar, _p_add, _p_conv, _p_divmod, _p_neg, _p_shift

__all__ = ["ZetaRational"]

_ONE_DEN = {0: QScalar.ONE}


def _strip(p):
    return {k: c for k, c in p.items() if c}


def _scale(p, c):
    return {k: v * c for k, v in p.items()}


def _divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b, for zeta-polynomials over
    Q(t)."""
    inv = b[max(b)].inverse()
    return _p_divmod(a, b, lambda c, lb: c * inv)


def _exquo(a, b):
    """a / b for zeta-polynomials over Q(t); ArithmeticError unless b
    divides a."""
    q, r = _divmod(a, b)
    if r:
        raise ArithmeticError("zeta-polynomial division is not exact")
    return q


def _gcd(a, b):
    """gcd of two zeta-polynomials with nonzero constant terms, by Euclid
    over Q(t), scaled to constant term 1; {0: ONE} when they are coprime.
    A common factor of a and b has a nonzero constant term, so the last
    nonzero remainder starts at degree 0."""
    if len(a) == 1 or len(b) == 1:
        return _ONE_DEN
    while b:
        a, b = b, _divmod(a, b)[1]
    if len(a) == 1:
        return _ONE_DEN
    return _scale(a, a[0].inverse())


def _reduce_pair(num, den):
    """Strip gcd(poly-part-of-num, den); num Laurent, den an ordinary
    polynomial with lowest coefficient 1 at degree 0."""
    if not num or den == _ONE_DEN:
        return num, den
    sn = min(num)
    pn = _p_shift(num, -sn)
    g = _gcd(pn, den)
    if g == _ONE_DEN:
        return num, den
    # den and g both have lowest coefficient 1, and so has the quotient
    return _p_shift(_exquo(pn, g), sn), _exquo(den, g)


class ZetaRational:
    """Reduced ratio of Laurent polynomials in zeta over Q(t)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_DEN, *, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num = _strip(num)
        den = _strip(den)
        if not den:
            raise ZeroDivisionError("zero denominator in zeta-rational")
        if not num:
            self.num = {}
            self.den = _ONE_DEN
            return
        sd = min(den)
        num = _p_shift(num, -sd)
        den = _p_shift(den, -sd)
        lo = den[0]
        if not lo.is_one():
            inv = lo.inverse()
            num = _scale(num, inv)
            den = _scale(den, inv)
        self.num, self.den = _reduce_pair(num, den)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return ZetaRational(_p_add(_p_conv(self.num, other.den),
                                   _p_conv(other.num, self.den)),
                            _p_conv(self.den, other.den))

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __neg__(self):
        return ZetaRational(_p_neg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        if not self.num or not other.num:
            return ZetaRational.ZERO
        if self.den == _ONE_DEN and other.den == _ONE_DEN:
            return ZetaRational(_p_conv(self.num, other.num), _canonical=True)
        na, db = _reduce_pair(self.num, other.den)
        nb, da = _reduce_pair(other.num, self.den)
        den = da if db == _ONE_DEN else (db if da == _ONE_DEN else _p_conv(da, db))
        return ZetaRational(_p_conv(na, nb), den, _canonical=True)

    def __truediv__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return self.__mul__(other.inverse())

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero zeta-rational")
        sn = min(self.num)
        pn = _p_shift(self.num, -sn)
        num = _p_shift(self.den, -sn)
        lo = pn[0]
        if not lo.is_one():
            inv = lo.inverse()
            num = _scale(num, inv)
            pn = _scale(pn, inv)
        return ZetaRational(num, pn, _canonical=True)

    # -- series expansion ----------------------------------------------------

    def to_series(self, order):
        from .series import series_quotient
        return series_quotient(self.num, self.den, order)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            if other == 0:
                return not self.num
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def __str__(self):
        return "(%s)/(%s)" % (_zpoly_str(self.num), _zpoly_str(self.den))

    def __repr__(self):
        return "ZetaRational(%s)" % self


ZetaRational.ZERO = ZetaRational({}, _canonical=True)
ZetaRational.ONE = ZetaRational(_ONE_DEN, _canonical=True)


def _zpoly_str(p):
    if not p:
        return "0"
    parts = []
    for k in sorted(p):
        c = p[k]
        if k == 0:
            parts.append("%s" % (c,))
        else:
            parts.append("%s*z^%d" % (c, k))
    return " + ".join(parts)
