"""Ratios of Laurent polynomials in zeta, over any exact coefficient field.

The coefficient type only needs field arithmetic (+, -, *, /, ==, bool), so
a ZetaRational over QScalar is the closed-form backend, and a ZetaRational
whose coefficients are themselves ZetaRational gives exact two-variable
arithmetic for identities that genuinely involve two spectral parameters.

Canonical form mirrors QScalar: the denominator is an ordinary polynomial
in zeta with minimal degree zero and lowest coefficient 1, and numerator
and denominator share no factor.  Over QScalar the gcd is computed with a
primitive pseudo-remainder sequence on cleared coefficients.  Over nested
coefficients a monic Euclid, which swells catastrophically, serves general
two-variable arithmetic; the identity checks clear denominators first.
"""

from .scalars import (
    QScalar, _ONE_POLY, _p_add, _p_exquo, _p_gcd, _p_mul, _p_shift,
)

__all__ = ["ZetaRational"]


def _strip(p):
    return {k: c for k, c in p.items() if c}


def _add(a, b):
    out = dict(a)
    for k, c in b.items():
        if k in out:
            s = out[k] + c
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = c
    return out


def _mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            p = ca * cb
            if k in out:
                s = out[k] + p
                if s:
                    out[k] = s
                else:
                    del out[k]
            elif p:
                out[k] = p
    return out


def _shift(p, n):
    if n == 0:
        return p
    return {k + n: c for k, c in p.items()}


def _divmod(a, b, one):
    q = {}
    r = dict(a)
    db = max(b)
    lb_inv = one / b[db]
    while r:
        dr = max(r)
        if dr < db:
            break
        c = r[dr] * lb_inv
        k = dr - db
        q[k] = c
        for kb, cb in b.items():
            kk = kb + k
            s = r.get(kk)
            s = -(cb * c) if s is None else s - cb * c
            if s:
                r[kk] = s
            else:
                r.pop(kk, None)
    return q, r


# -- gcd of zeta-polynomials with QScalar coefficients via primitive PRS ----

def _t_polypart(lp):
    """Poly part of a Laurent t-dict (monomial units stripped)."""
    return _p_shift(lp, -min(lp))


def _t_content(zp):
    g = None
    for c in zp.values():
        pc = _t_polypart(c)
        g = pc if g is None else _p_gcd(g, pc)
        if g == _ONE_POLY:
            return _ONE_POLY
    return g if g is not None else _ONE_POLY


def _t_primitive(zp):
    g = _t_content(zp)
    if g == _ONE_POLY:
        return zp
    out = {}
    for k, c in zp.items():
        s = min(c)
        out[k] = _p_shift(_p_exquo(_p_shift(c, -s), g), s)
    return out


def _pseudo_rem(a, b):
    """lc(b)^k * a mod b over the coefficient ring Q[t, t^-1]."""
    db = max(b)
    lb = b[db]
    r = a
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        new = {}
        for k, c in r.items():
            if k != dr:
                new[k] = _p_mul(c, lb)
        for k, c in b.items():
            if k == db:
                continue
            kk = k + dr - db
            s = _p_add(new.get(kk, {}), {e: -v for e, v in _p_mul(c, lr).items()})
            if s:
                new[kk] = s
            else:
                new.pop(kk, None)
        r = new
    return r


def _prs_gcd(a, b):
    """Primitive gcd of zeta-polys with Laurent-t coefficients."""
    a = _t_primitive(a)
    b = _t_primitive(b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _t_primitive(r)
    return a


def _clear_coeffs(zp):
    """QScalar-coefficient zeta-poly times a common denominator, as raw
    Laurent-t coefficient dicts (exact up to a unit, enough for gcd)."""
    den = _ONE_POLY
    for c in zp.values():
        if c.den != _ONE_POLY:
            g = _p_gcd(den, c.den)
            den = _p_mul(den, _p_exquo(c.den, g))
    out = {}
    for k, c in zp.items():
        if c.den == _ONE_POLY:
            out[k] = c.num if den == _ONE_POLY else _p_mul(c.num, den)
        else:
            out[k] = _p_mul(c.num, _p_exquo(den, c.den))
    return out


def _qscalar_gcd(pn, pd):
    """gcd of two zeta-polys with QScalar coefficients, as a monic-lowest
    zeta-poly over QScalar; {0: ONE} when coprime."""
    g = _prs_gcd(_clear_coeffs(pn), _clear_coeffs(pd))
    if max(g) == 0:
        return {0: QScalar.ONE}
    # normalize: lowest zeta-coefficient becomes 1
    lo = g[min(g)]
    lo_q = QScalar(dict(lo))
    inv = lo_q.inverse()
    return {k: QScalar(dict(c)) * inv for k, c in g.items()}


def _monic(p, one):
    lc = p[max(p)]
    if lc == one:
        return p
    inv = one / lc
    return {k: c * inv for k, c in p.items()}


def _euclid_gcd(a, b, one):
    # generic fallback for nested coefficient fields; remainders kept monic
    a = _monic(a, one)
    b = _monic(b, one)
    while b:
        _, r = _divmod(a, b, one)
        a, b = b, (_monic(r, one) if r else r)
    return a


def _poly_gcd(a, b, one):
    if len(a) == 1 or len(b) == 1:
        return {0: one}
    if isinstance(one, QScalar):
        return _qscalar_gcd(a, b)
    return _euclid_gcd(a, b, one)


def _reduce_pair(num, den, one):
    """Strip gcd(poly-part-of-num, den); num Laurent, den canonical."""
    if not num or den == {0: one}:
        return num, den
    sn = min(num)
    pn = _shift(num, -sn)
    g = _poly_gcd(pn, den, one)
    if len(g) == 1 and 0 in g:
        return num, den
    pn, _ = _divmod(pn, g, one)
    den, _ = _divmod(den, g, one)
    lo = den[0]
    if not (lo == one):
        inv = one / lo
        pn = {k: c * inv for k, c in pn.items()}
        den = {k: c * inv for k, c in den.items()}
    return _shift(pn, sn), den


class ZetaRational:
    """Reduced ratio of Laurent polynomials in zeta over a coefficient field."""

    __slots__ = ("num", "den", "one")

    def __init__(self, num, den, one, _canonical=False):
        self.one = one
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
            self.den = {0: one}
            return
        sn = min(num)
        sd = min(den)
        pn = _shift(num, -sn)
        pd = _shift(den, -sd)
        if len(pd) == 1:
            lo = pd[0]
            if not (lo == one):
                inv = one / lo
                pn = {k: c * inv for k, c in pn.items()}
            pd = {0: one}
        else:
            g = _poly_gcd(pn, pd, one)
            if not (len(g) == 1 and 0 in g):
                pn, _ = _divmod(pn, g, one)
                pd, _ = _divmod(pd, g, one)
            lo = pd[min(pd)]
            if not (lo == one):
                inv = one / lo
                pn = {k: c * inv for k, c in pn.items()}
                pd = {k: c * inv for k, c in pd.items()}
        self.num = _shift(pn, sn - sd)
        self.den = pd

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c, one=None):
        one = one if one is not None else QScalar.ONE
        if not c:
            return ZetaRational({}, {0: one}, one, _canonical=True)
        return ZetaRational({0: c}, {0: one}, one, _canonical=True)

    @staticmethod
    def monomial(deg, c=None, one=None):
        one = one if one is not None else QScalar.ONE
        c = c if c is not None else one
        if not c:
            return ZetaRational({}, {0: one}, one, _canonical=True)
        return ZetaRational({deg: c}, {0: one}, one, _canonical=True)

    def zero_like(self):
        return ZetaRational({}, {0: self.one}, self.one, _canonical=True)

    def one_like(self):
        return ZetaRational({0: self.one}, {0: self.one}, self.one, _canonical=True)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den == {0: self.one}

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        one = self.one
        one_den = {0: one}
        if self.den == other.den:
            num = _add(self.num, other.num)
            if self.den == one_den:
                return ZetaRational(num, one_den, one,
                                    _canonical=True) if num else self.zero_like()
            return ZetaRational(num, self.den, one)
        g = _poly_gcd(self.den, other.den, one)
        if len(g) == 1 and 0 in g:
            num = _add(_mul(self.num, other.den), _mul(other.num, self.den))
            if not num:
                return self.zero_like()
            return ZetaRational(num, _mul(self.den, other.den), one,
                                _canonical=True)
        da, _ = _divmod(self.den, g, one)
        db, _ = _divmod(other.den, g, one)
        num = _add(_mul(self.num, db), _mul(other.num, da))
        return ZetaRational(num, _mul(self.den, db), one)

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __neg__(self):
        return ZetaRational({k: -c for k, c in self.num.items()}, self.den,
                            self.one, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        if not self.num or not other.num:
            return self.zero_like()
        one = self.one
        one_den = {0: one}
        if self.den == one_den and other.den == one_den:
            return ZetaRational(_mul(self.num, other.num), one_den, one,
                                _canonical=True)
        na, db = _reduce_pair(self.num, other.den, one)
        nb, da = _reduce_pair(other.num, self.den, one)
        den = da if db == one_den else (db if da == one_den else _mul(da, db))
        return ZetaRational(_mul(na, nb), den, one, _canonical=True)

    def __truediv__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return self.__mul__(other.inverse())

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero zeta-rational")
        one = self.one
        sn = min(self.num)
        pn = _shift(self.num, -sn)
        lo = pn[0]
        num = _shift(self.den, -sn)
        if not (lo == one):
            inv = one / lo
            num = {k: c * inv for k, c in num.items()}
            pn = {k: c * inv for k, c in pn.items()}
        return ZetaRational(num, pn, one, _canonical=True)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.one_like()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        if not c:
            return self.zero_like()
        return ZetaRational({k: v * c for k, v in self.num.items()}, self.den,
                            self.one, _canonical=True)

    # -- substitutions -----------------------------------------------------

    def subs_monomial(self, c, k):
        """zeta -> c * zeta^k with invertible c and nonzero integer k."""
        if k == 0:
            raise ValueError("substitution power must be nonzero")
        c_inv = self.one / c
        num = {}
        den = {}
        for e, v in self.num.items():
            num[k * e] = v * (c ** e) if e >= 0 else v * (c_inv ** (-e))
        for e, v in self.den.items():
            den[k * e] = v * (c ** e) if e >= 0 else v * (c_inv ** (-e))
        return ZetaRational(num, den, self.one)

    def subs_power(self, k):
        """zeta -> zeta^k for nonzero integer k."""
        if k == 0:
            raise ValueError("substitution power must be nonzero")
        return ZetaRational({k * e: v for e, v in self.num.items()},
                            {k * e: v for e, v in self.den.items()}, self.one)

    # -- series expansion (QScalar coefficients only) ------------------------

    def to_series(self, order):
        from .series import ZetaSeries
        if not isinstance(self.one, QScalar):
            raise TypeError("series expansion needs QScalar coefficients")
        # a Laurent numerator pushes pole terms below zero; expand the
        # denominator far enough that the product is exact through `order`
        lo = min(self.num) if self.num else 0
        pad = max(0, -lo)
        num = ZetaSeries(dict(self.num), order + pad)
        den = ZetaSeries(dict(self.den), order + pad)
        return (num * den.inverse()).truncate(order)

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
