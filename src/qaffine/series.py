"""Truncated Laurent series in the spectral variable zeta over Q(t).

A ZetaSeries stores exact coefficients for every degree from min_degree up
to the truncation order; arithmetic is exact modulo O(zeta^(N+1)).  Series
are divided by one recurrence, `series_quotient`, which solves den * s = num
coefficient by coefficient: both the series inverse and the expansion of a
zeta-rational use it, and no division iterates series products.  The
formal exp/log pair and the level-2/level-3 lambda functions that appear in
diagonal scalar prefactors live here too.
"""

from fractions import Fraction

from .scalars import QScalar, _p_add, _p_neg, qint_base

__all__ = ["ZetaSeries", "series_quotient", "series_exp", "series_log",
           "lambda_level"]

_QZERO = QScalar.ZERO
_QONE = QScalar.ONE


class ZetaSeries:
    """Exact series sum_{d=min_degree}^{order} c_d zeta^d + O(zeta^(order+1))."""

    __slots__ = ("order", "min_degree", "coeffs")

    def __init__(self, coeffs, order, min_degree=None):
        cs = {d: c for d, c in coeffs.items() if d <= order and c}
        self.order = order
        self.coeffs = cs
        if min_degree is None:
            min_degree = min(cs) if cs else order + 1
        self.min_degree = min(min_degree, order + 1)
        if cs and min(cs) < self.min_degree:
            raise ValueError("coefficient below stated min_degree")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order):
        return ZetaSeries({}, order, order + 1)

    @staticmethod
    def one(order):
        return ZetaSeries({0: _QONE}, order, 0)

    @staticmethod
    def const(c, order):
        return ZetaSeries({0: c}, order, 0)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, d):
        if d > self.order:
            raise ValueError("degree %d beyond truncation order %d" % (d, self.order))
        return self.coeffs.get(d, _QZERO)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ZetaSeries):
            return NotImplemented
        return ZetaSeries(_p_add(self.coeffs, other.coeffs),
                          min(self.order, other.order),
                          min(self.min_degree, other.min_degree))

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __neg__(self):
        return ZetaSeries(_p_neg(self.coeffs), self.order, self.min_degree)

    def __mul__(self, other):
        if not isinstance(other, ZetaSeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = self.min_degree + other.min_degree
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            (da, ca), = a.items()
            if ca.is_one():
                return ZetaSeries({db + da: cb for db, cb in b.items()
                                   if db + da <= order}, order, lo)
            return ZetaSeries({db + da: ca * cb for db, cb in b.items()
                               if db + da <= order}, order, lo)
        if len(b) == 1:
            (db, cb), = b.items()
            if cb.is_one():
                return ZetaSeries({da + db: ca for da, ca in a.items()
                                   if da + db <= order}, order, lo)
            return ZetaSeries({da + db: ca * cb for da, ca in a.items()
                               if da + db <= order}, order, lo)
        out = {}
        for da, ca in a.items():
            for db, cb in b.items():
                d = da + db
                if d > order:
                    continue
                p = ca * cb
                s = out.get(d)
                s = p if s is None else s + p
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return ZetaSeries(out, order, lo)

    def scale(self, q):
        if not q:
            return ZetaSeries.zero(self.order)
        return ZetaSeries({d: c * q for d, c in self.coeffs.items()},
                          self.order, self.min_degree)

    def inverse(self):
        """Series inverse; needs an invertible lowest coefficient.

        For a leading term of degree lo the result is exact to order
        (order - 2*lo): that is all the input data determines.  It is
        `series_quotient` of one by the coefficients of self.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        return series_quotient({0: _QONE}, self.coeffs,
                               self.order - 2 * min(self.coeffs))

    def truncate(self, order):
        return ZetaSeries({d: c for d, c in self.coeffs.items() if d <= order},
                          order, self.min_degree)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ZetaSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "O(z^%d)" % (self.order + 1)
        parts = ["%s*z^%d" % (c, d) for d, c in sorted(self.coeffs.items())]
        return " + ".join(parts) + " + O(z^%d)" % (self.order + 1)

    def __repr__(self):
        return "ZetaSeries(%s)" % self


def series_quotient(num, den, order):
    """The series s with den * s = num, through zeta^order.

    num and den are coefficient dicts {degree: QScalar} without zeros, num
    may hold negative degrees and den must not be empty.  With d0 the lowest
    degree of den, s starts at degree min(num) - d0 and each coefficient is
    s_n = (num_(n+d0) - sum_(k>=1) den_(d0+k) s_(n-k)) / den_d0, the sum
    running over the nonzero terms of den only.  The caller picks `order`
    so that the terms of den it needs, up to degree d0 + order - min(s), are
    known.
    """
    if not num:
        return ZetaSeries.zero(order)
    d0 = min(den)
    inv0 = den[d0].inverse()
    tail = [(k - d0, c) for k, c in den.items() if k != d0]
    lo = min(num) - d0
    out = {}
    for n in range(lo, order + 1):
        acc = num.get(n + d0, _QZERO)
        for k, c in tail:
            prev = out.get(n - k)
            if prev is not None:
                acc = acc - c * prev
        if acc:
            out[n] = acc * inv0
    return ZetaSeries(out, order, lo)


def series_exp(f):
    """exp of a series with strictly positive valuation.

    Uses the derivative recurrence e_n = (1/n) sum_k k f_k e_{n-k}; the
    partial sums of the naive term-by-term expansion drag large rational
    denominators through every convolution.
    """
    if f.coeffs and min(f.coeffs) < 1:
        raise ValueError("series_exp needs min degree >= 1 (no constant term)")
    order = f.order
    es = {0: _QONE}
    fk = f.coeffs
    for n in range(1, order + 1):
        acc = None
        for k, ck in fk.items():
            if k > n:
                continue
            prev = es.get(n - k)
            if prev is None:
                continue
            term = ck.scale(k) * prev
            acc = term if acc is None else acc + term
        if acc is not None and acc:
            es[n] = acc.scale(Fraction(1, n))
    return ZetaSeries(es, order, 0)


def series_log(g):
    """log of a series with constant term exactly 1 and no negative powers.

    Uses the derivative recurrence of g f' = g', n f_n = n g_n -
    sum_{k<n} k f_k g_{n-k}, as series_exp does.
    """
    if g.coeff(0) != _QONE or min(g.coeffs) < 0:
        raise ValueError("series_log needs constant term 1 and no negative "
                         "powers")
    gs = g.coeffs
    fs = {}
    for n in range(1, g.order + 1):
        acc = gs.get(n, _QZERO).scale(n)
        for k, fk in fs.items():
            gk = gs.get(n - k)
            if gk is not None:
                acc = acc - fk.scale(k) * gk
        if acc:
            fs[n] = acc.scale(Fraction(1, n))
    return ZetaSeries(fs, g.order)


def lambda_level(n, arg_scale, power, order):
    """lambda_n(arg_scale * zeta^power) truncated at `order`.

    lambda_n(x) = sum_{m>=1} x^m / ([n]_{q^m} m), defined for n = 2 and 3
    only; [2]_{q^m} = q^m + q^-m and [3]_{q^m} = q^(2m) + 1 + q^(-2m).
    """
    if n not in (2, 3):
        raise ValueError("lambda level must be 2 or 3")
    if power < 1:
        raise ValueError("series power must be >= 1")
    out = {}
    scale_pow = QScalar.ONE
    for m in range(1, order // power + 1):
        scale_pow = scale_pow * arg_scale
        denom = qint_base(n, 6 * m) * QScalar.from_int(m)
        out[m * power] = scale_pow / denom
    return ZetaSeries(out, order, power)
