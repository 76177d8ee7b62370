"""Exact coefficient field Q(t), with the deformation parameter q = t^6.

Working over Q(t) lets every fractional power of q that the constructions
need (q^(1/2) = t^3, q^(1/3) = t^2, q^(2/3) = t^4, q^(1/6) = t) live in a
single field without extension towers.  A QScalar is a reduced ratio of two
Laurent polynomials in t, kept in a canonical form so equality is plain
syntactic comparison.

A polynomial is a dict {exponent: coefficient}, and every coefficient is a
Python int.  Rational content lives in the denominator polynomial, so 1/2
is ({0: 1}, {0: 2}), and the kernel (products, exact quotients, gcds) runs
on integers only.  Fraction appears only where values enter (the
constructor, `from_fraction`, `q_power`) and where they are printed: `str`
divides by the leading coefficient of the denominator, so the printed
denominator is monic and `parse_qscalar` reads it back.

The sum, negation and convolution of sparse dicts {key: coefficient} with
no zero stored (`_p_add`, `_p_neg`, `_p_conv`) are generic over the key and
the coefficient kind, and serve every sparse dict of the package: the
polynomials here, the zeta-polynomials over Q(t) of the rationals and
series, the oscillator ring and matrix entries of linalg, and the
two-variable polynomials of the identity checks.  So is the one long
division, `_p_divmod`, which takes the coefficient quotient as an argument:
the exact quotient over Z (`_p_exquo`), GCDHEU's trial division, the PRS's
pseudo-remainder and the zeta-polynomial division of `rational` all call
it.  `_p_mul` multiplies the integer polynomials of this module, by
Kronecker substitution when they are large.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import floordiv

__all__ = [
    "QScalar", "q_power", "t_power", "qint", "parse_qscalar",
]


def _coeff(c):
    """Any exact number (int, Fraction, float, numeric string) as an int
    when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# -- sparse dicts {key: coefficient} -----------------------------------------
#
# `_p_conv` needs keys that add (exponents, packed exponents) and
# coefficients with no zero divisors, so no term of a monomial multiple
# vanishes.

def _p_add(a, b):
    out = dict(a)
    for k, c in b.items():
        if k in out:
            c = out[k] + c
            if not c:
                del out[k]
                continue
        out[k] = c
    return out


def _p_neg(a):
    return {k: -c for k, c in a.items()}


def _p_conv(a, b):
    if len(a) == 1:
        (ka, ca), = a.items()
        return {ka + k: ca * c for k, c in b.items()}
    if len(b) == 1:
        (kb, cb), = b.items()
        return {k + kb: c * cb for k, c in a.items()}
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            c = ca * cb
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
    return out


def _p_mul(a, b):
    """a * b for Laurent polynomials in t with integer coefficients."""
    if len(a) > 1 and len(b) > 1 and len(a) * len(b) >= _PACKED_MUL_MIN:
        return _p_mul_packed(a, b)
    return _p_conv(a, b)


# from this many term products on, one packed integer product is faster
# than the term-by-term loop (about 1.4x at 8 x 8 terms, 6x at 70 x 70)
_PACKED_MUL_MIN = 64


def _p_mul_packed(a, b):
    """a * b by Kronecker substitution: each operand is evaluated at
    t = 2^bits over its exponent stride, the two integers are multiplied,
    and the product's coefficients are read back as signed base-2^bits
    digits.  `bits` exceeds every product coefficient's size, so no digit
    overflows into the next."""
    la, lb = min(a), min(b)
    step = gcd(*(k - la for k in a), *(k - lb for k in b)) or 1
    bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
             * min(len(a), len(b)))
    bits = bound.bit_length() + 1
    pa = 0
    for k, c in a.items():
        pa += c << (bits * ((k - la) // step))
    pb = 0
    for k, c in b.items():
        pb += c << (bits * ((k - lb) // step))
    prod = pa * pb
    full = 1 << bits
    half = full >> 1
    mask = full - 1
    out = {}
    k = la + lb
    while prod:
        c = prod & mask
        if c >= half:
            c -= full
        if c:
            out[k] = c
        prod = (prod - c) >> bits
        k += step
    return out


def _p_shift(a, n):
    if n == 0:
        return dict(a)
    return {k + n: c for k, c in a.items()}


def _p_divmod(a, b, div):
    """(q, r) with a = q b + r and deg r < deg b, for sparse polynomials
    over any coefficient kind; div(c, lb) is the exact quotient of a
    coefficient by b's leading coefficient lb."""
    db = max(b)
    lb = b[db]
    tail = [(kb - db, cb) for kb, cb in b.items() if kb != db]
    r = dict(a)
    q = {}
    while r:
        dr = max(r)
        if dr < db:
            break
        c = q[dr - db] = div(r.pop(dr), lb)
        for kb, cb in tail:
            kk = kb + dr
            s = r.get(kk)
            s = -(cb * c) if s is None else s - cb * c
            if s:
                r[kk] = s
            else:
                del r[kk]
    return q, r


def _int_quo(c, lb):
    c, m = divmod(c, lb)
    if m:
        raise ArithmeticError("polynomial division is not exact")
    return c


def _p_exquo(a, b):
    """a / b over Z for ordinary polynomials; ArithmeticError unless b
    divides a with an integer quotient.  Every divisor in the package is a
    primitive gcd or a factor of an lcm built from the dividend's factors,
    so by Gauss's lemma an exact quotient over Q is one over Z."""
    if a == b:
        return {0: 1}
    q, r = _p_divmod(a, b, _int_quo)
    if r:
        raise ArithmeticError("polynomial division is not exact")
    return q


def _int_primitive(a):
    g = gcd(*a.values())
    if g == 1:
        return a
    return {k: c // g for k, c in a.items()}


def _prs_gcd(a, b):
    # primitive pseudo-remainder sequence over the integers: the remainder
    # of lb^(deg a - deg b + 1) a by b has an integer quotient on the way
    if max(a) < max(b):
        a, b = b, a
    while b:
        db = max(b)
        m = b[db] ** (max(a) - db + 1)
        r = _p_divmod({k: c * m for k, c in a.items()}, b, floordiv)[1]
        a, b = b, (_int_primitive(r) if r else {})
    return a


# -- GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989) ------------------
#
# Let f, g be primitive in Z[x], N = min(max|f_i|, max|g_i|), G = gcd(f, g)
# in Z[x], and xi >= 2N + 2.  Every root r of G is a root of f and of g, so
# |r| < 1 + N <= xi/2 (Cauchy), hence |K(xi)| > (xi/2)^deg K >= xi/2 for any
# non-constant integer factor K of G.  Interpolating h = gcd(f(xi), g(xi))
# with symmetric residues gives P with P(xi) = h and every coefficient, so
# also the content of P, of modulus at most xi/2.  G(xi) divides h, so:
#   * a constant P leaves no room for a non-constant G: gcd(f, g) = 1;
#   * if H = pp(P) divides f and g, then G = H K with K(xi) dividing the
#     content of P, so K is constant and H is the gcd.
# A non-constant P that fails the division is retried at a larger xi, and
# after _HEU_TRIES failures the gcd is left to the PRS.  The stride of the
# exponents is divided out first: gcd(f(x^s), g(x^s)) = gcd(f, g)(x^s).

_HEU_TRIES = 6


def _dense(p, stride):
    out = [0] * (max(p) // stride + 1)
    for k, c in p.items():
        out[k // stride] = c
    return out


def _eval(f, xi):
    v = 0
    for c in reversed(f):
        v = v * xi + c
    return v


def _interpolate(h, xi):
    half = xi // 2
    out = []
    while h:
        c = h % xi
        if c > half:
            c -= xi
        out.append(c)
        h = (h - c) // xi
    return out


def _heu_gcd(a, b):
    """gcd of two primitive integer polynomials, primitive with a positive
    leading coefficient, or None when the heuristic gives up."""
    stride = gcd(*a, *b)
    f = _dense(a, stride)
    g = _dense(b, stride)
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(_HEU_TRIES):
        p = _interpolate(gcd(_eval(f, xi), _eval(g, xi)), xi)
        if len(p) == 1:
            return {0: 1}
        cont = gcd(*p)
        if p[-1] < 0:
            cont = -cont
        h = {j * stride: c // cont for j, c in enumerate(p) if c}
        try:
            _p_exquo(a, h)
            _p_exquo(b, h)
            return h
        except ArithmeticError:
            xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


_ONE_POLY = {0: 1}
_GCD_CACHE = {}
_GCD_CACHE_LIMIT = 1 << 16


def _p_gcd(a, b):
    # gcd over Q of ordinary integer polynomials, as the primitive one with
    # a positive leading coefficient: GCDHEU on the primitive parts, with
    # the primitive PRS when the heuristic gives up; memoized because the
    # same denominators recur constantly
    if len(a) == 1 or len(b) == 1:
        return _ONE_POLY
    key = (tuple(sorted(a.items())), tuple(sorted(b.items())))
    hit = _GCD_CACHE.get(key)
    if hit is not None:
        return hit
    ia = _int_primitive(a)
    ib = _int_primitive(b)
    g = _heu_gcd(ia, ib)
    if g is None:
        g = _prs_gcd(ia, ib)
    top = max(g)
    out = _ONE_POLY if top == 0 else (_p_neg(g) if g[top] < 0 else g)
    if len(_GCD_CACHE) < _GCD_CACHE_LIMIT:
        _GCD_CACHE[key] = out
    return out


def _content_reduced(num, den):
    """num / den with the integer content common to both divided out and
    a positive leading coefficient on den; a den of 1 is _ONE_POLY."""
    g = gcd(*den.values())
    if g != 1:
        g = gcd(g, *num.values())
    if den[max(den)] < 0:
        g = -g
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den = {k: c // g for k, c in den.items()}
    return num, (_ONE_POLY if den == _ONE_POLY else den)


def _reduce_pair(num, den):
    """num / den with gcd(num, den) stripped, over Q[t] and then over Z;
    num Laurent, den an ordinary polynomial with a nonzero constant term."""
    if den is _ONE_POLY or not num:
        return num, den
    sn = min(num)
    pn = _p_shift(num, -sn)
    g = _p_gcd(pn, den)
    if g is not _ONE_POLY:
        num = _p_shift(_p_exquo(pn, g), sn)
        den = _p_exquo(den, g)
    return _content_reduced(num, den)


class QScalar:
    """Element of Q(t) in canonical form.

    Canonical means: num is in Z[t, t^-1] and den in Z[t] with a nonzero
    constant term and a positive leading coefficient; gcd(num, den) = 1
    over Q[t], and the integer coefficients of num and den together have
    gcd 1.  Zero is ({}, {0: 1}), and a den of 1 is always the shared
    _ONE_POLY, which marks the integer fast paths.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _ONE_POLY
        if _canonical:
            self.num = num
            self.den = den
            return
        self.num, self.den = _normalize(num, den)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_fraction(f):
        f = _coeff(f)
        if not f:
            return ZERO
        if type(f) is int:
            return QScalar({0: f}, _ONE_POLY, _canonical=True)
        return QScalar({0: f.numerator}, {0: f.denominator}, _canonical=True)

    from_int = from_fraction

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == _ONE_POLY and self.den == _ONE_POLY

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den is _ONE_POLY and other.den is _ONE_POLY:
            return QScalar(_p_add(self.num, other.num), _ONE_POLY,
                           _canonical=True)
        if self.den == other.den:
            num, den = _p_add(self.num, other.num), self.den
        else:
            g = _p_gcd(self.den, other.den)
            if g is _ONE_POLY:
                # coprime denominators: the sum is reduced over Q[t]
                num = _p_add(_p_mul(self.num, other.den),
                             _p_mul(other.num, self.den))
                if not num:
                    return ZERO
                num, den = _content_reduced(num, _p_mul(self.den, other.den))
                return QScalar(num, den, _canonical=True)
            da = _p_exquo(self.den, g)
            db = _p_exquo(other.den, g)
            num = _p_add(_p_mul(self.num, db), _p_mul(other.num, da))
            den = _p_mul(self.den, db)
        if not num:
            return ZERO
        # num may share a factor with the common part of the denominators
        return QScalar(*_reduce_pair(num, den), _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.__add__(QScalar(_p_neg(other.num), other.den, _canonical=True))

    def __neg__(self):
        return QScalar(_p_neg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self.den is _ONE_POLY and other.den is _ONE_POLY:
            return QScalar(_p_mul(self.num, other.num), _ONE_POLY, _canonical=True)
        # cross-cancel: both operands are reduced, so after stripping
        # gcd(num_a, den_b) and gcd(num_b, den_a), polynomial and integer,
        # the product is reduced (Gauss: contents multiply)
        na, db = _reduce_pair(self.num, other.den)
        nb, da = _reduce_pair(other.num, self.den)
        den = da if db is _ONE_POLY else (db if da is _ONE_POLY else _p_mul(da, db))
        return QScalar(_p_mul(na, nb), den, _canonical=True)

    def __truediv__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.__mul__(other.inverse())

    def inverse(self):
        # swapping a reduced pair keeps it reduced; only the sign of the new
        # denominator's leading coefficient may need turning
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(t)")
        sn = min(self.num)
        den = _p_shift(self.num, -sn)
        num = _p_shift(self.den, -sn)
        if den[max(den)] < 0:
            den = _p_neg(den)
            num = _p_neg(num)
        if den == _ONE_POLY:
            den = _ONE_POLY
        return QScalar(num, den, _canonical=True)

    def scale(self, f):
        return self * QScalar.from_fraction(f)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            if other == 0:
                return not self.num
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        # printed with a monic denominator, the form parse_qscalar reads
        num, den = self.num, self.den
        lc = den[max(den)]
        if lc != 1:
            num = {k: _coeff(Fraction(c, lc)) for k, c in num.items()}
            den = {k: _coeff(Fraction(c, lc)) for k, c in den.items()}
        return "(%s)/(%s)" % (_poly_str(num), _poly_str(den))

    def __repr__(self):
        return "QScalar(%s)" % self


def _normalize(num, den):
    """The canonical pair for num / den.  This is where values enter: any
    exact coefficients (int, Fraction, float, numeric string) are cleared
    here, once, to integers over a common denominator."""
    if any(type(c) is not int for p in (num, den) for c in p.values()):
        num = {k: Fraction(c) for k, c in num.items()}
        den = {k: Fraction(c) for k, c in den.items()}
        d = lcm(*(c.denominator for p in (num, den) for c in p.values()))
        num = {k: c.numerator * (d // c.denominator) for k, c in num.items()}
        den = {k: c.numerator * (d // c.denominator) for k, c in den.items()}
    num = {k: c for k, c in num.items() if c}
    den = {k: c for k, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator in Q(t)")
    if not num:
        return {}, _ONE_POLY
    if den == _ONE_POLY:
        return num, _ONE_POLY
    # t^sd, the monomial content of den, moves to num
    sd = min(den)
    return _reduce_pair(_p_shift(num, -sd), _p_shift(den, -sd))


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for k in sorted(p):
        c = p[k]
        if k == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append("t^%d" % k)
        elif c == -1:
            parts.append("-t^%d" % k)
        else:
            parts.append("%s*t^%d" % (c, k))
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


ZERO = QScalar({}, _ONE_POLY, _canonical=True)
ONE = QScalar(_ONE_POLY, _ONE_POLY, _canonical=True)

QScalar.ZERO = ZERO
QScalar.ONE = ONE


def t_power(k):
    """The monomial t^k."""
    return QScalar({k: 1}, _ONE_POLY, _canonical=True)


def q_power(k):
    """q^k for k integer or Fraction with denominator dividing 6."""
    if isinstance(k, int):
        return t_power(6 * k)
    e = Fraction(k) * 6
    if e.denominator != 1:
        raise ValueError("q^(%s) does not live in Q(t) with q = t^6" % (k,))
    return t_power(int(e))


# -- q-numbers ---------------------------------------------------------------

def qint(n):
    """The symmetric q-integer (q^n - q^-n)/(q - q^-1)."""
    return qint_base(n, 6)


def qint_base(n, base_t_exp):
    """[n] evaluated at q -> t^base_t_exp, still inside Q(t): for m = |n|
    the sum q^(m-1) + q^(m-3) + ... + q^(1-m), negated when n < 0."""
    if n == 0:
        return ZERO
    sign = 1 if n > 0 else -1
    m = abs(n)
    p = {}
    for i in range(m):
        k = base_t_exp * (m - 1 - 2 * i)
        p[k] = p.get(k, 0) + 1
    p = {k: c for k, c in p.items() if c}
    out = QScalar(p)
    return out if sign > 0 else -out


# -- parsing of the canonical string form ------------------------------------

def _parse_poly(s):
    s = s.strip()
    if s == "0":
        return {}
    s = s.replace("- ", "+ -").replace("-t^", "-1*t^")
    out = {}
    for term in s.split("+"):
        term = term.strip()
        if not term:
            continue
        if "t^" in term:
            if "*" in term:
                cs, ts = term.split("*")
                c = _coeff(cs)
            else:
                c = 1
                ts = term
            k = int(ts[2:])
        else:
            c = _coeff(term)
            k = 0
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def parse_qscalar(s):
    """Inverse of str(QScalar); round-trips bit-exactly."""
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("malformed scalar string: %r" % s)
    depth = 0
    split = -1
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i + 1 < len(s) and s[i + 1] == "/":
                split = i
                break
    if split < 0:
        raise ValueError("malformed scalar string: %r" % s)
    num = _parse_poly(s[1:split])
    den = _parse_poly(s[split + 3:-1])
    return QScalar(num, den)
