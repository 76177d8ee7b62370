"""The q-oscillator ring written out term by term, as an oracle for
`qaffine.linalg.OscPoly`.

`linalg.OscPoly` keys each term c S_delta x^kappa u^i v^j t^k of the
q-oscillator ring over Z[t^(+-1)][u^(+-1), v^(+-1)] by one packed integer.
Here the same arithmetic is spelled out: `OscElement` holds normal forms
sum c S_delta x^kappa as {(delta, kappa): c} over any coefficient ring,
`TupleLaurent2` keys each coefficient term c u^i v^j t^k by its own
(i, j, k), with no bound on their size, and `nested` takes a flat element
to an `OscElement` over it, with the packed key decoded digit by digit
here (`split_key`), so the q-twisted product is the generic one of
`OscElement`.  Only the tests build these.
"""

from operator import add, mul

from qaffine import linalg
from qaffine.scalars import QScalar


class OscElement:
    """An element sum c S_delta x^kappa of the q-oscillator ring on a fixed
    number of Fock copies, as {(delta, kappa): c} with no zero c stored.
    x^kappa = q^(kappa . D) acts first and S_delta sends state n to
    n + delta, so (S_d x^k)(S_e x^l) = q^(k . e) S_(d + e) x^(k + l).  The
    coefficients are of any kind with ring operators; `qpow(m)` is q^m
    among them."""

    __slots__ = ("terms", "qpow")

    def __init__(self, terms, qpow):
        self.terms = terms
        self.qpow = qpow

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            c = out[key] + c if key in out else c
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return OscElement(out, self.qpow)

    def __neg__(self):
        return OscElement({key: -c for key, c in self.terms.items()},
                          self.qpow)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        qpow = self.qpow
        out = {}
        for (d1, k1), c1 in self.terms.items():
            for (d2, k2), c2 in other.terms.items():
                c = c1 * c2
                m = sum(map(mul, k1, d2))
                if m:
                    c = c * qpow(m)
                key = (tuple(map(add, d1, d2)), tuple(map(add, k1, k2)))
                if key in out:
                    c = out[key] + c
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return OscElement(out, qpow)

    def map(self, fn):
        """fn applied to every coefficient, zeros dropped."""
        out = {}
        for key, c in self.terms.items():
            c = fn(c)
            if c:
                out[key] = c
        return OscElement(out, self.qpow)

    def __eq__(self, other):
        return isinstance(other, OscElement) and self.terms == other.terms


class TupleLaurent2:
    """A Laurent polynomial in u, v over Z[t^(+-1)]: {(i, j, k): int} for
    the terms c u^i v^j t^k, with no zero coefficient stored."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return TupleLaurent2(out)

    def __neg__(self):
        return TupleLaurent2({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for (i, j, k), a in self.terms.items():
            for (l, m, n), b in other.terms.items():
                key = (i + l, j + m, k + n)
                s = out.get(key, 0) + a * b
                if s:
                    out[key] = s
                else:
                    del out[key]
        return TupleLaurent2(out)

    def __eq__(self, other):
        return isinstance(other, TupleLaurent2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        # each coefficient of u^i v^j printed as the QScalar it is
        groups = {}
        for (i, j, k), c in self.terms.items():
            groups.setdefault((i, j), {})[k] = c
        return " + ".join("%s*u^%d*v^%d" % (QScalar(p, _canonical=True), i, j)
                          for (i, j), p in sorted(groups.items())) or "0"


TupleLaurent2.ONE = TupleLaurent2({(0, 0, 0): 1})


def tuple_qpow(m):
    """q^m = t^(6 m) among the coefficients."""
    return TupleLaurent2({(0, 0, 6 * m): 1})


# the packed key: seven signed digits, (delta_1, delta_2, kappa_1, kappa_2)
# in base E above (i, j, k) in base B
B, E = linalg._KEY_BASE, linalg._DIGIT_BASE


def flat_key(delta, kappa, ijk):
    """The packed key of c S_delta x^kappa u^i v^j t^k on one or two
    copies, a one-copy term with the second copy's digits 0."""
    pad = (0,) * (2 - len(delta))
    key = 0
    for x in (*delta, *pad, *kappa, *pad):
        key = key * E + x
    for x in ijk:
        key = key * B + x
    return key


def split_key(key, copies):
    """(delta, kappa, (i, j, k)) of a packed key on `copies` copies."""
    digits = []
    for base in (B, B, B, E, E, E, E):
        key, d = divmod(key + base // 2, base)
        digits.append(d - base // 2)
    k, j, i, k2, k1, d2, d1 = digits
    return (d1, d2)[:copies], (k1, k2)[:copies], (i, j, k)


def flat(x):
    """An OscElement over TupleLaurent2 as a `linalg.OscPoly`."""
    return linalg.OscPoly({flat_key(delta, kappa, ijk): c
                             for (delta, kappa), p in x.terms.items()
                             for ijk, c in p.terms.items()})


def nested(x, copies):
    """A `linalg.OscPoly` on `copies` copies as an OscElement
    {(delta, kappa): TupleLaurent2}."""
    terms = {}
    for key, c in x.terms.items():
        delta, kappa, ijk = split_key(key, copies)
        terms.setdefault((delta, kappa), {})[ijk] = c
    return OscElement({dk: TupleLaurent2(p) for dk, p in terms.items()},
                      tuple_qpow)


def nested_matrix(m, copies):
    """A matrix over `linalg.OscPoly` as one over OscElement."""
    zero = (0,) * copies
    return m.map_values(lambda x: nested(x, copies), OscElement(
        {(zero, zero): TupleLaurent2.ONE}, tuple_qpow))
