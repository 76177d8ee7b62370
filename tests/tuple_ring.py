"""The two-variable ring of the identity checks with one (i, j, k) tuple
key per term c u^i v^j t^k.

An oracle for `qaffine.verify._Laurent2`, which keys each term by one
packed integer: the same arithmetic, with each exponent its own field and
no bound on its size.  Only the tests build it.
"""

from qaffine.scalars import QScalar


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
