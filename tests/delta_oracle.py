"""The root vectors along delta one level at a time: a test oracle.

This is the recursion the engine ran before it kept each family along
delta as its first vector and one weight per row.  Every vector is a rule
read at a leg state on first request, as in the engine; here each step
along delta is its own rule, reading the vector below it, and each
imaginary level m >= 2 is its own bracket [e_(gamma + (m-1) delta),
e_(delta - gamma)]_(q^-2).  Only the generator rows come from the engine.
"""

from functools import lru_cache

from qaffine.engine import _generators
from qaffine.rootsys import finite_positive
from qaffine.scalars import QScalar, q_power, qint

C = q_power(1) - q_power(-1)
INV2 = qint(2).inverse()


class Rule(dict):
    """A real root vector as a memoised partial map with its zeta power:
    self[x] is (y, v) or None."""

    def __init__(self, zexp, rule):
        super().__init__()
        self.zexp, self.rule = zexp, rule

    def __missing__(self, x):
        hit = self[x] = self.rule(x)
        return hit


def bracket(x, y, p):
    """The rule of x y - q^p y x; entries in two columns raise."""
    c = -q_power(p)

    def rule(i):
        out = None
        for a, b, w in ((x, y, None), (y, x, c)):
            hit = a[i]
            hit2 = hit and b[hit[0]]
            if hit2:
                v = hit[1] * hit2[1] * w if w else hit[1] * hit2[1]
                if out is None:
                    out = (hit2[0], v)
                elif out[0] == hit2[0]:
                    out = (out[0], out[1] + v)
                else:
                    raise ValueError("two entries in one row")
        return out if out and out[1] else None
    return rule


def eigenvalues(rule):
    """The eigenvalue at each state of a vector that must be diagonal."""
    @lru_cache(maxsize=None)
    def at(x):
        hit = rule(x)
        if hit is None:
            return QScalar.ZERO
        if hit[0] != x:
            raise ValueError("not diagonal")
        return hit[1]
    return at


def step(below, d, h):
    """The rule one step along delta above `below`: row x weighed by (d_y -
    d_x) h, a zero weight dropping the entry."""
    def rule(x):
        hit = below[x]
        if hit is None:
            return None
        w = (d(hit[0]) - d(x)) * h
        return (hit[0], hit[1] * w) if w else None
    return rule


def level_tables(image, side, m_max):
    """(real, diags): real maps (finite part, m) to a `Rule`, diags[i][m - 1]
    takes a state to c e'_(m delta) of simple root i (c = q - q^-1,
    negated on the f side), level by level."""
    sgn = 1 if side == "e" else -1

    def br(x, y, p):
        return bracket(x, y, p) if sgn > 0 else bracket(y, x, -p)

    gen = [Rule(sgn * z, rule)
           for z, rule in zip(image.exps, _generators(image, side))]
    if image.algebra == "a1":
        real = {((1,), 0): gen[1], ((-1,), 1): gen[0]}
    else:
        e0, ea, eb = gen
        real = {((1, 0), 0): ea, ((0, 1), 0): eb, ((-1, -1), 1): e0,
                ((1, 1), 0): Rule(ea.zexp + eb.zexp, br(ea, eb, -1)),
                ((-1, 0), 1): Rule(eb.zexp + e0.zexp, br(eb, e0, -1)),
                ((0, -1), 1): Rule(ea.zexp + e0.zexp, br(ea, e0, -1))}
    c = C if sgn > 0 else -C
    half = INV2 if sgn > 0 else -INV2
    diags = []
    for gamma in finite_positive(image.algebra):
        minus = tuple(-g for g in gamma)
        first, second = real[(gamma, 0)], real[(minus, 1)]
        zdelta = first.zexp + second.zexp
        d = eigenvalues(br(first, second, -2))
        for root, m0, h in ((gamma, 0, half), (minus, 1, -half)):
            vec = real[(root, m0)]
            for m in range(m0 + 1, m0 + m_max + 1):
                vec = real[(root, m)] = Rule(vec.zexp + zdelta,
                                             step(vec, d, h))
        if sum(gamma) > 1:
            continue
        levels = [d if m == 1 else eigenvalues(
            br(real[(gamma, m - 1)], second, -2))
            for m in range(1, m_max + 1)]
        diags.append([lambda x, v=level: v(x) * c for level in levels])
    return real, diags
