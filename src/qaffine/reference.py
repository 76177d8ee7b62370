"""Closed-form reference matrices, parameterized by the spectral exponents.

Every printed R-matrix and L-operator is transcribed here over the exact
rational backend.  The transcendental scalar in front of each object (a
power of q times an exponential of lambda-function combinations) is kept
as a structured tag; rational scalar pieces are folded into the entries,
so the stored matrix times the tag is the honest object.

Each L-operator is the image of the universal R-matrix in the
q-oscillator algebra, so it is transcribed as a table of oscillator
monomials zeta^e c L_delta q^(kappa . D) (`LTable`), on which tau acts.
Its one algebraic form is a matrix over the q-oscillator ring of normal
forms sum c S_delta x^kappa (`linalg.OscElement`), inverted by one
elimination with unit pivots c x^kappa (`grid_inverse`) and rendered on
d Fock states per copy one state at a time, with no matrix product
(`render`).  The ordered factors the source derivation lists for some
L-operators are an oracle for these closed forms and live with the tests
(`tests/derivation_factors.py`).

Also here: the constant exchange matrices of the spectral-linear
decomposition.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product
from operator import mul

from .scalars import QScalar, _ONE_POLY, q_power, t_power
from .series import ZetaSeries, lambda_level
from .rational import ZetaRational
from .linalg import OpMatrix, OscElement, Grid

__all__ = [
    "PrefactorTag", "ReferenceObject", "LTable", "reference_matrix",
    "l_table", "l_tag", "list_variants", "r0_hat_matrix", "render",
    "grid_inverse", "op_inverse", "NoPivotError", "exponent_tuple",
]

ONE = QScalar.ONE
C = q_power(1) - q_power(-1)


class PrefactorTag:
    """q-power times exp of a signed sum of lambda functions.

    Each term is (level, scale_t_exponent, argument_zeta_exponent, sign),
    standing for sign * lambda_level(t^scale * zeta^arg).
    """

    __slots__ = ("t_power", "terms")

    def __init__(self, t_power=0, terms=()):
        merged = {}
        for (n, sc, arg, sg) in terms:
            key = (n, sc, arg)
            merged[key] = merged.get(key, 0) + sg
        self.t_power = t_power
        self.terms = tuple(sorted((n, sc, arg, sg)
                                  for (n, sc, arg), sg in merged.items() if sg))

    def subs_zeta_power(self, k):
        return PrefactorTag(self.t_power,
                            tuple((n, sc, arg * k, sg)
                                  for (n, sc, arg, sg) in self.terms))

    def is_trivial(self):
        return self.t_power == 0 and not self.terms

    def log_series(self, order):
        """T, the signed sum of lambda functions: the tag is t^p exp(T)."""
        if any(arg < 1 for (_, _, arg, _) in self.terms):
            raise ValueError("tag with non-positive argument exponents has "
                             "no expansion about zero")
        total = ZetaSeries.zero(order)
        for (n, sc, arg, sg) in self.terms:
            lam = lambda_level(n, t_power(sc), arg, order)
            for _ in range(abs(sg)):
                total = total + lam if sg > 0 else total - lam
        return total

    def __eq__(self, other):
        if not isinstance(other, PrefactorTag):
            return NotImplemented
        return self.t_power == other.t_power and self.terms == other.terms

    def __repr__(self):
        return "PrefactorTag(t^%d, %s)" % (self.t_power, list(self.terms))


class ReferenceObject:
    """A transcribed closed form: tag * matrix."""

    __slots__ = ("kind", "algebra", "variant", "exps", "tag", "matrix",
                 "l_type", "fock_dim", "copies")

    def __init__(self, kind, algebra, variant, exps, tag, matrix,
                 l_type=None, fock_dim=None, copies=0):
        self.kind = kind
        self.algebra = algebra
        self.variant = variant
        self.exps = exps
        self.tag = tag
        self.matrix = matrix
        self.l_type = l_type
        self.fock_dim = fock_dim
        self.copies = copies

    @property
    def leg_dim(self):
        return 2 if self.algebra == "a1" else 3

    def expand(self, order):
        """Flattened series matrix without the tag; L-operators flatten with
        the oscillator leg slowest for hat type and fastest for check
        type."""
        expanded = self.matrix.map_values(lambda v: v.to_series(order),
                                          ZetaSeries.one(order))
        if self.kind == "r":
            return expanded
        return expanded.flatten(op_leg_first=(self.l_type == "hat"))

    def __repr__(self):
        return "ReferenceObject(%s, %s, %s, exps=%s)" % (
            self.kind, self.algebra, self.variant, (self.exps,))


# -- R-matrices --------------------------------------------------------------

def _r_matrix(algebra, s, s1, s2):
    """sum_a E_aa x E_aa + sum_(a != b) (g E_aa x E_bb + c_ab E_ab x E_ba)
    with g = q^-1 (1 - zeta^s) / (1 - q^-2 zeta^s) and c_ab = (1 - q^-2)
    zeta^(w_ab) / (1 - q^-2 zeta^s): w_ab sums s_a .. s_(b-1) of (s1, s2)
    for a < b, and w_ba = s - w_ab."""
    n = 2 if algebra == "a1" else 3
    den = {0: ONE, s: -q_power(-2)}
    g_diag = ZetaRational({0: q_power(-1), s: -q_power(-1)}, den)
    w = lambda a, b: sum((s1, s2)[a:b]) if a < b else s - w(b, a)
    # E_ab x E_cd is the unit at (a n + c, b n + d), indices from 0
    entries = {}
    for a in range(n):
        entries[(a * n + a, a * n + a)] = ZetaRational.ONE
        for b in range(n):
            if a != b:
                entries[(a * n + b, a * n + b)] = g_diag
                entries[(a * n + b, b * n + a)] = ZetaRational(
                    {w(a, b): ONE - q_power(-2)}, den)
    mat = OpMatrix(n * n, entries, ZetaRational.ONE, _clean=True)
    if n == 2:
        return ReferenceObject("r", algebra, "plain", (s, s1), PrefactorTag(
            3, ((2, 6, s, 1), (2, -6, s, -1))), mat)
    return ReferenceObject("r", algebra, "plain", (s, s1, s2), PrefactorTag(
        4, ((3, 12, s, 1), (3, -12, s, -1))), mat)


# -- L-operators as oscillator monomials -------------------------------------

@lru_cache(maxsize=None)
def _zeta_q(m):
    """q^m as a one-variable rational."""
    return ZetaRational({0: q_power(m)}, _canonical=True)


class LTable(namedtuple("LTable", "n copies terms divisor")):
    """A transcribed L-operator as q-oscillator monomials on `copies` Fock
    copies: grid position (a, b) of the n x n grid holds terms
    (e, c, delta, kappa), each zeta^e c L_delta q^(kappa . D), where
    q^(kappa . D) acts first and L_delta applies a (delta_i = -1),
    a-dagger (+1) or 1 on copy i.  c is a signed power of t and kappa holds
    integer q-exponents.  With `divisor` set, every entry is divided by
    1 - zeta^divisor."""

    __slots__ = ()

    def tau(self):
        """The anti-involution a <-> a-dagger at reflected argument: since
        q^(kappa.D) L_-delta = q^(-kappa.delta) L_-delta q^(kappa.D), term
        (e, c, delta, kappa) goes to (-e, c q^(-kappa.delta), -delta,
        kappa).  A term has at most one ladder per copy, and tau(a) =
        a-dagger, tau(a-dagger) = a hold on the truncated space, so the
        image is exact there."""
        return LTable(self.n, self.copies, {
            ab: tuple((-e, c * q_power(-sum(map(mul, kappa, delta))),
                       tuple(-x for x in delta), kappa)
                      for e, c, delta, kappa in terms)
            for ab, terms in self.terms.items()},
            None if self.divisor is None else -self.divisor)

    def ring(self):
        """The operator as an n x n OpMatrix over the oscillator ring, with
        one-variable rational coefficients and no Fock dimension: a lowered
        copy i contributes a = S_-1 (1 - x_i^2), so each term expands into
        one monomial per subset of its lowered copies."""
        den = None if self.divisor is None else {0: ONE, self.divisor: -ONE}
        ops = {}
        for ab, terms in self.terms.items():
            polys = {}
            for e, c, delta, kappa in terms:
                for bits in product(*((0, 1) if x < 0 else (0,)
                                      for x in delta)):
                    key = (delta, tuple(k + 2 * b
                                        for k, b in zip(kappa, bits)))
                    poly = polys.setdefault(key, {})
                    v = -c if sum(bits) % 2 else c
                    poly[e] = poly[e] + v if e in poly else v
            coeffs = {key: ZetaRational(p, den) if den else ZetaRational(p)
                      for key, p in polys.items()}
            ops[ab] = OscElement({key: c for key, c in coeffs.items() if c},
                                 _zeta_q)
        zero = (0,) * self.copies
        return OpMatrix(self.n, ops, OscElement(
            {(zero, zero): ZetaRational.ONE}, _zeta_q))


def _a1_table(variant, s, s1):
    e01, e10 = (s - s1, s1) if variant.startswith("hat") else (s1, s - s1)
    plain = ((0, ONE, (0,), (1,)),)
    mixed = ((0, ONE, (0,), (-1,)), (s, -ONE, (0,), (1,)))
    # a q^-D above the diagonal and a-dagger q^D below it; the twisted
    # forms swap the two ladders and the two diagonal entries
    twisted = variant.endswith("twisted")
    x = -1 if twisted else 1
    return LTable(2, 1, {(0, 0): mixed if twisted else plain,
                         (0, 1): ((e01, ONE, (-x,), (-x,)),),
                         (1, 0): ((e10, ONE, (x,), (x,)),),
                         (1, 1): plain if twisted else mixed}, None)


def _a2_table(variant, s, s1, s2):
    q, s12 = q_power, s1 + s2
    if variant == "hat-1":
        terms = {
            (0, 0): ((0, ONE, (0, 0), (1, 0)),),
            (0, 1): ((s - s1, q(-2), (-1, 0), (-1, -1)),),
            (0, 2): ((s - s12, ONE, (-1, -1), (-1, -3)),),
            (1, 0): ((s1, ONE, (1, 0), (1, 0)),),
            (1, 1): ((0, ONE, (0, 0), (-1, 1)), (s, -q(-2), (0, 0), (1, -1))),
            (1, 2): ((s - s2, -ONE, (0, -1), (1, -3)),),
            (2, 1): ((s2, ONE, (0, 1), (0, 1)),),
            (2, 2): ((0, ONE, (0, 0), (0, -1)),),
        }
    elif variant == "hat-2":
        terms = {
            (0, 0): ((0, ONE, (0, 0), (1, 0)), (s, -q(-2), (0, 0), (-1, 0))),
            (0, 1): ((s - s1, -ONE, (-1, 0), (-3, 1)),),
            (0, 2): ((s - s12, -ONE, (-1, -1), (-1, -1)),),
            (1, 0): ((s1, ONE, (1, 0), (1, 0)),),
            (1, 1): ((0, ONE, (0, 0), (-1, 1)),),
            (1, 2): ((s - s2, ONE, (0, -1), (1, -1)),),
            (2, 0): ((s12, q(-1), (1, 1), (0, 0)),),
            (2, 1): ((s2, ONE, (0, 1), (-2, 1)),),
            (2, 2): ((0, ONE, (0, 0), (0, -1)), (s, -ONE, (0, 0), (0, 1))),
        }
    elif variant == "check-1":
        terms = {
            (0, 0): ((0, ONE, (0, 0), (1, 0)),),
            (0, 1): ((s1, ONE, (-1, 0), (-1, 1)),),
            (1, 0): ((s - s1, q(-2), (1, 0), (1, -2)),),
            (1, 1): ((0, ONE, (0, 0), (-1, 1)), (s, -q(-2), (0, 0), (1, -1))),
            (1, 2): ((s2, ONE, (0, -1), (1, -1)),),
            (2, 0): ((s - s12, q(-3), (1, 1), (0, -2)),),
            (2, 1): ((s - s2, -q(-2), (0, 1), (0, -1)),),
            (2, 2): ((0, ONE, (0, 0), (0, -1)),),
        }
    elif variant == "check-2":
        terms = {
            (0, 0): ((0, ONE, (0, 0), (1, 0)), (s, -q(-2), (0, 0), (-1, 0))),
            (0, 1): ((s1, ONE, (-1, 0), (-1, 1)),),
            (0, 2): ((s12, ONE, (-1, -1), (-1, -1)),),
            (1, 0): ((s - s1, -q(-2), (1, 0), (-1, 0)),),
            (1, 1): ((0, ONE, (0, 0), (-1, 1)),),
            (1, 2): ((s2, ONE, (0, -1), (-1, -1)),),
            (2, 0): ((s - s12, -q(-1), (1, 1), (0, 0)),),
            (2, 1): ((s - s2, ONE, (0, 1), (0, 1)),),
            (2, 2): ((0, ONE, (0, 0), (0, -1)), (s, -ONE, (0, 0), (0, 1))),
        }
    elif variant == "check-inv":
        terms = {
            (0, 0): ((0, q(2), (0, 0), (1, 0)), (s, -ONE, (0, 0), (-1, 0))),
            (0, 1): ((s1, ONE, (-1, 0), (1, 0)),),
            (0, 2): ((s12, q(-1), (-1, -1), (0, 0)),),
            (1, 0): ((s - s1, ONE, (1, 0), (-1, -1)),),
            (1, 1): ((s, -ONE, (0, 0), (1, -1)),),
            (1, 2): ((s2, -ONE, (0, -1), (0, -1)),),
            (2, 0): ((s - s12, -ONE, (1, 1), (-1, -1)),),
            (2, 1): ((s - s2, ONE, (0, 1), (1, -1)),),
            (2, 2): ((0, ONE, (0, 0), (0, -1)), (s, -ONE, (0, 0), (0, 1))),
        }
    else:
        raise ValueError("unknown rank-2 variant %r" % (variant,))
    # hat-2, check-2 and check-inv share the divisor 1 - zeta^s
    return LTable(3, 2, terms, None if variant.endswith("-1") else s)


def l_table(algebra, variant, exps):
    """The table of a transcribed L-operator at the exponents `exps`,
    (s, s1) or (s, s1, s2).  hat-2-inv, the reflected inverse of hat-2,
    has none.  s = 0 is rejected: it would merge the zeta^0 and zeta^s
    terms."""
    if exps[0] == 0:
        raise ValueError("the spectral exponent s must be nonzero")
    if algebra == "a1":
        return _a1_table(variant, *exps)
    return _a2_table(variant, *exps)


# the lambda term (level, scale_t_exponent, zeta exponent / s, sign) of the
# prefactor tag of each L-operator; (2, -6, 1, 1) for every rank-1 one
_L_TAGS = {"hat-1": (3, -12, 1, 1), "check-1": (3, -12, 1, 1),
           "hat-2": (3, 12, 1, -1), "check-2": (3, 12, 1, -1),
           "check-inv": (3, -12, -1, -1)}


def l_tag(variant, s):
    """The prefactor tag of a tabled L-operator at spectral exponent s."""
    n, sc, k, sg = _L_TAGS.get(variant, (2, -6, 1, 1))
    return PrefactorTag(0, ((n, sc, k * s, sg),))


_L_VARIANTS = {
    "a1": ("hat", "hat-twisted", "check", "check-twisted"),
    "a2": ("hat-1", "hat-2", "check-1", "check-2", "check-inv", "hat-2-inv"),
}


def list_variants():
    return [("r", "a1", "plain"), ("r", "a2", "plain")] + [
        ("l", algebra, v) for algebra, variants in _L_VARIANTS.items()
        for v in variants]


def exponent_tuple(algebra, s, s1, s2):
    """The exponents of an object: (s, s1) for a1, (s, s1, s2) for a2."""
    return (s, s1) if algebra == "a1" else (s, s1, s2)


def render(m, d):
    """An n x n OpMatrix over the oscillator ring as the Grid of its
    operators on d Fock states per copy, the first copy slowest: the term
    c S_delta x^kappa sends state n to n + delta with the weight
    c q^(kappa . n), a shift of the t-exponents of c (q = t^6), and is
    dropped where n + delta leaves 0..d-1.  An entry's numerators are
    summed in place per denominator, in zeta and in t, into one
    ZetaRational per zeta-denominator, with any sum that vanishes dropped."""
    (zero, _), = m.one.terms
    dim = d ** len(zero)
    strides = [d ** i for i in reversed(range(len(zero)))]
    ops = {}
    for ab, x in m.entries.items():
        cells = {}
        for (delta, kappa), c in x.terms.items():
            zkey = frozenset(c.den.items())
            parts = [((e, None if v.den is _ONE_POLY
                       else tuple(v.den.items())), v.num)
                     for e, v in c.num.items()]
            step = sum(map(mul, delta, strides))
            # (flat offset, t-shift) of the states n_i of each copy whose
            # target n_i + delta_i stays in 0..d-1
            for (col, shift), *rest in product(*(
                    [(n * st, 6 * k * n) for n in range(max(0, -dn),
                                                        d - max(0, dn))]
                    for dn, k, st in zip(delta, kappa, strides))):
                for o, k in rest:
                    col += o
                    shift += k
                sums = cells.setdefault((col + step, col), {}).setdefault(
                    zkey, (c.den, {}))[1]
                for key, num in parts:
                    acc = sums.setdefault(key, {})
                    for k, n in num.items():
                        n += acc.pop(k + shift, 0)
                        if n:
                            acc[k + shift] = n
        for ij, cell in cells.items():
            cells[ij] = ZetaRational.ZERO
            for zden, sums in cell.values():
                num = {}
                for (e, tden), p in sums.items():
                    v = (QScalar(p, _canonical=True) if tden is None
                         else QScalar(p, dict(tden)))
                    num[e] = num[e] + v if e in num else v
                cells[ij] = cells[ij] + (
                    ZetaRational(num, zden)
                    if len(zden) > 1 or not all(num.values())
                    else ZetaRational(num, _canonical=True))
        ops[ab] = OpMatrix(dim, cells, ZetaRational.ONE)
    return Grid(m.dim, ops, dim, ZetaRational.ONE)


def reference_matrix(kind, algebra, variant="plain", s=1, s1=0, s2=0, d=12):
    """Closed-form object for the given kind/algebra/variant and exponents.

    s = 0 is rejected: the closed forms pair zeta^0 with zeta^s terms, which
    would merge.
    """
    if s == 0:
        raise ValueError("the spectral exponent s must be nonzero")
    if kind == "r" and variant == "plain" and algebra in _L_VARIANTS:
        return _r_matrix(algebra, s, s1, s2)
    if kind == "l" and variant in _L_VARIANTS.get(algebra, ()):
        exps = exponent_tuple(algebra, s, s1, s2)
        if variant == "hat-2-inv":
            ring = _reflected_inverse(l_table(algebra, "hat-2", exps).ring())
            tag, l_type = PrefactorTag(), "check"
        else:
            ring = l_table(algebra, variant, exps).ring()
            tag, l_type = l_tag(variant, s), variant.partition("-")[0]
        return ReferenceObject("l", algebra, variant, exps, tag,
                               render(ring, d), l_type=l_type, fock_dim=d,
                               copies=len(exps) - 1)
    raise ValueError("unsupported combination %r; supported: %s"
                     % ((kind, algebra, variant), list_variants()))


# -- exchange constants of the linear decomposition --------------------------

def r0_hat_matrix(n):
    """sum_(a, b) q^(delta_ab) E_ab x E_ba + C sum_(a < b) E_aa x E_bb."""
    entries = {}
    for a in range(n):
        for b in range(n):
            entries[(a * n + b, b * n + a)] = q_power(1) if a == b else ONE
            if a < b:
                entries[(a * n + b, a * n + b)] = C
    return OpMatrix(n * n, entries, ONE, _clean=True)


# -- inversion --------------------------------------------------------------

class NoPivotError(ArithmeticError):
    """`grid_inverse` found no unit pivot left to invert a matrix with."""


def op_inverse(x):
    """The inverse of a unit c x^kappa of the oscillator ring, c a nonzero
    scalar; ValueError for any other element, so that `grid_inverse` tries
    the next entry."""
    if len(x.terms) == 1:
        ((delta, kappa), c), = x.terms.items()
        if not any(delta):
            return OscElement({(delta, tuple(-k for k in kappa)):
                               c.inverse()}, x.qpow)
    raise ValueError("only a monomial c x^kappa is a unit of the ring")


def _pivot(a, col):
    """(row, column, inverse) of the first unit entry of the square block
    of `a` from (col, col) on, read column by column."""
    n = len(a)
    for c in range(col, n):
        for r in range(col, n):
            try:
                return r, c, op_inverse(a[r][c])
            except ValueError:
                continue
    raise NoPivotError("no invertible pivot left at elimination step %d"
                       % col)


def grid_inverse(g):
    """Inverse of a square OpMatrix over the oscillator ring by Gauss-Jordan
    elimination on [g | 1] with full pivoting, so any unit c x^kappa can be
    the pivot (`op_inverse`); NoPivotError when none is left."""
    n, one = g.dim, g.one
    a = [[g.entry(i, j) for j in range(n)]
         + [one if i == j else one - one for j in range(n)] for i in range(n)]
    cols = list(range(n))
    for col in range(n):
        r, c, piv_inv = _pivot(a, col)
        a[col], a[r] = a[r], a[col]
        if c != col:
            for row in a:
                row[col], row[c] = row[c], row[col]
            cols[col], cols[c] = cols[c], cols[col]
        a[col] = [piv_inv * x for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    # the right half b inverts g with its columns permuted, g Q; so
    # g^-1 = Q b, whose row cols[i] is row i of b
    return OpMatrix(n, {(cols[i], j): a[i][n + j] for i in range(n)
                        for j in range(n) if a[i][n + j]}, one, _clean=True)


def _reflected_inverse(m):
    """`grid_inverse(m)` at reflected argument zeta -> 1/zeta."""
    return grid_inverse(m).map_values(
        lambda x: x.map(lambda v: v.subs_power(-1)))
