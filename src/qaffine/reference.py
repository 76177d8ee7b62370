"""Closed-form reference matrices, parameterized by the spectral exponents.

Every printed R-matrix and L-operator is transcribed here over the exact
rational backend.  The transcendental scalar in front of each object (a
power of q times an exponential of lambda-function combinations) is kept
as a structured tag; rational scalar pieces are folded into the entries,
so the stored matrix times the tag is the honest object.

Each L-operator is the image of the universal R-matrix in the
q-oscillator algebra, so it is transcribed as a table of oscillator
monomials zeta^e c L_delta q^(kappa . D) (`LTable`), on which tau acts.
Every closed form the identity checks read (R, each L table, its tau
image, r0-hat and every inverse) is built in the one q-oscillator ring
(`linalg.OscPoly`, zeta in u) as a form (N, D): an integer numerator
matrix N and one central divisor D at delta = kappa = 0, the object being
N / D.  Inverses come from one fraction-free elimination with unit pivots
c x^kappa (`grid_inverse`).  A numerator is walked on d Fock states per
copy, one state at a time and with no matrix product (`numerators`, read
by the engine check), and a ZetaRational is built only where a form is
rendered for printing (`render`), which gives the printed R-matrix too.  The
ordered factors the source derivation lists for some L-operators are an
oracle for these closed forms and live with the tests
(`tests/derivation_factors.py`).

Also here: the constant exchange matrices of the spectral-linear
decomposition.
"""

from collections import namedtuple
from itertools import product
from operator import mul

from .scalars import QScalar, _ONE_POLY, _p_add, q_power, t_power
from .series import ZetaSeries, lambda_level
from .rational import ZetaRational
from .linalg import OpMatrix, OscPoly, Grid, _pack, _place, _unpack

__all__ = [
    "PrefactorTag", "ReferenceObject", "LTable", "reference_matrix",
    "r_form", "r_tag", "l_table", "l_tag", "list_variants", "r0_hat_matrix",
    "numerators", "render",
    "grid_inverse", "op_inverse", "NoPivotError", "exponent_tuple",
]

ONE = QScalar.ONE


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

def _scalar(terms):
    """sum n zeta^e t^k over {(e, k): n}, at delta = kappa = 0."""
    return OscPoly({_pack(e, 0, k): n for (e, k), n in terms.items()})


def _divisor(m, s):
    """(f, D): D = f (1 - t^m zeta^s) with lowest zeta-degree 0 and lowest
    term 1, f a unit monomial; D is the denominator every reduced entry
    over 1 - t^m zeta^s takes, and the lcm of them all."""
    if s > 0:
        return OscPoly.ONE, _scalar({(0, 0): 1, (s, m): -1})
    return _scalar({(-s, -m): -1}), _scalar({(0, 0): 1, (-s, -m): -1})


def r_form(algebra, s, s1, s2):
    """The R-matrix as a form (N, D): sum_a E_aa x E_aa + sum_(a != b)
    (g E_aa x E_bb + c_ab E_ab x E_ba) with g = q^-1 (1 - zeta^s) /
    (1 - q^-2 zeta^s) and c_ab = (1 - q^-2) zeta^(w_ab) / (1 - q^-2
    zeta^s): w_ab sums s_a .. s_(b-1) of (s1, s2) for a < b, and w_ba =
    s - w_ab.  D is 1 - q^-2 zeta^s with lowest term 1 (`_divisor`)."""
    n = 2 if algebra == "a1" else 3
    f, den = _divisor(-12, s)
    g = f * _scalar({(0, -6): 1, (s, -6): -1})
    w = lambda a, b: sum((s1, s2)[a:b]) if a < b else s - w(b, a)
    # E_ab x E_cd is the unit at (a n + c, b n + d), indices from 0
    entries = {}
    for a in range(n):
        entries[(a * n + a, a * n + a)] = den
        for b in range(n):
            if a != b:
                entries[(a * n + b, a * n + b)] = g
                entries[(a * n + b, b * n + a)] = f * _scalar(
                    {(w(a, b), 0): 1, (w(a, b), -12): -1})
    return OpMatrix(n * n, entries, OscPoly.ONE, _clean=True), den


def r_tag(algebra, s):
    """The prefactor tag of the R-matrix at spectral exponent s."""
    if algebra == "a1":
        return PrefactorTag(3, ((2, 6, s, 1), (2, -6, s, -1)))
    return PrefactorTag(4, ((3, 12, s, 1), (3, -12, s, -1)))


# -- L-operators as oscillator monomials -------------------------------------

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
        """The operator as a form (N, D), N / D: N an n x n OpMatrix over
        the oscillator ring and D one divisor at delta = kappa = 0, 1 with
        no `divisor` and else 1 - zeta^divisor with lowest term 1
        (`_divisor`).  A lowered copy i contributes a = S_-1 (1 - x_i^2),
        so each term expands into one monomial per subset of its lowered
        copies."""
        f, den = ((OscPoly.ONE, OscPoly.ONE) if self.divisor is None
                  else _divisor(0, self.divisor))
        ops = {}
        for ab, terms in self.terms.items():
            out = {}
            for e, c, delta, kappa in terms:
                if c.den is not _ONE_POLY:
                    raise ValueError("a table coefficient lies in "
                                     "Z[t^(+-1)]")
                for bits in product(*((0, 1) if x < 0 else (0,)
                                      for x in delta)):
                    place = _place(delta, tuple(k + 2 * b for k, b
                                                in zip(kappa, bits)))
                    sign = -1 if sum(bits) % 2 else 1
                    out = _p_add(out, {place + _pack(e, 0, k): sign * v
                                       for k, v in c.num.items()})
            ops[ab] = OscPoly(out)
        return OpMatrix(self.n, ops, OscPoly.ONE).scale(f), den


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


def _zeta(x):
    """An element at delta = kappa = 0 with no v as {e: QScalar}, the
    coefficients of its powers zeta^e."""
    groups = {}
    for key, c in x.terms.items():
        i, _, k = _unpack(key)
        groups.setdefault(i, {})[k] = c
    return {e: QScalar(p, _canonical=True) for e, p in groups.items()}


def numerators(m, d):
    """The numerator matrix m of a form m / D as the Grid of its operators
    on d Fock states per copy, the first copy slowest, on two copies where a
    term moves or weighs the second (as on every two-copy table): the term
    c S_delta x^kappa sends state n to n + delta with the weight
    c q^(kappa . n), a shift of the t-exponents of c (q = t^6), and is
    dropped where n + delta leaves 0..d-1.  The states of each delta are
    walked once for all of its kappa, and each cell is its summed
    numerator {e: QScalar}, the coefficients of its powers zeta^e."""
    parts = {ab: x._decoded() for ab, x in m.entries.items()}
    copies = 1 + any(delta[1] or kappa[1] for terms in parts.values()
                     for _, _, delta, kappa in terms)
    dim = d ** copies
    strides = [d ** i for i in reversed(range(copies))]
    ops = {}
    for ab, terms in parts.items():
        by_delta = {}
        for key, c, delta, kappa in terms:
            e, _, k = _unpack(key)
            by_delta.setdefault(delta[:copies], {}).setdefault(
                kappa[:copies], []).append((e, k, c))
        cells = {}
        for delta, by_kappa in by_delta.items():
            step = sum(map(mul, delta, strides))
            # the states n whose target n + delta stays in 0..d-1
            for n in product(*(range(max(0, -x), d - max(0, x))
                               for x in delta)):
                col = sum(map(mul, n, strides))
                sums = cells.setdefault((col + step, col), {})
                for kappa, cs in by_kappa.items():
                    shift = 6 * sum(map(mul, kappa, n))
                    for e, k, c in cs:
                        acc = sums.setdefault(e, {})
                        v = acc.pop(k + shift, 0) + c
                        if v:
                            acc[k + shift] = v
        ops[ab] = OpMatrix(dim, {ij: {e: QScalar(p, _canonical=True)
                                      for e, p in sums.items() if p}
                                 for ij, sums in cells.items()}, None)
    return Grid(m.dim, ops, dim, None)


def render(form, d):
    """A form N / D as the Grid of its operators on d Fock states per copy
    (`numerators`), each cell one ZetaRational, its numerator over D."""
    m, den = form
    zden = None if den == OscPoly.ONE else _zeta(den)
    return numerators(m, d).map_values(
        lambda num: (ZetaRational(num, _canonical=True) if zden is None
                     else ZetaRational(num, zden)), ZetaRational.ONE)


def reference_matrix(kind, algebra, variant="plain", s=1, s1=0, s2=0, d=12):
    """Closed-form object for the given kind/algebra/variant and exponents.

    s = 0 is rejected: the closed forms pair zeta^0 with zeta^s terms, which
    would merge.
    """
    if s == 0:
        raise ValueError("the spectral exponent s must be nonzero")
    exps = exponent_tuple(algebra, s, s1, s2)
    if kind == "r" and variant == "plain" and algebra in _L_VARIANTS:
        # one reduced rational per numerator object, over the divisor; the
        # diagonal's is the divisor itself
        num, den = r_form(algebra, s, s1, s2)
        zden, cells = _zeta(den), {id(den): ZetaRational.ONE}
        for x in num.entries.values():
            if id(x) not in cells:
                cells[id(x)] = ZetaRational(_zeta(x), zden)
        return ReferenceObject("r", algebra, variant, exps, r_tag(algebra, s),
                               OpMatrix(num.dim, {ij: cells[id(x)] for ij, x
                                                  in num.entries.items()},
                                        ZetaRational.ONE, _clean=True))
    if kind == "l" and variant in _L_VARIANTS.get(algebra, ()):
        if variant == "hat-2-inv":
            form = _reflected_inverse(l_table(algebra, "hat-2", exps).ring())
            tag, l_type = PrefactorTag(), "check"
        else:
            form = l_table(algebra, variant, exps).ring()
            tag, l_type = l_tag(variant, s), variant.partition("-")[0]
        return ReferenceObject("l", algebra, variant, exps, tag,
                               render(form, d), l_type=l_type, fock_dim=d,
                               copies=len(exps) - 1)
    raise ValueError("unsupported combination %r; supported: %s"
                     % ((kind, algebra, variant), list_variants()))


# -- exchange constants of the linear decomposition --------------------------

def r0_hat_matrix(n):
    """sum_(a, b) q^(delta_ab) E_ab x E_ba + C sum_(a < b) E_aa x E_bb
    with C = q - q^-1, over the oscillator ring at delta = kappa = 0."""
    q, c = _scalar({(0, 6): 1}), _scalar({(0, 6): 1, (0, -6): -1})
    entries = {}
    for a in range(n):
        for b in range(n):
            entries[(a * n + b, b * n + a)] = q if a == b else OscPoly.ONE
            if a < b:
                entries[(a * n + b, a * n + b)] = c
    return OpMatrix(n * n, entries, OscPoly.ONE, _clean=True)


# -- inversion --------------------------------------------------------------

class NoPivotError(ArithmeticError):
    """`grid_inverse` found no unit pivot left to invert a matrix with."""


def op_inverse(x):
    """x^-kappa for a unit c x^kappa of the oscillator ring, every term at
    one S_0 x^kappa and c a nonzero central scalar: (x^-kappa)(c x^kappa) =
    c.  ValueError for any other element, so that `grid_inverse` tries the
    next entry."""
    sectors = {(delta, kappa) for _, _, delta, kappa in x._decoded()}
    if len(sectors) == 1:
        (delta, kappa), = sectors
        if not any(delta):
            return OscPoly({_place(delta, tuple(-k for k in kappa)): 1})
    raise ValueError("only a monomial c x^kappa is a unit of the ring")


def _pivot(a, col):
    """(row, column, op_inverse) of the first unit entry of the square
    block of `a` from (col, col) on, read column by column."""
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
    """The inverse of a square OpMatrix over the oscillator ring as a form
    (B, D), g^-1 = B / D, by fraction-free Gauss-Jordan elimination on
    [g | 1] with full pivoting, so any unit c x^kappa can be the pivot
    (`op_inverse`); NoPivotError when none is left.  The pivot row is
    multiplied by x^-kappa, which leaves the central pivot p = c, and every
    other row r with an entry f in the pivot column becomes p r - f (pivot
    row).  D is the product of the pivots, and each row of the right half
    is multiplied by the pivots its diagonal lacks."""
    n, one = g.dim, g.one
    a = [[g.entry(i, j) for j in range(n)]
         + [one if i == j else one - one for j in range(n)] for i in range(n)]
    cols = list(range(n))
    pivots, missed = [], [[] for _ in range(n)]
    for col in range(n):
        r, c, unit = _pivot(a, col)
        a[col], a[r] = a[r], a[col]
        if c != col:
            for row in a:
                row[col], row[c] = row[c], row[col]
            cols[col], cols[c] = cols[c], cols[col]
        a[col] = [unit * x for x in a[col]]
        p = a[col][col]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r] = [p * x - f * y for x, y in zip(a[r], a[col])]
            elif r < col:
                # an earlier pivot row this step leaves as it is
                missed[r].append(p)
        pivots.append(p)
    # row i's diagonal is its pivot times the later pivots that multiplied
    # it, so it lacks the earlier pivots and the `missed` ones; the right
    # half b then inverts g with its columns permuted, g Q, so g^-1 = Q b,
    # whose row cols[i] is row i of b
    out, den = {}, one
    for i in range(n):
        s = den
        for p in missed[i]:
            s = s * p
        out.update(((cols[i], j), s * a[i][n + j]) for j in range(n)
                   if a[i][n + j])
        den = den * pivots[i]
    return OpMatrix(n, out, one, _clean=True), den


def _reflected_inverse(form):
    """The inverse of a form N / D at reflected argument zeta -> 1/zeta:
    D B / P, with B / P = N^-1 (`grid_inverse`)."""
    m, den = form
    inv, piv = grid_inverse(m)
    return (inv.scale(den).map_values(lambda x: x.spectral(-1, 0)),
            piv.spectral(-1, 0))
