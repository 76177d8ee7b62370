"""Closed-form reference matrices, parameterized by the spectral exponents.

Every printed R-matrix and L-operator is transcribed here over the exact
rational backend.  The transcendental scalar in front of each object (a
power of q times an exponential of lambda-function combinations) is kept
as a structured tag; rational scalar pieces are folded into the entries,
so the stored matrix times the tag is the honest object.  Exact inversion
(`grid_inverse`) works on the assembled grid.  The ordered factors the
source derivation lists for some L-operators are an oracle for these
closed forms and live with the tests (`tests/derivation_factors.py`).

Also here: the constant exchange matrices of the spectral-linear
decomposition, the decomposition itself, and the exponent scan that finds
where an L-operator becomes linear in the spectral variable.
"""

from fractions import Fraction

from .scalars import QScalar, q_power
from .series import ZetaSeries, series_exp, lambda_level
from .rational import ZetaRational
from .linalg import OpMatrix, Grid, kron
from .oscillator import FockCopies, osc_automorphism

__all__ = [
    "PrefactorTag", "ReferenceObject", "reference_matrix", "list_variants",
    "r0_hat_matrix", "decompose_L", "scan_linear_exponents",
    "grid_inverse", "op_inverse",
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

    def inverse(self):
        return PrefactorTag(-self.t_power,
                            tuple((n, sc, arg, -sg)
                                  for (n, sc, arg, sg) in self.terms))

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
            lam = lambda_level(n, QScalar({sc: Fraction(1)}), arg, order)
            for _ in range(abs(sg)):
                total = total + lam if sg > 0 else total - lam
        return total

    def to_series(self, order):
        out = series_exp(self.log_series(order))
        if self.t_power:
            out = out.scale(QScalar({self.t_power: Fraction(1)}))
        return out

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

    def expand(self, order, include_tag=True):
        """Flattened series matrix; L-operators flatten with the oscillator
        leg slowest for hat type and fastest for check type."""
        if self.kind == "r":
            flat = self.matrix.map_values(lambda v: v.to_series(order),
                                          ZetaSeries.one(order))
        else:
            grid = self.matrix.map_values(lambda v: v.to_series(order),
                                          ZetaSeries.one(order))
            flat = grid.flatten(op_leg_first=(self.l_type == "hat"))
        if include_tag and not self.tag.is_trivial():
            pref = self.tag.to_series(order)
            flat = flat.map_values(lambda s: (s * pref).truncate(order))
        return flat

    def __repr__(self):
        return "ReferenceObject(%s, %s, %s, exps=%s)" % (
            self.kind, self.algebra, self.variant, (self.exps,))


# -- scalar builders ---------------------------------------------------------

def _zmat(mat, k=0):
    """Lift a QScalar matrix into zeta-rational values times zeta^k."""
    return mat.map_values(lambda v: ZetaRational.monomial(k, v),
                          ZetaRational.ONE)


# -- R-matrices --------------------------------------------------------------

def _r_a1(s, s1):
    den = {0: ONE, s: -q_power(-2)}
    g_diag = ZetaRational({0: q_power(-1), s: -q_power(-1)}, den)
    g_lo = ZetaRational({s1: ONE - q_power(-2)}, den)
    g_hi = ZetaRational({s - s1: ONE - q_power(-2)}, den)
    e = lambda a, b: OpMatrix.unit(2, a, b, ONE)
    mat = (kron(_zmat(e(1, 1)), _zmat(e(1, 1)))
           + kron(_zmat(e(2, 2)), _zmat(e(2, 2)))
           + kron(_zmat(e(1, 1)), _zmat(e(2, 2))).scale(g_diag)
           + kron(_zmat(e(2, 2)), _zmat(e(1, 1))).scale(g_diag)
           + kron(_zmat(e(1, 2)), _zmat(e(2, 1))).scale(g_lo)
           + kron(_zmat(e(2, 1)), _zmat(e(1, 2))).scale(g_hi))
    tag = PrefactorTag(3, ((2, 6, s, 1), (2, -6, s, -1)))
    return ReferenceObject("r", "a1", "plain", (s, s1), tag, mat)


def _r_a2(s, s1, s2):
    den = {0: ONE, s: -q_power(-2)}
    g_diag = ZetaRational({0: q_power(-1), s: -q_power(-1)}, den)
    cc = ONE - q_power(-2)
    e = lambda a, b: OpMatrix.unit(3, a, b, ONE)
    mat = OpMatrix.zero(9, ZetaRational.ONE)
    for a in range(1, 4):
        mat = mat + kron(_zmat(e(a, a)), _zmat(e(a, a)))
        for b in range(1, 4):
            if a != b:
                mat = mat + kron(_zmat(e(a, a)), _zmat(e(b, b))).scale(g_diag)
    weights = {(1, 2): s1, (1, 3): s1 + s2, (2, 3): s2,
               (2, 1): s - s1, (3, 1): s - s1 - s2, (3, 2): s - s2}
    for (a, b), w in weights.items():
        mat = mat + kron(_zmat(e(a, b)), _zmat(e(b, a))).scale(
            ZetaRational({w: cc}, den))
    tag = PrefactorTag(4, ((3, 12, s, 1), (3, -12, s, -1)))
    return ReferenceObject("r", "a2", "plain", (s, s1, s2), tag, mat)


# -- oscillator building blocks ----------------------------------------------

def _grid(n, entries, op_dim):
    return Grid(n, {k: v for k, v in entries.items() if v}, op_dim,
                ZetaRational.ONE)


# -- rank-1 L-operators ------------------------------------------------------

def _l_a1(variant, s, s1, d):
    o = FockCopies(d, 1)
    (a,), (ad,) = o.a, o.ad
    tag = PrefactorTag(0, ((2, -6, s, 1),))
    qD = o.qd(1)
    qmD = o.qd(-1)
    if variant == "hat":
        entries = {
            (0, 0): _zmat(qD),
            (0, 1): _zmat(a * qmD, s - s1),
            (1, 0): _zmat(ad * qD, s1),
            (1, 1): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
        }
        l_type = "hat"
    elif variant == "hat-twisted":
        entries = {
            (0, 0): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(ad * qD, s - s1),
            (1, 0): _zmat(a * qmD, s1),
            (1, 1): _zmat(qD),
        }
        l_type = "hat"
    elif variant == "check":
        entries = {
            (0, 0): _zmat(qD),
            (0, 1): _zmat(a * qmD, s1),
            (1, 0): _zmat(ad * qD, s - s1),
            (1, 1): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
        }
        l_type = "check"
    elif variant == "check-twisted":
        entries = {
            (0, 0): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(ad * qD, s1),
            (1, 0): _zmat(a * qmD, s - s1),
            (1, 1): _zmat(qD),
        }
        l_type = "check"
    else:
        raise ValueError("unknown rank-1 variant %r" % (variant,))
    mat = _grid(2, entries, d)
    return ReferenceObject("l", "a1", variant, (s, s1), tag, mat,
                           l_type=l_type, fock_dim=d, copies=1)


# -- rank-2 L-operators ------------------------------------------------------

def _l_a2(variant, s, s1, s2, d):
    o = FockCopies(d, 2)
    qq = o.qd
    (a1, a2), (a1d, a2d) = o.a, o.ad
    dim = d * d
    if variant == "hat-1":
        tag = PrefactorTag(0, ((3, -12, s, 1),))
        entries = {
            (0, 0): _zmat(qq(1, 0)),
            (0, 1): _zmat(a1 * qq(-1, -1), s - s1).scale(
                ZetaRational.const(q_power(-2))),
            (0, 2): _zmat(a1 * a2 * qq(-1, -3), s - s1 - s2),
            (1, 0): _zmat(a1d * qq(1, 0), s1),
            (1, 1): _zmat(qq(-1, 1)) + _zmat(qq(1, -1), s).scale(
                ZetaRational.const(-q_power(-2))),
            (1, 2): _zmat(a2 * qq(1, -3), s - s2).scale(-ZetaRational.ONE),
            (2, 1): _zmat(a2d * qq(0, 1), s2),
            (2, 2): _zmat(qq(0, -1)),
        }
        l_type = "hat"
    elif variant == "hat-2":
        tag = PrefactorTag(0, ((3, 12, s, -1),))
        den = ZetaRational.ONE - ZetaRational.monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)) + _zmat(qq(-1, 0), s).scale(
                ZetaRational.const(-q_power(-2))),
            (0, 1): _zmat(a1 * qq(-3, 1), s - s1).scale(-ZetaRational.ONE),
            (0, 2): _zmat(a1 * a2 * qq(-1, -1),
                          s - s1 - s2).scale(-ZetaRational.ONE),
            (1, 0): _zmat(a1d * qq(1, 0), s1),
            (1, 1): _zmat(qq(-1, 1)),
            (1, 2): _zmat(a2 * qq(1, -1), s - s2),
            (2, 0): _zmat(a1d * a2d, s1 + s2).scale(
                ZetaRational.const(q_power(-1))),
            (2, 1): _zmat(a2d * qq(-2, 1), s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "hat"
    elif variant == "check-1":
        tag = PrefactorTag(0, ((3, -12, s, 1),))
        entries = {
            (0, 0): _zmat(qq(1, 0)),
            (0, 1): _zmat(a1 * qq(-1, 1), s1),
            (1, 0): _zmat(a1d * qq(1, -2), s - s1).scale(
                ZetaRational.const(q_power(-2))),
            (1, 1): _zmat(qq(-1, 1)) + _zmat(qq(1, -1), s).scale(
                ZetaRational.const(-q_power(-2))),
            (1, 2): _zmat(a2 * qq(1, -1), s2),
            (2, 0): _zmat(a1d * a2d * qq(0, -2), s - s1 - s2).scale(
                ZetaRational.const(q_power(-3))),
            (2, 1): _zmat(a2d * qq(0, -1), s - s2).scale(
                ZetaRational.const(-q_power(-2))),
            (2, 2): _zmat(qq(0, -1)),
        }
        l_type = "check"
    elif variant == "check-2":
        tag = PrefactorTag(0, ((3, 12, s, -1),))
        den = ZetaRational.ONE - ZetaRational.monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)) + _zmat(qq(-1, 0), s).scale(
                ZetaRational.const(-q_power(-2))),
            (0, 1): _zmat(a1 * qq(-1, 1), s1),
            (0, 2): _zmat(a1 * a2 * qq(-1, -1), s1 + s2),
            (1, 0): _zmat(a1d * qq(-1, 0), s - s1).scale(
                ZetaRational.const(-q_power(-2))),
            (1, 1): _zmat(qq(-1, 1)),
            (1, 2): _zmat(a2 * qq(-1, -1), s2),
            (2, 0): _zmat(a1d * a2d, s - s1 - s2).scale(
                ZetaRational.const(-q_power(-1))),
            (2, 1): _zmat(a2d * qq(0, 1), s - s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "check"
    elif variant == "check-inv":
        tag = PrefactorTag(0, ((3, -12, -s, -1),))
        den = ZetaRational.ONE - ZetaRational.monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)).scale(ZetaRational.const(q_power(2)))
                + _zmat(qq(-1, 0), s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(a1 * qq(1, 0), s1),
            (0, 2): _zmat(a1 * a2, s1 + s2).scale(
                ZetaRational.const(q_power(-1))),
            (1, 0): _zmat(a1d * qq(-1, -1), s - s1),
            (1, 1): _zmat(qq(1, -1), s).scale(-ZetaRational.ONE),
            (1, 2): _zmat(a2 * qq(0, -1), s2).scale(-ZetaRational.ONE),
            (2, 0): _zmat(a1d * a2d * qq(-1, -1),
                          s - s1 - s2).scale(-ZetaRational.ONE),
            (2, 1): _zmat(a2d * qq(1, -1), s - s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "check"
    else:
        raise ValueError("unknown rank-2 variant %r" % (variant,))
    mat = _grid(3, entries, dim)
    return ReferenceObject("l", "a2", variant, (s, s1, s2), tag, mat,
                           l_type=l_type, fock_dim=d, copies=2)


_A1_L_VARIANTS = ("hat", "hat-twisted", "check", "check-twisted")
_A2_L_VARIANTS = ("hat-1", "hat-2", "check-1", "check-2", "check-inv",
                  "hat-2-inv")


def list_variants():
    out = [("r", "a1", "plain"), ("r", "a2", "plain")]
    out += [("l", "a1", v) for v in _A1_L_VARIANTS]
    out += [("l", "a2", v) for v in _A2_L_VARIANTS]
    return out


def reference_matrix(kind, algebra, variant="plain", s=1, s1=0, s2=0, d=12):
    """Closed-form object for the given kind/algebra/variant and exponents.

    s = 0 is rejected: the closed forms pair zeta^0 with zeta^s terms, which
    would merge.
    """
    if s == 0:
        raise ValueError("the spectral exponent s must be nonzero")
    if kind == "r" and variant == "plain":
        if algebra == "a1":
            return _r_a1(s, s1)
        if algebra == "a2":
            return _r_a2(s, s1, s2)
    if kind == "l" and algebra == "a1" and variant in _A1_L_VARIANTS:
        return _l_a1(variant, s, s1, d)
    if kind == "l" and algebra == "a2" and variant in _A2_L_VARIANTS:
        if variant == "hat-2-inv":
            base = _l_a2("hat-2", s, s1, s2, d)
            inv = _reflected_inverse(base.matrix)
            return ReferenceObject("l", "a2", variant, (s, s1, s2),
                                   PrefactorTag(), inv, l_type="check",
                                   fock_dim=d, copies=2)
        return _l_a2(variant, s, s1, s2, d)
    raise ValueError("unsupported combination %r; supported: %s"
                     % ((kind, algebra, variant), list_variants()))


# -- exchange constants of the linear decomposition --------------------------

def r0_hat_matrix(n):
    e = lambda a, b: OpMatrix.unit(n, a, b, ONE)
    out = OpMatrix.zero(n * n, ONE)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            coeff = q_power(1) if a == b else ONE
            out = out + kron(e(a, b), e(b, a)).scale(coeff)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            out = out + kron(e(a, a), e(b, b)).scale(C)
    return out


# -- inversion over the Fock-valued rational ring -----------------------------

def op_inverse(m):
    """Inverse of a diagonal Fock-valued matrix over the rational scalar
    field.  Every pivot of a weight-graded grid has weight zero, so it is
    diagonal; any other matrix, or a vanishing diagonal entry, raises
    ValueError and `grid_inverse` tries the next row."""
    if not m.is_diagonal():
        raise ValueError("matrix is not diagonal; cannot invert")
    if len(m.entries) < m.dim:
        raise ValueError("matrix has vanishing diagonal entries; "
                         "cannot invert")
    return OpMatrix(m.dim, {ij: v.inverse() for ij, v in m.entries.items()},
                    m.one, _clean=True)


def grid_inverse(g):
    """Inverse of an operator-valued grid by noncommutative elimination."""
    n = g.n
    one = g.one
    dim = g.op_dim
    eye = OpMatrix.identity(dim, one)
    zero = OpMatrix.zero(dim, one)
    a = [[g.entry(i, j) for j in range(n)] for i in range(n)]
    b = [[eye if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        piv_inv = None
        for r in range(col, n):
            if not a[r][col]:
                continue
            try:
                piv_inv = op_inverse(a[r][col])
                piv = r
                break
            except ValueError:
                continue
        if piv is None:
            raise ValueError("grid has no invertible pivot in column %d"
                             % col)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        a[col] = [piv_inv * x for x in a[col]]
        b[col] = [piv_inv * x for x in b[col]]
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [a[r][k] - f * a[col][k] for k in range(n)]
            b[r] = [b[r][k] - f * b[col][k] for k in range(n)]
    entries = {}
    for i in range(n):
        for j in range(n):
            if b[i][j]:
                entries[(i, j)] = b[i][j]
    return Grid(n, entries, dim, one, _clean=True)


def _reflected_inverse(grid):
    """The inverse grid at reflected argument zeta -> 1/zeta."""
    return grid_inverse(grid).map_values(lambda v: v.subs_power(-1),
                                         ZetaRational.ONE)


def apply_two_copy_normalization(grid, d):
    """The oscillator-pair rescaling a_i -> q^-1 a_i q^(2 D_i), realized by
    conjugation on the truncated Fock pair, applied entrywise."""
    kappa = ZetaRational.const(q_power(-1))
    rows, cols = osc_automorphism(d, (kappa, kappa), (2, 0, 2),
                                  one=ZetaRational.ONE)
    return grid.map_ops(lambda m: m.scaled(rows, cols))


# -- spectral-linear decomposition -------------------------------------------

def _entry_degrees(grid):
    degs = set()
    for m in grid.entries.values():
        for v in m.entries.values():
            if not v.is_polynomial():
                return None
            degs.update(v.num.keys())
    return degs


def scan_linear_exponents(kind_variant, algebra, s_range, s1_range,
                          s2_range=(0,), d=4):
    """The exponent tuples in the grid making the prefactor-stripped
    operator linear in zeta after one overall power shift, each with its
    shift.  A generator: the grid is built one point at a time, so a caller
    that needs only the first few stops early."""
    for s in s_range:
        if s == 0:
            continue
        for s1 in s1_range:
            for s2 in s2_range:
                try:
                    ref = reference_matrix("l", algebra, kind_variant,
                                           s, s1, s2, d)
                except (ValueError, ZeroDivisionError):
                    continue
                degs = _entry_degrees(ref.matrix)
                if not degs:
                    continue
                if len(degs) == 2 and max(degs) - min(degs) == 2:
                    yield ((s, s1, s2) if algebra == "a2" else (s, s1),
                           (max(degs) + min(degs)) // 2)


def decompose_L(ref, invert):
    """Split tag-stripped L = zeta^c (zeta L_plus - zeta^-1 L_minus).

    The plus part comes out upper-triangular and the minus part lower-
    triangular on the matrix leg; `invert` names the non-degenerate one
    ("minus" for hat type, "plus" for check type) and the projector is its
    inverse times the other.  Returns (L_plus, L_minus, Pi, c); raises if
    the entries are not linear in zeta after the overall shift, naming the
    offending entry.
    """
    degs = _entry_degrees(ref.matrix)
    if degs is None or len(degs) > 2 or (len(degs) == 2
                                         and max(degs) - min(degs) != 2):
        raise ValueError("operator entries are not zeta-linear at exponents "
                         "%s" % (ref.exps,))
    c = (max(degs) + min(degs)) // 2
    hi, lo = c + 1, c - 1
    n = ref.matrix.n
    dim = ref.matrix.op_dim
    plus_entries = {}
    minus_entries = {}
    for ab, m in ref.matrix.entries.items():
        for ij, v in m.entries.items():
            for deg, qc in v.num.items():
                if deg == hi:
                    plus_entries.setdefault(ab, {})[ij] = qc
                elif deg == lo:
                    minus_entries.setdefault(ab, {})[ij] = -qc
                else:
                    raise ValueError("entry %s has stray degree %d"
                                     % ((ab, ij), deg))
    lplus = Grid(n, {ab: OpMatrix(dim, e, ONE)
                     for ab, e in plus_entries.items()}, dim, ONE)
    lminus = Grid(n, {ab: OpMatrix(dim, e, ONE)
                      for ab, e in minus_entries.items()}, dim, ONE)
    upper = lambda g: all(a <= b for (a, b) in g.entries)
    lower = lambda g: all(a >= b for (a, b) in g.entries)
    if not (upper(lplus) and lower(lminus)):
        raise ValueError("triangularity does not match: expected upper "
                         "plus-part and lower minus-part")
    if invert == "minus":
        pi = grid_inverse(lminus) * lplus
    elif invert == "plus":
        pi = grid_inverse(lplus) * lminus
    else:
        raise ValueError("invert must be 'plus' or 'minus'")
    return lplus, lminus, pi, c
