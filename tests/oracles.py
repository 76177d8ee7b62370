"""Checks of the construction itself, which only the tests run.

The commands of `qaffine` build R-matrices and L-operators and prove their
identities; nothing they run asks whether the generator images satisfy the
defining and Serre relations, whether the root sequence is a normal order,
or whether a dumped object parses back.  Those questions are answered
here, as oracles for the program:

* the defining relations of a generator image, with the Serre relations
  in both shapes, and the transfer of e_i to f_i by the bar involution;
* the Cartan and q-Serre relations of the oscillator images checked in
  the q-oscillator ring, where a pass holds on every Fock state;
* the q-factorials and q-binomials the Serre words need;
* both normal-order conditions on a root sequence, and the bilinear form;
* the full scalar prefactor of a closed form as a series, and its
  reciprocal;
* parsers that read back what `qaffine.serialize` dumps;
* the constructors and products the checks above and the test matrices
  are written with: identity grids, diagonal matrices, transposes,
  commutators, and zeta^k c as a one-variable rational;
* the Fock window a comparison of truncated matrices is trusted on, and
  the restriction of a matrix or a grid to it;
* the state-by-state rendering of a matrix over the oscillator ring, and
  of a form N / D with its cells divided by D.
"""

import itertools

from qaffine.scalars import QScalar, parse_qscalar, q_power, qint, t_power
from qaffine.series import ZetaSeries, series_exp
from qaffine.rational import ZetaRational
from qaffine.linalg import OpMatrix, OscPoly, Grid, _pack, _place
from qaffine.rootsys import extend_cartan, finite_cartan
from qaffine.reference import LTable, PrefactorTag
from tuple_ring import TupleLaurent2, split_key

ONE = QScalar.ONE
ZERO = QScalar.ZERO


def zeta_monomial(deg, c=ONE):
    """zeta^deg c as a ZetaRational."""
    return ZetaRational({deg: c} if c else {}, _canonical=True)


def grid_identity(n, op_dim, one):
    """The n x n grid with the identity operator down its diagonal."""
    eye = OpMatrix.identity(op_dim, one)
    return Grid(n, {(a, a): eye for a in range(n)}, op_dim, one, _clean=True)


def diagonal_matrix(values, one):
    """The diagonal matrix with `values` down the diagonal."""
    return OpMatrix(len(values), {(i, i): v for i, v in enumerate(values)
                                  if v}, one, _clean=True)


def transpose(m):
    return OpMatrix(m.dim, {(j, i): v for (i, j), v in m.entries.items()},
                    m.one, _clean=True)


def commutator(a, b):
    return a * b - b * a


def map_ops(grid, fn):
    """The grid with fn applied to each operator, empty results dropped."""
    return Grid(grid.n, {ab: fn(m) for ab, m in grid.entries.items()},
                grid.op_dim, grid.one)


# -- the Fock window ----------------------------------------------------------

def fock_window(d, copies, margin):
    """On flat indices over `copies` Fock factors of d states each, true
    where every occupation number is at most d - 1 - margin.

    Truncated ladder matrices are compressions P A P of the infinite ones,
    so a product of them differs from the compression of the product only
    through paths that step above the top state d - 1.  A product whose
    paths climb at most `margin` levels above their ends is therefore
    exact on the window.
    """
    top = d - 1 - margin

    def keep(i):
        for _ in range(copies):
            i, n = divmod(i, d)
            if n > top:
                return False
        return True
    return keep


def render_ring(m, d, copies):
    """An n x n OpMatrix over the oscillator ring (`linalg.OscPoly`) as the
    Grid of its operators on d Fock states per copy, the first copy
    slowest, over TupleLaurent2: the term c S_delta x^kappa u^i v^j t^k
    sends state n to n + delta with the weight c u^i v^j t^k q^(kappa . n),
    and is dropped where n + delta leaves 0..d-1.  Each term is decoded
    digit by digit (`tuple_ring.split_key`) and each state visited on its
    own."""
    states = list(itertools.product(range(d), repeat=copies))
    index = {st: i for i, st in enumerate(states)}
    ops = {}
    for ab, x in m.entries.items():
        cells = {}
        for key, c in x.terms.items():
            delta, kappa, (i, j, k) = split_key(key, copies)
            for st in states:
                target = tuple(n + e for n, e in zip(st, delta))
                if target in index:
                    w = TupleLaurent2({(i, j, k + 6 * sum(
                        a * n for a, n in zip(kappa, st))): c})
                    ij = (index[target], index[st])
                    cells[ij] = cells[ij] + w if ij in cells else w
        ops[ab] = OpMatrix(len(states), cells, TupleLaurent2.ONE)
    return Grid(m.dim, ops, len(states), TupleLaurent2.ONE)


def zeta_rational(x, den=None):
    """A one-variable TupleLaurent2 (no v) as a ZetaRational in zeta = u,
    divided by the one-variable `den`, by the reducing constructor."""
    def poly(y):
        groups = {}
        for (i, j, k), c in y.terms.items():
            assert j == 0
            groups.setdefault(i, {})[k] = c
        return {e: QScalar(p) for e, p in groups.items()}
    return ZetaRational(poly(x), poly(den) if den else {0: ONE})


def render_form(form, d, copies):
    """A form (N, D) rendered state by state (`render_ring`), each cell
    divided by D as a ZetaRational."""
    m, den = form
    den = TupleLaurent2({split_key(key, 1)[2]: c
                         for key, c in den.terms.items()})
    grid = render_ring(m, d, copies)
    return Grid(grid.n, {ab: op.map_values(lambda v: zeta_rational(v, den),
                                           ZetaRational.ONE)
                         for ab, op in grid.entries.items()},
                grid.op_dim, ZetaRational.ONE)


def subs_zeta(x, k):
    """zeta -> zeta^k (k nonzero) on a ZetaRational, by the reducing
    constructor."""
    return ZetaRational({k * e: v for e, v in x.num.items()},
                        {k * e: v for e, v in x.den.items()})


def restrict(x, keep):
    """A matrix, or every operator of a grid, on the indices where keep(i)
    holds."""
    if isinstance(x, Grid):
        return map_ops(x, lambda m: restrict(m, keep))
    return OpMatrix(x.dim, {(i, j): v for (i, j), v in x.entries.items()
                            if keep(i) and keep(j)}, x.one, _clean=True)


# -- q-numbers ----------------------------------------------------------------

def qint_factorial(n):
    out = ONE
    for k in range(1, n + 1):
        out = out * qint(k)
    return out


def qbinom(n, m):
    if m < 0 or m > n:
        return ZERO
    return qint_factorial(n) / (qint_factorial(m) * qint_factorial(n - m))


def subs_t_inverse(x):
    """The bar involution t -> t^-1 (hence q -> q^-1) of a QScalar."""
    return QScalar({-k: c for k, c in x.num.items()},
                   {-k: c for k, c in x.den.items()})


# -- generator images ---------------------------------------------------------

class ScaledOp:
    """A matrix carrying an explicit power of the spectral variable."""

    __slots__ = ("zexp", "mat")

    def __init__(self, zexp, mat):
        self.zexp = zexp
        self.mat = mat

    def __eq__(self, other):
        if not isinstance(other, ScaledOp):
            return NotImplemented
        if not self.mat and not other.mat:
            return True
        return self.zexp == other.zexp and self.mat == other.mat

    def __repr__(self):
        return "ScaledOp(z^%d, %r)" % (self.zexp, self.mat)


def h_mat(image, i):
    """h_i of a `qgroup.GeneratorImage` as a diagonal matrix."""
    return diagonal_matrix([QScalar.from_int(v) for v in image.h_diags[i]],
                           ONE)


def q_power_h(image, i, power=1):
    """Diagonal matrix q^(power * h_i)."""
    return diagonal_matrix([q_power(power * v) for v in image.h_diags[i]],
                           ONE)


def e_op(image, i):
    m = image.e_mats[i]
    return None if m is None else ScaledOp(image.exps[i], m)


def f_op(image, i):
    m = image.f_mats[i]
    return None if m is None else ScaledOp(-image.exps[i], m)


def _serre_words(ei, ej, a_ij):
    """sum_k (-1)^k qbinom(1 - a_ij, k) ei^(n-k) ej ei^k with n = 1 - a_ij."""
    n = 1 - a_ij
    powers = [OpMatrix.identity(ei.dim, ONE)]
    for _ in range(n):
        powers.append(powers[-1] * ei)
    out = OpMatrix.zero(ei.dim, ONE)
    for k in range(n + 1):
        c = qbinom(n, k)
        if k % 2 == 1:
            c = -c
        out = out + (powers[n - k] * ej * powers[k]).scale(c)
    return out


def check_defining_relations(image, fock=None):
    """Verify the defining relations of a `qgroup.GeneratorImage`.

    Returns the list of violated relation names; empty means everything
    holds.  The [e_i, f_j] relation is checked only when both Borel halves
    are present.  `fock` is (d, copies) for an image rendered on `copies`
    Fock factors of d states each: a relation is then compared on the
    states from which its words cannot climb past the truncation.
    """
    aff = extend_cartan(finite_cartan(image.algebra))
    n = aff.rank
    failures = []

    def check(name, mat, letters):
        # a word of `letters` ladder letters climbs at most that many levels
        if fock is not None:
            mat = restrict(mat, fock_window(fock[0], fock[1], letters))
        if mat:
            failures.append(name)

    for i in range(n):
        for j in range(n):
            a_ij = aff.matrix[i][j]
            hi = h_mat(image, i)
            if image.e_mats[j] is not None:
                ej = image.e_mats[j]
                check("[h_%d, e_%d] = a_ij e_%d" % (i, j, j),
                      commutator(hi, ej) - ej.scale(QScalar.from_int(a_ij)), 1)
            if image.f_mats[j] is not None:
                fj = image.f_mats[j]
                check("[h_%d, f_%d] = -a_ij f_%d" % (i, j, j),
                      commutator(hi, fj) + fj.scale(QScalar.from_int(a_ij)), 1)
            if image.e_mats[i] is not None and image.f_mats[j] is not None:
                lhs = commutator(image.e_mats[i], image.f_mats[j])
                if i == j:
                    qh = q_power_h(image, i)
                    qmh = q_power_h(image, i, -1)
                    denom = (q_power(1) - q_power(-1)).inverse()
                    lhs = lhs - (qh - qmh).scale(denom)
                check("[e_%d, f_%d]" % (i, j), lhs, 2)
            if (i != j and image.e_mats[i] is not None
                    and image.e_mats[j] is not None):
                check("serre e_%d e_%d" % (i, j),
                      _serre_words(image.e_mats[i], image.e_mats[j], a_ij),
                      2 - a_ij)
            if (i != j and image.f_mats[i] is not None
                    and image.f_mats[j] is not None):
                check("serre f_%d f_%d" % (i, j),
                      _serre_words(image.f_mats[i], image.f_mats[j], a_ij),
                      2 - a_ij)
    return failures


def check_ring_relations(image):
    """The relations of an oscillator image (`oscillator.OscImage`) in the
    q-oscillator ring, where a pass holds on every Fock state:
    x^(h_i) e_j x^(-h_i) = q^(a_ij) e_j and the q-Serre relations of the
    e_i, and the same of the f_i with q^(-a_ij).  Each generator
    c L_delta q^(kappa . D), with its zeta^(+-sigma), enters the ring as
    `LTable.ring` enters a table term, with c replaced by its numerator:
    an image holds one Borel half, and these relations are linear or
    homogeneous in each generator.  Returns the violated relation names."""
    aff = extend_cartan(finite_cartan(image.algebra))
    zero = (0,) * image.copies

    def scalar(x):
        assert x.den == {0: 1}
        return OscPoly({_pack(0, 0, k): n for k, n in x.num.items()})

    def x_power(h):
        return OscPoly({_place(zero, h): 1})

    failures = []
    for name, ops, sign in (("e", image.e_ops, 1), ("f", image.f_ops, -1)):
        gens = [None if m is None else LTable(1, image.copies, {(0, 0): ((
            sign * image.exps[i], QScalar(dict(m.c.num)), m.delta,
            tuple(int(k) for k in m.kappa)),)}, None).ring()[0].entry(0, 0)
            for i, m in enumerate(ops)]
        for i in range(aff.rank):
            h = image.h_forms[i]
            for j in range(aff.rank):
                a_ij, gj = aff.matrix[i][j], gens[j]
                if gj is None:
                    continue
                if (x_power(h) * gj * x_power(tuple(-c for c in h))
                        != scalar(q_power(sign * a_ij)) * gj):
                    failures.append("x^h_%d %s_%d x^-h_%d" % (i, name, j, i))
                gi = gens[i]
                if i == j or gi is None:
                    continue
                n, serre = 1 - a_ij, OscPoly({})
                for k in range(n + 1):
                    word = scalar(qbinom(n, k).scale(-1 if k % 2 else 1))
                    for g in [gi] * (n - k) + [gj] + [gi] * k:
                        word = word * g
                    serre = serre + word
                if serre:
                    failures.append("serre %s_%d %s_%d" % (name, i, name, j))
    return failures


def check_omega_transfer(image):
    """Transposing e_i and applying t -> 1/t, zeta -> 1/zeta gives f_i."""
    for i in range(len(image.exps)):
        e = e_op(image, i)
        f = f_op(image, i)
        if e is None or f is None:
            return False
        mapped = ScaledOp(-e.zexp, transpose(e.mat).map_values(subs_t_inverse))
        if mapped != f:
            return False
    return True


# -- roots --------------------------------------------------------------------

def bilinear(finite, ra, rb):
    """Bilinear form of two affine roots; delta pairs to zero with all."""
    return sum(ra.finite_part[i] * rb.finite_part[j] * finite.pairing(i, j)
               for i in range(finite.rank) for j in range(finite.rank))


def normal_order_check(roots):
    """Both normal-order conditions on a generated sequence.

    (a) real-plus roots come before imaginary roots before real-minus ones
    for every finite positive root; (b) whenever a root in the list is the
    sum of two others, it sits strictly between them.
    """
    pos = {r.coords(): i for i, r in enumerate(roots)}
    kinds = [r.kind for r in roots]
    first_imag = min((i for i, k in enumerate(kinds) if k == "imaginary"),
                     default=len(roots))
    last_imag = max((i for i, k in enumerate(kinds) if k == "imaginary"),
                    default=-1)
    for i, k in enumerate(kinds):
        if k == "real_plus" and i > first_imag:
            return False
        if k == "real_minus" and i < last_imag:
            return False
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = roots[i], roots[j]
            if _proportional(a, b):
                continue
            key = (tuple(x + y for x, y in zip(a.finite_part, b.finite_part)),
                   a.delta_mult + b.delta_mult)
            k = pos.get(key)
            if k is not None and not (i < k < j):
                return False
    return True


def _proportional(a, b):
    va = a.finite_part + (a.delta_mult,)
    vb = b.finite_part + (b.delta_mult,)
    for i in range(len(va)):
        for j in range(i + 1, len(va)):
            if va[i] * vb[j] != va[j] * vb[i]:
                return False
    return True


# -- prefactor tags -----------------------------------------------------------

def tag_inverse(tag):
    """The reciprocal t^-p exp(-T) of a `reference.PrefactorTag`."""
    return PrefactorTag(-tag.t_power, tuple(
        (n, sc, arg, -sg) for (n, sc, arg, sg) in tag.terms))


def tag_series(tag, order):
    """The prefactor t^p exp(T) of a `reference.PrefactorTag`, expanded."""
    return series_exp(tag.log_series(order)).scale(t_power(tag.t_power))


# -- reading back the JSON forms of `qaffine.serialize` -----------------------

def parse_series(blob):
    return ZetaSeries({t["deg"]: parse_qscalar(t["coeff"])
                       for t in blob["coeffs"]},
                      blob["order"], blob["min_deg"])


def parse_rational(blob):
    return ZetaRational({d: parse_qscalar(c) for d, c in blob["num"]},
                        {d: parse_qscalar(c) for d, c in blob["den"]})


_KIND_PARSERS = {"series": parse_series, "rational": parse_rational}


def parse_matrix(blob):
    kind = blob["scalar"]
    entries = {(e["i"], e["j"]): _KIND_PARSERS[kind](e["value"])
               for e in blob["entries"]}
    if kind == "series":
        one = ZetaSeries.one(blob["entries"][0]["value"]["order"]
                             if blob["entries"] else 0)
    else:
        one = ZetaRational.ONE
    return OpMatrix(blob["dim"], entries, one)


def parse_grid(blob):
    entries = {}
    one = ZetaRational.ONE
    for e in blob["entries"]:
        m = parse_matrix(e["op"])
        entries[(e["a"], e["b"])] = m
        one = m.one
    return Grid(blob["legs"], entries, blob["op_dim"], one)
