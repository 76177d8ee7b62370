"""The identity suite: exchange relations, dualities, gauge equivalence,
engine-against-closed-form equality, and the spectral-linear structure.

Every check returns a Verdict carrying the first failing coefficient when
something breaks; nothing here is numerical.  The relation, duality, L
gauge and structure checks compare matrices over the q-oscillator ring of
normal forms sum c S_delta x^kappa, built from the L-operator tables
(`LTable.ring`): an identity holds there exactly when it holds on every
state of the untruncated Fock space, so these checks read no Fock
dimension.  Inverses come from the one elimination, `grid_inverse`, with
unit pivots c x^kappa; a check finding none left fails and names the step.

Each identity that genuinely involves two spectral parameters is
homogeneous, so its one-variable scalars are first multiplied by one
common factor that clears every denominator in zeta.  No coefficient of a
catalog check keeps a denominator in t after that, so every check but the
engine's multiplies in one flat ring, the oscillator ring over
Z[t^(+-1)][u^(+-1), v^(+-1)] with R-matrices at delta = kappa = 0: on
integer coefficients, with no division and no gcd (`_Laurent2`).
"""

import functools
import time

from .scalars import (
    QScalar, _ONE_POLY, _p_add, _p_conv, _p_neg, t_power,
)
from .series import ZetaSeries, series_exp
from .rational import ZetaRational, _exquo
from .linalg import OpMatrix, OscElement, hat_and_check, embed_legs, kron
from .reference import (
    reference_matrix, r0_hat_matrix, l_table, l_tag, list_variants,
    exponent_tuple, grid_inverse, _reflected_inverse, NoPivotError,
)
from .engine import EngineParams, assemble

__all__ = ["Verdict", "check_engine", "check_ybe", "check_rll",
           "check_duality", "check_gauge", "check_structure",
           "suite_checks", "run_check", "run_suite"]


class Verdict:
    __slots__ = ("check", "algebra", "variant", "exponents", "passed",
                 "first_failure", "wall_time_ms")

    def __init__(self, check, algebra, variant, exponents, passed,
                 first_failure=None, wall_time_ms=0.0):
        self.check = check
        self.algebra = algebra
        self.variant = variant
        self.exponents = tuple(exponents)
        self.passed = passed
        self.first_failure = first_failure
        self.wall_time_ms = wall_time_ms

    def to_json(self):
        return {
            "check": self.check,
            "algebra": self.algebra,
            "variant": self.variant,
            "exponents": list(self.exponents),
            "pass": self.passed,
            "first_failure": self.first_failure,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }

    def __repr__(self):
        state = "pass" if self.passed else "FAIL(%s)" % (self.first_failure,)
        return "Verdict(%s %s/%s %s: %s)" % (self.check, self.algebra,
                                             self.variant, self.exponents,
                                             state)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        v = fn(*args, **kwargs)
        v.wall_time_ms = (time.perf_counter() - t0) * 1000.0
        return v
    return wrapper


# -- two-parameter identities in one integer ring ------------------------------

# A term c S_delta x^kappa u^i v^j t^k is keyed by H B^3 + (i B + j) B + k,
# H = ((delta_1 E + delta_2) E + kappa_1) E + kappa_2 = (key + _LOW_HALF) >>
# _LOW_BITS, 0 on an absent second copy.  A product of monomials adds the
# keys and 6 kappa_a . delta_b (its q-power) in t: exact while each field
# is in [-B/2, B/2) and each digit of H in [-E/2, E/2).  `_pack` refuses
# exponents of size 2^16 or more and `_place` digits of 2^4 or more, so a
# product of up to 32 lifted factors at delta = kappa = 0 stays in range,
# and of up to 8 elsewhere (q-shifts below 2^17); those formed here have at
# most four (an L gauge coefficient, two gauge monomials, a spectral weight).
_KEY_BASE, _EXPONENT_BOUND = 1 << 22, 1 << 16
_DIGIT_BASE, _DIGIT_BOUND = 1 << 8, 1 << 4
_LOW_BITS, _LOW_HALF = 66, (_KEY_BASE >> 1) * (_KEY_BASE ** 2 + _KEY_BASE + 1)


def _pack(i, j, k):
    if max(abs(i), abs(j), abs(k)) >= _EXPONENT_BOUND:
        raise ValueError("exponent out of range: a two-variable identity "
                         "takes exponents below 2^16 in size")
    return (i * _KEY_BASE + j) * _KEY_BASE + k


def _unpack(key):
    """(i, j, k) of a key: its three signed base-B digits."""
    half = _KEY_BASE // 2
    ij, k = divmod(key + half, _KEY_BASE)
    i, j = divmod(ij + half, _KEY_BASE)
    return i, j - half, k - half


def _place(delta, kappa):
    """What the key of a term at S_delta x^kappa adds to its (i, j, k)."""
    pad = (0,) * (2 - len(delta))
    high = 0
    for x in (*delta, *pad, *kappa, *pad):
        if abs(x) >= _DIGIT_BOUND:
            raise ValueError("oscillator exponent out of range: a two-"
                             "variable identity takes digits below 2^4")
        high = high * _DIGIT_BASE + x
    return high << _LOW_BITS


@functools.lru_cache(maxsize=None)
def _sector(high):
    """((delta_1, delta_2), (kappa_1, kappa_2)): the bytes of H + E/2."""
    d1, d2, k1, k2 = (x - 128 for x in (high + 0x80808080).to_bytes(4, "big"))
    return (d1, d2), (k1, k2)


class _Laurent2:
    """sum c S_delta x^kappa u^i v^j t^k in the q-oscillator ring over
    Z[t^(+-1)][u^(+-1), v^(+-1)], as {packed key: c} with no zero c; at
    delta = kappa = 0 a Laurent polynomial in u, v, and printed as one."""

    __slots__ = ("terms", "_parts")

    def __init__(self, terms):
        self.terms = terms
        self._parts = None

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return _Laurent2(_p_add(self.terms, other.terms))

    # OpMatrix.entry reads an absent entry as one - one (failure reports)
    def __neg__(self):
        return _Laurent2(_p_neg(self.terms))

    def __sub__(self, other):
        return self + -other

    def _decoded(self):
        """[(key, c, delta, kappa)], decoded once per element."""
        if self._parts is None:
            self._parts = [(key, c, *_sector((key + _LOW_HALF) >> _LOW_BITS))
                           for key, c in self.terms.items()]
        return self._parts

    # (S_d x^k)(S_e x^l) = q^(k . e) S_(d + e) x^(k + l); `_p_mul`'s Kronecker
    # substitution would build integers as wide as the packed keys' span
    def __mul__(self, other):
        out, right = {}, other._decoded()
        for ka, ca, _, (x1, x2) in self._decoded():
            for kb, cb, (d1, d2), _ in right:
                key = ka + kb + 6 * (x1 * d1 + x2 * d2)
                c = ca * cb
                if key in out:
                    c = out[key] + c
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return _Laurent2(out)

    def __eq__(self, other):
        return isinstance(other, _Laurent2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        # each coefficient of u^i v^j printed as the QScalar it is
        groups = {}
        for key, c in self.terms.items():
            i, j, k = _unpack(key)
            groups.setdefault((i, j), {})[k] = c
        return " + ".join("%s*u^%d*v^%d" % (QScalar(p, _canonical=True), i, j)
                          for (i, j), p in sorted(groups.items())) or "0"


_Laurent2.ONE = _Laurent2({0: 1})


# zeta^k lifts to u^(a k) v^(b k)
_LIFT_EXPONENTS = {"u": (1, 0), "v": (0, 1), "ratio": (1, -1), "uv": (1, 1)}


def _monomial(mode, k):
    a, b = _LIFT_EXPONENTS[mode]
    return _Laurent2({_pack(a * k, b * k, 0): 1})


def _lift(obj, mode):
    """A matrix over one-variable polynomials with coefficients in
    Z[t^(+-1)] (cleared of denominators), or over the oscillator ring with
    such coefficients, lifted into `_Laurent2`, a rational at delta =
    kappa = 0."""
    a, b = _LIFT_EXPONENTS[mode]

    def lift(x):
        terms = {}
        for dk, zr in (x.terms.items() if isinstance(x, OscElement)
                       else ((None, x),)):
            place = _place(*dk) if dk else 0
            if not zr.is_polynomial() or any(
                    c.den is not _ONE_POLY for c in zr.num.values()):
                raise ValueError("only a polynomial over Z[t^(+-1)] lifts to "
                                 "two variables: clear the denominators first")
            for e, c in zr.num.items():
                for k, n in c.num.items():
                    terms[place + _pack(a * e, b * e, k)] = n
        return _Laurent2(terms)
    return obj.map_values(lift, _Laurent2.ONE)


# -- engine against the closed forms ------------------------------------------

_ENGINE_SIDES = {
    "hat": ("chi", "phi"), "hat-twisted": ("chi", "phi"),
    "check": ("phi", "psi"), "check-twisted": ("phi", "psi"),
    "hat-1": ("chi", "phi"), "hat-2": ("chi", "phi"),
    "check-1": ("phi", "psi"), "check-2": ("phi", "psi"),
}


def engine_params_for(kind, algebra, variant, s, s1, s2, order, d):
    if kind == "r":
        return EngineParams(algebra, s, s1, s2, order=order)
    if variant not in _ENGINE_SIDES:
        raise ValueError("no engine assembles L-operator %r" % (variant,))
    left, right = _ENGINE_SIDES[variant]
    family = 2 if variant.endswith("-2") else 1
    twist = (1, 0) if variant.endswith("twisted") else None
    return EngineParams(algebra, s, s1, s2, order=order, left=left,
                        right=right, family=family, twist=twist, fock_dim=d)


def _tag_ratio(tag, a00, order):
    """The closed form's common scalar t^p exp(T) over the engine's
    exp(a_00), taken as t^p exp(T - a_00): one exponential and no series
    division."""
    ratio = series_exp(tag.log_series(order) - a00)
    if tag.t_power:
        ratio = ratio.scale(t_power(tag.t_power))
    return ratio


@_timed
def check_engine(kind, algebra, variant="plain", s=1, s1=0, s2=0, order=8,
                 d=None):
    """Assembled series equals tag-series times the transcribed matrix."""
    params = engine_params_for(kind, algebra, variant, s, s1, s2, order, d)
    ref = reference_matrix(kind, algebra, variant, s, s1, s2,
                           d=params.fock_dim)
    a00, engine_mat = assemble(params, split_prefactor=True)
    ref_mat = ref.expand(order)
    # both splits are exact; they may anchor the common scalar differently,
    # so compare through the unit ratio of the two prefactors
    ratio = _tag_ratio(ref.tag, a00, order)
    if ratio != ZetaSeries.one(order):
        ref_mat = ref_mat.map_values(lambda v: (v * ratio).truncate(order))
    exps = exponent_tuple(algebra, s, s1, s2)
    if engine_mat == ref_mat:
        return Verdict("engine", algebra, "%s/%s" % (kind, variant), exps,
                       True)
    where = engine_mat.first_difference(ref_mat)
    a = engine_mat.entry(*where)
    b = ref_mat.entry(*where)
    deg = next((k for k in range(min(a.order, b.order) + 1)
                if a.coeff(k) != b.coeff(k)), None)
    if deg is not None:
        a, b = a.coeff(deg), b.coeff(deg)
    return Verdict("engine", algebra, "%s/%s" % (kind, variant), exps, False,
                   {"entry": list(where), "degree": deg, "lhs": str(a),
                    "rhs": str(b)})


# -- Yang-Baxter ---------------------------------------------------------------

@_timed
def check_ybe(algebra, s=1, s1=0, s2=0):
    """Exact two-variable verification on three legs, both in the plain
    form and in the braid form of the permuted matrix."""
    ref = reference_matrix("r", algebra, "plain", s, s1, s2)
    n = ref.leg_dim
    # R(u) R(uv) R(v) on both sides: clearing c(zeta) scales each by
    # c(u) c(uv) c(v)
    mat, = _cleared(ref.matrix)
    r_u = _lift(mat, "u")
    r_v = _lift(mat, "v")
    r_uv = _lift(mat, "uv")
    r12 = embed_legs(r_u, (0, 1), 3, n)
    r13 = embed_legs(r_uv, (0, 2), 3, n)
    r23 = embed_legs(r_v, (1, 2), 3, n)
    lhs = r12 * r13 * r23
    rhs = r23 * r13 * r12
    exps = exponent_tuple(algebra, s, s1, s2)
    if lhs != rhs:
        where = lhs.first_difference(rhs)
        return Verdict("ybe", algebra, "plain", exps, False,
                       {"entry": list(where)})
    # braid form: (1 x Rc(u)) (Rc(uv) x 1) (1 x Rc(v)) and its mirror
    rc_u = hat_and_check(r_u)[1]
    rc_v = hat_and_check(r_v)[1]
    rc_uv = hat_and_check(r_uv)[1]
    eye = OpMatrix.identity(n, _Laurent2.ONE)
    lhs_b = kron(eye, rc_u) * kron(rc_uv, eye) * kron(eye, rc_v)
    rhs_b = kron(rc_v, eye) * kron(eye, rc_uv) * kron(rc_u, eye)
    if lhs_b != rhs_b:
        where = lhs_b.first_difference(rhs_b)
        return Verdict("ybe", algebra, "braid", exps, False,
                       {"entry": list(where)})
    return Verdict("ybe", algebra, "plain", exps, True)


# -- exchange relations on the q-oscillator ring -------------------------------

def _values(objs):
    """Every one-variable scalar of the matrices `objs`: each entry of one
    over rationals, each coefficient of one over the oscillator ring."""
    for obj in objs:
        for v in obj.entries.values():
            yield from (v.terms.values() if isinstance(v, OscElement)
                        else (v,))


def _map_scalars(obj, fn, one):
    """`obj` with fn applied to every one-variable scalar (`_values`); a
    matrix over rationals takes `one`."""
    if isinstance(obj.one, OscElement):
        return obj.map_values(lambda x: x.map(fn), obj.one.map(fn))
    return obj.map_values(fn, one)


def _cleared(*objs):
    """`objs` (matrices over one-variable rationals or over the oscillator
    ring with such coefficients), each times one common factor: the lcm C
    of all their zeta-denominators.  The relations checked here are
    homogeneous, so no verdict changes, and on the closed forms every
    scalar becomes a polynomial over Z[t^(+-1)] that `_lift` takes into two
    variables; a coefficient left with a denominator in t makes `_lift`
    raise ValueError.  n / D times C is n (C / D), one exact quotient per
    distinct D and no gcd per entry; a polynomial's form is unique."""
    dens = {frozenset(v.den.items()): v.den for v in _values(objs)
            if not v.is_polynomial()}
    if dens:
        common = ZetaRational.ONE
        for den in dens.values():
            common = common * ZetaRational(ZetaRational(common.num, den).den,
                                           _canonical=True)
        quo = {key: _exquo(common.num, den) for key, den in dens.items()}
        objs = [_map_scalars(obj, lambda v: ZetaRational(
            _p_conv(v.num, quo.get(frozenset(v.den.items()), common.num)),
            _canonical=True), ZetaRational.ONE) for obj in objs]
    return list(objs)


def _ring_failure(lhs, rhs, copies):
    """Where two unequal matrices over the oscillator ring on `copies`
    Fock copies first differ: the entry, the monomial S_delta x^kappa, and
    both coefficients there, an absent one read as zero."""
    ij = lhs.first_difference(rhs)
    x, y = {}, {}
    for side, v in ((x, lhs.entry(*ij)), (y, rhs.entry(*ij))):
        for key, c, delta, kappa in v._decoded():
            side.setdefault((delta[:copies], kappa[:copies]), {})[
                (key + _LOW_HALF) % (1 << _LOW_BITS) - _LOW_HALF] = c
    key = min(k for k in set(x) | set(y) if x.get(k) != y.get(k))
    return {"entry": list(ij), "delta": list(key[0]), "kappa": list(key[1]),
            "lhs": str(_Laurent2(x.get(key, {}))),
            "rhs": str(_Laurent2(y.get(key, {})))}


def _rll_residual(l_mat, l_type, r_flat):
    """None when the exchange relation R (L(u) x L(v)) = (L(v) x L(u)) R
    holds in the oscillator ring, so on every Fock state, else the
    first_failure of the verdict.  L and R are cleared of denominators and
    lifted to two variables, R at delta = kappa = 0."""
    (zero, _), = l_mat.one.terms
    l_mat, = _cleared(l_mat)
    rmat, = _cleared(hat_and_check(r_flat)[0 if l_type == "hat" else 1])
    l_u = _lift(l_mat, "u")
    l_v = _lift(l_mat, "v")
    r2 = _lift(rmat, "ratio")
    lhs = r2 * kron(l_u, l_v)
    rhs = kron(l_v, l_u) * r2
    return None if lhs == rhs else _ring_failure(lhs, rhs, len(zero))


def _l_operator(algebra, variant, exps):
    """(exchange type, matrix over the oscillator ring) of a transcribed
    L-operator; hat-2-inv is the reflected inverse of hat-2."""
    if ("l", algebra, variant) not in list_variants():
        raise ValueError("unsupported L-operator %r; supported: %s"
                         % ((algebra, variant), list_variants()))
    if variant == "hat-2-inv":
        return "check", _reflected_inverse(
            l_table(algebra, "hat-2", exps).ring())
    return variant.partition("-")[0], l_table(algebra, variant, exps).ring()


@_timed
def check_rll(algebra, variant, s=1, s1=0, s2=0):
    """The exchange relation for a transcribed L-operator against the
    R-matrix of the same exponents, on the untruncated Fock space."""
    r = reference_matrix("r", algebra, "plain", s, s1, s2)
    exps = exponent_tuple(algebra, s, s1, s2)
    try:
        l_type, l_mat = _l_operator(algebra, variant, exps)
        failure = _rll_residual(l_mat, l_type, r.matrix)
    except NoPivotError as exc:
        # only hat-2-inv, of check type, is an inverse
        l_type, failure = "check", {"detail": str(exc)}
    return Verdict("rll-%s" % l_type, algebra, variant, exps,
                   failure is None, failure)


# -- inversion and anti-involution dualities -----------------------------------

@_timed
def check_duality(algebra, variant, mode, s=1, s1=0, s2=0):
    """Inverting at reflected argument, or applying the oscillator
    anti-involution at reflected argument, flips the exchange-relation
    type.  tau acts on tables, so hat-2-inv has no tau duality."""
    r = reference_matrix("r", algebra, "plain", s, s1, s2)
    exps = exponent_tuple(algebra, s, s1, s2)
    try:
        l_type, l_mat = _l_operator(algebra, variant, exps)
        if mode == "inversion":
            derived = _reflected_inverse(l_mat)
        elif mode == "tau":
            derived = l_table(algebra, variant, exps).tau().ring()
        else:
            raise ValueError("duality mode must be 'inversion' or 'tau'")
        flipped = "check" if l_type == "hat" else "hat"
        failure = _rll_residual(derived, flipped, r.matrix)
    except NoPivotError as exc:
        failure = {"detail": str(exc)}
    return Verdict("duality-%s" % mode, algebra, variant, exps,
                   failure is None, failure)


# -- gauge equivalence ----------------------------------------------------------

def _gauge_weights(algebra, s1, s2, var):
    """Conjugating weights of the gauge diagonal var^(e_a) on the matrix
    leg, with e = (0, -s1) or (0, -s1, -s1 - s2)."""
    expos = (0, -s1) if algebra == "a1" else (0, -s1, -s1 - s2)
    return ([_monomial(var, k) for k in expos],
            [_monomial(var, -k) for k in expos])


def _gauged(family, algebra, s1, s2, base):
    """The gauge map on the lifted base operator: R is conjugated by the
    gauge diagonal in u on its first leg and in v on its second.  An
    L-operator is conjugated by the gauge diagonal on its matrix leg, and
    the spectral gauge map, conjugation by var^(s . D) on the Fock copies
    with s = (s1,) or (s1, s2), weighs its coefficient of S_delta by
    var^(s . delta), in the other variable."""
    if family == "r":
        (gu, gu_inv), (gv, gv_inv) = (_gauge_weights(algebra, s1, s2, var)
                                      for var in "uv")
        return base.scaled([x * y for x in gu for y in gv],
                           [x * y for x in gu_inv for y in gv_inv])
    g_var, gamma_var = ("v", "u") if family == "hat" else ("u", "v")
    rows, cols = _gauge_weights(algebra, s1, s2, g_var)
    a, b = _LIFT_EXPONENTS[gamma_var]

    def weigh(i, j, x):
        terms = {}
        for key, c, (d1, d2), _ in x._decoded():
            w = s1 * d1 + s2 * d2   # s . delta; delta_2 = 0 on one copy
            terms[key + _pack(a * w, b * w, 0)] = c
        return rows[i] * cols[j] * _Laurent2(terms)
    return OpMatrix(base.dim, {(i, j): weigh(i, j, x)
                               for (i, j), x in base.entries.items()},
                    base.one, _clean=True)


@_timed
def check_gauge(family, algebra, s, s1, s2=0):
    """The exact two-variable relation connecting different exponent
    choices through diagonal conjugation and the spectral gauge map."""
    exps = exponent_tuple(algebra, s, s1, s2)
    if family == "r":
        variant = "plain"
        refs = [reference_matrix("r", algebra, variant, *e)
                for e in ((s, s1, s2), (1, 0, 0))]
        (lhs, tag), (base, base_tag) = ((x.matrix, x.tag) for x in refs)
    else:
        variant = ("hat" if family == "hat" else "check") + (
            "" if algebra == "a1" else "-1")
        lhs, tag = l_table(algebra, variant, exps).ring(), l_tag(variant, s)
        base = l_table(algebra, variant,
                       exponent_tuple(algebra, 1, 0, 0)).ring()
        base_tag = l_tag(variant, 1)
    name = "gauge-%s" % family
    if tag != base_tag.subs_zeta_power(s):
        return Verdict(name, algebra, variant, exps, False,
                       {"detail": "prefactor tag mismatch"})
    # the gauge maps are linear, so one common factor clears both sides
    lhs, base2 = (_lift(x, "ratio") for x in _cleared(
        lhs, _map_scalars(base, lambda v: v.subs_power(s), ZetaRational.ONE)))
    rhs = _gauged(family, algebra, s1, s2, base2)
    if lhs == rhs:
        return Verdict(name, algebra, variant, exps, True)
    return Verdict(name, algebra, variant, exps, False,
                   _ring_failure(lhs, rhs, len(exps) - 1) if family != "r"
                   else {"entry": list(lhs.first_difference(rhs))})


# -- spectral-linear structure --------------------------------------------------

def _split(table, hi):
    """(L_plus, L_minus) of a table whose terms are in zeta^hi and
    zeta^(hi - 2): the terms of each power, minus those of the lower,
    as matrices over the oscillator ring with constant coefficients."""
    parts = ({}, {})
    for ab, terms in table.terms.items():
        for e, c, delta, kappa in terms:
            part = parts[0] if e == hi else parts[1]
            part[ab] = part.get(ab, ()) + (
                (0, c if e == hi else -c, delta, kappa),)
    return [table._replace(terms=part).ring() for part in parts]


def _decomposed(variant, algebra, invert):
    """(exponents, L_plus, L_minus, Pi) at the first exponents of the scan
    where the table is zeta^c (zeta L_plus - zeta^-1 L_minus), with L_plus
    upper- and L_minus lower-triangular on the matrix leg and the part
    `invert` names ("minus" for hat type, "plus" for check type)
    invertible; Pi is its inverse times the other part.  None when no
    exponents qualify."""
    for s in (-2, -1, 1, 2):
        for s1 in (-1, 0, 1):
            exps = exponent_tuple(algebra, s, s1, 0)
            table = l_table(algebra, variant, exps)
            degs = {term[0] for terms in table.terms.values()
                    for term in terms}
            if len(degs) != 2 or max(degs) - min(degs) != 2:
                continue
            lp, lm = _split(table, max(degs))
            if (any(a > b for a, b in lp.entries)
                    or any(a < b for a, b in lm.entries)):
                continue
            try:
                pi = (grid_inverse(lm) * lp if invert == "minus"
                      else grid_inverse(lp) * lm)
            except NoPivotError:
                continue
            return exps, lp, lm, pi
    return None


@_timed
def check_structure(algebra):
    """Linear decomposition at the derived special exponents, the constant
    exchange relations, projector idempotency, and the singular value at
    argument one, all in the oscillator ring."""
    n = 2 if algebra == "a1" else 3
    hat_variant = "hat" if algebra == "a1" else "hat-1"
    hat = _decomposed(hat_variant, algebra, "minus")
    if hat is None:
        return Verdict("structure", algebra, hat_variant, (), False,
                       {"detail": "no exponents with the stated "
                                  "triangularity"})
    # the parts and projectors are constant in zeta, so any lift will do
    hat_exps, lp, lm, pi = hat[0], *(_lift(m, "u") for m in hat[1:])
    failures = []
    if pi * pi != pi:
        failures.append("hat projector not idempotent")
    r0h = _lift(r0_hat_matrix(n).map_values(
        lambda c: ZetaRational({0: c}, _canonical=True), ZetaRational.ONE), "u")
    # the Hecke relation (R0 - q)(R0 + q^-1) = 0 gives the inverse
    r0h_inv = r0h - OpMatrix.identity(n * n, _Laurent2.ONE).scale(
        _Laurent2({_pack(0, 0, 6): 1, _pack(0, 0, -6): -1}))
    # equal-sign relations, then the mixed one; with the degenerate part
    # upper-triangular the mixed pairing couples the minus part first, and
    # the reversed pairing holds with the inverse constant matrix
    cases = (
        (r0h, lp, lp, lp, lp, "++"),
        (r0h, lm, lm, lm, lm, "--"),
        (r0h, lm, lp, lp, lm, "-+"),
        (r0h_inv, lp, lm, lm, lp, "+- (inverse matrix)"),
    )
    for smat, al, ar, bl, br, name in cases:
        if smat * kron(al, ar) != kron(bl, br) * smat:
            failures.append("exchange %s fails" % name)
    # at argument one the operator is L_plus - L_minus
    if not pi or (lp - lm) * pi:
        failures.append("hat operator at argument one is not singular")
    check = _decomposed("check" if algebra == "a1" else "check-1", algebra,
                        "plus")
    if check is None:
        failures.append("no check-side special exponents")
    else:
        lpc, lmc, pic = (_lift(m, "u") for m in check[1:])
        if pic * pic != pic:
            failures.append("check projector not idempotent")
        if not pic or (lpc - lmc) * pic:
            failures.append("check operator at argument one is not singular")
    passed = not failures
    return Verdict("structure", algebra, hat_variant, hat_exps, passed,
                   None if passed else {"detail": "; ".join(failures)})


# -- suite ----------------------------------------------------------------------

def suite_checks(algebra=None, order=8, fock=12):
    """Catalog of named checks with acceptance-level parameters; `fock`
    sizes the printed block of the a1 engine L-operator checks, and no
    other check reads a Fock dimension."""
    a2_order = min(order, 6)
    out = []

    def add(cid, fn, **kw):
        out.append((cid, fn, kw))

    if algebra in (None, "a1"):
        add("a1-engine-r", "check_engine",
            kind="r", algebra="a1", s=1, s1=0, order=order)
        for v in ("hat", "hat-twisted", "check", "check-twisted"):
            add("a1-engine-%s" % v, "check_engine", kind="l", algebra="a1",
                variant=v, s=1, s1=0, order=order, d=fock)
        for exps in ((1, 0), (-2, -1), (2, 1)):
            add("a1-ybe-%d_%d" % exps, "check_ybe", algebra="a1",
                s=exps[0], s1=exps[1])
        for v in ("hat", "hat-twisted", "check", "check-twisted"):
            add("a1-rll-%s" % v, "check_rll", algebra="a1", variant=v,
                s=1, s1=0)
        for mode in ("inversion", "tau"):
            add("a1-duality-%s-hat" % mode, "check_duality", algebra="a1",
                variant="hat", mode=mode, s=1, s1=0)
            add("a1-duality-%s-check" % mode, "check_duality", algebra="a1",
                variant="check", mode=mode, s=1, s1=0)
        add("a1-gauge-r", "check_gauge", family="r", algebra="a1", s=-2,
            s1=-1)
        add("a1-gauge-hat", "check_gauge", family="hat", algebra="a1", s=2,
            s1=1)
        add("a1-gauge-check", "check_gauge", family="check", algebra="a1",
            s=3, s1=-1)
        add("a1-structure", "check_structure", algebra="a1")
    if algebra in (None, "a2"):
        add("a2-engine-r", "check_engine", kind="r", algebra="a2",
            s=1, s1=0, s2=0, order=a2_order)
        for v in ("hat-1", "hat-2", "check-1", "check-2"):
            add("a2-engine-%s" % v, "check_engine", kind="l", algebra="a2",
                variant=v, s=1, s1=0, s2=0, order=a2_order, d=6)
        for exps in ((1, 0, 0), (-2, 0, 0), (2, 1, -1)):
            add("a2-ybe-%d_%d_%d" % exps, "check_ybe", algebra="a2",
                s=exps[0], s1=exps[1], s2=exps[2])
        for v in ("hat-1", "hat-2", "check-1", "check-2", "check-inv",
                  "hat-2-inv"):
            add("a2-rll-%s" % v, "check_rll", algebra="a2", variant=v,
                s=1, s1=0, s2=0)
        for mode in ("inversion", "tau"):
            add("a2-duality-%s-hat-1" % mode, "check_duality", algebra="a2",
                variant="hat-1", mode=mode, s=1, s1=0, s2=0)
            add("a2-duality-%s-check-1" % mode, "check_duality",
                algebra="a2", variant="check-1", mode=mode, s=1, s1=0, s2=0)
        add("a2-gauge-r", "check_gauge", family="r", algebra="a2", s=-2,
            s1=0, s2=0)
        add("a2-gauge-hat", "check_gauge", family="hat", algebra="a2", s=2,
            s1=1, s2=0)
        add("a2-gauge-check", "check_gauge", family="check", algebra="a2",
            s=2, s1=0, s2=1)
        add("a2-structure", "check_structure", algebra="a2")
    return out


_CHECK_FNS = {
    "check_engine": check_engine,
    "check_ybe": check_ybe,
    "check_rll": check_rll,
    "check_duality": check_duality,
    "check_gauge": check_gauge,
    "check_structure": check_structure,
}


def run_check(item):
    cid, fn_name, kwargs = item
    verdict = _CHECK_FNS[fn_name](**kwargs)
    return cid, verdict


def run_suite(checks, workers=1):
    """Run checks, on a process pool of at most `workers` processes and no
    more than there are checks; results sorted by id."""
    workers = min(workers, len(checks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_check, checks))
    else:
        results = [run_check(c) for c in checks]
    return sorted(results, key=lambda kv: kv[0])
