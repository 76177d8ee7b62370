"""The identity suite: exchange relations, dualities, gauge equivalence,
engine-against-closed-form equality, and the spectral-linear structure.

Every check returns a Verdict carrying the first failing coefficient when
something breaks; nothing here is numerical.  The relation, duality, L
gauge and structure checks compare matrices over the q-oscillator ring of
normal forms sum c S_delta x^kappa (`linalg.OscPoly`): an identity holds
there exactly when it holds on every state of the untruncated Fock space,
so these checks read no Fock dimension.  They read the closed forms as
forms (N, D), an integer numerator matrix over one central divisor
(`reference`); inverses come from the one fraction-free elimination,
`grid_inverse`, with unit pivots c x^kappa, and a check finding none left
fails and names the step.

Each identity that genuinely involves two spectral parameters is
homogeneous, so the Yang-Baxter, exchange and duality checks drop the
divisors, the gauge check cross-multiplies them, and the structure check
compares Pi^2 with D Pi.  Every check but the engine's then multiplies in
the one ring, over Z[t^(+-1)][u^(+-1), v^(+-1)] with R-matrices at
delta = kappa = 0: on integer coefficients, with no division and no gcd.
"""

import functools
import os
import time

from .scalars import t_power
from .series import ZetaSeries, series_exp
from .linalg import (
    OpMatrix, OscPoly, hat_or_check, embed_legs, kron, _low, _pack,
)
from .reference import (
    reference_matrix, r_form, r_tag, r0_hat_matrix, l_table, l_tag,
    list_variants, exponent_tuple, grid_inverse, _reflected_inverse,
    NoPivotError,
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

# zeta^k lifts to u^(a k) v^(b k)
_LIFT_EXPONENTS = {"u": (1, 0), "v": (0, 1), "ratio": (1, -1), "uv": (1, 1)}


def _monomial(mode, k):
    a, b = _LIFT_EXPONENTS[mode]
    return OscPoly({_pack(a * k, b * k, 0): 1})


def _lift(m, mode):
    """A matrix over the oscillator ring in one spectral variable (zeta in
    u) in two: zeta lifted by `mode`."""
    return m.map_values(lambda x: x.spectral(*_LIFT_EXPONENTS[mode]))


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
    # R(u) R(uv) R(v) on both sides: dropping the divisor D(zeta) scales
    # each by D(u) D(uv) D(v)
    r_u, _ = r_form(algebra, s, s1, s2)
    n = 2 if algebra == "a1" else 3
    r_v = _lift(r_u, "v")
    r_uv = _lift(r_u, "uv")
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
    rc_u = hat_or_check(r_u, "check")
    rc_v = hat_or_check(r_v, "check")
    rc_uv = hat_or_check(r_uv, "check")
    eye = OpMatrix.identity(n, OscPoly.ONE)
    lhs_b = kron(eye, rc_u) * kron(rc_uv, eye) * kron(eye, rc_v)
    rhs_b = kron(rc_v, eye) * kron(eye, rc_uv) * kron(rc_u, eye)
    if lhs_b != rhs_b:
        where = lhs_b.first_difference(rhs_b)
        return Verdict("ybe", algebra, "braid", exps, False,
                       {"entry": list(where)})
    return Verdict("ybe", algebra, "plain", exps, True)


# -- exchange relations on the q-oscillator ring -------------------------------

def _ring_failure(lhs, rhs, copies):
    """Where two unequal matrices over the oscillator ring on `copies`
    Fock copies first differ: the entry, the monomial S_delta x^kappa, and
    both coefficients there, an absent one read as zero."""
    ij = lhs.first_difference(rhs)
    x, y = {}, {}
    for side, v in ((x, lhs.entry(*ij)), (y, rhs.entry(*ij))):
        for key, c, delta, kappa in v._decoded():
            side.setdefault((delta[:copies], kappa[:copies]), {})[
                _low(key)] = c
    key = min(k for k in set(x) | set(y) if x.get(k) != y.get(k))
    return {"entry": list(ij), "delta": list(key[0]), "kappa": list(key[1]),
            "lhs": str(OscPoly(x.get(key, {}))),
            "rhs": str(OscPoly(y.get(key, {})))}


def _rll_residual(l_mat, l_type, r_flat):
    """None when the exchange relation R (L(u) x L(v)) = (L(v) x L(u)) R
    holds in the oscillator ring, so on every Fock state, else the
    first_failure of the verdict.  L and R are the numerators of their
    forms in zeta = u, lifted to two variables, R at delta = kappa = 0;
    an n x n L-operator acts on n - 1 Fock copies."""
    l_v = _lift(l_mat, "v")
    r2 = _lift(hat_or_check(r_flat, l_type), "ratio")
    lhs = r2 * kron(l_mat, l_v)
    rhs = kron(l_v, l_mat) * r2
    return (None if lhs == rhs
            else _ring_failure(lhs, rhs, l_mat.dim - 1))


def _l_operator(algebra, variant, exps):
    """(exchange type, form) of a transcribed L-operator; hat-2-inv is the
    reflected inverse of hat-2."""
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
    r, _ = r_form(algebra, s, s1, s2)
    exps = exponent_tuple(algebra, s, s1, s2)
    try:
        l_type, (l_mat, _) = _l_operator(algebra, variant, exps)
        failure = _rll_residual(l_mat, l_type, r)
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
    r, _ = r_form(algebra, s, s1, s2)
    exps = exponent_tuple(algebra, s, s1, s2)
    try:
        l_type, form = _l_operator(algebra, variant, exps)
        if mode == "inversion":
            derived, _ = _reflected_inverse(form)
        elif mode == "tau":
            derived, _ = l_table(algebra, variant, exps).tau().ring()
        else:
            raise ValueError("duality mode must be 'inversion' or 'tau'")
        flipped = "check" if l_type == "hat" else "hat"
        failure = _rll_residual(derived, flipped, r)
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
        return rows[i] * cols[j] * OscPoly(terms)
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
        (lhs, den), (base, base_den) = (r_form(algebra, *e)
                                        for e in ((s, s1, s2), (1, 0, 0)))
        tag, base_tag = r_tag(algebra, s), r_tag(algebra, 1)
    else:
        variant = ("hat" if family == "hat" else "check") + (
            "" if algebra == "a1" else "-1")
        lhs, den = l_table(algebra, variant, exps).ring()
        base, base_den = l_table(algebra, variant,
                                 exponent_tuple(algebra, 1, 0, 0)).ring()
        tag, base_tag = l_tag(variant, s), l_tag(variant, 1)
    name = "gauge-%s" % family
    if tag != base_tag.subs_zeta_power(s):
        return Verdict(name, algebra, variant, exps, False,
                       {"detail": "prefactor tag mismatch"})
    # the gauge maps are linear, so N / D = gauged(N_b) / D_b is checked
    # cross-multiplied, the base at zeta^s and both at zeta = u / v
    a, b = _LIFT_EXPONENTS["ratio"]
    rhs = _gauged(family, algebra, s1, s2, base.map_values(
        lambda x: x.spectral(s * a, s * b))).scale(den.spectral(a, b))
    lhs = _lift(lhs, "ratio").scale(base_den.spectral(s * a, s * b))
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
    # the tables split here carry no divisor
    return [table._replace(terms=part).ring()[0] for part in parts]


def _decomposed(variant, algebra, invert):
    """(exponents, L_plus, L_minus, Pi, D) at the first exponents of the
    scan where the table is zeta^c (zeta L_plus - zeta^-1 L_minus), with
    L_plus upper- and L_minus lower-triangular on the matrix leg and the
    part `invert` names ("minus" for hat type, "plus" for check type)
    invertible; Pi / D is its inverse times the other part.  None when no
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
                inv, den = grid_inverse(lm if invert == "minus" else lp)
            except NoPivotError:
                continue
            return exps, lp, lm, inv * (lp if invert == "minus" else lm), den
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
    # the parts and projectors are constant in zeta; Pi / D is idempotent
    hat_exps, lp, lm, pi, den = hat
    failures = []
    if pi * pi != pi.scale(den):
        failures.append("hat projector not idempotent")
    r0h = r0_hat_matrix(n)
    # the Hecke relation (R0 - q)(R0 + q^-1) = 0 gives the inverse
    r0h_inv = r0h - OpMatrix.identity(n * n, OscPoly.ONE).scale(
        OscPoly({_pack(0, 0, 6): 1, _pack(0, 0, -6): -1}))
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
        _, lpc, lmc, pic, den = check
        if pic * pic != pic.scale(den):
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
    """Run checks in `workers` processes, counting the caller and never
    more than there are checks; results sorted by id.  Process k runs
    checks[k::workers]: the caller is k = 0 and every other one a child
    forked here, which sends back its results over a pipe."""
    workers = min(workers, len(checks))
    if workers > 1:
        results = _run_forked(checks, workers)
    else:
        results = [run_check(c) for c in checks]
    return sorted(results, key=lambda kv: kv[0])


def _run_forked(checks, workers):
    """The (id, Verdict) pairs of every slice.  Each child writes one
    pickled list of pairs, or the exception it met, to its own pipe and
    leaves by os._exit; the caller reads every pipe to EOF and reaps every
    child, stopping those it has not read when its own slice raises.  The
    caller runs no other thread, as a fork needs."""
    import pickle
    import signal
    children = {}   # pid: the read end of its pipe
    reaped = set()
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller's frames
                status = 1
                try:
                    try:
                        out = [run_check(c) for c in checks[k::workers]]
                    except Exception as exc:
                        out = exc
                    with os.fdopen(write_end, "wb") as fh:
                        pickle.dump(out, fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children[pid] = os.fdopen(read_end, "rb")
        results = [run_check(c) for c in checks[::workers]]
        for pid, pipe in children.items():
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            # a child exits 0 only once it has written all of its results
            if code:
                raise RuntimeError("check process %d ended with exit code "
                                   "%d before sending its results"
                                   % (pid, code))
            out = pickle.loads(data)
            if isinstance(out, Exception):
                raise out
            results += out
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
