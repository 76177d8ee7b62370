import json

import pytest

import derivation_factors
from product_builders import FockCopies
from qaffine import rational, reference, scalars, verify
from qaffine.cli import main
from qaffine.linalg import (
    OpMatrix, Grid, grid_akp, hat_and_check, fock_window, kron,
)
from qaffine.rational import ZetaRational
from qaffine.reference import reference_matrix
from qaffine.scalars import QScalar, parse_qscalar, q_power
from qaffine.series import ZetaSeries, series_exp
from oracles import diagonal_matrix, grid_identity, tag_series, zeta_monomial
from qaffine.verify import (
    Verdict, check_engine, check_ybe, check_rll, check_duality, check_gauge,
    check_structure, suite_checks, run_suite,
)


def test_ybe_a1_passes_and_perturbation_fails(perturb_r):
    v = check_ybe("a1", s=1, s1=0)
    assert v.passed
    v2 = check_ybe("a1", s=-2, s1=-1)
    assert v2.passed
    perturb_r()
    bad = check_ybe("a1", s=1, s1=0)
    assert not bad.passed
    assert bad.first_failure == {"entry": [1, 2]}


def test_ybe_a2(perturb_r):
    assert check_ybe("a2", s=-2, s1=0, s2=0).passed
    assert check_ybe("a2", s=1, s1=0, s2=0).passed
    perturb_r()
    bad = check_ybe("a2", s=1, s1=0, s2=0)
    assert bad.first_failure == {"entry": [1, 3]}


def test_rll_a1_all_variants(monkeypatch):
    for variant in ("hat", "hat-twisted", "check", "check-twisted"):
        v = check_rll("a1", variant, s=1, s1=0, d=9)
        assert v.passed, v
    # scalar dressing never changes the verdict: the L-operator times an
    # arbitrary rational scalar
    real = verify.reference_matrix
    dress = ZetaRational({0: QScalar.ONE, 1: q_power(3)})

    def dressed(kind, *args, **kwargs):
        ref = real(kind, *args, **kwargs)
        if kind == "l":
            ref.matrix = ref.matrix.map_ops(
                lambda m: m.map_values(lambda v: v * dress))
        return ref
    monkeypatch.setattr(verify, "reference_matrix", dressed)
    v = check_rll("a1", "hat", s=1, s1=0, d=9)
    assert v.passed


def test_rll_a1_other_exponents():
    assert check_rll("a1", "hat", s=2, s1=1, d=9).passed


def test_rll_a2_family1():
    assert check_rll("a2", "hat-1", s=1, s1=0, s2=0, d=5).passed
    assert check_rll("a2", "check-1", s=1, s1=0, s2=0, d=5).passed


def test_rll_a2_family2_and_derived():
    assert check_rll("a2", "hat-2", s=1, s1=0, s2=0, d=5).passed
    assert check_rll("a2", "check-2", s=1, s1=0, s2=0, d=5).passed
    assert check_rll("a2", "check-inv", s=1, s1=0, s2=0, d=5).passed
    assert check_rll("a2", "hat-2-inv", s=1, s1=0, s2=0, d=5).passed


def test_duality_a1():
    for mode in ("inversion", "tau"):
        assert check_duality("a1", "hat", mode, s=1, s1=0, d=9).passed
        assert check_duality("a1", "check", mode, s=1, s1=0, d=9).passed
    # the reflected inverse is an involution
    ref = reference_matrix("l", "a1", "hat", 1, 0, 0, d=6)
    twice = verify._reflected_inverse(verify._reflected_inverse(ref.matrix))
    assert twice == ref.matrix


def test_duality_a2_family1():
    for mode in ("inversion", "tau"):
        assert check_duality("a2", "hat-1", mode, s=1, s1=0, s2=0, d=4).passed
        assert check_duality("a2", "check-1", mode, s=1, s1=0, s2=0,
                             d=4).passed


def test_gauge_r():
    assert check_gauge("r", "a1", s=-2, s1=-1).passed
    assert check_gauge("r", "a1", s=3, s1=2).passed
    assert check_gauge("r", "a2", s=-2, s1=0, s2=0).passed
    assert check_gauge("r", "a2", s=2, s1=-1, s2=1).passed


def test_gauge_l():
    assert check_gauge("hat", "a1", s=2, s1=1).passed
    assert check_gauge("check", "a1", s=-2, s1=1).passed
    assert check_gauge("hat", "a2", s=2, s1=1, s2=0).passed
    assert check_gauge("check", "a2", s=2, s1=0, s2=1).passed


def test_structure():
    v1 = check_structure("a1", d=8)
    assert v1.passed, v1
    v2 = check_structure("a2", d=5)
    assert v2.passed, v2


@pytest.mark.parametrize("algebra, variant, invert, d", [
    ("a1", "hat", "minus", 8), ("a1", "check", "plus", 12),
    ("a2", "hat-1", "minus", 6), ("a2", "check-1", "plus", 8),
])
def test_singular_value_at_one_needs_an_annihilated_column(algebra, variant,
                                                           invert, d):
    _, ref, (_, _, pi, _) = verify._decomposed(variant, algebra, d, invert)
    assert verify._annihilates_at_one(ref, pi)
    # the operator at argument one is not zero, and no column is no check
    eye = grid_identity(pi.n, pi.op_dim, pi.one)
    assert not verify._annihilates_at_one(ref, eye)
    assert not verify._annihilates_at_one(ref, Grid(pi.n, {}, pi.op_dim,
                                                    pi.one))
    # a column outside the ground window is not read: a projector onto the
    # Fock state with two quanta in one copy, which the operator at one
    # does not kill, changes nothing
    ops = dict(pi.entries)
    ops[(0, 0)] = pi.entry(0, 0) + OpMatrix(pi.op_dim, {(2, 2): pi.one},
                                            pi.one)
    wider = Grid(pi.n, ops, pi.op_dim, pi.one)
    assert verify._annihilates_at_one(ref, wider)


def test_engine_verdict_json_roundtrip():
    v = check_engine("r", "a1", s=1, s1=0, order=4)
    assert v.passed
    blob = json.dumps(v.to_json())
    back = json.loads(blob)
    assert back["check"] == "engine"
    assert back["pass"] is True
    assert back["wall_time_ms"] >= 0


def test_engine_check_reports_failure_location(monkeypatch):
    # the closed form with one entry times q: the verdict names the entry,
    # the first degree where it differs, and both coefficients there
    def perturbed(*args, **kwargs):
        ref = reference_matrix(*args, **kwargs)
        entries = dict(ref.matrix.entries)
        entries[(1, 2)] = entries[(1, 2)] * zeta_monomial(0, q_power(1))
        ref.matrix = OpMatrix(ref.matrix.dim, entries, ref.matrix.one)
        return ref
    monkeypatch.setattr(verify, "reference_matrix", perturbed)
    v = check_engine("r", "a1", s=1, s1=0, order=4)
    assert v.passed is False
    assert v.first_failure["entry"] == [1, 2]
    assert v.first_failure["degree"] is not None
    lhs, rhs = (parse_qscalar(v.first_failure[k]) for k in ("lhs", "rhs"))
    assert lhs and rhs == lhs * q_power(1)
    json.dumps(v.to_json())


def test_suite_catalog_and_serial_runner():
    checks = [c for c in suite_checks(algebra="a1", order=4, fock=7)
              if c[0].startswith(("a1-ybe", "a1-gauge"))]
    results = run_suite(checks, workers=1)
    assert [cid for cid, _ in results] == sorted(cid for cid, _, _ in checks)
    assert all(v.passed for _, v in results)


def test_suite_parallel_runner_deterministic():
    checks = [c for c in suite_checks(algebra="a1", order=4, fock=7)
              if c[0].startswith("a1-ybe")]
    serial = run_suite(checks, workers=1)
    parallel = run_suite(checks, workers=2)
    assert [cid for cid, _ in serial] == [cid for cid, _ in parallel]
    assert all(v.passed for _, v in parallel)


@pytest.mark.parametrize("family", ["r", "hat"])
def test_gauge_tag_mismatch_fails_the_verdict(family, monkeypatch):
    from qaffine.reference import PrefactorTag
    shifted = lambda tag, k: PrefactorTag(tag.t_power + 1, tag.terms)
    monkeypatch.setattr(PrefactorTag, "subs_zeta_power", shifted)
    v = check_gauge(family, "a1", s=2, s1=1)
    assert v.passed is False
    assert v.first_failure == {"detail": "prefactor tag mismatch"}


@pytest.mark.parametrize("family", ["r", "hat", "check"])
@pytest.mark.parametrize("algebra, s1, s2", [
    ("a1", 1, 0), ("a1", -2, 0), ("a2", 1, 0), ("a2", -1, 2),
])
def test_gauge_map_matches_products_with_diagonal_matrices(family, algebra,
                                                           s1, s2):
    # the gauge diagonals G_var = diag(var^(e_a)) and the spectral gauge
    # map Gamma_var = diag(var^(s . n)) on the Fock states, built as
    # matrices with their inverses, applied by matrix products
    d, s = 3, 2
    one = verify._Laurent2.ONE
    mono = verify._monomial
    expos = (0, -s1) if algebra == "a1" else (0, -s1, -s1 - s2)

    def gauge(var, sign):
        return diagonal_matrix([mono(var, sign * e) for e in expos], one)
    kind = "r" if family == "r" else "l"
    variant = "plain" if family == "r" else family + (
        "" if algebra == "a1" else "-1")
    ref = reference_matrix(kind, algebra, variant, 1, 0, 0, d=d)
    base, = verify._cleared(ref.matrix.map_values(
        lambda v: v.subs_power(s), ZetaRational.ONE))
    base = verify._lift(base, "ratio")
    got = verify._gauged(family, algebra, s1, s2, base, d)
    if family == "r":
        expect = (kron(gauge("u", 1), gauge("v", 1)) * base
                  * kron(gauge("u", -1), gauge("v", -1)))
        assert got == expect
        return
    s_exps = (s1,) if algebra == "a1" else (s1, s2)
    states = FockCopies(d, len(s_exps)).states

    def gamma(var, sign):
        return diagonal_matrix(
            [mono(var, sign * sum(a * n for a, n in zip(s_exps, st)))
             for st in states], one)
    g_var, gamma_var = ("v", "u") if family == "hat" else ("u", "v")
    conj = base.lmul_scalar_matrix(gauge(g_var, 1)).rmul_scalar_matrix(
        gauge(g_var, -1))
    expect = conj.map_ops(
        lambda m: gamma(gamma_var, 1) * m * gamma(gamma_var, -1))
    assert got == expect
    with pytest.raises(ValueError):
        base.scaled(rows=[one] * (base.n + 1))


# -- the exchange relation computed on the Fock window alone ------------------

def _perturbed_l(algebra, variant, d):
    """The transcribed L-operator with one entry inside the window (Fock
    entry (0, 0) of grid entry (0, 0)) multiplied by q, and the R-matrix."""
    ref = reference_matrix("l", algebra, variant, 1, 0, 0, d=d)
    r = reference_matrix("r", algebra, "plain", 1, 0, 0)
    op = ref.matrix.entry(0, 0)
    entries = dict(op.entries)
    entries[(0, 0)] = entries[(0, 0)] * zeta_monomial(0, q_power(1))
    ops = dict(ref.matrix.entries)
    ops[(0, 0)] = OpMatrix(op.dim, entries, op.one)
    return ref, r, Grid(ref.matrix.n, ops, ref.matrix.op_dim, op.one)


def _restricted_after_product(l_grid, l_type, r_flat, d, copies):
    """The exchange relation as full products of the lifted operators,
    restricted to the window afterwards, with R times the product of its
    distinct denominators: where the two sides first differ, and both
    values there."""
    rmat = hat_and_check(r_flat)[0 if l_type == "hat" else 1]
    common = ZetaRational.ONE
    dens = []
    for v in rmat.entries.values():
        if not v.is_polynomial() and v.den not in dens:
            dens.append(v.den)
            common = common * ZetaRational(v.den)
    r2 = verify._lift(rmat.scale(common), "ratio")
    l_u = verify._lift(l_grid, "u")
    l_v = verify._lift(l_grid, "v")
    keep = fock_window(d, copies, verify.RELATION_MARGIN)
    lhs = grid_akp(l_u, l_v).lmul_scalar_matrix(r2).restrict(keep)
    rhs = grid_akp(l_v, l_u).rmul_scalar_matrix(r2).restrict(keep)
    ab, ij = lhs.first_difference(rhs)
    return {"entry": list(ab), "fock": list(ij),
            "lhs": str(lhs.entry(*ab).entry(*ij)),
            "rhs": str(rhs.entry(*ab).entry(*ij))}


@pytest.mark.parametrize("algebra, variant, d", [("a1", "hat", 7),
                                                 ("a2", "hat-1", 5)])
def test_rll_fails_where_the_restricted_product_differs(algebra, variant, d):
    ref, r, grid = _perturbed_l(algebra, variant, d)
    args = (grid, ref.l_type, r.matrix, d, ref.copies)
    failure = verify._rll_residual(*args)
    assert failure is not None
    assert failure == _restricted_after_product(*args)
    assert failure["lhs"] != failure["rhs"]
    assert verify._rll_residual(ref.matrix, *args[1:]) is None


@pytest.mark.parametrize("d", [3, 4])
def test_an_empty_relation_window_is_refused(d, capsys):
    # at d <= RELATION_MARGIN the window keeps no state: both sides of
    # every windowed relation would be empty and compare equal
    ref, r, grid = _perturbed_l("a1", "hat", d)
    args = (ref.l_type, r.matrix, d, ref.copies)
    if d <= verify.RELATION_MARGIN:
        with pytest.raises(ValueError):
            verify._rll_residual(grid, *args)
        for algebra, what in (("a1", "rll"), ("a1", "duality"),
                              ("a1", "structure"), ("a2", "rll")):
            argv = ["verify", what, "--algebra", algebra, "--fock", str(d)]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")
    else:
        # the window holds the ground state, where the perturbation sits
        assert verify._rll_residual(ref.matrix, *args) is None
        assert verify._rll_residual(grid, *args) is not None
        assert main(["verify", "rll", "--algebra", "a1", "--fock",
                     str(d)]) == 0


def test_failing_duality_reports_both_values(monkeypatch):
    _, _, grid = _perturbed_l("a1", "hat", 7)
    monkeypatch.setattr(verify, "_tau_l", lambda ref: grid)
    v = check_duality("a1", "hat", "tau", s=1, s1=0, d=7)
    assert v.passed is False
    assert set(v.first_failure) == {"entry", "fock", "lhs", "rhs"}
    assert v.first_failure["lhs"] != v.first_failure["rhs"]
    json.dumps(v.to_json())


# -- two-parameter identities in Z[t^(+-1)][u^(+-1), v^(+-1)] ----------------

def test_two_variable_ring_arithmetic():
    def ring(terms):
        # terms keyed by exponent tuples, stored under their packed keys
        return verify._Laurent2({verify._pack(*key): c
                                 for key, c in terms.items()})
    u = ring({(1, 0, 0): 1})
    v = ring({(0, 1, 0): 1})
    t6 = ring({(0, 0, 6): 1})
    # (u - v)(u + v) == u^2 - v^2
    assert (u - v) * (u + v) == u * u - v * v
    assert (u - v) * (u + v) == ring({(2, 0, 0): 1, (0, 2, 0): -1})
    assert u - u == ring({}) and not (u - u)
    assert (u * v * v).inverse() * u == ring({(0, -2, 0): 1})
    assert ring({(3, -1, 12): 1}).inverse() == ring({(-3, 1, -12): 1})
    assert ring({(3, -1, 12): -1}).inverse() == ring({(-3, 1, -12): -1})
    with pytest.raises(ArithmeticError):
        (u - v).inverse()
    with pytest.raises(ArithmeticError):
        ring({}).inverse()
    with pytest.raises(ArithmeticError):
        ring({(1, 0, 6): 2}).inverse()
    # the t-terms of each u^i v^j print as one Q(t) coefficient
    x = (t6 - u.inverse()) * (t6 + u) - ring({(0, 0, 0): 1})
    assert str(x) == ("(-t^6)/(1)*u^-1*v^0 + (-2 + t^12)/(1)*u^0*v^0"
                      " + (t^6)/(1)*u^1*v^0")
    assert str(ring({})) == "0"
    # every key decodes to the exponents it was packed from
    for key in ((1, 0, 0), (-3, 1, -12), (0, -2, 0), (7, -7, 306)):
        assert verify._unpack(verify._pack(*key)) == key


def test_two_parameter_checks_run_on_cleared_polynomials():
    verdicts = [
        check_ybe("a1", s=1, s1=0), check_ybe("a1", s=-2, s1=-1),
        check_ybe("a2", s=1, s1=0, s2=0), check_ybe("a2", s=2, s1=1, s2=-1),
        check_rll("a1", "hat", s=1, s1=0, d=6),
        check_rll("a1", "check-twisted", s=1, s1=0, d=6),
        check_rll("a2", "check-1", s=1, s1=0, s2=0, d=6),
        check_rll("a2", "check-inv", s=1, s1=0, s2=0, d=6),
    ]
    for mode in ("inversion", "tau"):
        # Fock dimensions that keep the windows (drop 3 or 5) non-empty
        verdicts += [check_duality("a1", "hat", mode, s=1, s1=0, d=8),
                     check_duality("a1", "check", mode, s=1, s1=0, d=8),
                     check_duality("a2", "hat-1", mode, s=1, s1=0, s2=0,
                                   d=6)]
    for family in ("r", "hat", "check"):
        verdicts += [check_gauge(family, "a1", s=-2, s1=-1),
                     check_gauge(family, "a1", s=3, s1=2),
                     check_gauge(family, "a2", s=-3, s1=-2, s2=1),
                     check_gauge(family, "a2", s=2, s1=1, s2=-2)]
    assert [v for v in verdicts if not v.passed] == []
    # the lift takes polynomials only: a check that skipped the clearing
    # would fail loudly, not divide
    r = reference_matrix("r", "a1", "plain", 1, 0, 0).matrix
    assert any(not x.is_polynomial() for x in r.entries.values())
    for mode in ("u", "v", "ratio", "uv"):
        with pytest.raises(ValueError, match="polynomial"):
            verify._lift(r, mode)
        verify._lift(verify._cleared(r)[0], mode)


def _distinct(values):
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


@pytest.mark.parametrize("what", ["l a2 check-1", "l a2 hat-2", "r hat"])
def test_cleared_takes_one_gcd_per_distinct_denominator(what, monkeypatch):
    # the common factors are built with one gcd per distinct denominator
    # and applied by exact quotients: no entry takes a gcd of its own
    if what == "r hat":
        r = reference_matrix("r", "a2", "plain", 1, 0, 0).matrix
        obj = hat_and_check(r)[0]
    else:
        _, algebra, variant = what.split()
        obj = reference_matrix("l", algebra, variant, 1, 0, 0, d=8).matrix
    values = list(verify._values([obj]))
    z_dens = _distinct(v.den for v in values if not v.is_polynomial())
    t_dens = _distinct(c.den for v in values
                       for c in (*v.num.values(), *v.den.values())
                       if c.den != {0: 1})
    calls = {"zeta": 0, "t": 0}
    inside = []
    real_gcd, real_p_gcd = rational._gcd, scalars._p_gcd

    def gcd(a, b):
        calls["zeta"] += 1
        inside.append(True)
        try:
            return real_gcd(a, b)
        finally:
            inside.pop()

    def p_gcd(a, b):
        # a gcd in t taken inside the zeta gcd belongs to that one call
        if not inside:
            calls["t"] += 1
        return real_p_gcd(a, b)
    monkeypatch.setattr(rational, "_gcd", gcd)
    for module in (rational, scalars):
        monkeypatch.setattr(module, "_p_gcd", p_gcd)
    cleared, = verify._cleared(obj)
    assert calls["zeta"] <= len(z_dens) and calls["t"] <= len(t_dens)
    monkeypatch.undo()
    # the same objects as the reduced products by the common factor
    common = ZetaRational.ONE
    for den in z_dens:
        common = common * ZetaRational(ZetaRational(common.num, den).den)
    assert cleared == obj.map_values(lambda v: v * common)
    if what != "l a2 check-1":
        assert z_dens and len(z_dens) < sum(not v.is_polynomial()
                                            for v in values)


def test_lift_refuses_an_exponent_beyond_the_packing():
    # the packed key holds exponents below 2^16 in size, which keeps every
    # product of up to 32 lifted factors exact
    bound = verify._EXPONENT_BOUND
    assert bound == 1 << 16

    def entry(t_exp, z_exp=0):
        v = zeta_monomial(z_exp, QScalar({t_exp: 1}))
        return OpMatrix(1, {(0, 0): v}, ZetaRational.ONE)
    for mode in verify._LIFT_EXPONENTS:
        verify._lift(entry(bound - 1), mode)
        verify._lift(entry(1 - bound, bound - 1), mode)
        for bad in (entry(bound), entry(-bound), entry(0, bound),
                    entry(0, -bound)):
            with pytest.raises(ValueError, match="below 2\\^16"):
                verify._lift(bad, mode)
        with pytest.raises(ValueError):
            verify._monomial(mode, bound)
        verify._monomial(mode, bound - 1)


def test_cli_exits_2_where_an_exponent_leaves_the_packing(capsys):
    # the a1 L-operators carry t^(6 n) on Fock level n, so 11000 states
    # reach t^65994, beyond 2^16; the check is refused before any product
    argv = ["verify", "rll", "--algebra", "a1", "--fock", "11000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exponent") and "2^16" in err


# -- failure text, pinned ------------------------------------------------------

def test_failure_text_of_a_perturbed_rll_relation_is_pinned():
    ref, r, grid = _perturbed_l("a1", "hat", 7)
    failure = verify._rll_residual(grid, ref.l_type, r.matrix, 7, ref.copies)
    assert failure == {
        "entry": [0, 1], "fock": [0, 1],
        "lhs": "(1 - t^12)/(1)*u^0*v^1 + (-t^-12 + 1)/(1)*u^1*v^0",
        "rhs": "(t^-6 - t^6)/(1)*u^0*v^1"
               " + (-t^-12 - t^-6 + 2 + t^6 - t^12)/(1)*u^1*v^0",
    }


def test_a_failing_relation_reports_an_absent_entry_as_zero():
    # a new Fock entry (2, 0) in grid entry (0, 0): where the two sides
    # first differ only the right one has an entry, and the report reads
    # the left one as zero of the two-variable ring
    d = 6
    ref = reference_matrix("l", "a1", "hat", 1, 0, 0, d=d)
    r = reference_matrix("r", "a1", "plain", 1, 0, 0)
    op = ref.matrix.entry(0, 0)
    assert (2, 0) not in op.entries
    ops = dict(ref.matrix.entries)
    ops[(0, 0)] = OpMatrix(op.dim, {**op.entries, (2, 0): ZetaRational.ONE},
                           op.one)
    grid = Grid(ref.matrix.n, ops, ref.matrix.op_dim, op.one)
    failure = verify._rll_residual(grid, ref.l_type, r.matrix, d, ref.copies)
    assert failure == {
        "entry": [0, 1], "fock": [1, 0], "lhs": "0",
        "rhs": "(t^-18 - t^6)/(1)*u^0*v^1 + (-t^-18 + t^6)/(1)*u^1*v^0",
    }


def test_failure_text_of_a_failing_a2_gauge_verdict_is_pinned(monkeypatch):
    # the gauged closed form (s = 2) with grid entry (1, 1), Fock entry
    # (0, 0) times q; the base closed form (s = 1) is left as it is
    real = verify.reference_matrix

    def perturbed(kind, algebra, variant, s, s1, s2=0, d=12):
        ref = real(kind, algebra, variant, s, s1, s2, d=d)
        if s != 1:
            op = ref.matrix.entry(1, 1)
            entries = dict(op.entries)
            entries[(0, 0)] = entries[(0, 0)] * zeta_monomial(0, 
                q_power(1))
            ops = dict(ref.matrix.entries)
            ops[(1, 1)] = OpMatrix(op.dim, entries, op.one)
            ref.matrix = Grid(ref.matrix.n, ops, ref.matrix.op_dim, op.one)
        return ref
    monkeypatch.setattr(verify, "reference_matrix", perturbed)
    v = check_gauge("hat", "a2", s=2, s1=1, s2=0)
    assert v.passed is False
    assert v.first_failure == {
        "entry": [1, 1], "fock": [0, 0],
        "lhs": "(t^6)/(1)*u^0*v^0 + (-t^-6)/(1)*u^2*v^-2",
        "rhs": "(1)/(1)*u^0*v^0 + (-t^-12)/(1)*u^2*v^-2",
    }


# -- no check builds the ordered factors ---------------------------------------

def test_no_check_builds_ordered_factors(monkeypatch):
    # the factors live with the tests, out of the program's reach
    assert not any(hasattr(module, name)
                   for module in (reference, verify)
                   for name in ("ordered_factors", "_geom_inv"))

    def refuse(*args, **kwargs):
        raise AssertionError("a check built the ordered factors")
    monkeypatch.setattr(derivation_factors, "ordered_factors", refuse)
    monkeypatch.setattr(derivation_factors, "_geom_inv", refuse)
    verdicts = [
        check_engine("l", "a1", "hat", s=1, s1=0, order=3, d=5),
        check_engine("l", "a1", "check", s=1, s1=0, order=3, d=5),
        check_engine("l", "a2", "hat-1", s=1, s1=0, s2=0, order=1, d=4),
        check_engine("l", "a2", "check-1", s=1, s1=0, s2=0, order=1, d=4),
        check_rll("a1", "hat", s=1, s1=0, d=6),
        check_rll("a1", "check", s=1, s1=0, d=6),
        check_rll("a2", "hat-1", s=1, s1=0, s2=0, d=5),
        check_rll("a2", "check-1", s=1, s1=0, s2=0, d=5),
        check_duality("a1", "hat", "inversion", s=1, s1=0, d=6),
        check_duality("a1", "check", "tau", s=1, s1=0, d=6),
        check_duality("a2", "hat-1", "inversion", s=1, s1=0, s2=0, d=4),
        check_duality("a2", "check-1", "tau", s=1, s1=0, s2=0, d=4),
        check_gauge("hat", "a1", s=2, s1=1),
        check_gauge("check", "a1", s=-2, s1=1),
        check_gauge("hat", "a2", s=2, s1=1, s2=0),
        check_gauge("check", "a2", s=2, s1=0, s2=1),
        check_structure("a1", d=6),
        check_structure("a2", d=5),
    ]
    assert [v for v in verdicts if not v.passed] == []


# -- the common scalar is compared without a series division -----------------

_ENGINE_CATALOG = {cid: kw for cid, fn, kw in suite_checks()
                   if fn == "check_engine"}


@pytest.mark.parametrize("cid, anchors_differ", [
    ("a1-engine-r", True), ("a1-engine-check", True),
    ("a1-engine-hat-twisted", True), ("a2-engine-r", True),
    ("a2-engine-hat-2", True), ("a1-engine-hat", False),
])
def test_tag_ratio_equals_quotient_of_exponentials(monkeypatch, cid,
                                                   anchors_differ):
    # the ratio check_engine forms, t^p exp(T - a_00), against the quotient
    # of the two expanded scalars it replaced
    seen = []
    tag_ratio = verify._tag_ratio

    def recording(tag, a00, order):
        seen.append((tag, a00, order, tag_ratio(tag, a00, order)))
        return seen[-1][-1]
    monkeypatch.setattr(verify, "_tag_ratio", recording)
    assert check_engine(**_ENGINE_CATALOG[cid]).passed
    (tag, a00, order, ratio), = seen
    assert ratio == tag_series(tag, order) * series_exp(a00).inverse()
    assert (ratio != ZetaSeries.one(order)) is anchors_differ


def test_no_engine_check_divides_a_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine check inverted a series")
    monkeypatch.setattr(ZetaSeries, "inverse", refuse)
    verdicts = [check_engine(**kw) for kw in _ENGINE_CATALOG.values()]
    assert len(verdicts) == 10
    assert [v for v in verdicts if not v.passed] == []


# -- the pool is sized by the work ---------------------------------------------

class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, starting none."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("prefix, workers, expected", [
    ("a1-ybe", 500, [3]), ("a1-ybe", 3, [3]), ("a1-ybe", 2, [2]),
    ("a1-ybe", 1, []), ("a1-ybe-1_0", 500, []),
])
def test_pool_is_no_larger_than_the_checks(prefix, workers, expected,
                                           monkeypatch):
    # a single check runs in this process, whatever the workers
    import concurrent.futures
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingExecutor)
    checks = [c for c in suite_checks(algebra="a1", order=4, fock=7)
              if c[0].startswith(prefix)]
    results = run_suite(checks, workers=workers)
    assert _RecordingExecutor.sizes == expected
    assert [cid for cid, _ in results] == sorted(c[0] for c in checks)
    assert all(v.passed for _, v in results)
