"""Acceptance suite: every criterion as one test, printing a verdict line.

All comparisons are exact in Q(t); "tolerance" is syntactic equality of
canonical forms everywhere (zero tolerance).  Fock dimensions not pinned
by a criterion are chosen and documented inline.  Run with -s to see the
per-criterion lines."""

import itertools
import os
import random

from fractions import Fraction

from qaffine.scalars import QScalar, q_power, qint
from qaffine.series import ZetaSeries, lambda_level, series_log
from qaffine.linalg import OpMatrix, kron, leg_permutation
from qaffine.qgroup import phi_zeta, dynkin_twist
from qaffine.oscillator import chi_images, psi_images
from qaffine.engine import EngineParams, assemble
from qaffine import reference
from qaffine.reference import l_table, reference_matrix
from qaffine.verify import (
    check_engine, check_ybe, check_rll, check_duality, check_gauge,
    check_structure, run_suite,
)
from product_builders import FockRep, apply_two_copy_normalization, render
from oracles import (
    check_defining_relations, commutator, diagonal_matrix, fock_window,
    grid_identity, restrict, subs_zeta, zeta_monomial,
)

ONE = QScalar.ONE
ZR1_ONE = zeta_monomial(0, ONE)
WORKERS = min(2, os.cpu_count() or 1)


def _report(num, text):
    print("ACCEPTANCE %d: PASS - %s" % (num, text))


def test_criterion_1_engine_equality_a1_r():
    v = check_engine("r", "a1", s=1, s1=0, order=8)
    assert v.passed, v
    # every one of the 16 entries is covered: six are nonzero on both
    # sides, the rest are exact zeros in both representations
    _report(1, "rank-1 evaluation R-matrix equals its closed form to "
               "order 8, coefficient-exact in Q(t)")


def test_criterion_2_engine_equality_a1_l_operators():
    for variant in ("hat", "hat-twisted", "check", "check-twisted"):
        v = check_engine("l", "a1", variant, s=1, s1=0, order=8, d=12)
        assert v.passed, v
    _report(2, "all four rank-1 L-operators reproduced to order 8 at "
               "(1,0), Fock dimension 12")


def test_criterion_3_engine_equality_a2():
    v = check_engine("r", "a2", s=1, s1=0, s2=0, order=6)
    assert v.passed, v
    checks = [("a2-%s" % vn, "check_engine",
               dict(kind="l", algebra="a2", variant=vn, s=1, s1=0, s2=0,
                    order=6, d=6))
              for vn in ("hat-1", "hat-2", "check-1", "check-2")]
    results = run_suite(checks, workers=WORKERS)
    for cid, verdict in results:
        assert verdict.passed, (cid, verdict)
    # the two derived variants are pinned by exact rational identities to
    # operators already reproduced above (stronger than any finite order):
    # the printed inverse-derived operator equals the inverse of the first
    # family at reflected argument after the pair rescaling, and the
    # family-II inverse round-trips
    d = 5
    hat1 = l_table("a2", "hat-1", (1, 0, 0)).ring()
    inv = reference.render(reference._reflected_inverse(hat1), d)
    normalized = apply_two_copy_normalization(inv, d)
    printed = reference_matrix("l", "a2", "check-inv", 1, 0, 0, d=d)

    keep = fock_window(d, 2, 2)
    assert restrict(normalized, keep) == restrict(printed.matrix, keep)
    hat2 = l_table("a2", "hat-2", (1, 0, 0)).ring()
    # N / D times its inverse D B / P at zeta back from 1/zeta is one
    (num, den), (back, piv) = hat2, reference._reflected_inverse(hat2)
    back = back.map_values(lambda x: x.spectral(-1, 0))
    assert num * back == OpMatrix.identity(3, num.one).scale(
        den * piv.spectral(-1, 0))
    inv2 = reference_matrix("l", "a2", "hat-2-inv", 1, 0, 0, d=d)
    back = inv2.matrix.map_values(lambda v: subs_zeta(v, -1), ZR1_ONE)
    keep = fock_window(d, 2, 1)
    assert restrict(reference.render(hat2, d) * back, keep) == \
        restrict(grid_identity(3, d * d, ZR1_ONE), keep)
    _report(3, "rank-2 R-matrix and all six L-operator variants "
               "reproduced to order 6 at (1,0,0)")


def test_criterion_4_ybe(perturb_r):
    for algebra, tuples in (
            ("a1", ((1, 0, 0), (-2, -1, 0), (2, 1, 0))),
            ("a2", ((1, 0, 0), (-2, 0, 0), (2, 1, -1)))):
        for s, s1, s2 in tuples:
            v = check_ybe(algebra, s=s, s1=s1, s2=s2)
            assert v.passed, v
    perturb_r()
    bad = check_ybe("a1", s=1, s1=0)
    assert not bad.passed and bad.first_failure["entry"] is not None
    _report(4, "Yang-Baxter holds exactly in two variables at three "
               "exponent choices per algebra; a perturbed matrix fails "
               "with a located residual")


def test_criterion_5_rll():
    for variant in ("hat", "hat-twisted"):
        assert check_rll("a1", variant, s=1, s1=0).passed
    for variant in ("hat-1", "hat-2"):
        assert check_rll("a2", variant, s=1, s1=0, s2=0).passed
    for variant in ("check", "check-twisted"):
        assert check_rll("a1", variant, s=1, s1=0).passed
    for variant in ("check-1", "check-2"):
        assert check_rll("a2", variant, s=1, s1=0, s2=0).passed
    _report(5, "both exchange-relation types hold for every transcribed "
               "L-operator on the untruncated Fock space, exactly in two "
               "variables (implies any series order)")


def test_criterion_6_dualities():
    # in the oscillator ring, so on every Fock state
    for mode in ("inversion", "tau"):
        assert check_duality("a1", "hat", mode, s=1, s1=0).passed
        assert check_duality("a1", "check", mode, s=1, s1=0).passed
        assert check_duality("a2", "hat-1", mode, s=1, s1=0, s2=0).passed
        assert check_duality("a2", "check-1", mode, s=1, s1=0, s2=0).passed
    _report(6, "inversion at reflected argument and the anti-involution "
               "both flip the exchange-relation type, in both directions")


def test_criterion_7_gauge_identities():
    rng = random.Random(20240817)

    def tuples(n):
        out = []
        while len(out) < 3:
            s = rng.choice([-3, -2, -1, 1, 2, 3])
            s1 = rng.randint(-2, 2)
            s2 = rng.randint(-2, 2) if n == 3 else 0
            out.append((s, s1, s2))
        return out

    for algebra in ("a1", "a2"):
        n = 2 if algebra == "a1" else 3
        for s, s1, s2 in tuples(n):
            assert check_gauge("r", algebra, s, s1, s2).passed
        for s, s1, s2 in tuples(n):
            assert check_gauge("hat", algebra, s, s1, s2).passed
        for s, s1, s2 in tuples(n):
            assert check_gauge("check", algebra, s, s1, s2).passed
    _report(7, "spectral-exponent gauge relations hold exactly for three "
               "random tuples per identity per algebra")


def test_criterion_8_structure():
    assert check_structure("a1").passed
    assert check_structure("a2").passed
    _report(8, "spectral-linear decomposition with stated triangularity, "
               "constant exchange relations, idempotent projectors, and "
               "singularity at argument one")


def test_criterion_9_algebraic_substrate():
    # quantum-group defining relations, both Serre shapes
    assert check_defining_relations(phi_zeta("a1", 1, 0)) == []
    assert check_defining_relations(phi_zeta("a2", 1, 0, 0)) == []
    # the oscillator images rendered on the truncated Fock space
    assert check_defining_relations(render(chi_images("a1", 1, 0), 8),
                                    (8, 1)) == []
    assert check_defining_relations(
        render(dynkin_twist(chi_images("a1", 1, 0), (1, 0)), 8),
        (8, 1)) == []
    assert check_defining_relations(render(psi_images("a1", 1, 0), 8),
                                    (8, 1)) == []
    for fam in (1, 2):
        assert check_defining_relations(
            render(chi_images("a2", 1, 0, 0, family=fam), 5), (5, 2)) == []
        assert check_defining_relations(
            render(psi_images("a2", 1, 0, 0, family=fam), 5), (5, 2)) == []
    # oscillator relations on the safe subspace
    d = 12
    f = FockRep(d)
    a, ad = f.lowering(), f.raising()
    assert ad * a == diagonal_matrix(
        [ONE - q_power(2 * n) for n in range(d)], ONE)
    prod = a * ad
    for n in range(d - 1):
        assert prod.entry(n, n) == ONE - q_power(2 * n + 2)
    number = diagonal_matrix([QScalar.from_int(n) for n in range(d)], ONE)
    assert commutator(number, a) == -a
    assert commutator(number, ad) == ad
    # lambda-function identities for both levels at order 8
    order = 8
    log1mz = series_log(ZetaSeries({0: ONE, 1: -ONE}, order))
    assert (lambda_level(2, q_power(1), 1, order)
            + lambda_level(2, q_power(-1), 1, order)) == -log1mz
    assert (lambda_level(3, q_power(2), 1, order)
            + lambda_level(3, ONE, 1, order)
            + lambda_level(3, q_power(-2), 1, order)) == -log1mz
    # matrix units exhaustively up to dimension 4
    for dim in (2, 3, 4):
        for a_, b_, c_, d_ in itertools.product(range(1, dim + 1), repeat=4):
            lhs = OpMatrix.unit(dim, a_, b_, ONE) * OpMatrix.unit(dim, c_,
                                                                  d_, ONE)
            rhs = (OpMatrix.unit(dim, a_, d_, ONE) if b_ == c_
                   else OpMatrix.zero(dim, ONE))
            assert lhs == rhs
    # permutation operators, including the three-leg braid identity
    perm = lambda s: OpMatrix.identity(8, ONE).relabeled(
        rows=leg_permutation(s, 2))
    p12, p13, p23 = perm((1, 0, 2)), perm((2, 1, 0)), perm((0, 2, 1))
    assert p12 * p13 * p23 == p23 * p13 * p12
    perms = list(itertools.permutations(range(3)))
    mats = {s: perm(s) for s in perms}
    for s in perms:
        for t in perms:
            st = tuple(s[t[i]] for i in range(3))
            assert mats[s] * mats[t] == mats[st]
    _report(9, "defining-relation suites, oscillator relations, lambda "
               "identities, matrix-unit and permutation identities all "
               "pass exhaustively")
