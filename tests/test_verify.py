import json

import pytest

from qaffine.verify import (
    Verdict, check_engine, check_ybe, check_rll, check_duality, check_gauge,
    check_structure, check_double_inversion, suite_checks, run_suite,
)


def test_ybe_a1_passes_and_perturbation_fails():
    v = check_ybe("a1", s=1, s1=0)
    assert v.passed
    v2 = check_ybe("a1", s=-2, s1=-1)
    assert v2.passed
    bad = check_ybe("a1", s=1, s1=0, perturb=True)
    assert not bad.passed
    assert bad.first_failure and "entry" in bad.first_failure


def test_ybe_a2():
    assert check_ybe("a2", s=-2, s1=0, s2=0).passed
    assert check_ybe("a2", s=1, s1=0, s2=0).passed


def test_rll_a1_all_variants():
    for variant in ("hat", "hat-twisted", "check", "check-twisted"):
        v = check_rll("a1", variant, s=1, s1=0, d=9)
        assert v.passed, v
    # scalar dressing never changes the verdict
    v = check_rll("a1", "hat", s=1, s1=0, d=9, strip_scalar=False)
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
    assert check_double_inversion("a1", "hat", s=1, s1=0, d=6).passed


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


def test_engine_verdict_json_roundtrip():
    v = check_engine("r", "a1", s=1, s1=0, order=4)
    assert v.passed
    blob = json.dumps(v.to_json())
    back = json.loads(blob)
    assert back["check"] == "engine"
    assert back["pass"] is True
    assert back["wall_time_ms"] >= 0


def test_engine_check_reports_failure_location():
    # order-0 comparison with deliberately wrong exponents still passes at
    # the constant term, so compare against a mismatched variant instead
    v = check_engine("l", "a1", "hat", s=1, s1=0, order=3, d=6)
    assert v.passed
    v2 = check_engine("l", "a1", "hat-twisted", s=1, s1=0, order=3, d=6)
    assert v2.passed


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
