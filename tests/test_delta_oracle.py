"""The engine's families along delta against the per-level recursion of
`delta_oracle`, and the lemma that lets the normalization check stop at
three levels."""

import pytest

from qaffine import engine
from qaffine.cli import main
from qaffine.scalars import QScalar
from qaffine.verify import check_engine, suite_checks
from delta_oracle import level_tables
from test_golden import CASES

pytestmark = pytest.mark.oracle

_CATALOG = [pytest.param(kw, id=cid) for cid, fn, kw in suite_checks()
            if fn == "check_engine"]
_GOLDENS = ["compute-l-a1-chi-phi-osc-series",
            "compute-l-a2-phi-psi-osc-series"]


def _recorded(monkeypatch):
    # every table the engine builds, with the arguments it was built from
    tables = []
    build = engine.build_root_vectors

    def recorded(*args):
        tables.append((args, build(*args)))
        return tables[-1][1]
    monkeypatch.setattr(engine, "build_root_vectors", recorded)
    return tables


def _assert_levels_match(tables):
    # every real vector, each family member included, and every imaginary
    # level, at each leg state where the product read a real vector or the
    # leg logarithms
    assert tables
    for args, tab in tables:
        real, diags = level_tables(*args)
        states = {x for vec in tab.real.values() for x in vec} | \
            set(tab._ids)
        assert states
        assert tab.real.keys() == real.keys()
        for key, vec in tab.real.items():
            assert vec.zexp == real[key].zexp, key
            for x in states:
                assert vec[x] == real[key][x], (args[1:], key, x)
        for x in states:
            assert [[level(x) for level in node] for node in tab.diags] == \
                [[level(x) for level in node] for node in diags], \
                (args[1:], x)


@pytest.mark.parametrize("kw", _CATALOG)
def test_catalog_families_match_the_per_level_recursion(monkeypatch, kw):
    tables = _recorded(monkeypatch)
    assert check_engine(**kw).passed
    _assert_levels_match(tables)


@pytest.mark.parametrize("name", _GOLDENS)
def test_osc_series_families_match_the_per_level_recursion(monkeypatch,
                                                           tmp_path, name):
    tables = _recorded(monkeypatch)
    assert main(CASES[name] + ["--out", str(tmp_path / "out")]) == 0
    _assert_levels_match(tables)


def test_three_levels_decide_every_level():
    # s_m = A r1^m + B r2^m + C satisfies the recurrence with
    # characteristic polynomial (z - r1)(z - r2)(z - 1), monic, so s_0 =
    # s_1 = s_2 = 0 forces every s_m = 0: what lets
    # check_normalization_constants stop at level 2
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    polys = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3),
                            max_size=3)
    dens = st.sampled_from([{0: 1}, {0: 1, 6: 1}, {0: 1, 12: -1},
                            {0: 2, 1: -1}])
    scalars = st.one_of(st.just(QScalar.ZERO), st.just(QScalar.ONE),
                        st.builds(lambda n, d: QScalar(n, d), polys, dens))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(scalars, scalars, st.one_of(st.none(), scalars),
                      scalars, st.one_of(st.just(QScalar.ZERO), scalars))
    def recurrence(a, r1, r2, b, c):
        r2 = r1 if r2 is None else r2
        p1 = p2 = QScalar.ONE
        s = []
        for _ in range(13):
            s.append(a * p1 + b * p2 + c)
            p1, p2 = p1 * r1, p2 * r2
        e1 = r1 + r2 + QScalar.ONE
        e2 = r1 * r2 + r1 + r2
        e3 = r1 * r2
        for m in range(10):
            assert s[m + 3] == e1 * s[m + 2] - e2 * s[m + 1] + e3 * s[m]
        assert any(s[:3]) or not any(s)
    recurrence()
