"""A hypothesis fuzz of the command line over its real subcommands and
flags, at small sizes: `cli.main` never raises, and exits 0, 1 or 2 only;
`compute` checks nothing, so it exits 0 or 2.  Development-only; skipped
when hypothesis is not installed."""

import contextlib
import io
import os
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine.cli import main  # noqa: E402


def _flag(name, *values):
    """Either nothing, or `--name value` for one of the values."""
    return st.sampled_from([[]] + [[name, str(v)] for v in values])


def _argv(head, *flags):
    return st.tuples(st.just(head), *flags).map(
        lambda parts: [w for part in parts for w in part])


# mostly accepted values, with one rejected value or combination per flag
COMMON = (
    _flag("--algebra", "a1", "a2", "a1", "a2", "a3"),
    _flag("--fock", 2, 3, 4, 2, 3, 4, 1),
    _flag("--format", "json", "text", "json", "text", "xml"),
)

compute_st = _argv(
    ["compute"],
    st.sampled_from([["r"], ["l", "--side", "chi-phi"],
                     ["l", "--side", "phi-psi"], ["l", "--side", "chi-phi"],
                     ["l", "--side", "phi-psi"], ["l"]]),
    _flag("--backend", "series", "rational", "series"),
    _flag("--order", 0, 1, 2, 0, 1, 2, -1),
    _flag("--family", 1, 2),
    _flag("--twist", "01", "10", "120", "210", "x"),
    st.sampled_from([[]] * 5 + [
        ["--osc-rho", "(1)/(1)", "--osc-mu", "(1)/(1),(1)/(1)", "--osc-nu",
         "0,1/3,0"],
        ["--osc-rho", "(1)/(0)", "--osc-mu", "(1)/(1)"],
        # complete triples with a zero denominator
        ["--osc-rho", "(1)/(0)", "--osc-mu", "(1)/(1)", "--osc-nu", "0"],
        ["--osc-rho", "(1)/(1)", "--osc-mu", "(1)/(0),(1)/(1)", "--osc-nu",
         "0,0,0"],
        ["--osc-rho", "(1)/(1)", "--osc-mu", "(1)/(1)", "--osc-nu", "1/0"]]),
    _flag("--s", 1, 2, 3, 1, -1, 0),
    _flag("--s1", 0, 1, 2, 0, -1),
    _flag("--s2", 0, 1, 2, 0, -1),
    *COMMON)

# the oscillator flags where they are read (l-operators on the series
# backend), with zero denominators and wrong value counts among the values
_OSC_SCALARS = ("(1)/(1)", "(1)/(0)", "(-1)/(1)")
osc_st = _argv(
    ["compute", "l", "--backend", "series", "--order", "1", "--fock", "2"],
    st.sampled_from([["--side", "chi-phi"], ["--side", "phi-psi"]]),
    _flag("--algebra", "a1", "a2"),
    *(st.lists(st.sampled_from(values), min_size=1, max_size=3).map(
        lambda vs, name=name: [name, ",".join(vs)])
      for name, values in (("--osc-rho", _OSC_SCALARS),
                           ("--osc-mu", _OSC_SCALARS),
                           ("--osc-nu", ("0", "1/3", "1/0", "-1")))))

verify_st = _argv(
    ["verify"],
    st.sampled_from([["ybe"], ["rll"], ["gauge"], ["engine"], ["duality"],
                     ["structure"], ["all"], ["none"]]),
    _flag("--order", 0, 1, 0, 1, -1),
    _flag("--workers", 1, 1, 1, 0),
    *COMMON)

list_st = st.sampled_from([["list", "variants"], ["list", "roots"], [],
                           ["--help"], ["compute", "--help"]])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.one_of(compute_st, compute_st, osc_st, verify_st,
                             verify_st, list_st))
def test_cli_never_raises_and_exits_0_1_or_2(argv):
    # small defaults for the runs that leave out --order or --fock
    with mock.patch.dict(os.environ, {"QAFFINE_ORDER": "1",
                                      "QAFFINE_FOCK": "3"}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in ((0, 2) if argv[:1] == ["compute"] else (0, 1, 2)), \
        (argv, code)
