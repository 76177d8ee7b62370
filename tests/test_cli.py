import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from qaffine.cli import main, load_config, UsageError
from qaffine.scalars import QScalar, q_power
from qaffine.series import ZetaSeries
from qaffine.rational import ZetaRational
from qaffine.linalg import OpMatrix, Grid
from qaffine.serialize import (
    dump_series, dump_rational, dump_matrix, dump_grid,
)
from oracles import parse_series, parse_rational, parse_matrix, parse_grid
from qaffine.reference import reference_matrix

ONE = QScalar.ONE
# the environment of a fresh interpreter that runs the program from src/
_SRC_ENV = dict(os.environ, PYTHONPATH=str(
    pathlib.Path(__file__).resolve().parent.parent / "src"))


def test_series_json_roundtrip():
    s = ZetaSeries({-1: q_power(2), 3: ONE - q_power(-1)}, 5)
    assert parse_series(dump_series(s)) == s


def test_rational_json_roundtrip():
    r = ZetaRational({0: ONE, 2: -q_power(2)}, {0: ONE, 1: -q_power(-2)})
    assert parse_rational(dump_rational(r)) == r


def test_matrix_json_roundtrip():
    ref = reference_matrix("r", "a1", s=-2, s1=-1)
    blob = json.loads(json.dumps(dump_matrix(ref.matrix)))
    assert parse_matrix(blob) == ref.matrix


def test_grid_json_roundtrip():
    ref = reference_matrix("l", "a1", "hat", s=1, s1=0, d=5)
    blob = json.loads(json.dumps(dump_grid(ref.matrix, fock_dim=5, copies=1,
                                           tag=ref.tag)))
    assert parse_grid(blob) == ref.matrix


def test_cli_compute_r_json(capsys):
    code = main(["compute", "r", "--algebra", "a1", "--s", "-2", "--s1",
                 "-1", "--backend", "rational", "--format", "json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    ref = reference_matrix("r", "a1", s=-2, s1=-1)
    assert parse_matrix(blob) == ref.matrix
    assert blob["tag"]["t_power"] == 3


def test_cli_compute_l_text(capsys):
    code = main(["compute", "l", "--algebra", "a1", "--side", "chi-phi",
                 "--s", "1", "--s1", "0", "--fock", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "L[1,1]" in out and "hat-type" in out


def test_cli_usage_errors(capsys):
    assert main(["compute", "r", "--side", "chi-phi"]) == 2
    assert main(["compute", "l"]) == 2
    assert main(["compute", "bogus"]) == 2


def test_cli_verify_exit_codes(capsys):
    code = main(["verify", "ybe", "--algebra", "a1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/3 passed" in out


def test_cli_verify_json(capsys):
    code = main(["verify", "gauge", "--algebra", "a1", "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(item["pass"] for item in blob)
    assert all("wall_time_ms" in item for item in blob)


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["compute", "r", "--algebra", "a1", "--format", "json",
                 "--out", str(target)])
    assert code == 0
    blob = json.loads(target.read_text())
    assert blob["dim"] == 4


def test_config_file_and_env(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "qaffine.conf"
    conf.write_text("# comment\norder = 4\nfock = 5\nformat = json\n")
    code = main(["compute", "l", "--algebra", "a1", "--side", "chi-phi",
                 "--backend", "series", "--config", str(conf)])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["dim"] == 10  # fock 5 times leg 2
    monkeypatch.setenv("QAFFINE_FOCK", "3")
    code = main(["compute", "l", "--algebra", "a1", "--side", "chi-phi",
                 "--backend", "series", "--config", str(conf)])
    blob = json.loads(capsys.readouterr().out)
    assert blob["dim"] == 6  # env overrides the config file
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense\n")
    assert main(["compute", "r", "--config", str(bad)]) == 2


def test_list_variants(capsys):
    assert main(["list", "variants"]) == 0
    out = capsys.readouterr().out
    assert "l a2 check-inv" in out
    assert len(out.strip().splitlines()) == 12


def test_cli_rejects_zero_spectral_exponent(capsys):
    assert main(["compute", "r", "--s", "0"]) == 2
    assert main(["compute", "r", "--algebra", "a2", "--s", "0"]) == 2
    assert main(["compute", "l", "--side", "chi-phi", "--s", "0",
                 "--fock", "4"]) == 2
    assert main(["compute", "l", "--side", "chi-phi", "--s", "0",
                 "--backend", "series", "--order", "2", "--fock", "3"]) == 2
    assert "s must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--workers", "0"], ["--workers", "-3"], ["--order", "-5"],
    ["--fock", "1"], ["--workers", "0", "--order", "-5", "--fock", "1"],
])
def test_cli_rejects_out_of_range_flags(flags, capsys):
    assert main(["verify", "ybe", "--algebra", "a1"] + flags) == 2
    assert "must be at least" in capsys.readouterr().err


def test_cli_rejects_out_of_range_config_and_env(tmp_path, monkeypatch,
                                                 capsys):
    conf = tmp_path / "qaffine.conf"
    conf.write_text("workers = 0\n")
    assert main(["verify", "ybe", "--algebra", "a1", "--config",
                 str(conf)]) == 2
    conf.write_text("backend = nonsense\n")
    assert main(["compute", "r", "--config", str(conf)]) == 2
    monkeypatch.setenv("QAFFINE_FOCK", "1")
    assert main(["compute", "r"]) == 2
    monkeypatch.setenv("QAFFINE_FOCK", "3")
    monkeypatch.setenv("QAFFINE_ORDER", "-1")
    assert main(["compute", "r"]) == 2
    # a flag overrides an out-of-range environment value
    assert main(["compute", "r", "--order", "2"]) == 0


@pytest.mark.parametrize("name", ["QAFFINE_ORDER", "QAFFINE_FOCK"])
@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_cli_names_the_environment_variable_that_is_not_an_integer(
        name, value, monkeypatch, capsys):
    monkeypatch.setenv(name, value)
    assert main(["verify", "ybe", "--algebra", "a1"]) == 2
    assert capsys.readouterr().err == (
        "error: %s must be an integer, got %r\n" % (name, value))


def test_cli_exits_2_where_a_one_variable_exponent_leaves_the_ring():
    # zeta^70000 in an a1 L-operator: the oscillator ring's packed key
    # takes exponents below 2^16 in size
    proc = subprocess.run(
        [sys.executable, "-m", "qaffine.cli", "compute", "l", "--algebra",
         "a1", "--side", "chi-phi", "--s", "70000", "--fock", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_SRC_ENV,
        timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: exponent out of range: the q-oscillator "
                          "ring") and "below 2^16" in err
    assert "Traceback" not in err and "two-variable" not in err


def test_cli_reader_closing_early_is_not_an_error():
    # `qaffine compute ... | head -1`: the reader goes away before the
    # output is written, which must not turn the run into a usage error
    proc = subprocess.Popen(
        [sys.executable, "-m", "qaffine.cli", "compute", "r", "--algebra",
         "a1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_SRC_ENV)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("flags, named", [
    (["compute", "r", "--twist", "10"], "--twist"),
    (["compute", "r", "--backend", "series", "--order", "2", "--twist", "10"],
     "--twist"),
    (["compute", "r", "--backend", "series", "--order", "2", "--osc-rho",
      "(1)/(1)", "--osc-mu", "(1)/(1)", "--osc-nu", "0"], "--osc-rho"),
    (["compute", "l", "--side", "chi-phi", "--backend", "rational", "--fock",
      "3", "--osc-rho", "(1)/(1)"], "--osc-rho"),
    (["compute", "l", "--side", "chi-phi", "--backend", "rational", "--fock",
      "3", "--osc-nu", "0"], "--osc-nu"),
    (["compute", "l", "--algebra", "a1", "--side", "chi-phi", "--family",
      "2", "--fock", "3"], "--family"),
    (["compute", "l", "--algebra", "a1", "--side", "chi-phi", "--family",
      "2", "--backend", "series", "--order", "1", "--fock", "3"],
     "--family"),
])
def test_cli_rejects_flags_that_would_be_ignored(flags, named, capsys):
    assert main(flags) == 2
    assert named in capsys.readouterr().err


_OSC = ["compute", "l", "--side", "phi-psi", "--backend", "series",
        "--order", "2", "--fock", "3"]


@pytest.mark.parametrize("algebra, rho, mu, nu, named", [
    # a zero denominator in any of the three
    ("a1", "(1)/(0)", "(1)/(1)", "0", "--osc-rho"),
    ("a1", "(1)/(1)", "(1)/(0)", "0", "--osc-mu"),
    ("a1", "(1)/(1)", "(1)/(1)", "1/0", "--osc-nu"),
    ("a2", "(1)/(1)", "(1)/(1),(1)/(0)", "0,0,0", "--osc-mu"),
    ("a2", "(1)/(1)", "(1)/(1),(1)/(1)", "0,1/0,0", "--osc-nu"),
    # a1 takes one mu and one nu, a2 two mu and three nu
    ("a1", "(1)/(1)", "(1)/(1),(1)/(1)", "0", "--osc-mu"),
    ("a1", "(1)/(1)", "(1)/(1)", "0,0,0", "--osc-nu"),
    ("a2", "(1)/(1)", "(1)/(1)", "0,0,0", "--osc-mu"),
    ("a2", "(1)/(1)", "(1)/(1),(1)/(1)", "0", "--osc-nu"),
    ("a2", "(1)/(1),(1)/(1)", "(1)/(1),(1)/(1)", "0,0,0", "--osc-rho"),
])
def test_cli_rejects_unusable_oscillator_parameters(algebra, rho, mu, nu,
                                                    named, capsys):
    assert main(_OSC + ["--algebra", algebra, "--osc-rho", rho, "--osc-mu",
                        mu, "--osc-nu", nu]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("flag", ["--s", "--s1", "--s2"])
def test_cli_verify_rejects_exponent_flags(flag, capsys):
    # verify runs a fixed catalog of exponents, so the flags have no effect
    assert main(["verify", "ybe", "--algebra", "a1", flag, "-1"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["rational", "series"])
@pytest.mark.parametrize("algebra, twist", [
    ("a1", "x"), ("a1", "210"), ("a1", "00"), ("a1", ""), ("a2", "10"),
    ("a2", "013"),
])
def test_cli_twist_must_permute_the_nodes(backend, algebra, twist, capsys):
    assert main(["compute", "l", "--algebra", algebra, "--side", "phi-psi",
                 "--backend", backend, "--order", "1", "--fock", "3",
                 "--twist", twist]) == 2
    assert "--twist" in capsys.readouterr().err


def test_cli_twist_is_read_alike_on_both_backends(capsys):
    # the identity permutation is the untwisted operator, a transposition
    # the twisted one, on either backend
    def out(*flags):
        assert main(["compute", "l", "--algebra", "a1", "--side", "phi-psi",
                     "--fock", "3", "--order", "1", "--format", "json"]
                    + list(flags)) == 0
        return capsys.readouterr().out
    for backend in ("rational", "series"):
        plain = out("--backend", backend)
        assert out("--backend", backend, "--twist", "01") == plain
        assert out("--backend", backend, "--twist", "10") != plain


@pytest.mark.parametrize("fmt, unused", [
    ("json", ("_matrix_text", "_grid_text", "_flat_series_text")),
    ("text", ("dump_matrix", "dump_grid")),
])
def test_cli_compute_builds_only_the_requested_form(fmt, unused, monkeypatch,
                                                    capsys):
    # one rational r-matrix, one rational grid and one series matrix; the
    # formatter of the other form is never called
    from qaffine import cli

    def refuse(*args, **kwargs):
        raise AssertionError("built the output form nobody asked for")
    for name in unused:
        monkeypatch.setattr(cli, name, refuse)
    for argv in (["r"], ["l", "--side", "phi-psi", "--fock", "3"],
                 ["l", "--side", "chi-phi", "--backend", "series",
                  "--order", "1", "--fock", "3"]):
        assert main(["compute"] + argv + ["--format", fmt]) == 0
        assert capsys.readouterr().out.strip()


_LAYERS = {"qaffine.engine", "qaffine.reference", "qaffine.verify"}


@pytest.mark.parametrize("argv, loaded", [
    (["compute", "l", "--algebra", "a2", "--side", "chi-phi", "--fock", "3",
      "--format", "json"], {"qaffine.reference"}),
    (["compute", "l", "--side", "chi-phi", "--backend", "series", "--order",
      "1", "--fock", "3", "--format", "json"], {"qaffine.engine"}),
    (["list", "variants"], {"qaffine.reference"}),
    (None, set()),
])
def test_each_command_loads_only_its_layer(argv, loaded):
    # a fresh interpreter per command: which of the three layers it imported
    script = (
        "import contextlib, io, json, sys\n"
        "from qaffine import cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert _LAYERS & set(json.loads(proc.stdout)) == loaded


def test_a_pooled_verify_imports_no_process_pool():
    script = (
        "import contextlib, io, json, sys\n"
        "from qaffine import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'ybe', '--algebra', 'a1', "
        "'--workers', '2', '--format', 'json']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(json.loads(proc.stdout))
    assert "qaffine.verify" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing"}


def test_a_pooled_verify_leaves_no_process_behind():
    # the run leads its own process group; once it has exited, nothing of
    # that group may still be there
    proc = subprocess.Popen(
        [sys.executable, "-m", "qaffine.cli", "verify", "all", "--algebra",
         "a1", "--order", "3", "--fock", "4", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_SRC_ENV,
        start_new_session=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a process of the verify run outlived it")


def test_workers_above_one_need_fork(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert main(["verify", "ybe", "--algebra", "a1", "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "os.fork" in err
    assert main(["verify", "ybe", "--algebra", "a1", "--workers", "1"]) == 0
