"""Golden snapshots of `qaffine compute` and `qaffine verify` output.

Each case runs the command line in-process and compares its JSON output
with the file of the same name under tests/golden/.  Verdict wall times
are removed before the comparison; everything else must match exactly.
The text cases compare `--format text` output byte for byte with their
`.txt` file.

Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest

from qaffine.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

CASES = {
    "compute-r-a1": ["compute", "r", "--algebra", "a1", "--s", "2",
                     "--s1", "1"],
    "compute-r-a2": ["compute", "r", "--algebra", "a2", "--s", "2",
                     "--s1", "1", "--s2", "-1"],
    "compute-l-a1-phi-psi-rational": [
        "compute", "l", "--algebra", "a1", "--side", "phi-psi", "--s", "2",
        "--s1", "1", "--fock", "5"],
    "compute-l-a2-chi-phi-rational": [
        "compute", "l", "--algebra", "a2", "--side", "chi-phi",
        "--family", "1", "--fock", "4"],
    "compute-l-a1-chi-phi-series": [
        "compute", "l", "--algebra", "a1", "--side", "chi-phi",
        "--backend", "series", "--order", "4", "--fock", "5"],
    "compute-l-a1-phi-psi-twist-series": [
        "compute", "l", "--algebra", "a1", "--side", "phi-psi",
        "--backend", "series", "--twist", "10", "--order", "4",
        "--fock", "5"],
    "compute-l-a2-phi-psi-series": [
        "compute", "l", "--algebra", "a2", "--side", "phi-psi",
        "--family", "2", "--backend", "series", "--order", "1",
        "--fock", "3"],
    "compute-r-a2-series": ["compute", "r", "--algebra", "a2", "--backend",
                            "series", "--order", "3"],
    # oscillator parameters that are not monomials in t: the imaginary
    # ratios of the reported states are then not power sums in monomials
    "compute-l-a1-chi-phi-osc-series": [
        "compute", "l", "--algebra", "a1", "--side", "chi-phi",
        "--backend", "series", "--order", "3", "--fock", "4",
        "--osc-rho", "(1 + t^6)/(1)", "--osc-mu", "(2 + t^18)/(1 - t^6)",
        "--osc-nu", "1/3"],
    "compute-l-a2-phi-psi-osc-series": [
        "compute", "l", "--algebra", "a2", "--side", "phi-psi",
        "--family", "2", "--backend", "series", "--order", "1",
        "--fock", "3", "--osc-rho", "(3)/(1 + t^12)",
        "--osc-mu", "(1 + t^6)/(1),(t^12 - 5)/(1)", "--osc-nu", "1/3,0,2"],
    "verify-all-a1": ["verify", "all", "--algebra", "a1", "--order", "3",
                      "--fock", "6"],
    "verify-all-a2": ["verify", "all", "--algebra", "a2", "--order", "2",
                      "--fock", "5"],
}


# one rational r-matrix, one rational grid and one series matrix, as text
TEXT_CASES = {name: CASES[name] for name in (
    "compute-r-a1", "compute-l-a1-phi-psi-rational",
    "compute-l-a1-chi-phi-series")}


def _run(argv, out_path):
    """Run one case with JSON output written to out_path; return the
    exit code and the parsed output without wall times."""
    code = main(argv + ["--format", "json", "--out", str(out_path)])
    blob = json.loads(out_path.read_text())
    if isinstance(blob, list):
        for verdict in blob:
            verdict.pop("wall_time_ms")
    return code, blob


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, blob = _run(CASES[name], tmp_path / "out.json")
    assert code == 0
    expected = json.loads((GOLDEN_DIR / (name + ".json")).read_text())
    assert blob == expected
    # byte for byte what the standard library's indent=2 encoder writes
    text = (tmp_path / "out.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _run_text(argv, out_path):
    code = main(argv + ["--format", "text", "--out", str(out_path)])
    return code, out_path.read_bytes()


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_golden_text(name, tmp_path):
    code, text = _run_text(TEXT_CASES[name], tmp_path / "out.txt")
    assert code == 0
    assert text == (GOLDEN_DIR / (name + ".txt")).read_bytes()


if __name__ == "__main__":
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            code, blob = _run(argv, pathlib.Path(tmp) / "out.json")
            if code != 0:
                sys.exit("%s exited %d" % (name, code))
            (GOLDEN_DIR / (name + ".json")).write_text(
                json.dumps(blob, indent=1, sort_keys=True) + "\n")
            print("wrote", name)
        for name, argv in sorted(TEXT_CASES.items()):
            code, text = _run_text(argv, pathlib.Path(tmp) / "out.txt")
            if code != 0:
                sys.exit("%s exited %d" % (name, code))
            (GOLDEN_DIR / (name + ".txt")).write_bytes(text)
            print("wrote", name, "(text)")
