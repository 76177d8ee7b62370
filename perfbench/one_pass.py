"""One pass over a workload in a fresh interpreter.

    python3 perfbench/one_pass.py WORKLOAD SEED plain|traced [smoke]

Prints one JSON object as its last line.  Each pass runs in its own
interpreter because the gcd cache in ``qaffine.scalars`` is module-global:
a cache warmed by an earlier pass would hide a cost that every CLI call
pays.
"""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _usage(who):
    """CPU seconds and peak RSS (MiB) of this process or of its reaped
    descendants."""
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            c = out.get(k, 0) + x * y
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return out


def reference_s():
    """Seconds this interpreter takes for a fixed piece of pure-Python work
    shaped like the program's hot path: products of dict polynomials with
    Fraction coefficients.  It uses nothing from qaffine, so no change to
    the program moves it; timed next to a pass, it gives the speed of the
    host at that moment."""
    a = {k: Fraction(3 * k + 1, 7 * k + 2) for k in range(24)}
    b = {k: Fraction(k * k - 5, 2 * k + 11) for k in range(-6, 18)}
    t0 = time.monotonic()
    for _ in range(40):
        _poly_mul(a, b)
    return time.monotonic() - t0


def run_checks(workload, seed, traced, smoke):
    from qaffine import verify
    items = workloads.check_items(workload, seed, smoke)
    trace = None
    if traced:
        trace = tracer.Tracer()
        trace.install()
    results = []
    cpu0, _ = _usage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    for item in items:
        cid, verdict = verify.run_check(item)
        results.append({"id": cid, "ok": bool(verdict.passed),
                        "detail": None if verdict.passed
                        else repr(verdict.first_failure)})
    wall = time.monotonic() - t0
    cpu1, rss = _usage(resource.RUSAGE_SELF)
    return {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss,
            "checks": results,
            "trace": trace.snapshot() if trace else None}


def run_cli(seed, traced, smoke):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    stats_dir = ROOT / ".perfbench" / ("trace-%d" % os.getpid())
    if traced:
        stats_dir.mkdir(parents=True, exist_ok=True)
    # only the CLI processes count: cpu_s and peak_rss_mb come from the
    # reaped children, wall_s sums the commands' own wall times
    results, snaps = [], []
    for n, (kind, expected, args) in enumerate(workloads.cli_commands(
            seed, smoke)):
        if traced:
            stats = stats_dir / ("cmd%d.json" % n)
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(stats)]
        else:
            argv = [sys.executable, "-m", "qaffine.cli"]
        start = time.monotonic()
        proc = subprocess.run(argv + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, cwd=ROOT)
        elapsed = time.monotonic() - start
        detail = None
        busy = 0.0
        if proc.returncode != 0:
            detail = "exit %d: %s" % (proc.returncode,
                                      proc.stderr.decode()[-300:])
        elif workloads.normalize_output(kind, proc.stdout) != \
                workloads.expected_output(expected):
            detail = "output differs from %s" % expected
        if kind == "verify" and detail is None:
            busy = sum(v["wall_time_ms"] for v in json.loads(proc.stdout))
        results.append({"id": "%s:%s" % (kind, expected), "kind": kind,
                        "ok": detail is None, "detail": detail,
                        "wall_s": elapsed, "busy_s": busy / 1000.0})
        if traced:
            snaps.append(json.loads(stats.read_text()))
            stats.unlink()
    cpu, rss = _usage(resource.RUSAGE_CHILDREN)
    if traced:
        stats_dir.rmdir()
    return {"wall_s": sum(r["wall_s"] for r in results), "cpu_s": cpu,
            "peak_rss_mb": rss,
            "checks": results,
            "trace": tracer.merge(snaps) if traced else None}


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    smoke = sys.argv[4:] == ["smoke"]
    traced = mode == "traced"
    before = reference_s()
    if workload == "cli":
        out = run_cli(seed, traced, smoke)
    else:
        out = run_checks(workload, seed, traced, smoke)
    out["reference_s"] = (before + reference_s()) / 2.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
