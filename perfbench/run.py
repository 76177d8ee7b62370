"""The qaffine benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the program from
``src/`` and needs nothing installed.  The workloads are described in
``workloads.py``.

With ``--trace 0`` it first starts fresh interpreters that only import the
command line and build the check catalog (``setup_s``), then runs passes
over the workload, each in a fresh interpreter, until ``--seconds`` have
passed.  Each pass also times a fixed reference loop before and after its
work, and its wall and CPU times are reported as multiples of that
reference time (``wall_rel``, ``cpu_rel``).  It reports the median probe
and the median pass.  With ``--trace 1`` it runs one untraced pass and two
passes with every layer entry point wrapped, and reports the per-layer
counters of the traced passes, the tracing overhead and whether the two
traced passes made the same calls.

Every verdict must pass and every CLI output must equal its expected file.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment and every sample, goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.  A run that is
still going ``--seconds`` plus one minute after it started is stopped and
exits with code 3 without a result line.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 11
# time a run may take beyond --seconds: the set-up probes and the last pass
MARGIN_S = 60.0

# Unit of each end-to-end metric.  Pass times are reported relative to the
# reference loop timed in the same interpreter: on a shared host the speed
# of the machine changes by up to 1.9x over tens of seconds with the load of
# other tenants.  Over six runs of 20 s per workload on a 2-vCPU VM, the
# median pass wall time spread (q3 - q1) / median 0.16-0.50 between runs,
# its ratio to the reference time 0.05-0.20.  Seconds are in the result file.
END_TO_END = {"setup_s": "s", "wall_rel": "x", "cpu_rel": "x",
              "peak_rss_mb": "MiB"}


class PassFailed(Exception):
    """A pass exited with an error: the program failed."""


class TimedOut(Exception):
    """The run outlived its deadline: a limit of the harness, not a failed
    check."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(argv, deadline):
    """Runs a child in its own process group; returns (spawn time, stdout).
    The whole group is killed if the child outlives the deadline."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise TimedOut("timed out: %s" % " ".join(argv[1:]))
    if proc.returncode != 0:
        raise PassFailed("exit %d: %s" % (proc.returncode,
                                          err.decode()[-500:]))
    return start, out.decode().strip().splitlines()[-1]


def setup_samples(deadline):
    argv = [sys.executable, str(HERE / "probe.py")]
    _spawn(argv, deadline)  # the first probe also compiles the bytecode
    out = []
    for _ in range(PROBES):
        start, line = _spawn(argv, deadline)
        out.append(float(line) - start)
    return out


def one_pass(args, mode, deadline):
    argv = [sys.executable, str(HERE / "one_pass.py"), args.workload,
            str(args.seed), mode] + (["smoke"] if args.smoke else [])
    return json.loads(_spawn(argv, deadline)[1])


def _summary(values):
    # inclusive: the quartiles stay within the samples of a short run
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
              if len(values) > 1 else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def untraced_run(args, deadline):
    setup = setup_samples(deadline)
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < args.seconds:
        passes.append(one_pass(args, "plain", deadline))
    samples = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "reference_s"):
        samples[key] = [p[key] for p in passes]
    for key in ("wall", "cpu"):
        samples[key + "_rel"] = [p[key + "_s"] / p["reference_s"]
                                 for p in passes]
    summaries = {k: _summary(v) for k, v in samples.items()}
    metrics = {k: {"value": summaries[k]["median"], "unit": unit}
               for k, unit in END_TO_END.items()}
    return passes, metrics, summaries


def traced_run(args, deadline):
    plain = one_pass(args, "plain", deadline)
    first = one_pass(args, "traced", deadline)
    second = one_pass(args, "traced", deadline)
    snaps = (first["trace"], second["trace"])
    mismatched = sorted(layer for layer in snaps[0]["layers"]
                        if snaps[0]["layers"][layer]["calls"]
                        != snaps[1]["layers"][layer]["calls"])
    if mismatched:
        print("determinism check: call counts differ between the two traced "
              "passes in %s" % ", ".join(mismatched), file=sys.stderr)
    values = tracer.layer_metrics(snaps[0])
    for name, value in tracer.layer_metrics(snaps[1]).items():
        if name.endswith(("_s", ".us_per_call")):
            values[name] = (values[name] + value) / 2.0
    cli_checks = plain["checks"] if args.workload == "cli" else []
    verify_wall = sum(c["wall_s"] for c in cli_checks
                      if c["kind"] == "verify")
    busy = sum(c["busy_s"] for c in cli_checks)
    values.update({
        "cli.verify.wall_s": verify_wall,
        "cli.compute.wall_s": sum(c["wall_s"] for c in cli_checks
                                  if c["kind"] == "compute"),
        # the verify command runs with --workers 2
        "cli.pool.busy_ratio": busy / (2 * verify_wall) if verify_wall
        else 0.0,
        "trace.overhead_s": (first["wall_s"] + second["wall_s"]) / 2.0
        - plain["wall_s"],
        "trace.calls_mismatch": len(mismatched),
    })
    units = {name: unit for name, unit, _ in tracer.metric_specs()}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    summaries = {"untraced_wall_s": plain["wall_s"],
                 "traced_wall_s": [first["wall_s"], second["wall_s"]],
                 "calls_mismatch": mismatched}
    return [plain, first, second], metrics, summaries


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "gmpy2": find_spec("gmpy2") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "kernel": os.uname().release,
            "git_revision": _git_revision(),
            "src_lines": src_lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced workload sizes, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qaffine" / "__init__.py").is_file():
        print("error: no qaffine sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + MARGIN_S
    runner = traced_run if args.trace else untraced_run
    try:
        passes, metrics, summaries = runner(args, deadline)
        error = None
    except PassFailed as exc:
        passes, metrics, summaries, error = [], {}, {}, str(exc)
    except TimedOut as exc:
        print("error: %s; no result" % exc, file=sys.stderr)
        return 3
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    attempted = max(len(checks), 1)
    n_failed = len(failed) if error is None else attempted
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(),
        "passes": len(passes), "error": error,
        "check_fail_ratio": n_failed / attempted,
        "failures": failed, "summaries": summaries,
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / ("%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(result, indent=2) + "\n")

    if error:
        print("error: %s" % error, file=sys.stderr)
    for c in failed:
        print("FAILED %s: %s" % (c["id"], c["detail"]), file=sys.stderr)
    env = result["environment"]
    print("# %s seed=%d passes=%d python=%s gmpy2=%s nproc=%d src_lines=%d"
          % (args.workload, args.seed, len(passes), env["python"],
             env["gmpy2"], env["nproc"], env["src_lines"]))
    print("check_fail_ratio %.4f ratio (%d of %d)"
          % (result["check_fail_ratio"], n_failed, attempted))
    for name, m in metrics.items():
        line = "%s %.6g %s" % (name, m["value"], m["unit"])
        if not args.trace:
            s = summaries[name]
            line += " (median of n=%d, q1 %.6g, q3 %.6g)" % (s["n"], s["q1"],
                                                              s["q3"])
        print(line)
    for name in ("wall_s", "cpu_s", "reference_s") if not args.trace else ():
        s = summaries[name]
        print("# %s %.6g s (median of n=%d, q1 %.6g, q3 %.6g)"
              % (name, s["median"], s["n"], s["q1"], s["q3"]))
    print("# result file: %s" % out_file.relative_to(ROOT))
    print(json.dumps({"correct": error is None and not failed,
                      "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
