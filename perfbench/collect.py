"""Two sets of repeated runs of the benchmark, summarized into one bench file.

    python3 perfbench/collect.py --runs 10 --out perfbench/baselines/BENCH_1.json

Runs every workload of BENCHMARK.json untraced once for each of the seeds
1..--runs, with the workloads interleaved so that slow phases of the machine
spread over all of them, and then does all of it a second time.  For each
set and end-to-end metric it reports the median, the quartiles and the
spread (q3 - q1) / median, and it reports by how much the second set's
median is worse than the first's, against the metric's bound.

The sets are steady when every spread but that of setup_s is below a third
of its bound.  setup_s is left out because the benchmark's acceptance rule
judges it only by its median across sets: it is a 0.1 s figure made of
interpreter start-ups, whose spread on a shared host says little.

Last it makes two traced runs with seed 1 and one with seed 2.  It reports
the per-layer metrics of the first, the layers whose calls differ between
the two seed-1 runs (there must be none) and the layers whose calls differ
at seed 2.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SETS = 2


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s seed %d trace %d"
                         % (workload, seed, trace))
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _utc(t):
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def one_set(names, seeds, seconds, bounds):
    started = time.time()
    values = {w: {m: [] for m in bounds} for w in names}
    failed = {w: 0 for w in names}
    for seed in seeds:
        for w in names:
            res = run_once(w, seed, seconds, 0)
            failed[w] += 0 if res["correct"] else res["failed"]
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print("%-10s seed %3d  %s" % (w, seed, "  ".join(
                "%s=%.4g" % (m, values[w][m][-1]) for m in bounds)),
                flush=True)
    out = {}
    for w in names:
        summary = {}
        for m, vals in values[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[m] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds[m],
                          "values": vals}
            print("%-10s %-12s median %.4g  q1 %.4g  q3 %.4g  spread %.3f "
                  "(bound %.2f)" % (w, m, med, q1, q3,
                                    summary[m]["spread"], bounds[m]))
        out[w] = {"failed_checks": failed[w], "end_to_end": summary}
    return {"started_utc": _utc(started), "workloads": out}


def _calls_differ(a, b):
    return sorted(name for name in a if name.endswith(".calls")
                  and a[name]["value"] != b[name]["value"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    sets = [one_set(names, seeds, seconds, bounds) for _ in range(SETS)]
    steady = all(s["end_to_end"][m]["spread"] < bounds[m] / 3
                 for st in sets for s in st["workloads"].values()
                 for m in bounds if m != "setup_s")
    agreement = {}
    for w in names:
        agreement[w] = {}
        for m in bounds:
            first, second = (st["workloads"][w]["end_to_end"][m]["median"]
                             for st in sets)
            worse = second / first - 1.0
            agreement[w][m] = {"first_median": first,
                               "second_median": second,
                               "worse_by": worse, "bound": bounds[m],
                               "within": worse <= bounds[m]}
            print("%-10s %-12s second set worse by %+.3f (bound %.2f)"
                  % (w, m, worse, bounds[m]))

    per_layer = {}
    for w in names:
        a, b, other = (run_once(w, seed, seconds, 1)["metrics"]
                       for seed in (1, 1, 2))
        same_seed = _calls_differ(a, b)
        across_seeds = _calls_differ(a, other)
        print("%-10s traced: overhead %.3f s, calls differing between two "
              "seed-1 runs: %s; at seed 2: %s"
              % (w, a["trace.overhead_s"]["value"], same_seed or "none",
                 across_seeds or "none"))
        per_layer[w] = {"seed": 1,
                        "metrics": {n: m["value"] for n, m in a.items()},
                        "calls_differ_between_traced_runs": same_seed,
                        "calls_differ_at_seed_2": across_seeds}

    out = {"environment": dict(bench.environment(), cpu_model=_cpu_model()),
           "run_seconds": seconds, "seeds": seeds, "sets": sets,
           "agreement": agreement, "per_layer": per_layer,
           "steady": steady,
           "agree": all(a["within"] for per_w in agreement.values()
                        for a in per_w.values())}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("steady (every spread but setup_s below a third of its bound):",
          steady)
    print("agree (every second-set median within its bound):", out["agree"])


if __name__ == "__main__":
    main()
