"""The qaffine command line under the layer tracer.

    python3 perfbench/cli_traced.py STATS_PATH ARGS...

Behaves as ``python -m qaffine.cli ARGS...`` and then writes the per-layer
counters of this process and of its pool workers to STATS_PATH.  Pool
workers are forked from this process, so they inherit the wrappers; each
one clears the counts it inherited and saves its own after every check.
"""

import json
import os
import sys
from pathlib import Path

import tracer


def main():
    stats = Path(sys.argv[1])
    from qaffine import cli, verify
    trace = tracer.Tracer()
    trace.install()
    parent = os.getpid()
    run_check = verify.run_check
    started = set()

    def traced_run_check(item):
        pid = os.getpid()
        if pid != parent and pid not in started:
            trace.reset()
            started.add(pid)
        try:
            return run_check(item)
        finally:
            if pid != parent:
                part = stats.with_name("%s.%d" % (stats.name, pid))
                part.write_text(json.dumps(trace.snapshot()))

    # the pool pickles run_check by name, so the workers look it up here
    traced_run_check.__module__ = run_check.__module__
    traced_run_check.__qualname__ = run_check.__qualname__
    verify.run_check = traced_run_check

    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    snaps = [trace.snapshot()]
    for part in sorted(stats.parent.glob(stats.name + ".*")):
        snaps.append(json.loads(part.read_text()))
        part.unlink()
    stats.write_text(json.dumps(tracer.merge(snaps)))
    return code


if __name__ == "__main__":
    sys.exit(main())
