"""The benchmark workloads, built from the workload seed.

Each workload leans on a different part of the exact Q(t) kernel:

engine-a1   few but large Q(t) products: the rank-1 engine checks.
engine-a2   the two-copy oscillator engine path with large series matrices.
identities  many tiny products under the nested two-variable rationals.
cli         the end-to-end commands in fresh processes, with the pool.

The sizes keep one pass over a workload to a few seconds, so that a run of
the benchmark holds several passes and reports their median.  The seed
reorders the work.  On identities it also draws the 18 gauge exponent tuples
(s, s1, s2) the way the acceptance suite does, so there it changes the gauge
work and the call counts; on the other workloads it leaves the amount of
work unchanged.  The workload names and the reasons they were chosen are in
BENCHMARK.json.
"""

import gzip
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
NAMES = [w["name"] for w in json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def _engine(cid, **kwargs):
    return (cid, "check_engine", kwargs)


ENGINE_A1 = [
    _engine("a1-engine-r", kind="r", algebra="a1", s=1, s1=0, order=8),
    _engine("a1-engine-hat", kind="l", algebra="a1", variant="hat", s=1,
            s1=0, order=5, d=7),
    _engine("a1-engine-check", kind="l", algebra="a1", variant="check", s=1,
            s1=0, order=5, d=7),
]
ENGINE_A1_SMOKE = [
    _engine("a1-engine-r", kind="r", algebra="a1", s=1, s1=0, order=4),
    _engine("a1-engine-hat", kind="l", algebra="a1", variant="hat", s=1,
            s1=0, order=3, d=4),
]

ENGINE_A2 = [
    _engine("a2-engine-r", kind="r", algebra="a2", s=1, s1=0, s2=0, order=6),
    _engine("a2-engine-hat-1", kind="l", algebra="a2", variant="hat-1", s=1,
            s1=0, s2=0, order=2, d=4),
    _engine("a2-engine-check-2", kind="l", algebra="a2", variant="check-2",
            s=1, s1=0, s2=0, order=2, d=4),
]
ENGINE_A2_SMOKE = [
    _engine("a2-engine-r", kind="r", algebra="a2", s=1, s1=0, s2=0, order=3),
    _engine("a2-engine-hat-1", kind="l", algebra="a2", variant="hat-1", s=1,
            s1=0, s2=0, order=1, d=3),
]

# catalog entries of suite_checks(order=8, fock=12) run by identities: every
# non-engine, non-gauge check of a1, and one instance of each check kind of
# a2 (the full a2 set takes about 9 s, too long for several passes a run);
# the a1 inversion dualities cover grid_inverse
IDENTITY_IDS = [
    "a1-ybe-1_0", "a1-ybe--2_-1", "a1-ybe-2_1",
    "a1-rll-hat", "a1-rll-hat-twisted", "a1-rll-check",
    "a1-rll-check-twisted",
    "a1-duality-inversion-hat", "a1-duality-inversion-check",
    "a1-duality-tau-hat", "a1-duality-tau-check",
    "a1-structure",
    "a2-ybe-1_0_0", "a2-rll-check-1", "a2-duality-tau-hat-1",
    "a2-structure",
]
IDENTITY_IDS_SMOKE = ["a1-ybe-1_0", "a1-rll-hat", "a1-duality-tau-hat",
                      "a1-structure"]


def _gauge_items(rng, per_family):
    """Gauge checks at exponent tuples drawn as acceptance criterion 7
    draws them."""
    out = []
    for algebra in ("a1", "a2"):
        for family in ("r", "hat", "check"):
            for _ in range(per_family):
                s = rng.choice([-3, -2, -1, 1, 2, 3])
                s1 = rng.randint(-2, 2)
                s2 = rng.randint(-2, 2) if algebra == "a2" else 0
                cid = "%s-gauge-%s-%d_%d_%d" % (algebra, family, s, s1, s2)
                out.append((cid, "check_gauge",
                            dict(family=family, algebra=algebra, s=s, s1=s1,
                                 s2=s2)))
    return out


def check_items(workload, seed, smoke=False):
    """The (id, check function, kwargs) items of one pass, in run order."""
    rng = random.Random(seed)
    if workload == "engine-a1":
        items = list(ENGINE_A1_SMOKE if smoke else ENGINE_A1)
    elif workload == "engine-a2":
        items = list(ENGINE_A2_SMOKE if smoke else ENGINE_A2)
    elif workload == "identities":
        from qaffine.verify import suite_checks
        catalog = {item[0]: item for item in suite_checks(order=8, fock=12)}
        ids = IDENTITY_IDS_SMOKE if smoke else IDENTITY_IDS
        items = [catalog[cid] for cid in ids]
        items += _gauge_items(rng, 1 if smoke else 3)
    else:
        raise ValueError("no check items for workload %r" % workload)
    rng.shuffle(items)
    return items


# (kind, expected output file, arguments of qaffine.cli)
CLI_COMMANDS = [
    ("verify", "verify-all-a1.json.gz",
     ["verify", "all", "--algebra", "a1", "--workers", "2", "--order", "5",
      "--fock", "7", "--format", "json"]),
    ("compute", "compute-l-a2-rational.json.gz",
     ["compute", "l", "--algebra", "a2", "--side", "chi-phi", "--family",
      "2", "--s", "2", "--s1", "1", "--s2", "0", "--fock", "12", "--format",
      "json"]),
    ("compute", "compute-l-a1-series.json.gz",
     ["compute", "l", "--algebra", "a1", "--side", "chi-phi", "--backend",
      "series", "--order", "5", "--fock", "7", "--format", "json"]),
]


def cli_commands(seed, smoke=False):
    """The CLI commands of one pass, in run order; the smoke size skips the
    pooled verify."""
    commands = [c for c in CLI_COMMANDS if not smoke or c[0] == "compute"]
    random.Random(seed).shuffle(commands)
    return commands


def normalize_output(kind, stdout):
    """Output bytes as stored in the expected file: compute output as is,
    verify output without the verdicts' wall times."""
    if kind == "compute":
        return stdout
    verdicts = json.loads(stdout)
    for verdict in verdicts:
        del verdict["wall_time_ms"]
    return (json.dumps(verdicts, indent=2) + "\n").encode()


def expected_output(name):
    with gzip.open(EXPECTED / name, "rb") as fh:
        return fh.read()
