"""Outside-in layer tracing for the benchmark.

The layers are the ``qaffine`` modules.  The tracer wraps their public entry
points from outside the program: class methods are replaced on the class,
and module functions are re-bound in every ``qaffine.*`` namespace that
imported them by name (``engine.series_exp``, ``verify.kron``, ...) and in
module-level dispatch tables (``verify._CHECK_FNS``).  Each wrapped call
adds to its layer's call count, its self time (its duration minus the time
spent in wrapped calls it made) and its total time (outermost calls only,
so recursion is not counted twice).
"""

import functools
import importlib
import sys
import time

SCALAR = ("calls", "self_s", "us_per_call")
CALLS_SELF = ("calls", "self_s")
PHASE = ("calls", "self_s", "total_s")
CHECK = ("total_s", "self_s")

# layer, entry points ("module:attribute"), metrics reported, and the
# end-to-end metric and workload a change in the layer should move
LAYERS = (
    ("scalars.mul", ("scalars:QScalar.__mul__",), SCALAR,
     "wall_rel, cpu_rel on all four workloads; operands are large on "
     "engine-a1 and small on identities"),
    ("scalars.add", ("scalars:QScalar.__add__",), SCALAR,
     "wall_rel, cpu_rel on all four workloads"),
    ("scalars.inverse", ("scalars:QScalar.inverse",), SCALAR,
     "wall_rel, cpu_rel on all four workloads"),
    ("series.mul", ("series:ZetaSeries.__mul__",), CALLS_SELF,
     "wall_rel on engine-a1, engine-a2; no change predicted on identities"),
    ("series.add", ("series:ZetaSeries.__add__",), CALLS_SELF,
     "wall_rel on engine-a1, engine-a2; no change predicted on identities"),
    ("series.inverse", ("series:ZetaSeries.inverse",), CALLS_SELF,
     "wall_rel on engine-a1, engine-a2; no change predicted on identities"),
    ("series.exp", ("series:series_exp",), CALLS_SELF,
     "wall_rel on engine-a1, engine-a2; no change predicted on identities"),
    ("series.log", ("series:series_log",), CALLS_SELF,
     "wall_rel on engine-a1, engine-a2; no change predicted on identities"),
    ("rational.mul", ("rational:ZetaRational.__mul__",), CALLS_SELF,
     "wall_rel on identities; no change predicted on engine-*"),
    ("rational.add", ("rational:ZetaRational.__add__",), CALLS_SELF,
     "wall_rel on identities; no change predicted on engine-*"),
    ("rational.inverse", ("rational:ZetaRational.inverse",), CALLS_SELF,
     "wall_rel on identities; no change predicted on engine-*"),
    ("linalg.opmatrix_mul", ("linalg:OpMatrix.__mul__",), CALLS_SELF,
     "wall_rel on engine-a2 (large matrices) and identities (grids)"),
    ("linalg.opmatrix_add", ("linalg:OpMatrix.__add__",), CALLS_SELF,
     "wall_rel on engine-a2 (large matrices) and identities (grids)"),
    ("linalg.kron", ("linalg:kron",), CALLS_SELF,
     "wall_rel on engine-a2 (large matrices) and identities (grids)"),
    ("linalg.grid_mul", ("linalg:Grid.__mul__",), CALLS_SELF,
     "wall_rel on engine-a2 (large matrices) and identities (grids)"),
    ("linalg.grid_akp", ("linalg:grid_akp",), CALLS_SELF,
     "wall_rel on engine-a2 (large matrices) and identities (grids)"),
    ("oscillator.images", ("oscillator:chi_images", "oscillator:psi_images"),
     CALLS_SELF, "wall_rel on engine-*; setup_s if a change moves work into "
     "set-up"),
    ("qgroup.phi_zeta", ("qgroup:phi_zeta",), CALLS_SELF,
     "wall_rel on engine-*; setup_s if a change moves work into set-up"),
    ("rootsys.positive_roots", ("rootsys:positive_roots",), CALLS_SELF,
     "wall_rel on engine-*; setup_s if a change moves work into set-up"),
    ("engine.assemble", ("engine:assemble",), PHASE,
     "wall_rel on engine-a1, engine-a2, cli"),
    ("engine.build_root_vectors", ("engine:build_root_vectors",), PHASE,
     "wall_rel on engine-a1, engine-a2, cli"),
    ("reference.reference_matrix", ("reference:reference_matrix",),
     CALLS_SELF, "wall_rel on identities"),
    ("reference.expand", ("reference:ReferenceObject.expand",), CALLS_SELF,
     "wall_rel on identities"),
    ("reference.grid_inverse", ("reference:grid_inverse",), CALLS_SELF,
     "wall_rel on identities"),
    ("reference.op_inverse", ("reference:op_inverse",), CALLS_SELF,
     "wall_rel on identities"),
) + tuple(
    ("verify.%s" % fn, ("verify:%s" % fn,), CHECK,
     "wall_rel of the workload that runs it")
    for fn in ("check_engine", "check_ybe", "check_rll", "check_duality",
               "check_gauge", "check_structure"))

# per-layer metrics measured without the wrappers
EXTRA_METRICS = (
    ("scalars.gcd_cache.entries", "count", "lower",
     "peak_rss_mb on every workload; entries left in the module-global gcd "
     "cache at the end of a pass"),
    ("cli.verify.wall_s", "s", "lower", "wall_rel, cpu_rel on cli"),
    ("cli.compute.wall_s", "s", "lower", "wall_rel, setup_s on cli"),
    ("cli.pool.busy_ratio", "ratio", "higher",
     "wall_rel, cpu_rel on cli; sum of verdict times over workers x verify "
     "wall"),
    ("trace.overhead_s", "s", "lower",
     "none; traced minus untraced pass wall time of the same run"),
    ("trace.calls_mismatch", "count", "lower",
     "none; layers whose call counts differ between two traced passes"),
)

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
          "total_s": ("s", "lower"), "us_per_call": ("us", "lower")}


def metric_specs():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, _, fields, _ in LAYERS:
        for field in fields:
            out.append(("%s.%s" % (layer, field),) + _UNITS[field])
    return out + [spec[:3] for spec in EXTRA_METRICS]


class Tracer:
    """Aggregates calls, self time and total time per layer."""

    def __init__(self):
        # layer -> [calls, self_s, total_s, active depth]
        self.records = {layer: [0, 0.0, 0.0, 0] for layer, *_ in LAYERS}
        self._child = [0.0]

    def install(self):
        for layer, entry_points, _, _ in LAYERS:
            for entry in entry_points:
                module_name, path = entry.split(":")
                module = importlib.import_module("qaffine." + module_name)
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                wrapped = self._wrap(self.records[layer], original)
                setattr(owner, attr, wrapped)
                if owner is module:
                    _rebind(original, wrapped)

    def _wrap(self, rec, fn):
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec[0] += 1
            rec[3] += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                rec[1] += elapsed - child.pop()
                rec[3] -= 1
                if not rec[3]:
                    rec[2] += elapsed
                child[-1] += elapsed
        return traced

    def reset(self):
        for rec in self.records.values():
            rec[:3] = [0, 0.0, 0.0]

    def snapshot(self):
        from qaffine import scalars
        return {"layers": {layer: {"calls": r[0], "self_s": r[1],
                                   "total_s": r[2]}
                           for layer, r in self.records.items()},
                "gcd_cache_entries": len(scalars._GCD_CACHE)}


def merge(snapshots):
    """Sum snapshots taken in different processes."""
    out = {"layers": {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                      for layer, *_ in LAYERS},
           "gcd_cache_entries": 0}
    for snap in snapshots:
        for layer, rec in snap["layers"].items():
            for key, value in rec.items():
                out["layers"][layer][key] += value
        out["gcd_cache_entries"] += snap["gcd_cache_entries"]
    return out


def layer_metrics(snap):
    """Per-layer metric values from one snapshot."""
    out = {}
    for layer, _, fields, _ in LAYERS:
        rec = snap["layers"][layer]
        for field in fields:
            if field == "us_per_call":
                value = rec["self_s"] / rec["calls"] * 1e6 if rec["calls"] \
                    else 0.0
            else:
                value = rec[field]
            out["%s.%s" % (layer, field)] = value
    out["scalars.gcd_cache.entries"] = snap["gcd_cache_entries"]
    return out


def _rebind(original, wrapped):
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("qaffine"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped
