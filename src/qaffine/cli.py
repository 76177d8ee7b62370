"""Command-line interface.

    qaffine compute {r|l} --algebra a1 --s -2 --s1 -1 [...]
    qaffine verify {ybe|rll|gauge|engine|duality|structure|all} [...]
    qaffine list variants

Settings come from built-ins, then an optional key=value config file,
then the QAFFINE_ORDER / QAFFINE_FOCK environment variables, then flags;
the merged values are range-checked.  Exit codes: 0 success or all
checks passed, 1 at least one check failed (the report is still
emitted), 2 usage or configuration errors.

Each command imports only the layer it runs: the rational backend and
`list` the transcriptions (`reference`), the series backend the engine,
and `verify` the suite.
"""

import argparse
import os
import sys

from fractions import Fraction

from .oscillator import OscParams
from .scalars import parse_qscalar
from .serialize import dump_matrix, dump_grid, write_json

DEFAULTS = {"order": 8, "fock": 12, "backend": "rational", "format": "text",
            "workers": 1}

_CONFIG_KEYS = {"order": int, "fock": int, "backend": str, "format": str,
                "workers": int}

# smallest accepted value of each integer setting, and the accepted values
# of each string setting
_MINIMUM = {"order": 0, "fock": 2, "workers": 1}
_CHOICES = {"backend": ("series", "rational"), "format": ("json", "text")}


class UsageError(Exception):
    pass


def load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError("malformed config line: %r" % line)
            key, value = (x.strip() for x in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError("unknown config key: %r" % key)
            try:
                out[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise UsageError("bad value for %s: %r" % (key, value))
    return out


def effective_settings(args):
    """Built-ins, then the config file, then QAFFINE_ORDER / QAFFINE_FOCK,
    then the flags; every merged value is range-checked."""
    out = dict(DEFAULTS)
    if getattr(args, "config", None):
        out.update(load_config(args.config))
    for key in ("order", "fock"):
        value = os.environ.get("QAFFINE_" + key.upper())
        if value:
            out[key] = int(value)
    for key in DEFAULTS:
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    for key, low in _MINIMUM.items():
        if out[key] < low:
            raise UsageError("%s must be at least %d, got %d"
                             % (key, low, out[key]))
    for key, choices in _CHOICES.items():
        if out[key] not in choices:
            raise UsageError("%s must be one of %s, got %r"
                             % (key, ", ".join(choices), out[key]))
    return out


def _add_common(p):
    p.add_argument("--algebra", choices=("a1", "a2"), default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--fock", type=int, default=None)
    p.add_argument("--format", choices=("json", "text"), default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qaffine",
        description="exact R-matrices and L-operators for the rank-1 and "
                    "rank-2 quantum affine algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one object")
    pc.add_argument("what", choices=("r", "l"))
    pc.add_argument("--side", choices=("phi-phi", "chi-phi", "phi-psi"),
                    default="phi-phi")
    pc.add_argument("--family", type=int, choices=(1, 2), default=1)
    pc.add_argument("--twist", default=None,
                    help="node permutation like 10 or 120")
    pc.add_argument("--osc-rho", default=None,
                    help="oscillator homomorphism rho, canonical scalar "
                         "string like '(1)/(t^6 - t^-6)'")
    pc.add_argument("--osc-mu", default=None,
                    help="comma-separated mu parameters, scalar strings")
    pc.add_argument("--osc-nu", default=None,
                    help="comma-separated nu exponents, sixth-integer "
                         "fractions like 1/3,0,2")
    pc.add_argument("--backend", choices=("series", "rational"),
                    default=None)
    pc.add_argument("--s", type=int, default=1)
    pc.add_argument("--s1", type=int, default=0)
    pc.add_argument("--s2", type=int, default=0)
    _add_common(pc)

    pv = sub.add_parser("verify", help="run identity checks")
    pv.add_argument("what", choices=("ybe", "rll", "gauge", "engine",
                                     "duality", "structure", "all"))
    pv.add_argument("--workers", type=int, default=None)
    _add_common(pv)

    pl = sub.add_parser("list", help="list supported objects")
    pl.add_argument("what", choices=("variants",))
    return ap


def _variant_for(args, twist):
    base = "hat" if args.side == "chi-phi" else "check"
    twisted = twist is not None and twist != tuple(sorted(twist))
    if args.algebra == "a1":
        return base + ("-twisted" if twisted else "")
    if twisted:
        raise UsageError("rank-2 twisted variants are not transcribed; "
                         "use --backend series with --twist")
    return "%s-%d" % (base, args.family)


def _parse_osc_params(args):
    rho = getattr(args, "osc_rho", None)
    mu = getattr(args, "osc_mu", None)
    nu = getattr(args, "osc_nu", None)
    if rho is None and mu is None and nu is None:
        return None
    if not (rho and mu and nu):
        raise UsageError("oscillator parameters need all of --osc-rho, "
                         "--osc-mu, --osc-nu")
    n_mu, n_nu = (1, 1) if args.algebra == "a1" else (2, 3)
    (rho,) = _osc_values("--osc-rho", rho, parse_qscalar, 1, args.algebra)
    return OscParams(rho,
                     _osc_values("--osc-mu", mu, parse_qscalar, n_mu,
                                 args.algebra),
                     _osc_values("--osc-nu", nu, Fraction, n_nu,
                                 args.algebra))


def _osc_values(flag, text, parse, count, algebra):
    """The `count` comma-separated values of one oscillator flag."""
    try:
        values = [parse(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("%s: %s" % (flag, exc))
    if len(values) != count:
        raise UsageError("%s takes %d value(s) for --algebra %s, got %d"
                         % (flag, count, algebra, len(values)))
    return values


def _parse_twist(text, algebra):
    """The --twist value as a permutation of the algebra's nodes."""
    if text is None:
        return None
    nodes = "01" if algebra == "a1" else "012"
    if sorted(text) != list(nodes):
        raise UsageError("--twist must be a permutation of the nodes %s, "
                         "got %r" % (nodes, text))
    return tuple(int(ch) for ch in text)


def cmd_compute(args, conf):
    """The requested object in the one form `conf["format"]` asks for: its
    text, or its JSON payload, which `main` dumps after the object itself
    is released."""
    order, fock, backend = conf["order"], conf["fock"], conf["backend"]
    if args.algebra is None:
        args.algebra = "a1"
    if args.what == "r" and args.side != "phi-phi":
        raise UsageError("r-matrices use --side phi-phi")
    if args.what == "l" and args.side == "phi-phi":
        raise UsageError("l-operators need --side chi-phi or phi-psi")
    if args.what == "r" and args.twist is not None:
        raise UsageError("--twist applies to l-operators only")
    if ((args.what == "r" or backend == "rational")
            and (args.osc_rho, args.osc_mu, args.osc_nu) != (None,) * 3):
        raise UsageError("--osc-rho, --osc-mu and --osc-nu apply to "
                         "l-operators with --backend series only")
    if args.algebra == "a1" and args.family != 1:
        raise UsageError("--family applies to --algebra a2 only")
    twist = _parse_twist(args.twist, args.algebra)
    as_text = conf["format"] == "text"
    if backend == "rational":
        from .reference import reference_matrix
        if args.what == "r":
            ref = reference_matrix("r", args.algebra, "plain", args.s,
                                   args.s1, args.s2)
            if as_text:
                return _matrix_text(ref.matrix, args.algebra, ref.tag)
            payload = dump_matrix(ref.matrix)
            payload["tag"] = {"t_power": ref.tag.t_power,
                              "terms": [list(t) for t in ref.tag.terms]}
        else:
            variant = _variant_for(args, twist)
            ref = reference_matrix("l", args.algebra, variant, args.s,
                                   args.s1, args.s2, d=fock)
            if as_text:
                return _grid_text(ref)
            payload = dump_grid(ref.matrix, fock_dim=ref.fock_dim,
                                copies=ref.copies, tag=ref.tag)
    else:
        from .engine import EngineParams, assemble
        left = "chi" if args.side == "chi-phi" else "phi"
        right = "psi" if args.side == "phi-psi" else "phi"
        if args.what == "r":
            left, right = "phi", "phi"
        params = EngineParams(args.algebra, args.s, args.s1, args.s2,
                              order=order, left=left, right=right,
                              family=args.family,
                              twist=twist, fock_dim=fock,
                              osc_params=_parse_osc_params(args))
        mat = assemble(params)
        if as_text:
            return _flat_series_text(mat)
        payload = dump_matrix(mat)
    return payload


def _basis_label(flat, n):
    a, b = divmod(flat, n)
    return a + 1, b + 1


def _matrix_text(mat, algebra, tag=None):
    n = 2 if algebra == "a1" else 3
    lines = []
    if tag is not None and not tag.is_trivial():
        lines.append("# scalar prefactor tag: t^%d, terms %s"
                     % (tag.t_power, list(tag.terms)))
    for (i, j), v in sorted(mat.entries.items()):
        (a, c) = _basis_label(i, n)
        (b, d) = _basis_label(j, n)
        lines.append("E%d%d x E%d%d : %s" % (a, b, c, d, v))
    return "\n".join(lines)


def _grid_text(ref):
    lines = ["# %s-type operator, fock dimension %d x %d copies"
             % (ref.l_type, ref.fock_dim, ref.copies)]
    if not ref.tag.is_trivial():
        lines.append("# scalar prefactor tag: t^%d, terms %s"
                     % (ref.tag.t_power, list(ref.tag.terms)))
    for (a, b), m in sorted(ref.matrix.entries.items()):
        lines.append("L[%d,%d]:" % (a + 1, b + 1))
        for (i, j), v in sorted(m.entries.items()):
            lines.append("  <%d|.|%d> = %s" % (i, j, v))
    return "\n".join(lines)


def _flat_series_text(mat):
    lines = ["# flattened series matrix, dim %d" % mat.dim]
    for (i, j), v in sorted(mat.entries.items()):
        lines.append("[%d,%d] = %s" % (i, j, v))
    return "\n".join(lines)


def cmd_verify(args, conf):
    """The report, as text or as the list of verdicts for `main` to write
    as JSON, and whether every check passed."""
    if conf["workers"] > 1 and not hasattr(os, "fork"):
        raise UsageError("--workers above 1 needs os.fork, which this "
                         "platform lacks")
    # run_suite forks its children from this process, so they inherit the
    # imported suite and do not import it again
    from .verify import suite_checks, run_suite
    checks = suite_checks(algebra=args.algebra, order=conf["order"],
                          fock=conf["fock"])
    if args.what != "all":
        checks = [c for c in checks
                  if c[0].split("-", 1)[1].startswith(args.what)]
    if not checks:
        raise UsageError("no checks selected")
    results = run_suite(checks, workers=conf["workers"])
    all_pass = all(v.passed for _, v in results)
    if conf["format"] == "json":
        return [dict(v.to_json(), id=cid) for cid, v in results], all_pass
    lines = []
    for cid, v in results:
        state = "pass" if v.passed else "FAIL %s" % (v.first_failure,)
        lines.append("%-28s %-8s %7.0f ms  %s"
                     % (cid, state.split()[0],
                        v.wall_time_ms, "" if v.passed else state))
    lines.append("summary: %d/%d passed"
                 % (sum(v.passed for _, v in results), len(results)))
    return "\n".join(lines), all_pass


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    status = 0
    try:
        conf = effective_settings(args)
        if args.command == "list":
            from .reference import list_variants
            out = "\n".join("%s %s %s" % v for v in list_variants())
        elif args.command == "compute":
            out = cmd_compute(args, conf)
        else:
            out, all_pass = cmd_verify(args, conf)
            status = 0 if all_pass else 1
        _emit(out, conf["format"] == "json", getattr(args, "out", None))
        return status
    except BrokenPipeError:
        # the reader stopped early (`| head`), which does not undo the run;
        # point stdout at devnull so the interpreter's final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return status
    # an EngineError is a ValueError: a rejected parameter or image
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _emit(out, as_json, out_path):
    """Write the text `out`, or the JSON value `out` as
    `json.dumps(out, indent=2)` spells it, and a newline, to out_path or
    to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            _write(out, as_json, fh)
    else:
        _write(out, as_json, sys.stdout)


def _write(out, as_json, fh):
    if as_json:
        write_json(out, fh.write)
    else:
        fh.write(out)
    fh.write("\n")
    fh.flush()


if __name__ == "__main__":
    sys.exit(main())
