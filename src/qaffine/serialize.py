"""Bit-exact JSON forms for series and rational matrices, operator grids
and verdicts, and the one writer that spells them out.

Scalars serialize through their canonical strings, so a dumped value
names its exact coefficients; the tests read every kind back and compare.
"""

from json.encoder import encode_basestring_ascii

from .series import ZetaSeries
from .rational import ZetaRational

__all__ = ["dump_series", "dump_rational", "dump_matrix", "dump_grid",
           "write_json"]


def dump_series(s):
    return {"order": s.order, "min_deg": s.min_degree,
            "coeffs": [{"deg": d, "coeff": str(c)}
                       for d, c in sorted(s.coeffs.items())]}


def dump_rational(r):
    return {"num": [[d, str(c)] for d, c in sorted(r.num.items())],
            "den": [[d, str(c)] for d, c in sorted(r.den.items())]}


_KIND_DUMPERS = {
    ZetaSeries: ("series", dump_series),
    ZetaRational: ("rational", dump_rational),
}


def dump_matrix(m):
    kind, dumper = _KIND_DUMPERS[type(m.one)]
    return {"dim": m.dim, "scalar": kind,
            "entries": [{"i": i, "j": j, "value": dumper(v)}
                        for (i, j), v in sorted(m.entries.items())]}


def dump_grid(g, fock_dim, copies, tag):
    return {"legs": g.n, "op_dim": g.op_dim,
            "entries": [{"a": a, "b": b, "op": dump_matrix(m)}
                        for (a, b), m in sorted(g.entries.items())],
            "fock": fock_dim, "copies": copies,
            "tag": {"t_power": tag.t_power,
                    "terms": [list(t) for t in tag.terms]}}


# parts of the text the writer collects before it hands them on
_BATCH = 4096
_INF = float("inf")


def write_json(value, write):
    """Write a JSON value (dicts with string keys, lists or tuples, strings,
    ints, floats, bools, None) through `write`, spelled as
    `json.dumps(value, indent=2)` spells it.  With an indent, the standard
    library encodes in pure Python; this writer goes through the C string
    quoting and hands the text on in batches, so it never holds the whole
    of it."""
    parts = []
    _write_value(value, "\n", parts, write)
    write("".join(parts))


def _write_value(value, newline, parts, write):
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # a key that is not a str raises TypeError here
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write_value(item, inner, parts, write)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_value(item, inner, parts, write)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(_json_scalar(value))
    if len(parts) > _BATCH:
        write("".join(parts))
        parts.clear()


def _json_scalar(value):
    # bool before int: True is an int too
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (_INF, -_INF):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)
