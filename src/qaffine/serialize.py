"""Bit-exact JSON forms for scalars, matrices, operator grids and verdicts,
and the one writer that spells them out.

Scalars serialize through their canonical strings, so parse(dump(x)) == x
holds syntactically for every value kind.
"""

from json.encoder import encode_basestring_ascii

from .scalars import QScalar, parse_qscalar
from .series import ZetaSeries
from .rational import ZetaRational
from .linalg import OpMatrix, Grid

__all__ = [
    "dump_series", "parse_series", "dump_rational", "parse_rational",
    "dump_matrix", "parse_matrix", "dump_grid", "parse_grid", "write_json",
]


def dump_series(s):
    return {"order": s.order, "min_deg": s.min_degree,
            "coeffs": [{"deg": d, "coeff": str(c)}
                       for d, c in sorted(s.coeffs.items())]}


def parse_series(blob):
    return ZetaSeries({t["deg"]: parse_qscalar(t["coeff"])
                       for t in blob["coeffs"]},
                      blob["order"], blob["min_deg"])


def dump_rational(r):
    return {"num": [[d, str(c)] for d, c in sorted(r.num.items())],
            "den": [[d, str(c)] for d, c in sorted(r.den.items())]}


def parse_rational(blob):
    return ZetaRational({d: parse_qscalar(c) for d, c in blob["num"]},
                        {d: parse_qscalar(c) for d, c in blob["den"]})


_KIND_DUMPERS = {
    ZetaSeries: ("series", dump_series),
    ZetaRational: ("rational", dump_rational),
    QScalar: ("qscalar", lambda v: str(v)),
}

_KIND_PARSERS = {
    "series": parse_series,
    "rational": parse_rational,
    "qscalar": lambda blob: parse_qscalar(blob),
}


def _value_kind(one):
    for cls, (name, _) in _KIND_DUMPERS.items():
        if isinstance(one, cls):
            return name
    raise TypeError("unsupported scalar kind %r" % type(one).__name__)


def dump_matrix(m):
    kind = _value_kind(m.one)
    dumper = _KIND_DUMPERS[type(m.one)][1]
    return {"dim": m.dim, "scalar": kind,
            "entries": [{"i": i, "j": j, "value": dumper(v)}
                        for (i, j), v in sorted(m.entries.items())]}


def parse_matrix(blob):
    kind = blob["scalar"]
    parser = _KIND_PARSERS[kind]
    entries = {(e["i"], e["j"]): parser(e["value"])
               for e in blob["entries"]}
    if kind == "series":
        one = ZetaSeries.one(blob["entries"][0]["value"]["order"]
                             if blob["entries"] else 0)
    elif kind == "rational":
        one = ZetaRational.ONE
    else:
        one = QScalar.ONE
    return OpMatrix(blob["dim"], entries, one)


def dump_grid(g, fock_dim=None, copies=None, tag=None):
    out = {"legs": g.n, "op_dim": g.op_dim,
           "entries": [{"a": a, "b": b, "op": dump_matrix(m)}
                       for (a, b), m in sorted(g.entries.items())]}
    if fock_dim is not None:
        out["fock"] = fock_dim
    if copies is not None:
        out["copies"] = copies
    if tag is not None:
        out["tag"] = {"t_power": tag.t_power,
                      "terms": [list(t) for t in tag.terms]}
    return out


def parse_grid(blob):
    entries = {}
    one = ZetaRational.ONE
    for e in blob["entries"]:
        m = parse_matrix(e["op"])
        entries[(e["a"], e["b"])] = m
        one = m.one
    return Grid(blob["legs"], entries, blob["op_dim"], one)


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
