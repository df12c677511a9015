"""perc-forge: command-line front end.

JSON is the machine format and the single source of truth; the optional
table rendering is derived from the JSON document, never computed
separately.  Output is byte-stable for identical requests: fixed key
order, no timestamps.  Exit codes: 0 success, 1 verification failure,
2 parse/domain errors, 3 search stopped by budget.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .bootstrap import closure, percolates
from .counts import (
    DomainError,
    m_lower_grid,
    m_lower_grid_r2,
    m_lower_hypercube,
    w_recurrence,
    wsat_grid_closed,
)
from .families import (
    FamilyError,
    assemble_lower_bound,
    rank_certificate_from_json_doc,
    recheck_rank_certificate,
)
from .grid import GridError, GridSpec, VertexSet, _json_int, parse_grid
from .linalg import LinalgError
from .saturation import (
    SaturationCertificate,
    build_wsat_grid,
    verify_certificate,
)
from .search import SearchConfig, exact_min
from .witnesses import (
    PercolatingWitness,
    base_set,
    build_r3,
    build_recursive,
    r3_target_size,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _json_text(doc: dict) -> str:
    """The document as `json.dumps(doc, indent=2) + "\\n"`, from `_write_value`."""
    parts: list[str] = []
    _write_value(parts.append, doc)
    parts.append("\n")
    return "".join(parts)


# what json.dumps escapes in a string (ensure_ascii): a quote, a backslash
# and every character outside printable ASCII
_NEEDS_ESCAPE = re.compile(r'[\\"]|[^ -~]')


def _write_value(write, value, indent: str = "") -> None:
    """Pass the text of `json.dumps(value, indent=2)`, as it stands nested
    at `indent`, to `write` in pieces: one per dict key and list item, or
    per batch of records.

    json.dumps uses its C encoder only without indent, so this lays out the
    containers itself and writes each flat list of ints or of strings with
    one join: ints by int.__repr__, strings as they are when none needs
    escaping (one regex search over them all), else each by the encoder
    json.dumps uses.  A list of flat records goes to `_write_records`.  Any
    other value, such as a bool, None, a float, an empty container, a tuple
    or a list of mixed kinds, is json.dumps's own text with each newline
    followed by `indent` (all of its newlines are layout: inside a string
    one is written \\n).  So the text equals json.dumps's for every value,
    not only for the documents percforge writes."""
    kind = type(value)
    inner = indent + "  "
    if kind is dict and value and set(map(type, value)) == {str}:
        sep = "{\n" + inner
        for key, item in value.items():
            head = sep + encode_basestring_ascii(key) + ": "
            if type(item) is int:
                write(head + int.__repr__(item))
            else:
                write(head)
                _write_value(write, item, inner)
            sep = ",\n" + inner
        write("\n" + indent + "}")
        return
    if kind is list and value:
        body = None
        if type(value[0]) is str:
            try:
                joined = "".join(value)  # a TypeError unless all are strings
            except TypeError:
                pass
            else:
                if _NEEDS_ESCAPE.search(joined) is None:
                    body = '"' + ('",\n' + inner + '"').join(value) + '"'
                else:
                    body = (",\n" + inner).join(map(encode_basestring_ascii, value))
        else:
            kinds = set(map(type, value))
            if kinds == {int}:
                body = (",\n" + inner).join(map(int.__repr__, value))
            elif kinds == {dict} and _write_records(write, value, indent):
                return
            elif kinds <= {dict, list}:
                sep = "[\n" + inner
                for item in value:
                    write(sep)
                    _write_value(write, item, inner)
                    sep = ",\n" + inner
                write("\n" + indent + "]")
                return
        if body is not None:
            write("[\n" + inner + body + "\n" + indent + "]")
            return
    write(json.dumps(value, indent=2).replace("\n", "\n" + indent))


# records written with one %-template call
_RECORD_BATCH = 256


def _write_records(write, items: list, indent: str) -> bool:
    """Write the list of dicts `items`, at `indent`, with one %-template
    per record, when they are flat records: every item has the first
    item's str keys in its order, and each key holds an int in every item
    or an int list of one length in every item (such as a saturation
    certificate's additions).  Returns False, having written nothing, for
    any other list.

    A record's text then depends on its ints alone, so one template with
    a %d per int gives it: %d writes an int as int.__repr__ does, and the
    check is on exact types, so no bool passes as an int.  The ints of a
    batch of records are taken column by column and interleaved by zip;
    only one batch's columns are held at a time."""
    keys = tuple(items[0])
    if not keys or set(map(type, keys)) != {str} or set(map(tuple, items)) != {keys}:
        return False
    inner, field, element = indent + "  ", indent + "    ", indent + "      "
    parts, plan = [], []  # plan: (getter, list length or None for an int)
    for key in keys:
        head = field + encode_basestring_ascii(key).replace("%", "%%") + ": "
        get = itemgetter(key)
        kinds = set(map(type, map(get, items)))
        if kinds == {int}:
            parts.append(head + "%d")
            plan.append((get, None))
            continue
        lengths = set(map(len, map(get, items))) if kinds == {list} else ()
        if len(lengths) != 1:
            return False
        (length,) = lengths
        if not length:
            parts.append(head + "[]")
            continue
        if set(map(type, chain.from_iterable(map(get, items)))) != {int}:
            return False
        parts.append(head + "[\n" + element + (",\n" + element).join(["%d"] * length)
                     + "\n" + field + "]")
        plan.append((get, length))
    record = "{\n" + ",\n".join(parts) + "\n" + inner + "}"
    sep = ",\n" + inner
    head = "[\n" + inner
    for start in range(0, len(items), _RECORD_BATCH):
        chunk = items[start : start + _RECORD_BATCH]
        columns = []
        for get, length in plan:
            column = list(map(get, chunk))
            if length is None:
                columns.append(column)
            else:
                columns += (map(itemgetter(j), column) for j in range(length))
        batch = sep.join([record] * len(chunk))
        write(head + batch % tuple(chain.from_iterable(zip(*columns))))
        head = sep
    write("\n" + indent + "]")
    return True


def _emit(doc: dict | str, fmt: str) -> None:
    """Write a handler's document to stdout; a str is the document already
    encoded as JSON."""
    if isinstance(doc, str):
        sys.stdout.write(doc)
    elif fmt == "table":
        sys.stdout.write(render_table(doc))
    else:
        sys.stdout.write(_json_text(doc))


def render_table(doc: dict) -> str:
    """Human view of a JSON document: scalar fields as aligned key/value
    lines, a list-of-objects field (rows) as an aligned grid."""
    lines = []
    rows = None
    for key, value in doc.items():
        if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
            rows = (key, value)
            continue
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        lines.append(f"{key:<18} {value}")
    if rows is not None:
        key, items = rows
        cols = list(items[0].keys())
        widths = {c: max(len(c), *(len(str(it.get(c, ""))) for it in items)) for c in cols}
        lines.append("")
        lines.append("  ".join(c.ljust(widths[c]) for c in cols))
        lines.append("  ".join("-" * widths[c] for c in cols))
        for it in items:
            lines.append("  ".join(str(it.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _grid(text: str) -> GridSpec:
    try:
        return parse_grid(text)
    except GridError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc


@contextlib.contextmanager
def _out_file(path: str):
    """The file at `path`, open for writing.  A path that cannot be opened
    or written is an input error (exit 2), not a traceback."""
    try:
        with open(path, "w") as f:
            yield f
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE) from exc


def _write_json(path: str, doc: dict) -> None:
    """Write the text `_json_text` gives, streamed into the file value by
    value, so the whole text is never held at once."""
    with _out_file(path) as f:
        _write_value(f.write, doc)
        f.write("\n")


def _count_option(text: str | None, option: str) -> int | None:
    """The value of a count option such as a budget: a non-negative decimal
    integer, or None when the option is absent."""
    if text is None:
        return None
    try:
        if re.fullmatch(r"[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise CliError(f"{option} expects a non-negative integer, got {text!r}", EXIT_PARSE)


# -- subcommand handlers -----------------------------------------------------


def cmd_wsat(args) -> tuple[int, dict]:
    spec = _grid(args.grid)
    r = args.r
    try:
        recurrence = w_recurrence(spec.dims, r)
    except DomainError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    closed = None
    if 1 <= r <= spec.d:
        closed = wsat_grid_closed(spec.dims, r)
    doc = {
        "kind": "wsat",
        "spec": str(spec),
        "r": r,
        "closed": closed,
        "recurrence": recurrence,
        "agree": (closed == recurrence) if closed is not None else None,
    }
    return EXIT_OK, doc


def cmd_bound(args) -> tuple[int, dict]:
    r = args.r
    if args.d_range:
        try:
            lo, hi = (int(x) for x in args.d_range.split(":"))
        except ValueError:
            raise CliError("--d-range expects LO:HI", EXIT_PARSE) from None
        if lo > hi:
            raise CliError(f"--d-range {args.d_range!r} is empty: LO must be <= HI", EXIT_PARSE)
        rows = []
        for d in range(lo, hi + 1):
            try:
                bound = m_lower_hypercube(d, r)
            except DomainError as exc:
                raise CliError(str(exc), EXIT_PARSE) from exc
            row = {"d": d, "rational": bound.rational_string(), "ceil": bound.ceil_value}
            if r == 3:
                row["r3_exact"] = r3_target_size(d)
            rows.append(row)
        return EXIT_OK, {"kind": "bound-table", "r": r, "rows": rows}
    if not args.grid:
        raise CliError("bound needs --grid or --d-range", EXIT_PARSE)
    spec = _grid(args.grid)
    try:
        if spec.is_hypercube and 1 <= r <= spec.d:
            bound = m_lower_hypercube(spec.d, r)
        else:
            bound = m_lower_grid(spec.dims, r)
    except DomainError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    doc = {
        "kind": "bound",
        "spec": str(spec),
        "r": r,
        "rational": bound.rational_string(),
        "ceil": bound.ceil_value,
    }
    if r == 2:
        doc["r2_refined"] = m_lower_grid_r2(spec.dims)
    return EXIT_OK, doc


def cmd_wsat_build(args) -> tuple[int, dict]:
    spec = _grid(args.grid)
    try:
        cert = build_wsat_grid(spec.dims, args.r)
    except DomainError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    check = verify_certificate(cert)
    if not check.ok:
        raise CliError(f"built certificate failed verification: {check.reason}", EXIT_VERIFY)
    if args.out:
        _write_json(args.out, cert.to_json_doc())
    doc = {
        "kind": "wsat-build",
        "spec": str(spec),
        "r": args.r,
        "star_size": cert.star_size,
        "base_edges": cert.num_base_edges,
        "additions": len(cert.additions),
        "verified": True,
        "out": args.out,
    }
    return EXIT_OK, doc


def cmd_wsat_verify(args) -> tuple[int, dict]:
    raw = _load_json(args.file)
    try:
        cert = SaturationCertificate.from_json_doc(raw)
    except ValueError as exc:  # GridError included
        raise CliError(f"malformed certificate: {exc}", EXIT_PARSE) from exc
    check = verify_certificate(cert)
    doc = {
        "kind": "wsat-verify",
        "file": args.file,
        "ok": check.ok,
        "index": check.index,
        "reason": check.reason,
        "base_edges": cert.num_base_edges,
    }
    return (EXIT_OK if check.ok else EXIT_VERIFY), doc


def cmd_certify(args) -> tuple[int, dict]:
    spec = _grid(args.grid)
    try:
        cert = assemble_lower_bound(spec.dims, args.r)
    except DomainError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    if args.out:
        _write_json(args.out, cert.to_json_doc())
    doc = {
        "kind": "certify",
        "spec": str(spec),
        "r": args.r,
        "rank": cert.rank,
        "wsat_lower": cert.wsat_lower,
        "m_lower": cert.m_lower,
        "out": args.out,
    }
    return EXIT_OK, doc


def cmd_recheck(args) -> tuple[int, dict]:
    raw = _load_json(args.file)
    try:
        cert = rank_certificate_from_json_doc(raw)
    except ValueError as exc:  # GridError and FamilyError included
        raise CliError(f"malformed rank certificate: {exc}", EXIT_PARSE) from exc
    try:
        recheck_rank_certificate(cert)
    except (FamilyError, LinalgError) as exc:  # a false claim, not an internal error
        doc = {"kind": "recheck", "file": args.file, "ok": False, "reason": str(exc)}
        return EXIT_VERIFY, doc
    doc = {
        "kind": "recheck",
        "file": args.file,
        "ok": True,
        "rank": cert.rank,
        "wsat_lower": cert.wsat_lower,
        "m_lower": cert.m_lower,
    }
    return EXIT_OK, doc


def cmd_construct(args) -> tuple[int, dict]:
    spec = _grid(args.grid)
    r = args.r
    if not spec.is_hypercube:
        raise CliError("construct supports hypercube grids only", EXIT_PARSE)
    d = spec.d
    try:
        if r == 3 and d >= 3:
            witness = build_r3(d)
        elif r in (1, 2) or r >= d:
            witness = base_set(d, r)
        else:
            witness = build_recursive(d, r)
    except DomainError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    if args.out:
        _write_json(args.out, witness.to_json_doc())
    doc = {
        "kind": "construct",
        "spec": str(spec),
        "r": r,
        "size": witness.size,
        "provenance": witness.provenance,
        "out": args.out,
    }
    return EXIT_OK, doc


def cmd_check(args) -> tuple[int, dict]:
    raw = _load_json(args.file)
    try:
        witness = PercolatingWitness.from_json_doc(raw)
        claimed = _json_int(raw.get("size", witness.size), "size")
    except ValueError as exc:  # GridError included
        raise CliError(f"malformed witness: {exc}", EXIT_PARSE) from exc
    ok = percolates(witness.spec, witness.vertices, witness.r)
    size_ok = witness.size == claimed
    doc = {
        "kind": "check",
        "file": args.file,
        "ok": bool(ok and size_ok),
        "percolated": bool(ok),
        "size": witness.size,
    }
    return (EXIT_OK if ok and size_ok else EXIT_VERIFY), doc


def cmd_search(args) -> tuple[int, dict]:
    spec = _grid(args.grid)
    config = SearchConfig(
        spec,
        args.r,
        size_budget=_count_option(args.size_budget, "--size-budget"),
        node_budget=_count_option(args.node_budget, "--node-budget"),
        symmetry=not args.no_symmetry,
        seed_lower=_count_option(args.seed_lower, "--seed-lower"),
    )
    try:
        result = exact_min(config)
    except DomainError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    doc = result.to_json_doc()
    return (EXIT_OK if result.status == "exact" else EXIT_BUDGET), doc


def cmd_simulate(args) -> tuple[int, dict | str]:
    spec = _grid(args.grid)
    if args.r < 1:
        raise CliError("simulate requires threshold r >= 1", EXIT_PARSE)
    try:
        indices = [int(x) for x in args.a0.split(",") if x.strip() != ""]
        a0 = VertexSet.from_indices(spec, indices)
    except (ValueError, GridError) as exc:
        raise CliError(f"bad initial set: {exc}", EXIT_PARSE) from exc
    trace = closure(spec, a0, args.r)
    doc = trace.to_json_doc()
    if not args.out:
        return EXIT_OK, doc
    # the file and a JSON stdout hold the same text: encode it once
    text = _json_text(doc)
    with _out_file(args.out) as f:
        f.write(text)
    return EXIT_OK, (text if args.format == "json" else doc)


def cmd_audit(args) -> tuple[int, dict]:
    from .audit import run_audit

    report = run_audit(deep=args.deep)
    return (EXIT_OK if report["pass"] else EXIT_VERIFY), report


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line with exit code 2, like every
    other input error; subcommand parsers inherit it through `add_parser`."""

    def error(self, message: str):
        self.exit(EXIT_PARSE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perc-forge",
        description="minimum percolating sets and weak saturation certificates on grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        p.add_argument("--format", choices=["json", "table"], default="json")
        return p

    p = add("wsat", cmd_wsat, help="weak saturation number of a star in a grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("bound", cmd_bound, help="certified lower bound on the minimum percolating set")
    p.add_argument("--grid")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d-range", help="hypercube table LO:HI instead of --grid")

    p = add("wsat-build", cmd_wsat_build, help="build a minimum weakly saturated certificate")
    p.add_argument("--grid", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")

    p = add("wsat-verify", cmd_wsat_verify, help="replay and verify a saturation certificate")
    p.add_argument("file")

    p = add("certify", cmd_certify, help="build an exact-rational rank lower-bound certificate")
    p.add_argument("--grid", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")

    p = add("recheck", cmd_recheck, help="re-verify a rank certificate file")
    p.add_argument("file")

    p = add("construct", cmd_construct, help="build a small percolating set")
    p.add_argument("--grid", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")

    p = add("check", cmd_check, help="re-simulate a percolating witness file")
    p.add_argument("file")

    p = add("search", cmd_search, help="exact minimum percolating set search")
    p.add_argument("--grid", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--node-budget")
    p.add_argument("--size-budget")
    p.add_argument("--seed-lower")
    p.add_argument("--no-symmetry", action="store_true")

    p = add("simulate", cmd_simulate, help="run the infection process and export the trace")
    p.add_argument("--grid", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a0", required=True, help="comma-separated vertex indices")
    p.add_argument("--out")

    p = add("audit", cmd_audit, help="run the full cross-check matrix")
    p.add_argument("--deep", action="store_true", help="include the Q5 threshold-4 search")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        code, doc = args.handler(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    _emit(doc, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
