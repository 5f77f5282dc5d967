"""Command-line interface: compute, compare, tabulate, inspect, export, bench."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .closedform import wiener_closed
from .elementgraph import (
    BRUTE_LIMIT_ENV,
    DEFAULT_BRUTE_LIMIT,
    BruteForceLimitError,
    build_graph,
    graph_export,
    vertex_name,
    wiener_brute,
)
from .quotient import build_quotient_graph, wiener_quotient
from .report import OUTCOME_FIELDS, STATUS_DISCONNECTED, WienerReport
from .ringspec import (
    FAMILY_Z,
    RingSpec,
    crt_normalize,
    integers_mod,
    parse_integer,
    parse_ring_spec,
    product_of_fields,
    product_of_integers_mod,
)

# The reference tables: the rings `table` and `bench` run when given no params.
TABLE_ZN = (100, 500, 1000, 1500, 2000, 2500)
TABLE_FIELD_PAIRS = ((9, 25), (49, 81), (101, 121), (125, 139), (163, 169), (289, 343))
TABLE_FIELD_TRIPLES = (
    (7, 8, 13),
    (9, 25, 49),
    (53, 64, 81),
    (83, 101, 121),
    (125, 131, 169),
    (289, 343, 361),
)
TABLE_PP_PRODUCTS = (
    (4, 9),
    (9, 25),
    (16, 25),
    (27, 49),
    (2, 4, 4),
    (5, 7, 11),
    (8, 9, 16),
    (4, 9, 25),
    (2, 4, 9, 9),
    (3, 4, 8, 8),
)

_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # before Python 3.10.7 there is no limit
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
_RECORD_FIELDS = ("ring", "method", "status", "wiener", "vertices", "edges", "classes", "diameter", "elapsed_ms")


def _run_method(spec: RingSpec, method: str, limit: int | None) -> WienerReport:
    if method == "brute":
        return wiener_brute(spec, limit)
    return {"quotient": wiener_quotient, "closed": wiener_closed}[method](spec)


def _run_routes(
    routes: list[tuple[str, RingSpec, str]], limit: int | None
) -> tuple[list[tuple[str, RingSpec, WienerReport]], list[str], BruteForceLimitError | None]:
    """Run each (name, spec, method) route, skipping a brute route over the element cap.

    Returns the runs, their mismatches against the first run, and the skipped route's error.
    """
    runs, skipped = [], None
    for name, spec, method in routes:
        try:
            runs.append((name, spec, _run_method(spec, method, limit)))
        except BruteForceLimitError as exc:
            skipped = exc
    diffs = []
    for name, _, rep in runs[1:]:
        name0, _, base = runs[0]
        for field in OUTCOME_FIELDS:
            a, b = getattr(base, field), getattr(rep, field)
            if a != b:
                diffs.append(f"{field}: {name0}={a} vs {name}={b}")
    return runs, diffs, skipped


# --------------------------------------------------------------------------
# output helpers


def _record(method: str, spec: RingSpec, report: WienerReport) -> dict:
    """One row of record output; the Wiener value stays a decimal string."""
    return {
        "ring": str(spec),
        "method": method,
        "status": report.status,
        "wiener": None if report.wiener is None else str(report.wiener),
        "vertices": report.vertex_count,
        "edges": report.edge_count,
        "classes": report.class_count,
        "diameter": report.diameter,
        "elapsed_ms": round(report.elapsed * 1000.0, 3),
    }


def _md_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def _render(fields, rows: list[dict], fmt: str) -> str:
    """The given fields of each row as a json list, csv lines or a markdown table."""
    if fmt == "json":
        return json.dumps([{f: row[f] for f in fields} for row in rows], indent=2) + "\n"
    cells = [["" if row[f] is None else str(row[f]) for f in fields] for row in rows]
    if fmt == "csv":
        # csv.writer quotes the cells that hold a comma, such as `F(9,25)`.
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([fields, *cells])
        return out.getvalue()
    lines = [_md_row(fields), _md_row("---" for _ in fields)] + [_md_row(c) for c in cells]
    return "\n".join(lines) + "\n"


def _render_records(records: list[dict], fmt: str) -> str:
    """Records through `_render`, or for plain one `key=value` line each, absent values left out."""
    if fmt != "plain":
        return _render(_RECORD_FIELDS, records, fmt)
    lines = []
    for r in records:
        parts = [r["ring"]] + [f"{f}={r[f]}" for f in _RECORD_FIELDS[1:-1] if r[f] is not None]
        lines.append("  ".join(parts + [f"elapsed_ms={r['elapsed_ms']:.3f}"]))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# commands


def _cmd_wiener(args) -> int:
    spec = args.parsed
    # Every supported family has a closed form (products of integers-mod
    # rings are split into prime-power factors first), so auto always picks
    # it; quotient and brute run only when asked for by name.
    method = "closed" if args.method == "auto" else args.method
    report = _run_method(spec, method, args.brute_limit)
    _emit(_render_records([_record(method, spec, report)], args.format), args.out)
    return 2 if report.status == STATUS_DISCONNECTED else 0


def _cmd_compare(args) -> int:
    spec = args.parsed
    routes = [(method, spec, method) for method in ("brute", "quotient", "closed")]
    if spec.family == FAMILY_Z:
        routes.append(("quotient[crt]", crt_normalize(spec), "quotient"))
    runs, diffs, skipped = _run_routes(routes, args.brute_limit)
    notes = [f"brute skipped: {skipped.elements} elements exceed the limit of {skipped.limit}"] if skipped else []
    records = [_record(*run) for run in runs]
    if args.format == "json":
        payload = {"ring": str(spec), "agree": not diffs, "notes": notes, "mismatches": diffs, "records": records}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 3 if diffs else 0
    lines = [f"{spec}: comparing {len(runs)} method(s)"]
    lines.extend(f"note: {n}" for n in notes)
    lines.append(_render_records(records, args.format).rstrip("\n"))
    if diffs:
        lines.append("MISMATCH:")
        lines.extend(f"  {d}" for d in diffs)
    else:
        _, _, base = runs[0]
        shown = base.wiener if base.wiener is not None else base.status
        lines.append(f"all methods agree: {shown}")
    _emit("\n".join(lines) + "\n", args.out)
    return 3 if diffs else 0


def _parse_tuple(token: str, arity: int | None, what: str) -> tuple[int, ...]:
    parts = token.split(",")
    if arity is not None and len(parts) != arity:
        raise ValueError(f"{what} expects {arity} comma-separated integers, got {token!r}")
    if arity is None and len(parts) < 2:
        raise ValueError(f"{what} expects at least 2 comma-separated integers, got {token!r}")
    values = tuple(map(parse_integer, parts))
    if None in values:
        raise ValueError(f"{what}: {token!r} is not a comma-separated integer tuple")
    return values


def _parse_int(token: str, what: str) -> int:
    value = parse_integer(token)
    if value is None:
        raise ValueError(f"{what}: {token!r} is not an integer")
    return value


def _family_rings(family: str, params: list[str]) -> list[tuple[int | tuple[int, ...], RingSpec]]:
    """(parameter, spec) for each ring `params` names in `family`; its reference table when there are none."""
    if family == "zn":
        return [(n, integers_mod(n)) for n in [_parse_int(p, "zn") for p in params] or TABLE_ZN]
    arity, defaults, make = {
        "fields2": (2, TABLE_FIELD_PAIRS, product_of_fields),
        "fields3": (3, TABLE_FIELD_TRIPLES, product_of_fields),
        "ppprod": (None, TABLE_PP_PRODUCTS, product_of_integers_mod),
    }[family]
    return [(t, make(t)) for t in [_parse_tuple(p, arity, family) for p in params] or defaults]


def _cmd_table(args) -> int:
    family = args.family
    rings = args.parsed
    # Each row names its ring in the `head` cell, which json, plain and md
    # show; the csv shows `columns` instead, which split the field orders.
    if family in ("fields2", "fields3"):
        columns = tuple(f"q{i}" for i in range(1, len(rings[0][0]) + 1))
        head = "(" + ", ".join(columns) + ")"
    else:
        head = "n" if family == "zn" else "ring"
        columns = (head,)
    rows = []
    for param, spec in rings:
        rep = wiener_closed(spec)
        wiener = str(rep.wiener) if rep.wiener is not None else rep.status
        name = str(spec) if family == "ppprod" else str(param)
        orders = dict(zip(columns, param)) if len(columns) > 1 else {}
        rows.append({head: name, **orders, "wiener": wiener, "status": rep.status})

    if args.format == "plain":
        width = max(len(row[head]) for row in rows)
        text = "".join(f"{row[head].ljust(width)}  {row['wiener']}\n" for row in rows)
    elif args.format == "md" and family != "ppprod":
        # Horizontal layout: one header row of parameters, one row of values.
        lines = [
            _md_row([head] + [row[head] for row in rows]),
            _md_row("---" for _ in range(len(rows) + 1)),
            _md_row(["wiener"] + [row["wiener"] for row in rows]),
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = _render((head, "wiener", "status") if args.format == "json" else columns + ("wiener",), rows, args.format)
    _emit(text, args.out)
    return 0


def _cmd_classes(args) -> int:
    spec = args.parsed
    qg = build_quotient_graph(spec)
    rows = [{"key": vertex_name(spec, c.key), "size": c.size, "degree": qg.degree(i)} for i, c in enumerate(qg.classes)]
    # Only json and plain print the class edges, so only they list them.
    edges = qg.edges() if args.format in ("json", "plain") else []
    if args.format == "json":
        payload = {
            "ring": str(spec),
            "classes": [{**row, "key": list(c.key)} for row, c in zip(rows, qg.classes)],
            "edges": [[i, j] for i, j in edges],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "plain":
        lines = [f"{spec}: {qg.class_count} classes, {len(edges)} class-graph edges"]
        lines.extend(f"  key={row['key']}  size={row['size']}  degree={row['degree']}" for row in rows)
        if edges:
            lines.append("edges: " + " ".join(f"{rows[i]['key']}~{rows[j]['key']}" for i, j in edges))
        text = "\n".join(lines) + "\n"
    else:
        text = _render(("key", "size", "degree"), rows, args.format)
    _emit(text, args.out)
    return 0


def _cmd_export_graph(args) -> int:
    spec = args.parsed
    graph = build_graph(spec, args.brute_limit)
    _emit(graph_export(graph, args.graph_format), args.out)
    return 0


def _cmd_bench(args) -> int:
    methods = [args.only] if args.only else ["brute", "quotient", "closed"]
    records: list[dict] = []
    mismatched = False
    for _, spec in args.parsed:
        runs, diffs, skipped = _run_routes([(method, spec, method) for method in methods], args.brute_limit)
        if skipped:
            print(f"note: brute skipped for {spec} ({skipped.elements} elements)", file=sys.stderr)
        if diffs:
            mismatched = True
            print(f"MISMATCH on {spec}: " + "; ".join(diffs), file=sys.stderr)
        records.extend(_record(*run) for run in runs)
    _emit(_render_records(records, args.format), args.out)
    return 3 if mismatched else 0


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for disconnected graphs, so usage errors exit 1
    # instead of the argparse default of 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_ring_list(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=("zn", "fields2", "fields3", "ppprod"))
    p.add_argument(
        "params",
        nargs="*",
        help="zn: n values; fields2/fields3/ppprod: comma-separated tuples (default: the reference table)",
    )


def _add_flags(p: argparse.ArgumentParser, fmt: str | None, brute_limit: bool) -> None:
    """Add the output flags a command reads: --format (default `fmt`, none when
    None), --brute-limit when the command can run brute force, and --out."""
    if fmt is not None:
        p.add_argument("--format", choices=("plain", "json", "csv", "md"), default=fmt)
    if brute_limit:
        p.add_argument(
            "--brute-limit",
            type=_non_negative_int,
            default=None,
            metavar="N",
            help=f"element cap for brute force (overrides ${BRUTE_LIMIT_ENV}; default {DEFAULT_BRUTE_LIMIT})",
        )
    p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE instead of stdout")


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cozero", description="Wiener index of cozero-divisor graphs of finite commutative rings")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("wiener", help="compute the Wiener index of one ring")
    p.add_argument("spec", help="ring spec: Z(n), ZxZ(n1,...,nk), or F(q1,...,qk)")
    p.add_argument("--method", choices=("brute", "quotient", "closed", "auto"), default="auto")
    _add_flags(p, "plain", brute_limit=True)
    p.set_defaults(func=_cmd_wiener)

    p = sub.add_parser("compare", help="run every applicable method and require agreement")
    p.add_argument("spec")
    _add_flags(p, "plain", brute_limit=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("table", help="reproduce the reference tables (zn, fields2, fields3, ppprod)")
    _add_ring_list(p)
    _add_flags(p, "md", brute_limit=False)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classes", help="list equivalence classes and the class graph")
    p.add_argument("spec")
    _add_flags(p, "plain", brute_limit=False)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("export-graph", help="emit the element-level graph as DOT or an edge list")
    p.add_argument("spec")
    p.add_argument("--graph-format", choices=("dot", "edgelist"), default="dot")
    _add_flags(p, None, brute_limit=True)
    p.set_defaults(func=_cmd_export_graph)

    p = sub.add_parser("bench", help="time every method on the rings of a family, as `table` names them")
    _add_ring_list(p)
    p.add_argument("--only", choices=("brute", "quotient", "closed"), default=None)
    _add_flags(p, "csv", brute_limit=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    limit = _get_digit_limit()
    try:
        # The input is parsed under the interpreter's limit on decimal digits,
        # and the command runs without it: W can pass the default 4300 digits.
        args.parsed = parse_ring_spec(args.spec) if "spec" in args else _family_rings(args.family, args.params)
        _set_digit_limit(0)
        return args.func(args)
    except ValueError as exc:  # bad input, a limit hit, or an --out file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        ring = getattr(args, "spec", None) or " ".join([args.family, *args.params])
        print(f"error: {args.command} {ring}: out of memory", file=sys.stderr)
        return 1
    finally:
        _set_digit_limit(limit)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
