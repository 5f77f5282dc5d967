"""Command-line interface: compute, compare, tabulate, inspect, export, bench."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .closedform import wiener_closed
from .elementgraph import (
    BRUTE_LIMIT_ENV,
    DEFAULT_BRUTE_LIMIT,
    BruteForceLimitError,
    build_graph,
    graph_export,
    resolve_brute_limit,
    wiener_brute,
)
from .quotient import build_quotient_graph, wiener_quotient
from .report import STATUS_DISCONNECTED, WienerReport
from .ringspec import (
    FAMILY_Z,
    RingSpec,
    crt_normalize,
    integers_mod,
    parse_ring_spec,
    product_of_fields,
    product_of_integers_mod,
)

TABLE_ZN = (100, 500, 1000, 1500, 2000, 2500)
BENCH_ZN_MAX = 2500
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

_RECORD_FIELDS = ("ring", "method", "status", "wiener", "vertices", "edges", "classes", "diameter", "elapsed_ms")


@dataclass
class OutputRecord:
    """One row of CLI output; the Wiener value stays a decimal string."""

    ring: str
    method: str
    status: str
    wiener: str | None
    vertices: int
    edges: int | None
    classes: int
    diameter: int | None
    elapsed_ms: float

    @classmethod
    def from_report(cls, ring: str, report: WienerReport) -> "OutputRecord":
        return cls(
            ring=ring,
            method=report.method,
            status=report.status,
            wiener=None if report.wiener is None else str(report.wiener),
            vertices=report.vertex_count,
            edges=report.edge_count,
            classes=report.class_count,
            diameter=report.diameter,
            elapsed_ms=report.elapsed * 1000.0,
        )

    def as_dict(self) -> dict:
        return {
            "ring": self.ring,
            "method": self.method,
            "status": self.status,
            "wiener": self.wiener,
            "vertices": self.vertices,
            "edges": self.edges,
            "classes": self.classes,
            "diameter": self.diameter,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _resolve_method(method: str) -> str:
    if method != "auto":
        return method
    # Every supported family has a closed form (products of integers-mod
    # rings are split into prime-power factors first), so auto always picks
    # it; quotient and brute run only when asked for by name.
    return "closed"


def _run_method(spec: RingSpec, method: str, limit: int | None) -> WienerReport:
    if method == "brute":
        return wiener_brute(spec, limit)
    if method == "quotient":
        return wiener_quotient(spec)
    if method == "closed":
        return wiener_closed(spec)
    raise ValueError(f"unknown method {method!r}")


# --------------------------------------------------------------------------
# output helpers


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def _records_text(records: list[OutputRecord], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.as_dict() for r in records], indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(_RECORD_FIELDS)]
        for r in records:
            d = r.as_dict()
            lines.append(",".join(_csv_cell(d[f]) for f in _RECORD_FIELDS))
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| " + " | ".join(_RECORD_FIELDS) + " |"]
        lines.append("| " + " | ".join("---" for _ in _RECORD_FIELDS) + " |")
        for r in records:
            d = r.as_dict()
            lines.append("| " + " | ".join(_csv_cell(d[f]) for f in _RECORD_FIELDS) + " |")
        return "\n".join(lines) + "\n"
    out = []
    for r in records:
        parts = [r.ring, f"method={r.method}", f"status={r.status}"]
        if r.wiener is not None:
            parts.append(f"wiener={r.wiener}")
        parts.append(f"vertices={r.vertices}")
        if r.edges is not None:
            parts.append(f"edges={r.edges}")
        parts.append(f"classes={r.classes}")
        if r.diameter is not None:
            parts.append(f"diameter={r.diameter}")
        parts.append(f"elapsed_ms={r.elapsed_ms:.3f}")
        out.append("  ".join(parts))
    return "\n".join(out) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _label_name(spec: RingSpec, key: tuple[int, ...]) -> str:
    if spec.family == FAMILY_Z:
        return str(key[0])
    return "(" + ",".join(str(d) for d in key) + ")"


# --------------------------------------------------------------------------
# commands


def _cmd_wiener(args) -> int:
    spec = parse_ring_spec(args.spec)
    method = _resolve_method(args.method)
    report = _run_method(spec, method, args.brute_limit)
    record = OutputRecord.from_report(str(spec), report)
    _emit(_records_text([record], args.format), args.out)
    return 2 if report.status == STATUS_DISCONNECTED else 0


def _compare_reports(spec: RingSpec, limit: int | None) -> tuple[list[tuple[str, RingSpec, WienerReport]], list[str]]:
    cap = resolve_brute_limit(limit)
    runs: list[tuple[str, RingSpec, WienerReport]] = []
    notes: list[str] = []
    if spec.cardinality <= cap:
        runs.append(("brute", spec, wiener_brute(spec, limit)))
    else:
        notes.append(f"brute skipped: {spec.cardinality} elements exceed the limit of {cap}")
    runs.append(("quotient", spec, wiener_quotient(spec)))
    runs.append(("closed", spec, wiener_closed(spec)))
    if spec.family == FAMILY_Z:
        crt = crt_normalize(spec)
        runs.append(("quotient[crt]", crt, wiener_quotient(crt)))
    return runs, notes


def _diff_reports(runs: list[tuple[str, RingSpec, WienerReport]]) -> list[str]:
    name0, _, base = runs[0]
    diffs = []
    for name, _, rep in runs[1:]:
        for field in ("status", "wiener", "vertex_count", "class_count"):
            a, b = getattr(base, field), getattr(rep, field)
            if a != b:
                diffs.append(f"{field}: {name0}={a} vs {name}={b}")
        if base.diameter is not None and rep.diameter is not None and base.diameter != rep.diameter:
            diffs.append(f"diameter: {name0}={base.diameter} vs {name}={rep.diameter}")
    return diffs


def _cmd_compare(args) -> int:
    spec = parse_ring_spec(args.spec)
    runs, notes = _compare_reports(spec, args.brute_limit)
    diffs = _diff_reports(runs)
    records = [OutputRecord.from_report(str(s), rep) for name, s, rep in runs]
    for record, (name, _, _) in zip(records, runs):
        record.method = name
    if args.format == "json":
        payload = {
            "ring": str(spec),
            "agree": not diffs,
            "notes": notes,
            "mismatches": diffs,
            "records": [r.as_dict() for r in records],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"{spec}: comparing {len(runs)} method(s)"]
        lines.extend(f"note: {n}" for n in notes)
        lines.append(_records_text(records, args.format).rstrip("\n"))
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
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what}: {token!r} is not a comma-separated integer tuple") from None


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what}: {token!r} is not an integer") from None


def _cmd_table(args) -> int:
    family = args.family
    specs: list[tuple[str, RingSpec]] = []
    if family == "zn":
        ns = [_parse_int(p, "zn") for p in args.params] if args.params else list(TABLE_ZN)
        for n in ns:
            specs.append((str(n), integers_mod(n)))
        head = "n"
    elif family in ("fields2", "fields3"):
        arity = 2 if family == "fields2" else 3
        defaults = TABLE_FIELD_PAIRS if family == "fields2" else TABLE_FIELD_TRIPLES
        tuples = [_parse_tuple(p, arity, family) for p in args.params] if args.params else list(defaults)
        for orders in tuples:
            specs.append(("(" + ", ".join(str(q) for q in orders) + ")", product_of_fields(orders)))
        head = "(q1, q2)" if family == "fields2" else "(q1, q2, q3)"
    else:  # ppprod
        tuples = [_parse_tuple(p, None, "ppprod") for p in args.params] if args.params else list(TABLE_PP_PRODUCTS)
        for moduli in tuples:
            spec = product_of_integers_mod(moduli)
            specs.append((str(spec), spec))
        head = "ring"
    rows = [(label, wiener_closed(spec)) for label, spec in specs]

    def cell(rep: WienerReport) -> str:
        return str(rep.wiener) if rep.wiener is not None else rep.status

    if args.format == "json":
        payload = [{head: label, "wiener": cell(rep), "status": rep.status} for label, rep in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        if family in ("fields2", "fields3"):
            lines = ["q1,q2,wiener"] if family == "fields2" else ["q1,q2,q3,wiener"]
            for label, rep in rows:
                orders = label.strip("()").replace(" ", "")
                lines.append(f"{orders},{cell(rep)}")
        else:
            lines = [f"{'n' if family == 'zn' else 'ring'},wiener"]
            for label, rep in rows:
                lines.append(f"{label},{cell(rep)}")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "md" and family != "ppprod":
        # Horizontal layout: one header row of parameters, one row of values.
        lines = [
            "| " + " | ".join([head] + [label for label, _ in rows]) + " |",
            "| " + " | ".join("---" for _ in range(len(rows) + 1)) + " |",
            "| " + " | ".join(["wiener"] + [cell(rep) for _, rep in rows]) + " |",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "md":
        lines = ["| ring | wiener |", "| --- | --- |"]
        lines.extend(f"| {label} | {cell(rep)} |" for label, rep in rows)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        width = max(len(label) for label, _ in rows)
        lines = [f"{label.ljust(width)}  {cell(rep)}" for label, rep in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_classes(args) -> int:
    spec = parse_ring_spec(args.spec)
    qg = build_quotient_graph(spec)
    names = [_label_name(spec, c.key) for c in qg.classes]
    edges = qg.edges()
    if args.format == "json":
        payload = {
            "ring": str(spec),
            "classes": [
                {"key": list(c.key), "size": c.size, "degree": qg.degree(i)}
                for i, c in enumerate(qg.classes)
            ],
            "edges": [[i, j] for i, j in edges],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        lines = ["key,size,degree"]
        lines.extend(f"{names[i]},{c.size},{qg.degree(i)}" for i, c in enumerate(qg.classes))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{spec}: {qg.class_count} classes, {len(edges)} class-graph edges"]
        for i, c in enumerate(qg.classes):
            lines.append(f"  key={names[i]}  size={c.size}  degree={qg.degree(i)}")
        if edges:
            lines.append("edges: " + " ".join(f"{names[i]}~{names[j]}" for i, j in edges))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export_graph(args) -> int:
    spec = parse_ring_spec(args.spec)
    graph = build_graph(spec, args.brute_limit)
    _emit(graph_export(graph, args.graph_format), args.out)
    return 0


def _cmd_bench(args) -> int:
    for flag, value in (("--n", args.n), ("--max", args.max)):
        if value is not None and args.family != "zn":
            raise ValueError(f"{flag} applies to the zn family only, not {args.family}")
    specs: list[RingSpec]
    if args.family == "zn":
        top = BENCH_ZN_MAX if args.max is None else args.max
        ns = args.n if args.n else [n for n in TABLE_ZN if n <= top]
        specs = [integers_mod(n) for n in ns]
    elif args.family == "ppprod":
        specs = [product_of_integers_mod(m) for m in TABLE_PP_PRODUCTS]
    elif args.family == "fields2":
        specs = [product_of_fields(t) for t in TABLE_FIELD_PAIRS]
    else:
        specs = [product_of_fields(t) for t in TABLE_FIELD_TRIPLES]

    cap = resolve_brute_limit(args.brute_limit)
    records: list[OutputRecord] = []
    mismatched = False
    for spec in specs:
        methods = [args.only] if args.only else ["brute", "quotient", "closed"]
        runs: list[tuple[str, RingSpec, WienerReport]] = []
        for method in methods:
            if method == "brute" and spec.cardinality > cap:
                print(f"note: brute skipped for {spec} ({spec.cardinality} elements)", file=sys.stderr)
                continue
            runs.append((method, spec, _run_method(spec, method, args.brute_limit)))
        diffs = _diff_reports(runs) if len(runs) > 1 else []
        if diffs:
            mismatched = True
            print(f"MISMATCH on {spec}: " + "; ".join(diffs), file=sys.stderr)
        records.extend(OutputRecord.from_report(str(spec), rep) for _, _, rep in runs)
    _emit(_records_text(records, args.format), args.out)
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


def _add_common(p: argparse.ArgumentParser, default_format: str = "plain") -> None:
    p.add_argument("--format", choices=("plain", "json", "csv", "md"), default=default_format)
    p.add_argument(
        "--brute-limit",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help=f"element cap for brute force (overrides ${BRUTE_LIMIT_ENV}; default {DEFAULT_BRUTE_LIMIT})",
    )
    p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cozero", description="Wiener index of cozero-divisor graphs of finite commutative rings")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("wiener", help="compute the Wiener index of one ring")
    p.add_argument("spec", help="ring spec: Z(n), ZxZ(n1,...,nk), or F(q1,...,qk)")
    p.add_argument("--method", choices=("brute", "quotient", "closed", "auto"), default="auto")
    _add_common(p)
    p.set_defaults(func=_cmd_wiener)

    p = sub.add_parser("compare", help="run every applicable method and require agreement")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("table", help="reproduce the reference tables (zn, fields2, fields3, ppprod)")
    p.add_argument("family", choices=("zn", "fields2", "fields3", "ppprod"))
    p.add_argument("params", nargs="*", help="zn: n values; fields2/fields3/ppprod: comma-separated tuples")
    _add_common(p, default_format="md")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classes", help="list equivalence classes and the class graph")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("export-graph", help="emit the element-level graph as DOT or an edge list")
    p.add_argument("spec")
    p.add_argument("--graph-format", choices=("dot", "edgelist"), default="dot")
    _add_common(p)
    p.set_defaults(func=_cmd_export_graph)

    p = sub.add_parser("bench", help="time every method on a family of rings")
    p.add_argument("family", choices=("zn", "ppprod", "fields2", "fields3"))
    p.add_argument("--max", type=int, default=None, help=f"largest n for the zn family (default {BENCH_ZN_MAX})")
    p.add_argument("--n", type=int, action="append", default=None, help="explicit n (repeatable, zn only)")
    p.add_argument("--only", choices=("brute", "quotient", "closed"), default=None)
    _add_common(p, default_format="csv")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except BruteForceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
