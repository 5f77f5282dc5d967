"""The three workloads: how each ring is solved, traced and checked.

Every workload is a closed loop with one caller in one process.  `solve`
is the timed call into cozero's public entry points; `check` runs outside
the timing and compares the answer against a second route.  In the traced
run, `traced_calls` rebinds cozero's public functions to span-opening
wrappers, in their own modules and in the namespaces that imported them,
so the benchmark's calls and the calls between cozero modules both become
spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from contextlib import ExitStack, contextmanager
from math import comb, prod
from types import SimpleNamespace

import rings
from spans import Tracer, patched

MODULES = ("cli", "closedform", "elementgraph", "numtheory", "quotient", "ringspec")
OUT_DIRNAME = ".perfbench_out"  # under the checkout root: files the cozero CLI writes
OUTCOME_FIELDS = ("status", "wiener", "vertex_count", "class_count", "diameter")

# The paper's reference tables, recomputed before any timing.  Table 4 is
# pinned with its erratum: the printed 8 x 9 x 16 row is 666221, and the
# printed value 167769 belongs to 4 x 9 x 16.
TABLE1 = {100: 2954, 500: 77174, 1000: 306202, 1500: 930248, 2000: 1222530, 2500: 1946274}
TABLE2 = {(9, 25): 800, (49, 81): 12416, (101, 121): 36180, (125, 139): 51270, (163, 169): 81354, (289, 343): 297774}
TABLE3 = {
    (7, 8, 13): 35196,
    (9, 25, 49): 2500400,
    (53, 64, 81): 108637254,
    (83, 101, 121): 620456582,
    (125, 131, 169): 2355211790,
    (289, 343, 361): 71251552134,
}
TABLE4 = {
    (4, 9): 420,
    (9, 25): 8808,
    (16, 25): 48870,
    (27, 49): 268022,
    (2, 4, 4): 521,
    (5, 7, 11): 14948,
    (8, 9, 16): 666221,
    (4, 9, 16): 167769,
    (4, 9, 25): 327394,
    (2, 4, 9, 9): 232937,
    (3, 4, 8, 8): 333963,
}
ERRATUM_RING = "ZxZ(8,9,16)"
ERRATUM_PRINTED_VALUE = 167769
# Cells also run through `cozero compare`, whose brute, quotient and closed
# routes (and quotient on the CRT split of Z(n)) must agree.
COMPARED = ("Z(2500)", ERRATUM_RING)


def pinned_values() -> list[tuple[str, str, int]]:
    """(spec, route, expected Wiener index) for every reference-table cell."""
    out = [(f"Z({n})", "quotient", w) for n, w in TABLE1.items()]
    out += [(rings.product_ring("F", q, "").text, "closed", w) for table in (TABLE2, TABLE3) for q, w in table.items()]
    out += [(rings.product_ring("ZxZ", m, "").text, "closed", w) for m, w in TABLE4.items()]
    return out


def load_api(src: str) -> SimpleNamespace:
    """Import cozero from `src` afresh, dropping any copy (and its caches) loaded before."""
    for name in [m for m in sys.modules if m == "cozero" or m.startswith("cozero.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("cozero")
    return SimpleNamespace(**{m: importlib.import_module(f"cozero.{m}") for m in MODULES})


def outcome(report) -> tuple:
    return tuple(getattr(report, f) for f in OUTCOME_FIELDS)


# --------------------------------------------------------------------------
# counters recorded at span boundaries (exact; "computed" ones from sizes)


def observe_graph(tr: Tracer, graph) -> None:
    tr.count("elementgraph.elements", graph.spec.cardinality)
    tr.count("elementgraph.vertices", graph.vertex_count)
    tr.count("elementgraph.groups", len(graph.group_keys))
    tr.count("elementgraph.edges", graph.edge_count())


def observe_quotient_graph(tr: Tracer, qg) -> None:
    k = qg.class_count
    tr.count("quotient.classes", k)
    tr.count("quotient.class_pairs", comb(k, 2))
    tr.count("quotient.class_edges", sum(len(a) for a in qg.adjacency) // 2)


def observe_closed(tr: Tracer, report) -> None:
    tr.count("closedform.classes", report.class_count)
    tr.count("closedform.pairs_visited", comb(report.class_count, 2))


def observe_divisor_pairs(tr: Tracer, pairs) -> None:
    tr.count("closedform.distance3_pairs", len(pairs.distance_three_chain))


def observe_factorization(tr: Tracer, fac) -> None:
    tr.count("numtheory.factorize_calls")
    tr.count("numtheory.divisor_count", prod(e + 1 for _, e in fac))


# module -> (function, observer) pairs wrapped in spans during the traced run.
# numtheory is left unwrapped: euler_phi and divisors run once per class,
# so spans there would cost more than the work they time.
TRACED = {
    "elementgraph": (("build_graph", observe_graph), ("compute_wiener", None), ("wiener_brute", None)),
    "quotient": (
        ("enumerate_classes", None),
        ("build_quotient_graph", observe_quotient_graph),
        ("quotient_distances", None),
        ("wiener_quotient", None),
    ),
    "closedform": (("classify_divisor_pairs", observe_divisor_pairs), ("wiener_closed", observe_closed)),
    "ringspec": (("parse_ring_spec", None), ("crt_normalize", None)),
}


@contextmanager
def traced_calls(api: SimpleNamespace, tr: Tracer):
    """Rebind the TRACED functions to spans, in their modules and in cli's namespace."""
    wrappers = {
        module: {fn: tr.wrap(f"{module}.{fn}", getattr(getattr(api, module), fn), observe) for fn, observe in fns}
        for module, fns in TRACED.items()
    }
    imported_by_cli = {
        fn: wrapper for fns in wrappers.values() for fn, wrapper in fns.items() if hasattr(api.cli, fn)
    }
    with ExitStack() as stack:
        for module, fns in wrappers.items():
            stack.enter_context(patched(getattr(api, module), fns))
        stack.enter_context(patched(api.cli, imported_by_cli))
        yield


def run_cli(api: SimpleNamespace, tr: Tracer, argv: list[str], out: str) -> int:
    """`cozero.cli.main(argv)` in a span; argv writes its output to `out`."""
    return tr.call("cli.main", api.cli.main, argv, observe=lambda t, rc: t.count("cli.output_bytes", os.path.getsize(out)))


def factorize_first(api: SimpleNamespace, tr: Tracer, ring: rings.Ring) -> None:
    """Traced run only: factorize each modulus before any route touches it."""
    for m in ring.components:
        tr.call("numtheory.factorize", api.numtheory.factorize, m, observe=observe_factorization)


# --------------------------------------------------------------------------
# workloads


class OracleSweep:
    """Tier-1 sample: brute, quotient and closed on every ring, plus quotient on the CRT split of Z(n)."""

    name = "oracle_sweep"
    WARM_UP = 40

    def __init__(self, api: SimpleNamespace, seed: int, root: str) -> None:
        self.api = api
        self.rings = rings.oracle_sweep(seed)
        self.specs = {r.text: api.ringspec.parse_ring_spec(r.text) for r in self.rings}

    def next_pass(self) -> list[rings.Ring]:
        return self.rings

    def warm_up(self, tr: Tracer) -> None:
        for ring in self.rings[: self.WARM_UP]:
            self.solve(ring, tr)

    def solve(self, ring: rings.Ring, tr: Tracer) -> list[tuple]:
        eg, q, cf = self.api.elementgraph, self.api.quotient, self.api.closedform
        spec = self.specs[ring.text]
        # Brute as its two public stages, so each is its own span when traced.
        reports = [eg.compute_wiener(eg.build_graph(spec)), q.wiener_quotient(spec), cf.wiener_closed(spec)]
        if ring.family == "Z":
            reports.append(q.wiener_quotient(self.api.ringspec.crt_normalize(spec)))
        return [outcome(r) for r in reports]

    def check(self, ring: rings.Ring, answer: list[tuple]) -> tuple[bool, int | None]:
        return all(a == answer[0] for a in answer), answer[0][1]


class ClassGraph:
    """Beyond the brute limit: quotient timed, closed as the untimed reference."""

    name = "class_graph"

    def __init__(self, api: SimpleNamespace, seed: int, root: str) -> None:
        self.api = api
        self.rings = rings.class_graph(seed)
        self.specs = {r.text: api.ringspec.parse_ring_spec(r.text) for r in self.rings}
        self.expected: dict[str, tuple] = {}

    def next_pass(self) -> list[rings.Ring]:
        return self.rings

    def warm_up(self, tr: Tracer) -> None:
        self.solve(next(r for r in self.rings if r.stratum == "fields7"), tr)

    def solve(self, ring: rings.Ring, tr: Tracer) -> tuple:
        return outcome(self.api.quotient.wiener_quotient(self.specs[ring.text]))

    def check(self, ring: rings.Ring, answer: tuple) -> tuple[bool, int | None]:
        if ring.text not in self.expected:
            self.expected[ring.text] = outcome(self.api.closedform.wiener_closed(self.specs[ring.text]))
        return answer == self.expected[ring.text], answer[1]


class CliAuto:
    """The default user path: `cozero wiener SPEC --format json --out FILE`, in-process."""

    name = "cli_auto"

    def __init__(self, api: SimpleNamespace, seed: int, root: str) -> None:
        self.api = api
        self.source = rings.CliAutoSource(seed)
        self.out = os.path.join(root, OUT_DIRNAME, "wiener.json")
        self.expected: dict[str, tuple] = {}

    def next_pass(self) -> list[rings.Ring]:
        return self.source.next_pass()

    def warm_up(self, tr: Tracer) -> None:
        for ring in self.source.small:
            self.solve(ring, tr)

    def solve(self, ring: rings.Ring, tr: Tracer) -> int:
        return run_cli(self.api, tr, ["wiener", ring.text, "--format", "json", "--out", self.out], self.out)

    def check(self, ring: rings.Ring, rc: int) -> tuple[bool, int | None]:
        with open(self.out, encoding="utf-8") as fh:
            (record,) = json.load(fh)
        wiener = None if record["wiener"] is None else int(record["wiener"])
        got = (record["status"], wiener, record["vertices"], record["classes"], record["diameter"])
        want = self.expected.get(ring.text) or self._reference(ring)
        if ring.stratum != "factor_heavy":
            self.expected[ring.text] = want
        rc_ok = rc == (2 if got[0] == "disconnected" else 0)
        return rc_ok and got == want and record["ring"] == ring.text, wiener

    def _reference(self, ring: rings.Ring) -> tuple:
        # Quotient where the class count is small; an isomorphic respelling
        # that takes another closed form for the class-heavy rings.
        parse = self.api.ringspec.parse_ring_spec
        if ring.respelled is not None:
            return outcome(self.api.closedform.wiener_closed(parse(ring.respelled)))
        return outcome(self.api.quotient.wiener_quotient(parse(ring.text)))


WORKLOADS = {w.name: w for w in (OracleSweep, ClassGraph, CliAuto)}
