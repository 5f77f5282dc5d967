"""Benchmark for cozero: seeded ring workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
reports the per-layer metrics from a traced run.  A summary goes to stdout
first; the last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is nonzero when any
ring failed, including a missed reference-table value.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
import traceback

import stats
import workloads
from spans import NULL_TRACER, Tracer, self_seconds_by
from speed import Scaler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, workloads.OUT_DIRNAME)
PREFLIGHT = -1  # ring index of the preflight's spans

SETUP_REPS = 7
# Every time is scaled to the reference CPU speed (speed.py); each ring's
# latency is then its median over at least MIN_PASSES passes.
MIN_PASSES = 3
MIN_RINGS = 100  # per pass, so that p90 has at least 10 rings beyond it
HARD_STOP_S = 140.0  # stop starting passes after this, to exit well within 180 s

END_TO_END = {
    "setup_s": "s",
    "rings_per_s": "rings/s",
    "ring_p50_ms": "ms",
    "ring_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("elementgraph", "quotient", "closedform", "numtheory", "ringspec", "cli")
# Per-layer metric -> unit.  "_s" names are span self time summed over the
# traced pass, except cli.main_s, which is the whole time spent in main.
PER_LAYER = {
    "elementgraph.build_s": "s",
    "elementgraph.bfs_s": "s",
    "elementgraph.elements": "count",
    "elementgraph.vertices": "count",
    "elementgraph.vertex_yield": "ratio",
    "elementgraph.groups": "count",
    "elementgraph.edges": "count",
    "quotient.enumerate_s": "s",
    "quotient.adjacency_s": "s",
    "quotient.bfs_s": "s",
    "quotient.total_s": "s",
    "quotient.classes": "count",
    "quotient.class_pairs": "count",
    "quotient.class_edges": "count",
    "quotient.edge_density": "ratio",
    "closedform.solve_s": "s",
    "closedform.classify_s": "s",
    "closedform.classes": "count",
    "closedform.pairs_visited": "count",
    "closedform.distance3_pairs": "count",
    "numtheory.factorize_cold_s": "s",
    "numtheory.factorize_calls": "count",
    "numtheory.divisor_count": "count",
    "ringspec.parse_s": "s",
    "ringspec.crt_normalize_s": "s",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "cli.output_bytes": "bytes",
    "report.wiener_bits_max": "bits",
    "trace.overhead_pct": "%",
}
# Span name -> the per-layer self-time metric it feeds.
SPAN_METRIC = {
    "elementgraph.build_graph": "elementgraph.build_s",
    "elementgraph.compute_wiener": "elementgraph.bfs_s",
    "quotient.enumerate_classes": "quotient.enumerate_s",
    "quotient.build_quotient_graph": "quotient.adjacency_s",
    "quotient.quotient_distances": "quotient.bfs_s",
    "closedform.wiener_closed": "closedform.solve_s",
    "closedform.classify_divisor_pairs": "closedform.classify_s",
    "numtheory.factorize": "numtheory.factorize_cold_s",
    "ringspec.parse_ring_spec": "ringspec.parse_s",
    "ringspec.crt_normalize": "ringspec.crt_normalize_s",
    "cli.main": "cli.overhead_s",
}


class Tally:
    """Rings attempted and failed, with the largest Wiener index seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.bits_max = 0

    def record(self, ok: bool, wiener: int | None) -> None:
        self.attempted += 1
        self.failed += not ok
        if wiener is not None:
            self.bits_max = max(self.bits_max, wiener.bit_length())


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    """HEAD of the checkout read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# phases


def setup(name: str, seed: int):
    """Import cozero afresh, generate the inputs and warm up; returns (seconds, workload)."""
    t0 = time.perf_counter()
    api = workloads.load_api(SRC)
    wl = workloads.WORKLOADS[name](api, seed, ROOT)
    wl.warm_up(NULL_TRACER)
    return time.perf_counter() - t0, wl


def preflight(api, tr: Tracer, tally: Tally, plant_mismatch: bool) -> list[str]:
    """Recompute the paper's reference tables; every cell is one attempted ring."""
    routes = {"quotient": api.quotient.wiener_quotient, "closed": api.closedform.wiener_closed}
    out = os.path.join(OUT_DIR, "compare.json")
    misses = []
    for text, route, want in workloads.pinned_values():
        if plant_mismatch and text == workloads.ERRATUM_RING:
            want = workloads.ERRATUM_PRINTED_VALUE
        try:
            got = {routes[route](api.ringspec.parse_ring_spec(text)).wiener}
            if text in workloads.COMPARED:
                rc = workloads.run_cli(api, tr, ["compare", text, "--format", "json", "--out", out], out)
                with open(out, encoding="utf-8") as fh:
                    payload = json.load(fh)
                got |= {int(r["wiener"]) for r in payload["records"]}
                if rc != 0 or not payload["agree"]:
                    got.add(None)
        except Exception:
            traceback.print_exc()
            got = {None}
        ok = got == {want}
        tally.record(ok, want if ok else None)
        if not ok:
            misses.append(f"{text} by {route}{' and compare' if text in workloads.COMPARED else ''}: got {sorted(got, key=str)}, pinned {want}")
    return misses


def run_pass(wl, tr: Tracer, tally: Tally):
    """Solve one pass of rings; returns a Scaler holding each ring's solve time, and the rings."""
    latencies = Scaler()
    ring_list = wl.next_pass()
    for i, ring in enumerate(ring_list):
        tr.ring = i
        t0 = time.perf_counter()
        try:
            if tr.active:
                workloads.factorize_first(wl.api, tr, ring)
            answer = wl.solve(ring, tr)
        except Exception:
            traceback.print_exc()
            answer = None
        latencies.add(time.perf_counter() - t0)
        with tr.paused():
            try:
                ok, wiener = wl.check(ring, answer) if answer is not None else (False, None)
            except Exception:
                traceback.print_exc()
                ok, wiener = False, None
        if not ok:
            print(f"FAILED ring {ring.text} ({ring.stratum}): answer {answer}", file=sys.stderr)
        tally.record(ok, wiener)
    latencies.flush()
    return latencies, ring_list


def measure(wl, seconds: float, tally: Tally, started: float) -> list[Scaler]:
    """Untraced closed loop over whole passes for `seconds` and at least MIN_PASSES passes.

    Returns one Scaler of latencies per pass, ring by ring in pass order.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        latencies, ring_list = run_pass(wl, NULL_TRACER, tally)
        if len(ring_list) < MIN_RINGS:
            raise ValueError(f"{wl.name} passes hold {len(ring_list)} rings, fewer than {MIN_RINGS}")
        passes.append(latencies)
        now = time.perf_counter()
        if (now >= deadline and len(passes) >= MIN_PASSES) or now - started > HARD_STOP_S:
            return passes


def traced_pass(wl, tally: Tally, tr: Tracer):
    with workloads.traced_calls(wl.api, tr):
        latencies, ring_list = run_pass(wl, tr, tally)
    return sum(latencies.scaled), tr, ring_list


def trace_run(wl, seconds: float, tally: Tally, started: float, tr: Tracer):
    """Pairs of untraced and traced passes; `tr` records the first traced pass.

    Returns the rings of that pass and the tracing overhead of every pair.
    """
    first = None
    overheads = []
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which side of the pair runs first, so warming up favours neither.
        if len(overheads) % 2:
            traced, _, ring_list = traced_pass(wl, tally, Tracer())
        plain = sum(run_pass(wl, NULL_TRACER, tally)[0].scaled)
        if not len(overheads) % 2:
            traced, _, ring_list = traced_pass(wl, tally, tr if first is None else Tracer())
        overheads.append(100.0 * (traced - plain) / plain)
        first = first or ring_list
        now = time.perf_counter()
        if now >= deadline or now - started > HARD_STOP_S:
            return first, overheads


# --------------------------------------------------------------------------
# metrics


def per_ring(passes: list[list[float]]) -> list[float]:
    """Each ring position's median solve time over the passes."""
    return [stats.median(times) for times in zip(*passes)]


def end_to_end_metrics(setup_times: list[float], passes: list[Scaler]) -> dict:
    rings = per_ring([p.scaled for p in passes])
    values = {
        "setup_s": stats.median(setup_times),
        "rings_per_s": len(rings) / sum(rings),
        "ring_p50_ms": stats.percentile(rings, 50) * 1e3,
        "ring_p90_ms": stats.percentile(rings, 90) * 1e3,
        "peak_rss_mb": stats.peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(tr: Tracer, overheads: list[float], bits_max: int) -> dict:
    selfs = self_seconds_by(tr.spans, key=lambda s: s.name)
    values = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
    for span_name, seconds in selfs.items():
        metric = SPAN_METRIC.get(span_name)
        if metric:
            values[metric] += seconds
    values["quotient.total_s"] = sum(v for k, v in selfs.items() if k.startswith("quotient."))
    values["cli.main_s"] = sum((s.end - s.start) / 1e9 for s in tr.spans if s.name == "cli.main")
    for name, unit in PER_LAYER.items():
        if unit not in ("s", "ratio") and name.split(".")[0] not in ("report", "trace"):
            values[name] = tr.counts.get(name, 0)
    values["elementgraph.vertex_yield"] = ratio(values["elementgraph.vertices"], values["elementgraph.elements"])
    values["quotient.edge_density"] = ratio(values["quotient.class_edges"], values["quotient.class_pairs"])
    values["report.wiener_bits_max"] = bits_max
    values["trace.overhead_pct"] = stats.median(overheads)
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_seconds(tr: Tracer, rings_of: set[int]) -> dict[str, float]:
    """Self time per layer over the spans of the given ring indices."""
    return self_seconds_by(tr.spans, key=lambda s: s.layer, keep=lambda s: s.layer in LAYERS and s.ring in rings_of)


# --------------------------------------------------------------------------
# output


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def summary_end_to_end(name, metrics, passes, setup_times, tally) -> list[str]:
    rings = per_ring([p.scaled for p in passes])
    n, p = len(rings), len(passes)
    tail = stats.highest_tail(n)
    lines = [f"== {name}: end to end (tracing off), {n} rings per pass, each ring's median of {p} passes, at reference speed"]
    counts = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "rings_per_s": f"{n} rings / sum of their times",
        "ring_p50_ms": f"n={n}, {stats.samples_beyond(n, 50)} beyond",
        "ring_p90_ms": f"n={n}, {stats.samples_beyond(n, 90)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for k, m in metrics.items():
        lines.append(f"  {k:<14} {fmt(m['value']):>12} {m['unit']:<8} {counts[k]}")
    lines.append(f"  {'error_rate':<14} {fmt(tally.failed / tally.attempted):>12} {'ratio':<8} {tally.failed} of {tally.attempted} rings failed")
    if tail is not None and tail > 90:
        lines.append(f"  highest tail with >= 10 rings beyond: p{tail:g} = {stats.percentile(rings, tail) * 1e3:.6g} ms")
    raw = per_ring([p.raw for p in passes])
    lines.append(f"  unscaled wall time: {len(raw) / sum(raw):.6g} rings/s, p50 {stats.percentile(raw, 50) * 1e3:.6g} ms, "
                 f"p90 {stats.percentile(raw, 90) * 1e3:.6g} ms")
    return lines


def summary_trace(name, metrics, tr: Tracer, ring_list, overheads) -> list[str]:
    lines = [f"== {name}: per layer (traced pass of {len(ring_list)} rings), trace overhead median of {len(overheads)} pairs"]
    for k, m in metrics.items():
        lines.append(f"  {k:<30} {fmt(m['value']):>14} {m['unit']}")
    strata: dict[str, set[int]] = {"all rings": set(range(len(ring_list))), "preflight": {PREFLIGHT}}
    for i, ring in enumerate(ring_list):
        strata.setdefault(ring.stratum, set()).add(i)
        if ring.stratum in ("class_heavy", "factor_heavy"):
            strata.setdefault("heavy strata", set()).add(i)
    for stratum, idx in strata.items():
        lines.append(f"  layer self time (s), {stratum}: " + layer_table(layer_self_seconds(tr, idx)))
    lines.append("  waiting time: none; no layer has a queue or a second thread")
    return lines


def layer_table(selfs: dict[str, float]) -> str:
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{k}={v:.4g}" for k, v in ranked) or "(none)"


def run_workload(args) -> int:
    started = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = Scaler()
    for _ in range(SETUP_REPS):
        seconds, wl = setup(args.workload, args.seed)
        setup_times.add(seconds)
        setup_times.flush()

    tally = Tally()
    # The traced run also traces the preflight, so every layer does some
    # traced work on every workload; the summary shows its share apart.
    tr = Tracer() if args.trace else NULL_TRACER
    tr.ring = PREFLIGHT
    with workloads.traced_calls(wl.api, tr) if args.trace else contextlib.nullcontext():
        misses = preflight(wl.api, tr, tally, args.plant_mismatch)
    for miss in misses:
        print(f"PINNED VALUE MISSED: {miss}", file=sys.stderr)

    host = host_record()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"preflight: {tally.attempted - tally.failed} of {tally.attempted} reference-table values reproduced")
    if args.trace:
        ring_list, overheads = trace_run(wl, args.seconds, tally, started, tr)
        metrics = per_layer_metrics(tr, overheads, tally.bits_max)
        lines = summary_trace(args.workload, metrics, tr, ring_list, overheads)
        with open(os.path.join(OUT_DIR, f"spans_{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.ring] for s in tr.spans], fh)
    else:
        passes = measure(wl, args.seconds, tally, started)
        metrics = end_to_end_metrics(setup_times.scaled, passes)
        lines = summary_end_to_end(args.workload, metrics, passes, setup_times.scaled, tally)
    print("\n".join(lines))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak RSS stays per workload."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.plant_mismatch:
            cmd.append("--plant-mismatch")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode or int(not lines)
    print(json.dumps(results))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-mismatch", action="store_true",
                   help="self-test: expect the misprinted Table 4 value, which must count as a failed ring")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cozero", "__init__.py")):
        print(f"error: no cozero sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
