"""Shared test helpers: an independent brute-force reference, a queue BFS
over neighbour rows, ring sweeps, totient and divisor references, and a
per-test time limit."""

from __future__ import annotations

import itertools
import random
import signal
import traceback
from collections import deque
from itertools import product as iter_product
from math import gcd, prod

import pytest
from hypothesis import strategies as st

from cozero.numtheory import factorize
from cozero.report import OUTCOME_FIELDS
from cozero.ringspec import RingSpec

# Above twice the largest time bound any test asserts (120 s), so a test
# stopped here hangs rather than runs slow.
TEST_TIME_LIMIT_S = 300


class _TestTimedOut(BaseException):
    # A BaseException, so neither the test nor hypothesis catches it as a failure to retry.
    def __init__(self, frames: traceback.StackSummary) -> None:
        super().__init__()
        self.frames = frames


def _on_alarm(signum, frame):
    raise _TestTimedOut(traceback.extract_stack(frame))


@pytest.fixture(autouse=True)
def _time_limit():
    """Stop a test that runs past TEST_TIME_LIMIT_S (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # Report the stop as a plain failure showing the stack from the test
    # function down; letting the exception through makes pytest format a
    # traceback whose loop frames can lack a line number, which ends the run
    # with INTERNALERROR.
    try:
        return (yield)
    except _TestTimedOut as exc:
        frames = exc.frames
    start = next((i for i, f in enumerate(frames) if f.filename == str(item.path)), 0)
    stack = "".join(traceback.format_list(frames[start:]))
    pytest.fail(f"test ran past {TEST_TIME_LIMIT_S} s; stopped at:\n{stack}", pytrace=False)


def contains(a, b) -> bool:
    """True when the principal ideal labelled `a` contains the one labelled `b`:
    each label of `a` divides the matching label of `b`."""
    return all(y % x == 0 for x, y in zip(a, b))


def naive_labels(spec: RingSpec) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Vertices and their ideal labels, worked out one element at a time.

    Enumerates the elements with its own gcd and field rule, independent of
    the package internals, and drops zero and the units.
    """
    comps = spec.components
    verts, labels = [], []
    for e in iter_product(*(range(c) for c in comps)):
        if spec.is_field_product:
            lab = tuple(c if x == 0 else 1 for x, c in zip(e, comps))
        else:
            lab = tuple(gcd(x, c) for x, c in zip(e, comps))
        if all(x == 0 for x in e) or all(d == 1 for d in lab):
            continue
        verts.append(e)
        labels.append(lab)
    return verts, labels


def naive_adjacency(spec: RingSpec) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """Vertices, neighbour lists and edge count, from one element and one pair at a time.

    Takes the vertices and labels of `naive_labels`, and builds an explicit
    pairwise adjacency from mutual ideal non-containment.
    """
    verts, labels = naive_labels(spec)
    n = len(verts)
    adj = [[] for _ in range(n)]
    edge_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = labels[i], labels[j]
            if not contains(a, b) and not contains(b, a):
                adj[i].append(j)
                adj[j].append(i)
                edge_count += 1
    return verts, adj, edge_count


def naive_distances(spec: RingSpec, source: int) -> list[int | None]:
    """Plain queue BFS over `naive_adjacency` from vertex `source`; None where unreachable."""
    _, adj, _ = naive_adjacency(spec)
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def naive_reference(spec: RingSpec) -> dict:
    """Fully independent reimplementation of the element-level computation.

    Takes its graph from `naive_adjacency` and runs a plain queue BFS from
    every vertex.  Only usable for small rings; exists so the package's
    brute force is itself checked against something dumber.
    """
    verts, adj, edge_count = naive_adjacency(spec)
    n = len(verts)

    if n == 0:
        return {"status": "empty_graph", "wiener": None, "diameter": None, "excess": None,
                "components": 0, "vertices": 0, "edges": 0}

    seen_global = [False] * n
    components = 0
    for s in range(n):
        if seen_global[s]:
            continue
        components += 1
        queue = deque([s])
        seen_global[s] = True
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen_global[v]:
                    seen_global[v] = True
                    queue.append(v)

    if components > 1:
        return {"status": "disconnected", "wiener": None, "diameter": None, "excess": None,
                "components": components, "vertices": n, "edges": edge_count}

    total = excess = 0
    diameter = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist)
        excess += sum(d - 2 for d in dist if d >= 3)
        diameter = max(diameter, max(dist))
    return {"status": "value", "wiener": total // 2,
            "diameter": diameter if n >= 2 else None, "excess": excess // 2,
            "components": 1, "vertices": n, "edges": edge_count}


# A 300-digit product of two primes of 150 and 151 digits: rho cannot
# split it, and gives up after its step budget for that length.
SEMIPRIME_300_DIGITS = (10**149 + 183) * (10**150 + 67)


def phi(n: int) -> int:
    """Euler's totient, n * prod(1 - 1/p) over the primes p of n from `factorize`."""
    if n == 1:
        return 1
    for p, _ in factorize(n):
        n -= n // p
    return n


def divisors(n: int) -> list[int]:
    """Every positive divisor of n, ascending: the products of `factorize`'s prime powers."""
    if n == 1:
        return [1]
    fac = factorize(n)
    return sorted(prod(p**x for (p, _), x in zip(fac, xs)) for xs in iter_product(*(range(e + 1) for _, e in fac)))


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers p**e <= limit, ascending."""
    sieve = bytearray([1]) * (limit + 1)
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            for m in range(2 * p, limit + 1, p):
                sieve[m] = 0
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    out.sort()
    return out


def prime_power_multisets(k: int, bound: int) -> list[tuple[int, ...]]:
    """Ascending k-tuples of prime powers (repeats allowed) with product <= bound."""
    pool = prime_powers_upto(bound // 2 if k > 1 else bound)
    out: list[tuple[int, ...]] = []

    def rec(start: int, left: int, acc: list[int]) -> None:
        for q in pool:
            if q < start:
                continue
            if q > left:
                break
            if len(acc) + 1 == k:
                out.append(tuple(acc + [q]))
            else:
                rec(q, left // q, acc + [q])

    rec(2, bound, [])
    return out


def outcome(report) -> tuple:
    """The fields two routes must agree on, bit for bit."""
    return tuple(getattr(report, f) for f in OUTCOME_FIELDS)


def reference_levels(rows, sources):
    """Plain per-vertex queue BFS from each source: `(source, d, bits)` per level d >= 1."""
    n = len(rows)
    adjacency = [[u for u in range(n) if rows[v] >> u & 1] for v in range(n)]
    out = []
    for s in sources:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        by_level = {}
        for v, d in dist.items():
            if d:
                by_level[d] = by_level.get(d, 0) | 1 << v
        out.extend((s, d, by_level[d]) for d in sorted(by_level))
    return out


@st.composite
def single_bit_graphs(draw):
    """Random graphs as neighbour rows with one vertex per label group, as class graphs are.

    Dense draws leave few vertices unseen after the first level, so the
    sweep steps bottom-up; sparse ones keep it on top-down steps.
    """
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows
