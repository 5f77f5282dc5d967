"""Shared test helpers: an independent brute-force reference and ring sweeps."""

from __future__ import annotations

from collections import deque
from itertools import product as iter_product
from math import gcd

from cozero.ringspec import RingSpec


def naive_reference(spec: RingSpec) -> dict:
    """Fully independent reimplementation of the element-level computation.

    Enumerates elements, labels them with its own gcd logic, builds an
    explicit pairwise adjacency matrix from mutual ideal non-containment,
    and runs a plain queue BFS from every vertex.  Only usable for small
    rings; exists so the package's brute force is itself checked against
    something dumber.
    """
    comps = spec.components
    is_field = spec.is_field_product

    verts = []
    labels = []
    for e in iter_product(*(range(c) for c in comps)):
        if is_field:
            lab = tuple(c if x == 0 else 1 for x, c in zip(e, comps))
        else:
            lab = tuple(gcd(x, c) for x, c in zip(e, comps))
        if all(x == 0 for x in e):
            continue
        if all(d == 1 for d in lab):
            continue
        verts.append(e)
        labels.append(lab)

    n = len(verts)

    def contains(a, b):
        return all(y % x == 0 for x, y in zip(a, b))

    adj = [[] for _ in range(n)]
    edge_count = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = labels[i], labels[j]
            if not contains(a, b) and not contains(b, a):
                adj[i].append(j)
                adj[j].append(i)
                edge_count += 1

    if n == 0:
        return {"status": "empty_graph", "wiener": None, "diameter": None,
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
        return {"status": "disconnected", "wiener": None, "diameter": None,
                "components": components, "vertices": n, "edges": edge_count}

    total = 0
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
        diameter = max(diameter, max(dist))
    return {"status": "value", "wiener": total // 2,
            "diameter": diameter if n >= 2 else None,
            "components": 1, "vertices": n, "edges": edge_count}


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
    return (
        report.status,
        report.wiener,
        report.vertex_count,
        report.class_count,
        report.component_count,
        report.diameter,
    )
