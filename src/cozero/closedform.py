"""Closed form for the Wiener index, one formula for every supported ring.

Every supported ring is a product of local factors (q, a) whose principal
ideals form a chain, read from `RingSpec.local_factors`: Z(p**a) gives
(p, a), a field of order q gives (q, 1), and Z(n) or ZxZ(n1,...,nk) split
into the prime-power factors of their moduli.  An element is described by
its vector of ideal exponents, x in 0..a per factor (0 for a unit, a for
zero), and two vertices are adjacent exactly when their exponent vectors
are incomparable.

With at least two factors the graph is connected and every distance is 1,
2 or 3, so the Wiener index is the diameter-2 identity W = 2*C(N, 2) - |E|
(Plesník, "On the sum of all distances in a graph or digraph", 1984) plus
one per distance-3 pair.  |E| follows from products over the factors of
comparable-pair counts, and the distance-3 pairs are exactly the chain
pattern of the paper's classification (`_chain_pattern`), counted per
factor.  No class is enumerated and no class pair is visited.

The pairwise classifiers `classify_divisor_pairs` and
`classify_prime_power_distance` stay public: the test suite checks them
against class-graph BFS.  The formula itself is cross-checked against the
general quotient method and the element-level brute force.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from math import prod

from .numtheory import factorize, is_prime, prime_power_radical, proper_divisors
from .report import STATUS_VALUE, WienerReport, graph_status
from .ringspec import RingSpec, chain_sizes, integers_mod, product_of_fields


# --------------------------------------------------------------------------
# Z(n): divisor-pair classification


@dataclass(frozen=True)
class DivisorPairSets:
    """Proper-divisor pairs of n, bucketed by the class distance they realize.

    `incomparable` holds unordered pairs where neither divisor divides the
    other (adjacent classes, distance 1).  The remaining buckets hold the
    nested pairs (d, e) with d | e, written smaller-first:

    * distance_two_composite: d has at least two distinct prime factors;
    * distance_two_cross_prime: d is a power of a prime p but n/e is not;
    * distance_three_chain: d = p**s and n/e = p**t for the same prime p,
      the only nesting that cannot be bridged in two steps.
    """

    incomparable: tuple[tuple[int, int], ...]
    distance_two_composite: tuple[tuple[int, int], ...]
    distance_two_cross_prime: tuple[tuple[int, int], ...]
    distance_three_chain: tuple[tuple[int, int], ...]

    @property
    def nested(self) -> tuple[tuple[int, int], ...]:
        return self.distance_two_composite + self.distance_two_cross_prime + self.distance_three_chain


def classify_divisor_pairs(n: int) -> DivisorPairSets:
    """Classify every unordered pair of proper divisors of n (needs >= 2 primes)."""
    if len(factorize(n)) < 2:
        raise ValueError(f"divisor-pair classification needs >= 2 distinct primes, got n = {n}")
    ds = proper_divisors(n)
    radical = {d: prime_power_radical(d) for d in ds}
    incomparable = []
    composite = []
    cross_prime = []
    chain = []
    for i, di in enumerate(ds):
        for dj in ds[i + 1 :]:
            if dj % di == 0:
                small, big = di, dj
            elif di % dj == 0:
                small, big = dj, di
            else:
                incomparable.append((di, dj))
                continue
            rad = radical[small]
            if rad is None:
                composite.append((small, big))
                continue
            co_rad = prime_power_radical(n // big)
            if co_rad is not None and co_rad[0] == rad[0]:
                chain.append((small, big))
            else:
                cross_prime.append((small, big))
    return DivisorPairSets(
        incomparable=tuple(incomparable),
        distance_two_composite=tuple(composite),
        distance_two_cross_prime=tuple(cross_prime),
        distance_three_chain=tuple(chain),
    )


# --------------------------------------------------------------------------
# Prime-power products: level tuples and the pairwise classifier


def _ideal_exponents(levels, prime_powers) -> tuple[int, ...]:
    # Exponent e with (p**e) the component ideal: zero -> m, unit -> 0, else j-1.
    return tuple(
        m if j == 0 else 0 if j == 1 else j - 1
        for j, (_, m) in zip(levels, prime_powers)
    )


def _chain_pattern(x, y, ex, ey) -> bool:
    # x is zero outside a single zero-divisor coordinate r; y is a unit
    # everywhere but r, where it carries a containing zero-divisor ideal.
    r = -1
    for i, j in enumerate(x):
        if j >= 2:
            if r >= 0:
                return False
            r = i
        elif j != 0:
            return False
    if r < 0 or y[r] < 2:
        return False
    for i, j in enumerate(y):
        if i != r and j != 1:
            return False
    return ex[r] >= ey[r]


def _prime_power_pairs(prime_powers, too_few: str) -> tuple[tuple[int, int], ...]:
    # The (p, m) pairs as ints; `too_few` is the error for fewer than two.
    pps = tuple((int(p), int(m)) for p, m in prime_powers)
    if len(pps) < 2:
        raise ValueError(too_few)
    for p, m in pps:
        if m < 1 or not is_prime(p):
            raise ValueError(f"({p}, {m}) is not a prime power")
    return pps


def _validate_levels(levels, prime_powers, what: str) -> None:
    if len(levels) != len(prime_powers):
        raise ValueError(f"{what} {levels} does not match {len(prime_powers)} components")
    for j, (p, m) in zip(levels, prime_powers):
        if not 0 <= j <= m:
            raise ValueError(f"{what} {levels} has level {j} outside 0..{m}")
    if all(j == 0 for j in levels):
        raise ValueError(f"{what} {levels} is the zero class, not a vertex class")
    if all(j == 1 for j in levels):
        raise ValueError(f"{what} {levels} is the unit class, not a vertex class")


def classify_prime_power_distance(a, b, prime_powers) -> int:
    """Distance (1, 2, or 3) between two classes of a prime-power product.

    Classes are level tuples: level 0 marks the zero element of a component,
    1 its units, and j >= 2 the elements generating the ideal (p**(j-1)).
    Incomparable ideal-exponent vectors mean adjacency.  Distance 3 occurs
    exactly for the chain pattern of `_chain_pattern`, in either
    orientation; every other non-adjacent pair is bridged in two steps.
    """
    a, b = tuple(a), tuple(b)
    prime_powers = _prime_power_pairs(prime_powers, "classify_prime_power_distance needs k >= 2 components")
    _validate_levels(a, prime_powers, "class")
    _validate_levels(b, prime_powers, "class")
    if a == b:
        raise ValueError("classify_prime_power_distance needs two distinct classes")
    ea = _ideal_exponents(a, prime_powers)
    eb = _ideal_exponents(b, prime_powers)
    a_in_b = all(x >= y for x, y in zip(ea, eb))
    b_in_a = all(y >= x for x, y in zip(ea, eb))
    if not a_in_b and not b_in_a:
        return 1
    if _chain_pattern(a, b, ea, eb) or _chain_pattern(b, a, eb, ea):
        return 3
    return 2


# --------------------------------------------------------------------------
# The product-of-chains formula


def _wiener_local(factors, t0: float) -> WienerReport:
    """Wiener report for the product of local rings `factors`, each (q, a).

    `s[x]` counts the elements of a factor with ideal exponent x
    (`chain_sizes`).  Over all C elements, units and zero included, the
    ordered pairs with comparable exponent vectors number
    L = 2*prod(#{x <= y}) - prod(#{x = y}), and units and zero are
    comparable with everything, so 2|E| = C**2 - L.
    """
    levels = [chain_sizes(q, a) for q, a in factors]
    cardinality = prod(q**a for q, a in factors)
    units = prod(s[0] for s in levels)
    vertices = cardinality - units - 1
    classes = prod(len(s) for s in levels) - 2
    if len(factors) == 1:
        # A single chain: all vertices are comparable, so there are no edges.
        return WienerReport(
            status=graph_status(vertices, vertices),
            method="closed",
            vertex_count=vertices,
            class_count=classes,
            component_count=vertices,
            wiener=0 if vertices == 1 else None,
            elapsed=time.perf_counter() - t0,
        )

    below = same = 1
    distance3 = 0
    for s in levels:
        prefix = list(accumulate(s))
        below *= sum(v * c for v, c in zip(s, prefix))
        same *= sum(v * v for v in s)
        # Chain pattern in this factor r: one side is zero off r, the other a
        # unit off r, and both carry zero-divisor exponents 1 <= y <= x < a at r.
        distance3 += units // s[0] * sum(s[x] * (prefix[x] - s[0]) for x in range(1, len(s) - 1))
    twice_edges = cardinality * cardinality - (2 * below - same)
    ordered_pairs = vertices * (vertices - 1)
    return WienerReport(
        status=STATUS_VALUE,
        method="closed",
        vertex_count=vertices,
        class_count=classes,
        component_count=1,
        wiener=ordered_pairs - twice_edges // 2 + distance3,
        diameter=3 if distance3 else 2 if twice_edges < ordered_pairs else 1,
        elapsed=time.perf_counter() - t0,
    )


def wiener_zn(n: int) -> WienerReport:
    """Closed form for Z(n), from the prime-power factors of n."""
    return wiener_closed(integers_mod(n))


def wiener_reduced(orders) -> WienerReport:
    """Closed form for a product of k >= 2 finite fields.

    Classes correspond to the nonzero proper subsets of component positions
    (the support of an element), with size prod(q_i - 1) over the support.
    Incomparable supports are adjacent; nested supports sit at distance 2.
    """
    orders = tuple(orders)
    if len(orders) < 2:
        raise ValueError("wiener_reduced needs at least two field components; use the quotient route for a single field")
    return wiener_closed(product_of_fields(orders))


def wiener_prime_power_product(prime_powers) -> WienerReport:
    """Closed form for a product of k >= 2 rings of prime-power order.

    Each (p, m) is the local ring Z(p**m); classes are the level tuples of
    `classify_prime_power_distance`, counted and sized arithmetically.
    """
    t0 = time.perf_counter()
    pps = _prime_power_pairs(prime_powers, "wiener_prime_power_product needs k >= 2 components; use the quotient route")
    return _wiener_local(pps, t0)


def wiener_closed(spec: RingSpec) -> WienerReport:
    """Closed form for any supported spec, through `spec.local_factors()`."""
    t0 = time.perf_counter()
    return _wiener_local(spec.local_factors(), t0)
