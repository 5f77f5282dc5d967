"""Closed form for the Wiener index, one formula for every supported ring.

Every supported ring is a product of local factors (q, a) whose principal
ideals form a chain, read from `RingSpec.local_factors`: Z(p**a) gives
(p, a), a field of order q gives (q, 1), and Z(n) or ZxZ(n1,...,nk) split
into the prime-power factors of their moduli.  An element is described by
its vector of ideal exponents, x in 0..a per factor (0 for a unit, a for
zero), and two vertices are adjacent exactly when their exponent vectors
are incomparable.

With at least two factors the graph is connected and every distance is 1,
2 or 3, so `report.make_report` takes the Wiener index and the diameter
from |E| and the distance-3 pairs.  |E| follows from products over the
factors of comparable-pair counts, and the distance-3 pairs of the paper's
classification (`_pair_distance`) are counted per factor.  One factor,
Z(p**a) or a field, runs the same body with no distance-3 term.  No class
is enumerated and no class pair is visited.  `_wiener_local` is that
formula; `wiener_closed` runs it on any spec, and the per-family entry
points `wiener_zn`, `wiener_reduced` and `wiener_prime_power_product`
validate their input and run the same formula.

The pairwise classifiers `classify_divisor_pairs` and
`classify_prime_power_distance` call `_pair_distance` on exponent
vectors; the test suite checks them against class-graph BFS.  The formula
itself is cross-checked against the general quotient method and the
element-level brute force.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import ge, le

from .numtheory import factorize
from .report import WienerReport, make_report
from .ringspec import RingSpec, integers_mod, product_of_fields


# --------------------------------------------------------------------------
# The pairwise distance rule, and Z(n)'s divisor pairs


def _pair_distance(x, y, tops) -> int:
    """Distance (1, 2 or 3) between vertices with distinct exponent vectors x and y.

    `tops[r]` is the zero ideal's exponent on chain r, one of two or more.
    Incomparable vectors are adjacent.  A nested pair is at distance 3
    exactly when the smaller ideal (the larger vector) is below its top on
    a single chain r and the larger ideal is 0 off r; any other is 2.
    """
    if not all(map(le, x, y)):
        if not all(map(ge, x, y)):
            return 1
        x, y = y, x
    below = [r for r, (e, top) in enumerate(zip(y, tops)) if e < top]
    if len(below) == 1 and not any(e for r, e in enumerate(x) if r != below[0]):
        return 3
    return 2


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
    """Classify every unordered pair of proper divisors of n (needs >= 2 primes).

    Each divisor's exponent vector over the primes of n goes to
    `_pair_distance`; ascending, a divisor precedes its multiples.
    """
    fac = factorize(n)
    if len(fac) < 2:
        raise ValueError(f"divisor-pair classification needs >= 2 distinct primes, got n = {n}")
    tops = [e for _, e in fac]
    vectors = product(*(range(e + 1) for e in tops))
    ds = sorted((prod(p**x for (p, _), x in zip(fac, xs)), xs) for xs in vectors)[1:-1]
    incomparable, composite, cross_prime, chain = [], [], [], []
    for i, (di, xi) in enumerate(ds):
        for dj, xj in ds[i + 1 :]:
            distance = _pair_distance(xi, xj, tops)
            if distance == 1:
                incomparable.append((di, dj))
            elif distance == 3:
                chain.append((di, dj))
            elif len(xi) - xi.count(0) >= 2:
                composite.append((di, dj))
            else:
                cross_prime.append((di, dj))
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


def _prime_power_pairs(prime_powers, too_few: str) -> tuple[tuple[int, int], ...]:
    # The (p, m) pairs as ints; `too_few` is the error for fewer than two.
    pps = tuple((int(p), int(m)) for p, m in prime_powers)
    if len(pps) < 2:
        raise ValueError(too_few)
    for p, m in pps:
        if m < 1 or p < 2 or factorize(p) != [(p, 1)]:
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
    The levels map to ideal exponents (`_ideal_exponents`), and
    `_pair_distance` gives the distance.
    """
    a, b = tuple(a), tuple(b)
    prime_powers = _prime_power_pairs(prime_powers, "classify_prime_power_distance needs k >= 2 components")
    _validate_levels(a, prime_powers, "class")
    _validate_levels(b, prime_powers, "class")
    if a == b:
        raise ValueError("classify_prime_power_distance needs two distinct classes")
    tops = [m for _, m in prime_powers]
    return _pair_distance(_ideal_exponents(a, prime_powers), _ideal_exponents(b, prime_powers), tops)


# --------------------------------------------------------------------------
# The product-of-chains formula


def _chain_sums(q: int, a: int) -> tuple[int, int, int, int]:
    """The chain (q, a)'s units, squares, pairs and far sums of `_wiener_local`, in O(1) operations."""
    h = q ** (a - 1)
    size = q * h
    units = size - h
    squares = 1 + (q - 1) * (size * size - 1) // (q + 1)
    pairs = (size * size + squares) // 2
    far = h * (h - 1) - (h * h - 1) // (q + 1)
    return units, squares, pairs, far


def _wiener_local(factors, t0: float) -> WienerReport:
    """Wiener report for the product of local rings `factors`, each (q, a).

    On a chain (q, a), s[x] elements have ideal exponent x (`chain_sizes`).
    With T = q**a and h = q**(a-1), `_chain_sums` gives their sums, each a
    geometric series in q**2 (q**2 = 1 modulo q + 1, so /(q + 1) is exact):
    units s[0] = T - h, squares = sum of s[x]**2 = 1 + (q-1)(T**2-1)/(q+1),
    pairs = sum of s[x]*s[y] over x <= y = (T**2 + squares)/2, and far =
    the same sum over 1 <= y <= x < a = h(h-1) - (h**2-1)/(q+1).  Over all
    C elements, units and zero included, the ordered pairs with comparable
    exponent vectors number L = 2*prod(pairs) - prod(squares), and units
    and zero are comparable with everything, so 2|E| = C**2 - L.  On one
    chain every pair is comparable: |E| = 0, and each vertex is its own
    component.
    """
    units_by_chain, squares, pairs, far = zip(*(_chain_sums(q, a) for q, a in factors))
    cardinality = prod(q**a for q, a in factors)
    units = prod(units_by_chain)
    vertices = cardinality - units - 1
    classes = prod(a + 1 for _, a in factors) - 2
    connected = len(factors) > 1
    # The pairs `_pair_distance` puts at distance 3 with r a factor: one side at the top (zero)
    # off r, the other 0 (a unit) off r, and exponents 1 <= y <= x < a at r.
    distance3 = sum(units // u * d for u, d in zip(units_by_chain, far)) if connected else 0
    edges = (cardinality * cardinality - (2 * prod(pairs) - prod(squares))) // 2
    components = 1 if connected else vertices
    return make_report("closed", vertices, classes, components, edges, distance3, 3 if distance3 else 0, t0)


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
