"""Seeded ring generators for the benchmark workloads.

cozero sees only the spec strings made here.  Everything is drawn from a
`random.Random(seed)`, so one seed always yields the same rings; number
theory is done with this module's own sieve so that no generated input
depends on the code under test.

Samples are stratified: a population is sorted by a cost proxy (brute
force work, element count or class count K), cut into as many equal strata as rings are
wanted, and one ring is drawn from each stratum.  Where the class graph
is determined by an exponent shape (the sorted prime exponents of Z(n),
the exponents of a prime-power product), each draw keeps the shape of its
stratum's middle ring and the seed picks the primes.  Different seeds then
draw different rings from the same population while the mix of cheap and
expensive rings, which sets every timing, stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import prod

ORACLE_SAMPLE = 800
ZN_ORACLE_MAX = 500
PRODUCT_ORACLE_MAX = 2000

# Every pass holds at least 100 rings, so that p90 has 10 rings beyond it.

# class_graph: rings past the brute limit with 100..220 classes, plus
# 7- and 8-field products (126 and 254 classes); the cap keeps a pass of
# 100 rings near eight seconds, so one run still times three passes.  The
# 12 8-field products are the costliest rings and share one class graph,
# so p90 falls among them.
CLASS_GRAPH_K = (100, 220)
CLASS_GRAPH_ZN = (10**5, 4 * 10**6)
CLASS_GRAPH_MIX = {"zn": 50, "pp": 30, "fields7": 8, "fields8": 12}

# cli_auto: each pass holds 75 small, 12 class-heavy and 13 factor-heavy
# rings.  p50 then falls among the small rings and p90 among the
# factor-heavy ones, whose costs cluster tightly.
CLI_SMALL_MIX = {"zn": 37, "field_pairs": 14, "field_triples": 5, "pp": 19}
CLI_CLASS_HEAVY_MIX = {"zn": 4, "pp": 4, "fields9": 2, "fields10": 2}
CLI_FACTOR_HEAVY = 13
CLI_SMALL_ZN_MAX = 2500
CLI_HEAVY_ZN_K = (400, 640)
CLI_HEAVY_ZN = (10**7, 10**11)
CLI_HEAVY_PP_K = (400, 480)
# Factor-heavy moduli are 24 * p * q with primes p < q drawn from this window.
# The window is narrow because trial division runs up to the smaller prime,
# so its width is the spread of the stratum's cost.
FACTOR_WINDOW = (10**6 - 5_000, 10**6 + 5_000)
FACTOR_SMALL_PART = 24

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
HEAVY_PRIMES = SMOOTH_PRIMES[:6]


@dataclass(frozen=True)
class Ring:
    """One generated input: the spec text and what the benchmark knows about it."""

    text: str
    family: str  # "Z", "ZxZ" or "F"
    components: tuple[int, ...]
    stratum: str
    respelled: str | None = None  # an isomorphic spec taking another closed form

    @property
    def cardinality(self) -> int:
        return prod(self.components)


def _spec(family: str, components) -> str:
    return f"{family}({','.join(str(c) for c in components)})"


def z_ring(n: int, stratum: str, respelled: str | None = None) -> Ring:
    return Ring(_spec("Z", (n,)), "Z", (n,), stratum, respelled)


def product_ring(family: str, components, stratum: str, respelled: str | None = None) -> Ring:
    components = tuple(components)
    return Ring(_spec(family, components), family, components, stratum, respelled)


# --------------------------------------------------------------------------
# number theory of the generator itself


def primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi) by a segmented sieve."""
    seg = bytearray([1]) * (hi - lo)
    for p in primes_upto(int(hi**0.5) + 1):
        start = max(p * p, (lo + p - 1) // p * p)
        seg[start - lo :: p] = bytearray(len(range(start, hi, p)))
    return [lo + i for i, flag in enumerate(seg) if flag and lo + i >= 2]


def prime_powers_upto(limit: int) -> list[tuple[int, int, int]]:
    """(p**m, p, m) for every prime power up to limit, ascending."""
    out = []
    for p in primes_upto(limit):
        q, m = p, 1
        while q <= limit:
            out.append((q, p, m))
            q *= p
            m += 1
    out.sort()
    return out


def prime_power_multisets(k: int, bound: int) -> list[tuple[int, ...]]:
    """Ascending k-tuples of prime powers, repeats allowed, with product <= bound."""
    pool = [q for q, _, _ in prime_powers_upto(bound // 2 if k > 1 else bound)]
    out: list[tuple[int, ...]] = []

    def rec(start: int, left: int, acc: tuple[int, ...]) -> None:
        for q in pool:
            if q < start:
                continue
            if q > left:
                break
            if len(acc) + 1 == k:
                out.append(acc + (q,))
            else:
                rec(q, left // q, acc + (q,))

    rec(2, bound, ())
    return out


def smooth_numbers(lo: int, hi: int, primes=SMOOTH_PRIMES) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(n, factorization) for every n in [lo, hi] with all prime factors in `primes`."""
    out = []

    def rec(i: int, n: int, fac: tuple[tuple[int, int], ...]) -> None:
        if i == len(primes):
            if n >= lo:
                out.append((n, fac))
            return
        p, e = primes[i], 0
        while n <= hi:
            rec(i + 1, n, fac + ((p, e),) if e else fac)
            n *= p
            e += 1

    rec(0, 1, ())
    out.sort()
    return out


def divisor_classes(fac) -> int:
    """Proper-divisor count of n = prod p**e: its class count K."""
    return prod(e + 1 for _, e in fac) - 2


def shape_of(exponents) -> tuple[int, ...]:
    """Exponents, descending: rings of one shape have isomorphic class graphs."""
    return tuple(sorted(exponents, reverse=True))


def factor_small(n: int) -> tuple[tuple[int, int], ...]:
    fac, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            fac.append((p, e))
        p += 1
    if n > 1:
        fac.append((n, 1))
    return tuple(fac)


# --------------------------------------------------------------------------
# sampling


def stratified(population: list, count: int, rng: random.Random, key, shape=None) -> list:
    """One uniform draw from each of `count` equal strata of the population sorted by key.

    With `shape`, a draw is limited to the members of its stratum that share
    the shape of the stratum's middle member.
    """
    if count > len(population):
        raise ValueError(f"cannot draw {count} strata from {len(population)} rings")
    ordered = sorted(population, key=key)
    n = len(ordered)
    out = []
    for i in range(count):
        members = ordered[i * n // count : (i + 1) * n // count]
        if shape is not None:
            middle = shape(members[len(members) // 2])
            members = [m for m in members if shape(m) == middle]
        out.append(rng.choice(members))
    return out


def by_cost(ring: Ring):
    return (ring.cardinality, ring.text)


def by_brute_work(ring: Ring):
    """Elements enumerated plus vertices times label groups: what brute force pays."""
    if ring.family == "F":
        groups = 2 ** len(ring.components) - 2
        units = prod(q - 1 for q in ring.components)
    else:
        facs = [factor_small(c) for c in ring.components]
        groups = prod(divisor_classes(f) + 2 for f in facs) - 2
        units = prod(prod(p ** (e - 1) * (p - 1) for p, e in f) for f in facs)
    vertices = ring.cardinality - units - 1
    return (ring.cardinality + vertices * groups, ring.text)


def by_shape(candidates: list[tuple[int, tuple, Ring]], count: int, rng: random.Random) -> list[Ring]:
    """Stratified draw from (K, shape, ring) candidates, sorted by K, shape-preserving."""
    drawn = stratified(candidates, count, rng, key=lambda c: (c[0], c[1], c[2].text), shape=lambda c: c[1])
    return [ring for _, _, ring in drawn]


# --------------------------------------------------------------------------
# oracle_sweep


def oracle_population() -> list[Ring]:
    """The Tier-1 acceptance population: Z(n), n <= 500, and 2-3 factor products <= 2000."""
    rings = [z_ring(n, "zn") for n in range(2, ZN_ORACLE_MAX + 1)]
    for family, stratum in (("ZxZ", "pp"), ("F", "fields")):
        for k in (2, 3):
            rings.extend(product_ring(family, c, stratum) for c in prime_power_multisets(k, PRODUCT_ORACLE_MAX))
    return rings


def oracle_sweep(seed: int, count: int = ORACLE_SAMPLE) -> list[Ring]:
    """Each family in proportion to its share of the population, stratified by brute-force work."""
    rng = random.Random(seed)
    population = oracle_population()
    families: dict[str, list[Ring]] = {}
    for ring in population:
        families.setdefault(ring.family, []).append(ring)
    rings: list[Ring] = []
    for i, members in enumerate(families.values()):
        share = round(count * len(members) / len(population)) if i < len(families) - 1 else count - len(rings)
        rings += stratified(members, share, rng, by_brute_work)
    rng.shuffle(rings)
    return rings


# --------------------------------------------------------------------------
# class_graph


def class_graph_populations() -> dict[str, list[tuple[int, tuple, Ring]]]:
    """(K, shape, ring) candidates per stratum, all beyond the brute limit."""
    k_lo, k_hi = CLASS_GRAPH_K
    zn = [
        (divisor_classes(fac), shape_of(e for _, e in fac), z_ring(n, "zn"))
        for n, fac in smooth_numbers(*CLASS_GRAPH_ZN)
        if k_lo <= divisor_classes(fac) <= k_hi
    ]
    pool = [(q, m) for q, p, m in prime_powers_upto(4096) if p <= 13]
    pp = []

    def rec(start: int, acc: tuple, levels: int) -> None:
        # levels = prod(m + 1) over the components so far; K = levels - 2.
        if len(acc) >= 3 and k_lo <= levels - 2:
            pp.append((levels - 2, shape_of(m for _, m in acc), product_ring("ZxZ", (q for q, _ in acc), "pp")))
        if len(acc) == 4:
            return
        for i in range(start, len(pool)):
            q, m = pool[i]
            if levels * (m + 1) - 2 <= k_hi:
                rec(i, acc + ((q, m),), levels * (m + 1))

    rec(0, (), 1)
    return {"zn": zn, "pp": pp}


def _field_orders(rng: random.Random, k: int, limit: int = 32) -> tuple[int, ...]:
    pool = [q for q, _, _ in prime_powers_upto(limit)]
    return tuple(sorted(rng.sample(pool, k)))


def class_graph(seed: int) -> list[Ring]:
    rng = random.Random(seed)
    pops = class_graph_populations()
    rings: list[Ring] = []
    for stratum in ("zn", "pp"):
        rings += by_shape(pops[stratum], CLASS_GRAPH_MIX[stratum], rng)
    for k in (7, 8):
        for _ in range(CLASS_GRAPH_MIX[f"fields{k}"]):
            rings.append(product_ring("F", _field_orders(rng, k), f"fields{k}"))
    rng.shuffle(rings)
    return rings


# --------------------------------------------------------------------------
# cli_auto


def cli_small(rng: random.Random) -> list[Ring]:
    """Table-sized rings: Z(n) up to 2500, field pairs/triples, two-factor products with K <= 14."""
    zn = []
    for n in range(2, CLI_SMALL_ZN_MAX + 1):
        fac = factor_small(n)
        zn.append((divisor_classes(fac), shape_of(e for _, e in fac), z_ring(n, "small")))
    powers = prime_powers_upto(400)
    fields = [product_ring("F", (a[0], b[0]), "small") for a, b in combinations(powers, 2)]
    pp = [
        ((a[2] + 1) * (b[2] + 1) - 2, shape_of((a[2], b[2])), product_ring("ZxZ", (a[0], b[0]), "small"))
        for a, b in combinations(prime_powers_upto(1000), 2)
        if a[0] * b[0] <= PRODUCT_ORACLE_MAX and (a[2] + 1) * (b[2] + 1) <= 16
    ]
    rings = by_shape(zn, CLI_SMALL_MIX["zn"], rng)
    rings += stratified(fields, CLI_SMALL_MIX["field_pairs"], rng, by_cost)
    for _ in range(CLI_SMALL_MIX["field_triples"]):
        rings.append(product_ring("F", sorted(q for q, _, _ in rng.sample(powers, 3)), "small"))
    rings += by_shape(pp, CLI_SMALL_MIX["pp"], rng)
    return rings


def cli_class_heavy(rng: random.Random) -> list[Ring]:
    """400-1022 classes, each with an isomorphic respelling checked by another closed form."""
    # Z(n) with n's exponents non-increasing over 2, 3, 5, ...: respells as its CRT split.
    k_lo, k_hi = CLI_HEAVY_ZN_K
    zn = []

    def divisor_rich(i: int, n: int, fac: tuple, top: int) -> None:
        if i == len(HEAVY_PRIMES) or top == 0:
            if n >= CLI_HEAVY_ZN[0] and k_lo <= divisor_classes(fac) <= k_hi:
                respelled = _spec("ZxZ", sorted(p**e for p, e in fac))
                zn.append((divisor_classes(fac), shape_of(e for _, e in fac), z_ring(n, "class_heavy", respelled)))
            return
        p, e = HEAVY_PRIMES[i], 0
        while n <= CLI_HEAVY_ZN[1] and e <= top:
            divisor_rich(i + 1, n, fac + ((p, e),) if e else fac, e)
            n *= p
            e += 1

    divisor_rich(0, 1, (), 64)
    rings = by_shape(zn, CLI_CLASS_HEAVY_MIX["zn"], rng)

    # Pairwise coprime prime powers, 4-5 of them: ZxZ(...) respells as Z(product).
    k_lo, k_hi = CLI_HEAVY_PP_K
    pp = []

    def coprime(i: int, comps: tuple, exps: tuple, levels: int) -> None:
        if i == len(HEAVY_PRIMES):
            if len(comps) >= 4 and k_lo <= levels - 2:
                ring = product_ring("ZxZ", sorted(comps), "class_heavy", _spec("Z", (prod(comps),)))
                pp.append((levels - 2, shape_of(exps), ring))
            return
        coprime(i + 1, comps, exps, levels)
        if len(comps) < 5:
            for e in range(1, 8):
                if levels * (e + 1) - 2 <= k_hi:
                    coprime(i + 1, comps + (HEAVY_PRIMES[i] ** e,), exps + (e,), levels * (e + 1))

    coprime(0, (), (), 1)
    rings += by_shape(pp, CLI_CLASS_HEAVY_MIX["pp"], rng)

    # Prime-order fields: F(p1,...,pk) respells as ZxZ(p1,...,pk).
    primes = primes_upto(60)
    for k in (9, 10):
        for _ in range(CLI_CLASS_HEAVY_MIX[f"fields{k}"]):
            orders = sorted(rng.sample(primes, k))
            rings.append(product_ring("F", orders, "class_heavy", _spec("ZxZ", orders)))
    return rings


class FactorHeavyStream:
    """Z(24 * p * q) with p < q near 10**6; no modulus repeats within a stream."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._primes = primes_between(*FACTOR_WINDOW)
        self._used: set[tuple[int, int]] = set()

    def draw(self) -> Ring:
        while True:
            p, q = sorted(self._rng.sample(self._primes, 2))
            if (p, q) not in self._used:
                self._used.add((p, q))
                return z_ring(FACTOR_SMALL_PART * p * q, "factor_heavy")


class CliAutoSource:
    """Passes of fixed small and class-heavy rings, with fresh factor-heavy ones in fixed slots."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.small = cli_small(rng)
        slots: list[Ring | None] = self.small + cli_class_heavy(rng) + [None] * CLI_FACTOR_HEAVY
        rng.shuffle(slots)
        self._slots = slots
        self.stream = FactorHeavyStream(random.Random(rng.getrandbits(64)))

    def next_pass(self) -> list[Ring]:
        return [ring if ring is not None else self.stream.draw() for ring in self._slots]
