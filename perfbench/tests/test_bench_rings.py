"""Seeded generators: determinism, population membership, strata, fresh moduli."""

import random
from collections import Counter

import rings


def texts(ring_list):
    return [r.text for r in ring_list]


def test_oracle_population_is_the_tier1_sweep():
    pop = rings.oracle_population()
    assert len(pop) == 4987
    assert len({r.text for r in pop}) == len(pop)


def test_oracle_sweep_is_seeded_sample_of_population():
    a, b, c = rings.oracle_sweep(1), rings.oracle_sweep(1), rings.oracle_sweep(2)
    assert texts(a) == texts(b)
    assert texts(a) != texts(c)
    assert len(a) == len(c) == rings.ORACLE_SAMPLE
    population = {r.text for r in rings.oracle_population()}
    assert set(texts(a)) <= population and set(texts(c)) <= population


def test_class_graph_is_seeded_with_fixed_mix():
    a, b, c = rings.class_graph(7), rings.class_graph(7), rings.class_graph(8)
    assert texts(a) == texts(b)
    assert texts(a) != texts(c)
    assert Counter(r.stratum for r in a) == Counter(rings.CLASS_GRAPH_MIX)
    pops = rings.class_graph_populations()
    candidates = {r.text: shape for stratum in pops.values() for _, shape, r in stratum}
    lo, hi = rings.CLASS_GRAPH_K
    for r in a + c:
        if r.family == "F":
            assert len(r.components) in (7, 8)
        else:
            assert r.text in candidates
    assert all(lo <= k <= hi for stratum in pops.values() for k, _, _ in stratum)
    # Every seed draws the same exponent shapes, so the class graphs match.
    shapes = lambda ring_list: sorted(candidates[r.text] for r in ring_list if r.family != "F")
    assert shapes(a) == shapes(c)


def test_class_counts_follow_divisor_counts():
    (n, fac), = [(n, fac) for n, fac in rings.smooth_numbers(720720, 720720)]
    assert n == 720720 and rings.divisor_classes(fac) == 238


def test_cli_auto_passes_are_seeded_with_fixed_strata():
    a, b, c = rings.CliAutoSource(3), rings.CliAutoSource(3), rings.CliAutoSource(4)
    pa, pb, pc = a.next_pass(), b.next_pass(), c.next_pass()
    assert texts(pa) == texts(pb)
    assert texts(pa) != texts(pc)
    assert Counter(r.stratum for r in pa) == {"small": 75, "class_heavy": 12, "factor_heavy": 13}
    assert all(r.respelled for r in pa if r.stratum == "class_heavy")


def test_factor_heavy_moduli_never_repeat_within_a_process():
    source = rings.CliAutoSource(5)
    seen = Counter()
    for _ in range(50):
        seen.update(r.text for r in source.next_pass() if r.stratum == "factor_heavy")
    assert len(seen) == 50 * rings.CLI_FACTOR_HEAVY and max(seen.values()) == 1
    stream = rings.FactorHeavyStream(random.Random(0))
    drawn = [stream.draw().components[0] for _ in range(3000)]
    assert len(set(drawn)) == len(drawn)
    lo, hi = rings.FACTOR_WINDOW
    for n in drawn[:50]:
        pq = n // rings.FACTOR_SMALL_PART
        p = next(d for d in rings.primes_between(lo, hi) if pq % d == 0)
        assert lo <= pq // p < hi and pq // p != p


def test_stratified_draws_one_per_stratum():
    rng = random.Random(0)
    drawn = rings.stratified(list(range(100)), 10, rng, key=lambda x: x)
    assert [x // 10 for x in drawn] == list(range(10))
    # With a shape, each draw matches its stratum's middle member.
    drawn = rings.stratified(list(range(100)), 10, rng, key=lambda x: x, shape=lambda x: x % 3)
    assert [x // 10 for x in drawn] == list(range(10))
    assert [x % 3 for x in drawn] == [(10 * i + 5) % 3 for i in range(10)]


def test_oracle_sweep_keeps_family_shares():
    counts = Counter(r.family for r in rings.oracle_sweep(9))
    assert counts == {"Z": 80, "ZxZ": 360, "F": 360}


def test_factor_small():
    assert rings.factor_small(2400) == ((2, 5), (3, 1), (5, 2))
    assert rings.shape_of(e for _, e in rings.factor_small(2400)) == (5, 2, 1)


def test_segmented_sieve_matches_plain_sieve():
    assert rings.primes_between(900, 1000) == [p for p in rings.primes_upto(1000) if p >= 900]
