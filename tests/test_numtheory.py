import gc
import tracemalloc
from math import gcd, prod

import pytest
from conftest import divisors, phi
from hypothesis import given, settings
from hypothesis import strategies as st

from cozero import numtheory
from cozero.closedform import wiener_closed
from cozero.numtheory import PSI_13, FactorizationError, abbreviate, factorize
from cozero.ringspec import integers_mod


def brute_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def trial_division(n: int) -> list[tuple[int, int]]:
    """Reference factorization: divide by 2, 3, 5, 7, ... up to the square root."""
    pairs = []
    p = 2
    while p * p <= n:
        exp = 0
        while n % p == 0:
            n //= p
            exp += 1
        if exp:
            pairs.append((p, exp))
        p += 1 if p == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


def merged(*factorizations) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    for pairs in factorizations:
        for p, e in pairs:
            counts[p] = counts.get(p, 0) + e
    return sorted(counts.items())


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, limit, p))
    return flags


SIEVE = sieve(10**5)
SIEVE_PRIMES = [p for p, flag in enumerate(SIEVE) if flag]
PINNED_PRIMES = (999983, 1000003, 1000000007, 1000000009, 2**61 - 1)
PINNED_PRIME_POWERS = [(p, k) for p in PINNED_PRIMES for k in range(1, 5) if p**k < PSI_13]


@pytest.mark.parametrize(
    "n,expected",
    [
        (72, [(2, 3), (3, 2)]),
        (13, [(13, 1)]),
        (2500, [(2, 2), (5, 4)]),
        (2, [(2, 1)]),
        (1024, [(2, 10)]),
    ],
)
def test_factorize_known(n, expected):
    assert factorize(n) == expected


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_small_range():
    for n in range(2, 5000):
        pairs = factorize(n)
        assert prod(p**e for p, e in pairs) == n
        primes = [p for p, _ in pairs]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in pairs)
        assert pairs == trial_division(n)


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=200)
def test_factorize_reconstructs_and_parts_are_prime(n):
    pairs = factorize(n)
    assert prod(p**e for p, e in pairs) == n
    for p, _ in pairs:
        assert p >= 2
        assert all(p % d for d in range(2, min(p, 10**4)) if d * d <= p)
    assert pairs == trial_division(n)


@given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=2, max_value=10**9))
@settings(max_examples=200)
def test_factorize_product_merges_factors(a, b):
    assert factorize(a * b) == merged(factorize(a), factorize(b))


@given(st.lists(st.integers(min_value=2, max_value=10**6), min_size=1, max_size=8))
@settings(max_examples=200)
def test_factorize_product_of_random_factors(parts):
    assert factorize(prod(parts)) == merged(*(trial_division(x) for x in parts))


@given(st.sampled_from(SIEVE_PRIMES + [999983, 1000000007]), st.sampled_from(PINNED_PRIMES))
@settings(max_examples=100)
def test_factorize_semiprimes(p, q):
    assert factorize(p * q) == merged([(p, 1)], [(q, 1)])


@given(st.sampled_from(PINNED_PRIME_POWERS), st.integers(min_value=1, max_value=10**4))
@settings(max_examples=100)
def test_factorize_large_prime_powers(pk, m):
    p, k = pk
    assert factorize(p**k) == [(p, k)]
    assert factorize(m * p**k) == merged(trial_division(m), [(p, k)])


def test_is_prime_agrees_with_sieve():
    # factorize decides primality: n is prime exactly when it is its own one factor.
    assert [n for n in range(2, 10**5) if factorize(n) == [(n, 1)]] == SIEVE_PRIMES


@pytest.mark.parametrize(
    "n,expected",
    [
        # strong pseudoprime to bases 2, 3, 5, 7
        (3215031751, [(151, 1), (751, 1), (28351, 1)]),
        # strong pseudoprime to the first 11 prime bases
        (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
        # psi_12: strong pseudoprime to the first 12 prime bases
        (318665857834031151167461, [(399165290221, 1), (798330580441, 1)]),
    ],
)
def test_strong_pseudoprimes_are_composite(n, expected):
    assert factorize(n) == expected
    assert all(trial_division(p) == [(p, 1)] for p, _ in expected)


def test_factorize_rejects_unprovable_primes():
    # psi_13 is itself a strong pseudoprime to bases 2..41; 2**89 - 1 is
    # prime.  Both are under 41 digits, so the message quotes them whole.
    for n, piece in ((PSI_13, PSI_13), (2**89 - 1, 2**89 - 1), (2 * (2**89 - 1), 2**89 - 1)):
        with pytest.raises(FactorizationError, match=str(PSI_13)) as exc_info:
            factorize(n)
        assert str(exc_info.value).startswith(f"{piece} passes Miller-Rabin")
    assert issubclass(FactorizationError, ValueError)
    assert factorize(PSI_13 + 1) == [(2, 1), (702809, 1), (1858007, 1), (1270096107457, 1)]


def test_abbreviate_keeps_40_digits_and_cuts_past_them(default_digit_limit):
    assert abbreviate(10**39) == "1" + "0" * 39
    assert abbreviate(PSI_13) == str(PSI_13)
    assert abbreviate(10**40 + 123456) == "100000...123456 (41 digits)"
    assert abbreviate(2**1279 - 1) == "104079...729087 (386 digits)"
    # `str` refuses these at the default limit of 4300 digits; abbreviate never writes an int whole.
    assert abbreviate(2**20000) == "398027...309376 (6021 digits)"
    assert abbreviate(10**5000) == "100000...000000 (5001 digits)"
    assert abbreviate(10**5000 - 1) == "999999...999999 (5000 digits)"
    # A text is cut the same way, and counted in characters unless it is decimal digits alone.
    assert abbreviate("7" * 5000) == "777777...777777 (5000 digits)"
    assert abbreviate("a\nb") == "a\\nb"
    # Each end is cut from the text before it is escaped, so no escape is split.
    assert abbreviate("\u200b" * 40) == "\\u200b" * 6 + "..." + "\\u200b" * 6 + " (40 characters)"
    assert abbreviate("\U000e0001" * 40) == "\\U000e0001" * 6 + "..." + "\\U000e0001" * 6 + " (40 characters)"
    assert abbreviate("a\nb" * 20) == "a\\nba\\nb...a\\nba\\nb (60 characters)"
    assert abbreviate("٣" * 41) == "٣٣٣٣٣٣...٣٣٣٣٣٣ (41 digits)"
    assert abbreviate("Z(" + "1" * 39) == "Z(1111...111111 (41 characters)"
    assert abbreviate("x" * 40) == "x" * 40


def test_rho_gives_up_at_the_iteration_cap(monkeypatch):
    # factorize keeps nothing between calls, so a product it has split before
    # meets the cap again.
    assert factorize(1000000007 * 1000000021) == [(1000000007, 1), (1000000021, 1)]
    monkeypatch.setattr(numtheory, "RHO_ITERATION_CAP", 1000)
    with pytest.raises(FactorizationError, match="within 1000 iterations"):
        factorize(1000000007 * 1000000021)


def _held_after(moduli) -> int:
    """Bytes allocated while solving Z(n) for each n of `moduli` that are still held after the loop."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in moduli:
            wiener_closed(integers_mod(n))
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_memory_held_does_not_grow_with_the_moduli_solved():
    # Moduli that no other test factors: a memo of every factorization would
    # hold about 300 bytes for each of the 18 000 more.
    few = _held_after(range(300_000, 302_000))
    many = _held_after(range(302_000, 322_000))
    assert many < few + 18_000, (few, many)


def test_rho_cap_shrinks_past_82_bits(monkeypatch):
    # Two primes of 82 bits, the length of PSI_13, make a piece of 163 bits,
    # whose steps cost about (163/82)**2 times as much: 1000 * 82**2 // 163**2 = 253.
    p, q = 2**81 + 17, 2**81 + 2**79 + 121
    assert p.bit_length() == q.bit_length() == PSI_13.bit_length() == 82
    assert factorize(p) == [(p, 1)] and factorize(q) == [(q, 1)]
    monkeypatch.setattr(numtheory, "RHO_ITERATION_CAP", 1000)
    with pytest.raises(FactorizationError, match="within 253 iterations"):
        factorize(p * q)


# The totient and divisor references of the tests (conftest's `phi` and
# `divisors`, both read off `factorize`) against brute counts and identities.


@pytest.mark.parametrize("n,expected", [(1, 1), (9, 6), (100, 40), (2, 1), (97, 96)])
def test_euler_phi_known(n, expected):
    assert phi(n) == expected


def test_euler_phi_matches_brute_count():
    for n in range(1, 300):
        assert phi(n) == brute_phi(n)


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi(0)


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=2000))
@settings(max_examples=100)
def test_euler_phi_multiplicative_on_coprimes(a, b):
    if gcd(a, b) == 1:
        assert phi(a * b) == phi(a) * phi(b)


def test_divisors_known():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert len(divisors(100)) == 9
    assert divisors(7) == [1, 7]
    assert divisors(1) == [1]


def test_divisors_match_enumeration():
    for n in range(1, 300):
        assert divisors(n) == brute_divisors(n)


def test_divisor_count_follows_exponents():
    for n in range(2, 2000):
        expected = prod(e + 1 for _, e in factorize(n))
        assert len(divisors(n)) == expected


def test_totient_sums_to_n_over_divisors():
    # Classical identity: the totients of the divisors of n partition [1, n].
    for n in range(2, 10_001):
        assert sum(phi(d) for d in divisors(n)) == n


@pytest.mark.parametrize(
    "n,expected",
    [(8, (2, 3)), (12, None), (121, (11, 2)), (2, (2, 1)), (97, (97, 1)), (36, None)],
)
def test_prime_power_radical(n, expected):
    # n is a prime power exactly when factorize gives one pair, as RingSpec reads a field order.
    pairs = factorize(n)
    assert (pairs[0] if len(pairs) == 1 else None) == expected


def test_prime_predicates():
    primes_below_100 = [n for n in range(2, 100) if factorize(n) == [(n, 1)]]
    assert primes_below_100[:8] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_below_100) == 25
