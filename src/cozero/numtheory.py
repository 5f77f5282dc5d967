"""Exact prime factorization, the one arithmetic step every route reads.

`factorize` is the module's one job: every modulus, field order and prime
of a (p, m) pair is factored by it, and the primality of the last two is
checked by it.  It keeps nothing between calls: a `RingSpec` keeps its own
factorization (`RingSpec.chains`).  It runs in three stages on Python
integers, which are arbitrary precision, so every count and sum in the
library stays exact:

1. trial division strips every prime below `SMALL_PRIME_BOUND` (a cofactor
   below its square is then 1 or prime);
2. Miller-Rabin over the first 13 prime bases (2..41, `_miller_rabin`)
   decides each remaining piece.  These bases are a proof of primality for
   n < `PSI_13` = 3317044064679887385961981 (Sorenson & Webster 2015);
3. Brent's variant of Pollard's rho (Pollard 1975; Brent 1980, `_rho_divisor`),
   with batched gcds, splits every composite piece.

A factorization never holds an unproven prime, and every one ends.  A
piece at or above `PSI_13` that Miller-Rabin cannot prove composite, and a
piece that rho has not split within its step budget, both raise
`FactorizationError`, a `ValueError` that names the limit it hit; numbers
past 40 digits are written in messages by `abbreviate`.  The budget is
`RHO_ITERATION_CAP` steps for a piece of up to 82 bits, the length of
`PSI_13`, and (82/b)**2 of it for a piece of b > 82 bits, whose steps cost
more: on a 2-CPU host a product of two primes that rho cannot split gives
up after 1.8 s at 40 digits, and after 0.3 s at 300 or 1000 (57 000 and
5 100 steps).  Rho takes on the order of sqrt(p) steps to split off a
prime p, so the hardest n below `PSI_13` are products of two primes near
1.8 * 10**12; on 64 of them rho needed at most 3.9 * 10**6 steps, under
half the cap.  These measurements are recorded in CHANGES.md.
"""

from __future__ import annotations

from math import gcd, isqrt, log10

SMALL_PRIME_BOUND = 1000


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if flags[p])


_SMALL_PRIMES = _primes_below(SMALL_PRIME_BOUND)

# psi_13: the least strong pseudoprime to all of the first 13 prime bases.
PSI_13 = 3317044064679887385961981
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Steps of x -> x*x + c (mod n) that rho may take on one piece of up to
# _CAP_BITS bits, over all c; a longer piece gets fewer (module docstring).
RHO_ITERATION_CAP = 1 << 23
_CAP_BITS = PSI_13.bit_length()
_RHO_BATCH = 128


class FactorizationError(ValueError):
    """n cannot be factored within the proven or budgeted limits."""


def abbreviate(n: int | str) -> str:
    """n >= 0, or a text, for a message: whole up to 40 characters, past that its ends and its length.

    An int is cut by arithmetic, never written whole, so no limit on `int`
    to `str` conversion applies.  A text is shown as `repr` escapes it, so
    it stays on one line; a long one is cut to six characters at each end
    before they are escaped, so no escape is split, and counted in digits
    when it is decimal digits alone, else in characters.
    """
    if isinstance(n, str):
        shown = repr(n)[1:-1]
        if len(shown) <= 40:
            return shown
        return f"{repr(n[:6])[1:-1]}...{repr(n[-6:])[1:-1]} ({len(n)} {'digits' if n.isdecimal() else 'characters'})"
    if n < 10**40:
        return str(n)
    e = int(n.bit_length() * log10(2))  # floor(log10 n), or one more
    e -= 10**e > n
    return f"{n // 10 ** (e - 5)}...{n % 10**6:06d} ({e + 1} digits)"


def _miller_rabin(n: int) -> bool:
    """True when odd n > SMALL_PRIME_BOUND passes all 13 bases.

    Below PSI_13 that proves n prime; at or above it, a pass proves nothing
    and raises FactorizationError.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_13:
        raise FactorizationError(
            f"{abbreviate(n)} passes Miller-Rabin over bases 2..41, which proves primality "
            f"only below psi_13 = {PSI_13}"
        )
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's rho.

    Each batch multiplies up to _RHO_BATCH differences before one gcd; a
    batch that overshoots to gcd n is replayed one step at a time, and a
    polynomial whose cycle closes at n is dropped for the next c.
    """
    cap = RHO_ITERATION_CAP * _CAP_BITS**2 // max(_CAP_BITS, n.bit_length()) ** 2
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
                steps += batch
                if g == 1 and steps >= cap:
                    raise FactorizationError(f"Pollard rho did not split {abbreviate(n)} within {cap} iterations")
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending.

    Raises FactorizationError when n holds a piece beyond the proven or
    budgeted range (see the module docstring).
    """
    if n < 2:
        raise ValueError(f"factorize requires an integer >= 2, got {n}")
    counts: dict[int, int] = {}
    rem = n
    for p in _SMALL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            rem //= p
            counts[p] = counts.get(p, 0) + 1
    pieces = [rem] if rem > 1 else []
    while pieces:
        m = pieces.pop()
        if m < SMALL_PRIME_BOUND**2 or _miller_rabin(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pieces += (d, m // d)
    return sorted(counts.items())
