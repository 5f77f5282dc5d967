"""Supported ring families, parsing, and principal-ideal labels.

Three families of finite commutative rings are supported, written in a
small spec grammar that the CLI and config files share:

    Z(n)              integers modulo n, n >= 2
    ZxZ(n1,...,nk)    direct product of integers-mod rings, each ni >= 2
    F(q1,...,qk)      direct product of finite fields, each qi a prime power

Every component is a product of chains (q, a): local rings whose
principal ideals form the chain (1) > (q) > ... > (q**a) = 0.  Z(m) splits
into the prime-power factors (p, e) of m, and a field of order q is the
single chain (q, 1).  `RingSpec.chains` is the one place that split is
made.  A component ideal has one exponent x in 0..a per chain, and its
label is prod(q**x): for Z(m) the divisor gcd(r, m) of each element r
that generates it, and for a field 1 (nonzero) or q (zero).  Labels always
divide the component cardinality, and the principal ideal of r contains
the ideal of s exactly when every label of r divides the matching label
of s, that is, when the exponent of r is no larger on every chain.  The
brute route tests the labels (`elementgraph._group_rows`); the quotient
route and the closed form compare the exponents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

from .numtheory import factorize

FAMILY_Z = "Z"
FAMILY_PRODUCT = "ZxZ"
FAMILY_FIELDS = "F"

IdealLabel = tuple[int, ...]

_SPEC_RE = re.compile(r"^(zxz|z|f)\((.*)\)$", re.IGNORECASE)
_FAMILY_BY_TOKEN = {"z": FAMILY_Z, "zxz": FAMILY_PRODUCT, "f": FAMILY_FIELDS}


@dataclass(frozen=True)
class RingSpec:
    """A validated ring description: family tag plus component cardinalities."""

    family: str
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_Z, FAMILY_PRODUCT, FAMILY_FIELDS):
            raise ValueError(f"unknown ring family {self.family!r}")
        if not self.components:
            raise ValueError("ring spec needs at least one component")
        if self.family == FAMILY_Z and len(self.components) != 1:
            raise ValueError("Z takes exactly one modulus")
        for c in self.components:
            if c < 2:
                raise ValueError(f"component cardinality must be >= 2, got {c}")
        if self.family == FAMILY_FIELDS:
            for q in self.components:
                if len(factorize(q)) != 1:
                    raise ValueError(f"{q} is not a prime power")

    @property
    def cardinality(self) -> int:
        return prod(self.components)

    @property
    def is_field_product(self) -> bool:
        return self.family == FAMILY_FIELDS

    def chains(self, i: int) -> tuple[tuple[int, int], ...]:
        """The chains (q, a) whose product is the i-th component."""
        c = self.components[i]
        if self.is_field_product:
            return ((c, 1),)
        return tuple(factorize(c))

    def local_factors(self) -> list[tuple[int, int]]:
        """Every component's chains, in component order."""
        return [chain for i in range(len(self.components)) for chain in self.chains(i)]

    def __str__(self) -> str:
        return f"{self.family}({','.join(str(c) for c in self.components)})"


def integers_mod(n: int) -> RingSpec:
    return RingSpec(FAMILY_Z, (n,))


def product_of_integers_mod(moduli) -> RingSpec:
    return RingSpec(FAMILY_PRODUCT, tuple(moduli))


def product_of_fields(orders) -> RingSpec:
    return RingSpec(FAMILY_FIELDS, tuple(orders))


def parse_ring_spec(text: str) -> RingSpec:
    """Parse the Z(n) / ZxZ(...) / F(...) grammar, ignoring whitespace."""
    if not text or not text.strip():
        raise ValueError("empty ring spec")
    compact = re.sub(r"\s+", "", text)
    m = _SPEC_RE.match(compact)
    if m is None:
        raise ValueError(f"malformed ring spec {text!r}: expected Z(n), ZxZ(n1,...,nk) or F(q1,...,qk)")
    family = _FAMILY_BY_TOKEN[m.group(1).lower()]
    body = m.group(2)
    if not body:
        raise ValueError(f"malformed ring spec {text!r}: no parameters given")
    values = []
    for token in body.split(","):
        if not re.fullmatch(r"\d+", token):
            raise ValueError(f"malformed ring spec {text!r}: {token!r} is not a positive integer")
        values.append(int(token))
    return RingSpec(family, tuple(values))


def crt_normalize(spec: RingSpec) -> RingSpec:
    """Split Z(n) into the product of its prime-power factors, ascending.

    The two specs describe isomorphic rings, so every graph quantity
    computed downstream must agree between them.
    """
    if spec.family != FAMILY_Z:
        raise ValueError(f"crt_normalize applies to Z(n) specs only, got {spec}")
    return RingSpec(FAMILY_PRODUCT, tuple(q**a for q, a in spec.local_factors()))


def chain_sizes(q: int, a: int) -> list[int]:
    """Element counts of the chain (q, a) by ideal exponent x = 0..a.

    q**(a-x) - q**(a-x-1) elements have exponent x < a (the units have
    x = 0), and the zero element alone has x = a.
    """
    return [q ** (a - x) - q ** (a - x - 1) for x in range(a)] + [1]
