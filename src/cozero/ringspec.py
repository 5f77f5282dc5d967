"""Supported ring families, parsing, and principal-ideal labels.

Three families of finite commutative rings are supported, written in a
small spec grammar that the CLI and config files share:

    Z(n)              integers modulo n, n >= 2
    ZxZ(n1,...,nk)    direct product of integers-mod rings, each ni >= 2
    F(q1,...,qk)      direct product of finite fields, each qi a prime power

Every element gets one ideal label per component: in an integers-mod-m
component the label of x is gcd(x, m), which is m for the zero element and
1 for a unit; in a field of order q the label is q for zero and 1 for any
nonzero element (fields carry no further ideal structure, so their order
is all we ever store).  Labels always divide the component cardinality,
and the principal ideal of x contains the ideal of y exactly when every
label of x divides the matching label of y.  That single divisibility test
drives adjacency everywhere else in the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

from .numtheory import divisors, euler_phi, factorize, prime_power_radical

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
                if prime_power_radical(q) is None:
                    raise ValueError(f"{q} is not a prime power")

    @property
    def cardinality(self) -> int:
        return prod(self.components)

    @property
    def is_field_product(self) -> bool:
        return self.family == FAMILY_FIELDS

    def component_labels(self, i: int) -> tuple[int, ...]:
        """All ideal labels the i-th component admits, ascending."""
        c = self.components[i]
        if self.is_field_product:
            return (1, c)
        return tuple(divisors(c))

    def label_class_size(self, i: int, label: int) -> int:
        """Number of elements of component i carrying the given label."""
        c = self.components[i]
        if self.is_field_product:
            return c - 1 if label == 1 else 1
        return euler_phi(c // label)

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
    pairs = factorize(spec.components[0])
    return RingSpec(FAMILY_PRODUCT, tuple(p**e for p, e in pairs))


def prime_power_components(spec: RingSpec) -> list[tuple[int, int]]:
    """Prime-power building blocks (p, m) of a Z or ZxZ spec, sorted by value.

    Each integers-mod component splits into its prime-power factors, which
    multiplies out to a ring isomorphic to the original one.
    """
    if spec.is_field_product:
        raise ValueError("prime_power_components applies to integers-mod specs only")
    parts: list[tuple[int, int]] = []
    for n in spec.components:
        parts.extend(factorize(n))
    parts.sort(key=lambda pm: (pm[0] ** pm[1], pm[0]))
    return parts


def ideal_contains(outer: IdealLabel, inner: IdealLabel) -> bool:
    """True when the principal ideal labelled `outer` contains the one labelled `inner`."""
    return all(i % o == 0 for o, i in zip(outer, inner))


def labels_comparable(a: IdealLabel, b: IdealLabel) -> bool:
    """True when one of the two labelled ideals contains the other."""
    return ideal_contains(a, b) or ideal_contains(b, a)
