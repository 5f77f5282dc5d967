"""Wiener index of the cozero-divisor graph of finite commutative rings.

Three independent computation routes over three ring families (integers
mod n, products of integers-mod rings, products of finite fields):

* :func:`wiener_brute` materializes the graph from ring elements and runs
  BFS from every vertex (the ground-truth oracle);
* :func:`wiener_quotient` works on ideal-label equivalence classes with
  arithmetic sizes and class-graph BFS distances;
* :func:`wiener_closed` evaluates one arithmetic formula over the ring's
  local factors, with no graph search.

All three agree on every supported ring, which the test suite enforces.
"""

from .closedform import (
    DivisorPairSets,
    classify_divisor_pairs,
    classify_prime_power_distance,
    wiener_closed,
    wiener_prime_power_product,
    wiener_reduced,
    wiener_zn,
)
from .elementgraph import (
    BruteForceLimitError,
    ElementGraph,
    build_graph,
    compute_wiener,
    graph_export,
    wiener_brute,
)
from .numtheory import divisors, euler_phi, factorize, prime_power_radical, proper_divisors
from .quotient import (
    ClassInfo,
    QuotientGraph,
    build_quotient_graph,
    class_adjacent,
    enumerate_classes,
    quotient_distances,
    wiener_quotient,
)
from .report import STATUS_DISCONNECTED, STATUS_EMPTY, STATUS_VALUE, WienerReport
from .ringspec import (
    IdealLabel,
    RingSpec,
    crt_normalize,
    element_role,
    ideal_contains,
    ideal_label_of,
    integers_mod,
    parse_ring_spec,
    prime_power_components,
    product_of_fields,
    product_of_integers_mod,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceLimitError",
    "ClassInfo",
    "DivisorPairSets",
    "ElementGraph",
    "IdealLabel",
    "QuotientGraph",
    "RingSpec",
    "STATUS_DISCONNECTED",
    "STATUS_EMPTY",
    "STATUS_VALUE",
    "WienerReport",
    "build_graph",
    "build_quotient_graph",
    "class_adjacent",
    "classify_divisor_pairs",
    "classify_prime_power_distance",
    "compute_wiener",
    "crt_normalize",
    "divisors",
    "element_role",
    "enumerate_classes",
    "euler_phi",
    "factorize",
    "graph_export",
    "ideal_contains",
    "ideal_label_of",
    "integers_mod",
    "parse_ring_spec",
    "prime_power_components",
    "prime_power_radical",
    "product_of_fields",
    "product_of_integers_mod",
    "proper_divisors",
    "quotient_distances",
    "wiener_brute",
    "wiener_closed",
    "wiener_prime_power_product",
    "wiener_quotient",
    "wiener_reduced",
    "wiener_zn",
]
