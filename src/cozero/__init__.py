"""Wiener index of the cozero-divisor graph of finite commutative rings.

Three independent computation routes over three ring families (integers
mod n, products of integers-mod rings, products of finite fields):

* :func:`wiener_brute` groups the ring's elements by ideal label (the
  ground-truth oracle), and :func:`wiener_quotient` counts the same
  classes arithmetically; both sum distances by `groupbfs.group_wiener`;
* :func:`wiener_closed` evaluates one arithmetic formula over the ring's
  local factors, with no graph search.

All three agree on every outcome field of their `WienerReport` on every
supported ring, which the test suite enforces.
Everything else is imported from its module: the per-family closed forms
and the pairwise classifiers from `cozero.closedform`, the graphs from
`cozero.elementgraph` and `cozero.quotient`, the ring specs from
`cozero.ringspec`, and the arithmetic from `cozero.numtheory`.
"""

from .closedform import wiener_closed
from .elementgraph import BruteForceLimitError, wiener_brute
from .numtheory import FactorizationError
from .quotient import wiener_quotient
from .report import STATUS_DISCONNECTED, STATUS_EMPTY, STATUS_VALUE, WienerReport
from .ringspec import RingSpec, integers_mod, parse_ring_spec, product_of_fields, product_of_integers_mod

__version__ = "0.1.0"

__all__ = [
    "BruteForceLimitError",
    "FactorizationError",
    "RingSpec",
    "STATUS_DISCONNECTED",
    "STATUS_EMPTY",
    "STATUS_VALUE",
    "WienerReport",
    "integers_mod",
    "parse_ring_spec",
    "product_of_fields",
    "product_of_integers_mod",
    "wiener_brute",
    "wiener_closed",
    "wiener_quotient",
]
