"""Wiener index of the cozero-divisor graph of finite commutative rings.

Three computation routes over three ring families (integers mod n,
products of integers-mod rings, products of finite fields):

* :func:`wiener_brute` groups the ring's elements by their residue labels,
  and :func:`wiener_quotient` counts the same classes from the chain
  exponents;
* :func:`wiener_closed` evaluates one arithmetic formula over the ring's
  local factors, with no graph search.

The graph routes share the row layout and edge identity
(`groupbfs.product_rows`) and the pair sum (`groupbfs.group_wiener`), and
all three build their report by `report.make_report`; each route checks
its own containment rule, and the naive reference in the tests'
`conftest.py` is the element-level oracle on small rings.  All three agree
on every outcome field of their `WienerReport` on every supported ring.
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
