"""eggbox: desk-scale finite semigroup algebra.

Cayley-table semigroups, Green's structure and Rees coordinates, the
synthesis and K_p constructions, translational hulls and kernel
representations, omega-term identity checking, word combinatorics with the
de Bruijn encoding, the recursive completely-regular word problem, and
stable partial orders with a DFA-to-syntactic-semigroup pipeline.

Use the library through its modules (`from eggbox import core, green`, or
`from eggbox.core import validate`); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
