"""Exact q-algebra toolkit for rank-2 quantized enveloping algebras.

The package computes, over the exact field Q(q):

  * normal-ordering / transition matrices between the two PBW bases of the
    positive part U_q^+ attached to the two reduced words of the longest
    Weyl element (types A2, C2, G2);
  * the q-oscillator intertwiner between the two irreducible tensor-product
    representations of the quantized coordinate ring attached to the same
    two words;
  * the identification of both matrices (they agree entry by entry), and the
    resulting solutions of the tetrahedron and 3D reflection equations.

Everything is exact: coefficients live in Q(q), each in one normal form
with arbitrary-precision integer coefficients.  An element of
Z[q, q^-1], which every table entry is, is a LaurentPoly; any other is a
RationalFunction, a reduced Laurent numerator over a polynomial
denominator other than 1.
"""

from .qfield import (
    LaurentPoly,
    RationalFunction,
    canonical_string,
    parse,
    qint,
    q_factorial,
    poch_run,
    d_norm,
)
from .presets import preset
from .pbw import normal_order, transition_block
from .intertwiner import CheckedTable, PhiTable
from .verify import (
    selftest,
    verify_3d_reflection,
    verify_properties,
    verify_t_intertwining,
    verify_tetrahedron,
    verify_theorem,
)

__all__ = [
    "LaurentPoly",
    "RationalFunction",
    "canonical_string",
    "parse",
    "qint",
    "q_factorial",
    "poch_run",
    "d_norm",
    "preset",
    "normal_order",
    "transition_block",
    "CheckedTable",
    "PhiTable",
    "selftest",
    "verify_3d_reflection",
    "verify_properties",
    "verify_t_intertwining",
    "verify_tetrahedron",
    "verify_theorem",
]

__version__ = "0.1.0"
