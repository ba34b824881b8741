"""Exact Weil-operator calculus, Drinfeld-module torsion, and truncated
Anderson generating functions over small function fields."""

from .errors import (BadCharacteristic, NotATree, NotInvertibleModF,
                     NotTorsion, PoleOnModulus, SplittingFieldTooLarge,
                     TruncationTooShallow)
from .fields import FieldElem, FiniteField, embed, make_field
from .modules import (DrinfeldModule, ExpCoeffs, TorsionBasis, exp_coeffs,
                      exp_numerators, torsion_basis)
from .multipoly import MPoly, MPolyRing
from .pairing import diamond_moore, main_theorem_check, moore_det, weil_pairing
from .polys import (FracField, PolyRing, RatFunc, UniPoly, inv_mod,
                    is_irreducible_poly, poly_gcd)
from .series import (LaurentAtInfinity, laurent_at_infinity,
                     residue_at_infinity, residue_at_point)
from .tate import (QExpansion, RemainderPoly, TruncAGF, agf, agf_mod,
                   agf_remainder, ev_remainder, exp_qexp,
                   hasse_schmidt, hermite_jets, mp_coeffs,
                   remainder_via_interpolation)
from .twisted import TwistedPoly
from .weil_ops import (dual_map, katen_recursion, rank3_closed,
                       reduce_mod_star, star_action, tree_product,
                       weil_op2_quotient, weil_op_r)

__version__ = "0.1.0"
