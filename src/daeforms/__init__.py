"""Exact feedback-form decompositions for descriptor control systems.

The package decomposes triples [E, A, B] over Q into quasi P-feedback and
quasi PD-feedback forms via augmented Wong sequences, decouples those forms
by solving coupled Sylvester equations, and verifies fully canonical
P/PD-feedback forms against explicit transformation witnesses.  All
arithmetic is exact rational.
"""

from .linalg import (Mat, Q, Subspace, complement, image_basis, kernel_basis,
                     preimage, rref, solve_right)
from .pencils import minor_gcd, normal_rank, pencil
from .wong import (SystemTriple, WongReport, augmented_projection_check,
                   check_limit_identities, full_rank_all_finite, v_sequence, w_sequence,
                   wong_limits)
from .sylvester import TwoEqInstance, solve_two_equations
from .pfeedback import (PffData, PDTransform, PTransform, QpffBlockSizes, QpffDecomposition,
                        apply_p_transform, classify_controllability, compose_p,
                        compute_qpff, decouple_qpff, invert_p, make_canonical_blocks,
                        select_bases, verify_pff, verify_qpff)
from .pdfeedback import (PdffData, QpdffBlockSizes, apply_pd_transform, compute_qpdff,
                         decouple_qpdff, decoupled_wong_pattern_ok, pff_to_pdff,
                         verify_pdff, verify_qpdff)

__version__ = "0.1.0"
