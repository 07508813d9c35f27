"""Properties checked by the tests that the library itself does not need."""

from daeforms import Mat, Subspace, SystemTriple, image_basis, kernel_basis, wong_limits
from daeforms.pfeedback import QpffBlockSizes


def kernel_in_w_limit(sys: SystemTriple) -> bool:
    """ker E is always absorbed by W*."""
    return wong_limits(sys).w_limit.contains(kernel_basis(sys.E))


def constrained_input_dim(sys: SystemTriple, sizes: QpffBlockSizes) -> int:
    """dim(im B n ({0}^{l1+l2} x Q^{l3})) for a decoupled QPFF."""
    top = sizes.l1 + sizes.l2
    bottom = Subspace(sys.l, Mat.identity(sys.l).sub(0, sys.l, top, sys.l))
    return image_basis(sys.B).intersect(bottom).dim
