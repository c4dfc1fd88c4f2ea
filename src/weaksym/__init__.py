"""Mixed-state symmetry diagnostics for locally purified matrix product operators.

Numerical toolkit for 1D density matrices kept in locally purified form
rho = Tr_a |Psi><Psi|, with a single repeated site tensor A[i, a, :, :]
(physical leg i, ancilla leg a, virtual legs). Provides symmetry-twisted
transfer matrices, quantized topological responses of weak symmetries,
symmetry gaps, string order parameters with their decay exponents, and a
dense brute-force oracle for small rings. The decohered spin-1 AKLT chain
is built in as a one-parameter model family.
"""

from .errors import (
    CovarianceError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    GaplessTransferError,
    IndefiniteChargeError,
    NearDefectiveError,
    NonCommutingError,
    NotSymmetricError,
    SizeGuardError,
    UndefinedExponentError,
    ValidationError,
    WeaksymError,
)
from .numerics import ScaledPowers
from .symmetry import VirtualRep
from .model import LpdoTensor, Model, build_aklt_model, load_model, save_model
from .transfer import build_transfer, symmetry_gap, transfer_spectrum, twisted_spectrum
from .response import thermo_response
from .stringorder import decay_channel, normalized_string, string_order_series

__version__ = "0.1.0"
