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
from .numerics import Spectrum, kron, matrix_power_trace, spectral_decompose
from .symmetry import (
    GroupTable,
    SymmetryAction,
    VirtualRep,
    cocycle_commutator,
    endpoint_charge,
    extract_virtual_rep,
    verify_transformation_law,
)
from .model import (
    KrausChannel,
    LpdoTensor,
    Model,
    PureMpsTensor,
    aklt_channel,
    aklt_group,
    aklt_tensor,
    build_aklt_model,
    dilate,
    load_model,
    save_model,
    solve_ancilla_rep,
    spin1_operators,
)
from .transfer import (
    build_transfer,
    commutant_residual,
    flux_operator,
    symmetry_gap,
    transfer_spectrum,
    twisted_spectrum,
)
from .response import (
    ResponseResult,
    ancilla_response,
    conservation_check,
    finite_response,
    flux_response,
    thermo_response,
)
from .stringorder import (
    DecayFit,
    SelectionReport,
    StringOrderSeries,
    decay_exponent,
    normalized_string,
    selection_classify,
    string_order_ring,
    string_order_series,
    string_order_thermo,
)
from .oracle import (
    DenseDensity,
    apply_channel_exact,
    contract_full,
    density_from_state,
    expectation,
)

__version__ = "0.1.0"
