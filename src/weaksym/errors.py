"""Exception types shared across the package, and the helper that names the stack member
an error refuses."""


class WeaksymError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WeaksymError, ValueError):
    """A model file or constructed object violates a structural invariant.

    The message starts with the offending field path when the error comes
    from deserialization, e.g. ``actions[1].u: not unitary``.
    """


class DimensionMismatchError(WeaksymError, ValueError):
    """Array shapes are inconsistent with each other or with the model."""


class NonCommutingError(WeaksymError, ValueError):
    """A group pair does not commute, or two virtual representations fail
    to commute projectively (their group commutator is not a scalar)."""


class NotSymmetricError(WeaksymError, ValueError):
    """The tensor is not invariant under the requested symmetry action."""


class DegenerateSpectrumError(WeaksymError, ValueError):
    """Leading transfer eigenvalue degenerate in modulus (non-injective)."""


class GaplessTransferError(WeaksymError, RuntimeError):
    """Thermodynamic-limit quantity undefined: symmetry gap below tolerance."""


class NearDefectiveError(WeaksymError, RuntimeError):
    """Eigenvector matrix too ill-conditioned for a reliable left/right pairing."""


class UndefinedExponentError(WeaksymError, RuntimeError):
    """Decay exponent undefined: string order underflows or cancels exactly."""


class SizeGuardError(WeaksymError, ValueError):
    """Dense oracle refused: one of its arrays would exceed ``MAX_AMPLITUDES`` entries."""


class IndefiniteChargeError(WeaksymError, ValueError):
    """Endpoint operator is not an eigenoperator of the symmetry conjugation."""


def _named(exc, lpdo):
    """``exc``, raised by a stack for its member ``lpdo`` alone, with that ``LpdoTensor``
    attached as ``exc.lpdo``: the caller that isolates a stack's rows
    (:func:`weaksym.cli._isolated`) then knows which rows to give it by identity, not
    by a position that a stack of memo misses or a retried member would shift."""
    exc.lpdo = lpdo
    return exc
