"""Exception hierarchy shared across the package.

Every error raised by library code derives from RbxError so that callers
(most importantly the command line driver) can map failures to a uniform
exit status without enumerating modules.
"""


class RbxError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(RbxError):
    """Operands belong to different scalar fields."""


class UnsupportedFieldError(RbxError):
    """The requested field or field operation is not available."""


class DimensionMismatchError(RbxError):
    """Vector or matrix shapes are incompatible."""


class NotInvertibleError(RbxError):
    """A matrix or operator expected to be invertible is singular."""


class AlgebraMismatchError(RbxError):
    """Operands live over different algebras."""


class InvalidSpecError(RbxError):
    """Malformed builder parameters or input file."""


class MissingStructureError(RbxError):
    """The algebra lacks a structure (unit, quadratic data) the operation needs."""


class NotAutomorphismError(RbxError):
    """The supplied matrix is not an automorphism of the algebra."""


class InvalidDecompositionError(RbxError):
    """The two subspaces do not form a direct sum of subalgebras."""


class NotQuasiIdempotentError(RbxError):
    """The element e does not satisfy e*e = -lambda*e."""


class ZeroWeightError(RbxError):
    """The operation requires a nonzero weight."""


class NonzeroWeightError(RbxError):
    """The operation requires weight zero."""


class NotDerivationError(RbxError):
    """The map fails the weighted derivation identity."""


class NotRBError(RbxError):
    """The map fails the Rota-Baxter identity for the stated weight."""


class InvalidTripleError(RbxError):
    """The (S, I, D) data violates one of its structural constraints."""


class NoSquareRootError(RbxError):
    """A required square root does not exist in the field."""


class NotApplicableError(RbxError):
    """The operator falls outside the hypotheses of the requested transform."""


class InvalidWitnessError(RbxError):
    """The skew matrix witness fails its defining identities."""


class ZeroFirstRowError(RbxError):
    """The skew witness has a zero first row, outside the correspondence."""


class ConstraintViolatedError(RbxError):
    """Builder parameters violate a documented constraint."""


class SearchSpaceTooLargeError(RbxError):
    """The requested enumeration exceeds the feasibility guard."""


class LeafRejectedError(RbxError):
    """A search leaf fails the identity it was searched under.

    The search only reaches assignments that satisfy every pair equation,
    so this signals a fault in the search itself, never a property of the
    input.
    """


class OrbitEscapeError(RbxError):
    """An operator's image under the orbit group is not among the operators.

    The classified operators come from an exhaustive enumeration, which
    the moves must map into itself, so this signals a fault in the moves
    or in the enumeration, never a property of the input.
    """


class DegenerateFormError(RbxError):
    """The bilinear form is degenerate (or otherwise unusable)."""


class NotAssociativeError(RbxError):
    """The operation requires an associative algebra."""


class IsotropicBuildError(RbxError):
    """A candidate map fails one of the weight-zero correspondence conditions.

    ``condition`` names the failed requirement: "unit-image" (the unit must
    map to zero), "square" (the map must square to zero) or "norm" (the
    norm form must vanish on the image).
    """

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or f"rejected: {condition}")
