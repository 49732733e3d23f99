"""Exception types shared across the toolkit."""


class PpalgError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatch(PpalgError):
    """Operands live over different scalar fields."""


class ShapeError(PpalgError):
    """Matrix or representation shapes are incompatible."""


class LoopError(PpalgError):
    """A quiver arrow has equal source and target."""


class ConnectivityError(PpalgError):
    """The underlying graph of a quiver is not connected."""


class RangeError(PpalgError):
    """A Dynkin rank or index is outside its legal range."""


class Inconclusive(PpalgError):
    """A search-based decision procedure exhausted its budget without a verdict."""


class InternalInvariantError(PpalgError):
    """A runtime self-check failed; indicates an implementation bug."""


class CocycleError(PpalgError):
    """An extension cocycle does not satisfy the closing condition."""


class NotInThetaD(PpalgError):
    """A stability parameter does not annihilate the imaginary root vector."""


class NotGeneric(PpalgError):
    """A stability parameter vanishes on a root, so chamber operations fail."""


class NotGenericStep(PpalgError):
    """A word application hit a zero parameter entry at some letter."""


class PreconditionViolated(PpalgError):
    """A caller-side torsion precondition failed (nonzero defect)."""


class DichotomyError(PpalgError):
    """An iterated shift left the allowed degree-0/1 stalk range."""


class SearchBudgetExceeded(PpalgError):
    """An enumeration would exceed the configured budget."""


class UnsupportedShape(PpalgError):
    """The operation is only implemented for thin inputs."""


class UsageError(PpalgError):
    """Malformed command-line, suite-dispatch or module JSON input."""
