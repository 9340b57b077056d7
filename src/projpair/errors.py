"""Exception types shared across the package."""


class ProjPairError(Exception):
    """Base class for all errors raised by this package."""


class ConductorCapExceeded(ProjPairError):
    """A computation would require a cyclotomic field beyond the configured cap."""


class DimensionMismatch(ProjPairError):
    """Matrix shapes are incompatible for the requested operation."""


class SingularMatrix(ProjPairError):
    """Inverse requested for a matrix with zero determinant."""


class GroupMismatch(ProjPairError):
    """Elements or characters of different groups were combined."""


class NotAlternating(ProjPairError):
    """A pairing expected to be alternating is not."""


class DegeneratePairing(ProjPairError):
    """A pairing expected to be nondegenerate has a radical."""


class NotIsomorphism(ProjPairError):
    """An integer matrix does not define a group isomorphism."""


class NotProjectivelyCommuting(ProjPairError):
    """A commutator is not a scalar matrix."""


class EmptyDecomposition(ProjPairError):
    """A direct-sum decomposition needs at least one summand."""


class InputNotDualPair(ProjPairError):
    """A construction requires a verified dual pair as input."""


class PreconditionViolated(ProjPairError):
    """An input group does not have the identity component the variant needs."""


class IncompatibleGluing(ProjPairError):
    """Gluing data fails the pairing-compatibility condition."""


class ShapeMismatch(ProjPairError):
    """Two group specifications do not live in the same ambient space."""


class IdentityComponentNotSemisimpleBlocks(ProjPairError):
    """An untwisted commutant is not a direct sum of full matrix algebras."""


class WitnessSearchUndecided(ProjPairError):
    """A twisted commutant of the untwisted dimension defeated the samples,
    and the exhaustive grid that would find its invertible element, or
    show it has none, is over the bound.  A tuple of any other dimension
    is dead without a search, so it never raises this."""
