"""Typed domain errors raised across the package."""


class ScxError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidLabel(ScxError):
    """A vertex label is empty, contains whitespace, or has an unsupported type."""


class DuplicateVertexInFacet(ScxError):
    """The same vertex label occurs twice inside one facet."""


class VoidComplex(ScxError):
    """The operation is undefined for the void complex, which has no faces at all."""


class FaceNotInComplex(ScxError):
    """A face argument is not a face of the complex."""


class InvalidParameter(ScxError):
    """A numeric or keyword parameter is outside the accepted range."""


class TooLarge(ScxError):
    """The requested enumeration would be astronomically large."""


class NotAnEVector(ScxError):
    """The sequence fails the EVector checks, or its face counts fail the FVector ones.

    Passing them does not make it the e-vector of a complex: Kruskal-Katona is not checked.
    """


class NotAnHVector(ScxError):
    """The sequence fails the HVector checks, or its face counts fail the FVector ones.

    Passing them does not make it the h-vector of a complex: Kruskal-Katona is not checked.
    """


class DimensionMismatch(ScxError):
    """A multidegree's length does not match the ambient vertex count."""


class HypothesisNotMet(ScxError):
    """A check was invoked on inputs that do not satisfy its hypothesis."""


class InternalInconsistency(ScxError):
    """Two independent computations of the same quantity disagree (a bug)."""


class FacetFormatError(ScxError):
    """A facet-list file could not be parsed."""
