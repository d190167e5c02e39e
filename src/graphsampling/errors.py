"""Exception types shared across the package."""


class GraphSamplingError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(GraphSamplingError, ValueError):
    """Operands have incompatible shapes."""


class EmptyVertexSetError(GraphSamplingError, ValueError):
    """An operation received an empty vertex set where one is required."""


class EmptyComplementError(GraphSamplingError, ValueError):
    """The complement of the sampling set is empty, so no cutoff exists."""


class ZeroDegreeError(GraphSamplingError):
    """A vertex has zero degree, so the degree inner product would be singular."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has zero degree")


class ZeroSignalError(GraphSamplingError):
    """The bandwidth proxy of the all-zero signal is undefined."""


class NotFiniteError(GraphSamplingError):
    """An eigendecomposition failed or produced non-finite values."""


class InvalidTargetError(GraphSamplingError, ValueError):
    """Requested sampling set size is outside [1, n)."""


class RankDeficientError(GraphSamplingError):
    """The sampling set cannot resolve the requested frequency band."""

    def __init__(self, sigma_min: float):
        self.sigma_min = sigma_min
        super().__init__(f"rank-deficient design: sigma_min = {sigma_min:.3e}")


class SingularGramError(GraphSamplingError):
    """The weighted sampled-mode matrix of a fit or of ``a_opt_metric`` is numerically singular.

    ``sigma_min`` is the smallest singular value of that matrix.
    """

    def __init__(self, sigma_min: float):
        self.sigma_min = sigma_min
        super().__init__(f"singular sampled design: sigma_min = {sigma_min:.3e}")


class DegenerateCellError(GraphSamplingError):
    """A Voronoi cell collapsed, which signals coincident sites."""

    def __init__(self, site: int):
        self.site = site
        super().__init__(f"Voronoi cell of site {site} is degenerate")
