"""Exception types shared across the package."""


class GraphSamplingError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(GraphSamplingError, ValueError):
    """Operands have incompatible shapes."""


class EmptyVertexSetError(GraphSamplingError, ValueError):
    """A required vertex set is empty: no samples, or no unsampled vertex to take a cutoff on."""


class ZeroDegreeError(GraphSamplingError):
    """A vertex has zero degree, so the degree inner product would be singular."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has zero degree")


class ZeroSignalError(GraphSamplingError):
    """The bandwidth proxy of the all-zero signal is undefined."""


class NotFiniteError(GraphSamplingError):
    """A computation produced non-finite values, or an eigensolver failed to converge."""


class InvalidTargetError(GraphSamplingError, ValueError):
    """Requested sampling set size is outside [1, n)."""


class RankDeficientError(GraphSamplingError):
    """The weighted design ``Q_S^{1/2} U_S[:, :band]`` is singular: ``sigma_min <= |S| eps sigma_max``.

    The sampling set then cannot resolve the requested frequency band.
    ``sigma_min`` is the design's smallest singular value.
    """

    def __init__(self, sigma_min: float):
        self.sigma_min = sigma_min
        super().__init__(f"rank-deficient design: sigma_min = {sigma_min:.3e}")


# the former name, an alias only because perfbench/workloads.py and acceptance gate 05 import it
SingularGramError = RankDeficientError


class DegenerateCellError(GraphSamplingError):
    """A Voronoi cell collapsed, which signals coincident sites."""

    def __init__(self, site: int):
        self.site = site
        super().__init__(f"Voronoi cell of site {site} is degenerate")
