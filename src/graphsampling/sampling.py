"""Cutoff estimation and greedy sampling set selection via bandwidth proxies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyComplementError,
    InvalidTargetError,
    RankDeficientError,
    SingularGramError,
    ZeroSignalError,
)
from .graphs import InnerProduct, _freeze, complement, q_norm, vertex_set
from .reconstruction import _design, _gram, _sigma_min
from .spectral import SpectralBasis, compute_basis

DEFAULT_PROXY_ORDER = 3


def _check_order(k: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError("proxy order must be a positive integer")
    return k


def spectral_proxy(variation, inner: InnerProduct, x, k: int = DEFAULT_PROXY_ORDER) -> float:
    """Bandwidth estimate of a signal without an eigendecomposition.

    Applies the scaled variation operator ``k`` times and returns the k-th
    root of the weighted norm ratio. On an eigenmode this equals the mode
    frequency exactly; on mixtures it increases toward the top occupied
    frequency as ``k`` grows.

    Raises
    ------
    ZeroSignalError
        If ``x`` is the zero signal.
    """
    k = _check_order(k)
    x = np.asarray(x, dtype=float)
    ref = q_norm(x, inner)
    if ref == 0.0:
        raise ZeroSignalError("bandwidth proxy of the zero signal is undefined")
    z = x
    for _ in range(k):
        z = (variation @ z) / inner.entries
    return float((q_norm(z, inner) / ref) ** (1.0 / k))


def proxy_operator(variation, inner: InnerProduct, keep, k: int = DEFAULT_PROXY_ORDER) -> np.ndarray:
    """Restriction of the k-step operator to signals supported on ``keep``.

    Column ``j`` maps a unit impulse at ``keep[j]`` through the scaled
    operator power, expressed in coordinates where the inner product is
    Euclidean. The smallest singular value of this matrix, raised to
    ``1/k``, is the cutoff estimate of the complement of ``keep``.
    """
    k = _check_order(k)
    keep = vertex_set(keep, inner.n)
    if keep.size == 0:
        raise EmptyComplementError("the kept vertex set is empty")
    q = inner.entries
    z = np.asarray(variation, dtype=float) / q[:, None]
    scaled = np.sqrt(q)[:, None] * np.linalg.matrix_power(z, k)
    return scaled[:, keep] / np.sqrt(q[keep])[None, :]


@dataclass(frozen=True)
class CutoffEstimate:
    """A cutoff frequency together with the signal that attains it.

    ``minimizer`` has unit Euclidean norm and is exactly zero on the
    sampled vertices.
    """

    omega: float
    minimizer: np.ndarray

    def __post_init__(self):
        _freeze(self, "minimizer")


def cutoff_frequency(
    variation,
    inner: InnerProduct,
    sampled,
    k: int = DEFAULT_PROXY_ORDER,
) -> CutoffEstimate:
    """Smallest proxy bandwidth among signals vanishing on ``sampled``.

    Computed from the eigendecomposition of the symmetrized operator ``B``
    and the smallest eigenpair of ``B^{2k}`` restricted to the unsampled
    vertices, the same route each growth step of :func:`greedy_select` takes.
    """
    k = _check_order(k)
    keep = complement(sampled, inner.n)
    if keep.size == 0:
        raise EmptyComplementError("every vertex is sampled; no cutoff exists")
    v, d = _eigenpairs(compute_basis(variation, inner), k)
    return _restricted_cutoff((v * d) @ v.T, inner, keep, k)


def _eigenpairs(basis: SpectralBasis, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(V, d)`` with ``B = Q^{-1/2} L Q^{-1/2} = V diag(lam) V^T`` and ``d = lam ** (2k)``.

    ``V = Q^{1/2} U`` is orthogonal, so ``(V * d) @ V.T`` is ``B^{2k}``: the
    Gram matrix of the k-step proxy operator in coordinates where the inner
    product is Euclidean.
    """
    return basis.modes * np.sqrt(basis.inner.entries)[:, None], basis.frequencies ** (2 * k)


def _restricted_cutoff(gram: np.ndarray, inner: InnerProduct, keep: np.ndarray, k: int) -> CutoffEstimate:
    """Cutoff from the smallest eigenpair of ``gram = B^{2k}`` restricted to ``keep``.

    The eigenvector lives in Euclidean coordinates; dividing by
    ``sqrt(q[keep])`` maps it back to a signal on the graph.
    """
    vals, vecs = np.linalg.eigh(gram[np.ix_(keep, keep)])
    omega = max(float(vals[0]), 0.0) ** (1.0 / (2.0 * k))
    phi = np.zeros(inner.n)
    phi[keep] = _canonical_sign(vecs[:, 0] / np.sqrt(inner.entries[keep]))
    return CutoffEstimate(omega, phi)


def _canonical_sign(phi: np.ndarray) -> np.ndarray:
    """Unit-norm copy of ``phi`` whose first entry above 1e-12 in magnitude is positive."""
    phi = phi / np.linalg.norm(phi)
    lead = np.argmax(np.abs(phi) > 1e-12)
    return -phi if phi[lead] < 0.0 else phi


@dataclass(frozen=True)
class SamplingResult:
    """Vertices in selection order and the cutoff reached after each addition."""

    order: np.ndarray
    cutoffs: np.ndarray

    def __post_init__(self):
        order = _freeze(self, "order", np.intp)
        cutoffs = _freeze(self, "cutoffs")
        if order.ndim != 1 or order.shape != cutoffs.shape:
            raise ValueError("order and cutoffs must be 1-d and equally long")
        if np.unique(order).size != order.size:
            raise ValueError("selected vertices must be distinct")

    def head(self, m: int) -> np.ndarray:
        """The first ``m`` selected vertices as a sorted index array."""
        return np.sort(self.order[:m])


def _best_singleton(v: np.ndarray, d: np.ndarray, inner: InnerProduct, k: int) -> tuple[int, CutoffEstimate]:
    """Exact cutoff of every singleton sampling set from one eigendecomposition.

    With ``(V, d)`` from :func:`_eigenpairs`, the cutoff of ``{i}`` is the
    (2k)-th root of the smallest eigenvalue of ``B^{2k} = V diag(d) V^T``
    with row and column ``i`` deleted. By interlacing that
    eigenvalue lies in ``[d_0, d_1]``, where it is the root of the secular
    equation ``sum_j V_ij^2 / (d_j - mu) = 0`` (Golub, "Some modified matrix
    eigenvalue problems", SIAM Review 1973). The root is bracketed by
    bisection for all vertices at once, to ``2 eps`` relative accuracy or to
    the ``eps^2 d_max`` noise floor of the eigendecomposition.

    Returns the vertex with the largest cutoff (lowest id on ties) and its
    estimate.
    """
    w = v * v
    n = inner.n
    eps = np.finfo(float).eps
    floor = max(eps * eps * float(d[-1]), np.finfo(float).tiny)

    def tol(hi):
        return 2.0 * eps * hi + floor

    lo = np.full(n, d[0])
    hi = np.full(n, d[1])
    active = np.flatnonzero(hi - lo > tol(hi))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        # every pole lies outside the open bracket, so no term divides by zero
        secular = (w[active] / (d[None, :] - mid[:, None])).sum(axis=1)
        below = secular < 0.0
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > tol(hi[active])]
    mu = 0.5 * (lo + hi)

    best = int(np.argmax(mu))
    gap = d - mu[best]
    hit = np.flatnonzero(np.abs(gap) <= tol(hi[best]))
    row = v[best]
    if hit.size:
        # mu equals an eigenvalue: the minimizer lies in that eigenspace, as
        # the combination of its modes that vanishes at the deleted vertex
        r = row[hit]
        j = int(np.argmin(np.abs(r)))
        coeffs = np.eye(hit.size)[j]
        if hit.size > 1 and r @ r > 0.0:
            coeffs = coeffs - r * (r[j] / (r @ r))
        z = v[:, hit] @ coeffs
    else:
        z = v @ (row / gap)
    phi = z / np.sqrt(inner.entries)
    phi[best] = 0.0
    omega = max(float(mu[best]), 0.0) ** (1.0 / (2.0 * k))
    return best, CutoffEstimate(omega, _canonical_sign(phi))


def greedy_select(
    variation,
    inner: InnerProduct,
    m: int,
    k: int = DEFAULT_PROXY_ORDER,
) -> SamplingResult:
    """Grow a sampling set of size ``m`` by maximizing the cutoff estimate.

    Both phases read one eigendecomposition of the symmetrized operator
    ``B``. The first vertex is chosen by scoring every singleton set
    exactly: the minimizer for the empty set is the constant kernel mode,
    whose entries carry no per-vertex information. All ``n`` singleton
    cutoffs come from a vectorized secular-equation solve, so this phase
    costs O(n^3). Each subsequent vertex is the one with the largest
    magnitude in the current minimizer, ties going to the lowest vertex id;
    its cutoff comes from ``B^{2k}`` restricted to the unsampled vertices.
    Deterministic for fixed inputs.

    Raises
    ------
    InvalidTargetError
        If ``m`` is not in ``[1, n)``.
    """
    return _greedy_from_basis(compute_basis(variation, inner), m, k)


def _greedy_from_basis(basis: SpectralBasis, m: int, k: int) -> SamplingResult:
    """:func:`greedy_select` for callers that already hold the basis of the variation operator."""
    k = _check_order(k)
    inner = basis.inner
    n = inner.n
    m = int(m)
    if not 1 <= m < n:
        raise InvalidTargetError(f"sampling set size must be in [1, {n}), got {m}")
    v, d = _eigenpairs(basis, k)
    best_vertex, current = _best_singleton(v, d, inner, k)
    order = [best_vertex]
    cutoffs = [current.omega]
    gram = (v * d) @ v.T if m > 1 else None
    while len(order) < m:
        scores = np.abs(current.minimizer)
        scores[order] = -1.0
        nxt = int(np.argmax(scores))
        order.append(nxt)
        current = _restricted_cutoff(gram, inner, complement(order, n), k)
        cutoffs.append(current.omega)
    return SamplingResult(np.asarray(order), np.asarray(cutoffs))


def e_opt_metric(basis: SpectralBasis, sampled, band: int) -> float:
    """Smallest singular value of the weighted sampled-mode matrix.

    Larger is better: its inverse bounds both the noise amplification and
    the model-mismatch amplification of reconstruction from ``sampled``
    using the first ``band`` modes.

    Raises
    ------
    RankDeficientError
        If the value falls below 1e-12, i.e. the sampling set cannot see
        the band.
    """
    _, _, u_s, q_s = _design(basis, sampled, band)
    sigma = _sigma_min(u_s, q_s)
    if sigma < 1e-12:
        raise RankDeficientError(sigma)
    return sigma


def a_opt_metric(basis: SpectralBasis, sampled, band: int) -> float:
    """Trace of the inverse Gram matrix: the mean-squared-error design objective.

    Raises
    ------
    SingularGramError
        If the Gram matrix of the sampled modes is numerically singular.
    """
    _, _, u_s, q_s = _design(basis, sampled, band)
    w = np.linalg.eigvalsh(_gram(u_s, q_s))
    if w[0] <= 1e-13 * max(float(w[-1]), 1e-300):
        raise SingularGramError(float(np.sqrt(max(w[0], 0.0))))
    return float(np.sum(1.0 / w))
