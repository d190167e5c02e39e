"""Cutoff estimation and greedy sampling set selection via bandwidth proxies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyVertexSetError, InvalidTargetError, ZeroSignalError
from .graphs import InnerProduct, _freeze, complement, q_norm, vertex_set
from .reconstruction import _design, _svd
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
        raise EmptyVertexSetError("the kept vertex set is empty")
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
    vertices: the route the even-size growth steps of :func:`greedy_select`
    take, whose odd-size steps reach the same eigenvalue through the
    secular equation.
    """
    k = _check_order(k)
    keep = complement(sampled, inner.n)
    if keep.size == 0:
        raise EmptyVertexSetError("every vertex is sampled; no cutoff exists")
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
    phi = np.zeros(inner.n)
    phi[keep] = _canonical_sign(vecs[:, 0] / np.sqrt(inner.entries[keep]))
    return CutoffEstimate(_omega(vals[0], k), phi)


def _omega(power: float, k: int) -> float:
    """Cutoff from an eigenvalue of ``B^{2k}``, whose roundoff may be negative."""
    return max(float(power), 0.0) ** (1.0 / (2.0 * k))


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


def _largest_root(w: np.ndarray, d: np.ndarray) -> tuple[int, float, float]:
    """Row of ``w = V[rows] ** 2`` whose deletion leaves ``V diag(d) V^T`` the largest smallest eigenvalue.

    ``d`` ascends. By interlacing that eigenvalue lies in ``[d_0, d_1]``, where
    it is the root of the increasing secular function
    ``f_i(mu) = sum_j w_ij / (d_j - mu)`` (Golub, "Some modified matrix
    eigenvalue problems", SIAM Review 1973). One bisection of a scalar
    bracket finds the largest root: each halving costs one matrix-vector
    product and keeps the rows with ``f_i < 0``, whose roots lie above it. It
    stops at width ``tol = 4 eps max(|d_0|, |d_1|)`` plus the ``eps^2 d_max``
    noise floor, so every midpoint lies strictly between two poles. Returns
    the lowest row left (rows within ``tol`` tie), the midpoint and ``tol``.
    """
    eps = float(np.finfo(float).eps)
    lo, hi = float(d[0]), float(d[1])
    tol = 4.0 * eps * max(abs(lo), abs(hi)) + max(eps * eps * float(d[-1]), float(np.finfo(float).tiny))
    rows = np.arange(len(w))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f = w.dot(1.0 / (d - mid))
        signs = f.tolist()  # plain floats: cheaper to compare than a numpy reduction
        if min(signs) < 0.0:
            lo = mid
            if max(signs) >= 0.0:
                w, rows = w[f < 0.0], rows[f < 0.0]
        else:
            hi = mid
    return int(rows[0]), 0.5 * (lo + hi), tol


def _deleted_minimizer(v: np.ndarray, d: np.ndarray, i: int, mu: float, tol: float) -> np.ndarray:
    """Eigenvector for the root ``mu`` of row ``i`` (see :func:`_largest_root`), with a zero at ``i``.

    Away from the poles it is the resolvent column ``V (V_i / (d - mu))``.
    When ``mu`` is within ``tol`` of an eigenvalue (star centre, disconnected
    triangles) it lies in that eigenspace, as the combination of its modes
    that vanishes at ``i``.
    """
    gap = d - mu
    hit = np.flatnonzero(np.abs(gap) <= tol)
    row = v[i]
    if hit.size:
        r = row[hit]
        j = int(np.argmin(np.abs(r)))
        coeffs = np.eye(hit.size)[j]
        if hit.size > 1 and r @ r > 0.0:
            coeffs = coeffs - r * (r[j] / (r @ r))
        z = v[:, hit] @ coeffs
    else:
        z = v @ (row / gap)
    z[i] = 0.0
    return z


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
    whose entries carry no per-vertex information. One bisection of the
    secular equation over all ``n`` singletons finds the best, at O(n^2)
    per halving. Each subsequent vertex is the one with the largest
    magnitude in the current minimizer, ties going to the lowest vertex id;
    its cutoff is the smallest eigenvalue of ``B^{2k}`` restricted to the
    unsampled vertices. At even sizes that restriction is eigendecomposed
    afresh; at odd sizes it is the last decomposed restriction with one more
    row and column deleted, whose eigenpair the same secular equation gives
    in O(p^2). The growth phase thus runs ``m // 2`` eigendecompositions.
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
    q = inner.entries
    v, d = _eigenpairs(basis, k)
    gram = (v * d) @ v.T if m > 1 else None
    i, mu, tol = _largest_root(v * v, d)
    vals, vecs, keep = d, v, np.arange(n)
    order, cutoffs = [], []
    while True:
        # odd size: row i deleted from the held eigenpairs (vals, vecs) of B^{2k} on keep
        scores = np.abs(_deleted_minimizer(vecs, vals, i, mu, tol) / np.sqrt(q[keep]))
        order.append(int(keep[i]))
        cutoffs.append(_omega(mu, k))
        keep, scores = np.delete(keep, i), np.delete(scores, i)
        if len(order) == m:
            break
        # even size: the restriction decomposed afresh, and held for the next pick
        i = int(np.argmax(scores))
        order.append(int(keep[i]))
        keep = np.delete(keep, i)
        vals, vecs = np.linalg.eigh(gram[np.ix_(keep, keep)])
        cutoffs.append(_omega(vals[0], k))
        if len(order) == m:
            break
        i = int(np.argmax(np.abs(vecs[:, 0] / np.sqrt(q[keep]))))
        _, mu, tol = _largest_root(vecs[i : i + 1] ** 2, vals)
    return SamplingResult(np.asarray(order), np.asarray(cutoffs))


def e_opt_metric(basis: SpectralBasis, sampled, band: int) -> float:
    """Smallest singular value of the weighted sampled-mode matrix.

    Larger is better: its inverse bounds both the noise amplification and
    the model-mismatch amplification of reconstruction from ``sampled``
    using the first ``band`` modes.

    Raises
    ------
    RankDeficientError
        If the sampling set cannot see the band: ``sigma_min <= |S| eps sigma_max``.
    """
    a = _design(basis, sampled, band)[3]
    return float(_svd(a)[-1])


def a_opt_metric(basis: SpectralBasis, sampled, band: int) -> float:
    """Mean-squared-error design objective ``sum sigma^-2`` over the weighted design's singular values.

    Raises
    ------
    RankDeficientError
        If the design is singular: ``sigma_min <= |S| eps sigma_max``.
    """
    a = _design(basis, sampled, band)[3]
    return float(np.sum(_svd(a) ** -2.0))
