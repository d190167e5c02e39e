"""Cutoff estimation and greedy sampling set selection via bandwidth proxies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyVertexSetError, InvalidTargetError, ZeroSignalError
from .graphs import InnerProduct, _freeze, _integer, q_norm, vertex_set
from .spectral import SpectralBasis, compute_basis

DEFAULT_PROXY_ORDER = 3


def _check_order(k: int) -> int:
    k = _integer(k, "proxy order k")
    if k < 1:
        raise ValueError(f"proxy order k must be a positive integer, got {k}")
    return k


def _check_target(m: int, n: int) -> int:
    m = _integer(m, "sampling set size m")
    if not 1 <= m < n:
        raise InvalidTargetError(f"sampling set size must be in [1, {n}), got {m}")
    return m


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


def _eigenpairs(basis: SpectralBasis, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(V, d)`` with ``B = Q^{-1/2} L Q^{-1/2} = V diag(lam) V^T`` and ``d = lam ** (2k)``.

    ``V = Q^{1/2} U`` is orthogonal, so ``(V * d) @ V.T`` is ``B^{2k}``: the
    Gram matrix of the k-step proxy operator in coordinates where the inner
    product is Euclidean.
    """
    return basis.modes * np.sqrt(basis.inner.entries)[:, None], basis.frequencies ** (2 * k)


def _omega(power: float, k: int) -> float:
    """Cutoff from an eigenvalue of ``B^{2k}``, whose roundoff may be negative."""
    return max(float(power), 0.0) ** (1.0 / (2.0 * k))


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


def _largest_root(w: np.ndarray, d: np.ndarray) -> int:
    """Row of ``w = V[rows] ** 2`` whose deletion leaves ``V diag(d) V^T`` the largest smallest eigenvalue.

    ``d`` ascends. By interlacing that eigenvalue lies in ``[d_0, d_1]``, where
    it is the root of the increasing secular function
    ``f_i(mu) = sum_j w_ij / (d_j - mu)`` (Golub, "Some modified matrix
    eigenvalue problems", SIAM Review 1973). One bisection of a scalar
    bracket finds the largest root: each halving costs one matrix-vector
    product and keeps the rows with ``f_i < 0``, whose roots lie above it. It
    stops at width ``4 eps max(|d_0|, |d_1|)`` plus the ``eps^2 d_max`` noise
    floor, so every midpoint lies strictly between two poles, and returns the
    lowest row left: rows within that width tie.
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
    return int(rows[0])


def _deleted_root(vals: np.ndarray, vecs: np.ndarray, rows: list, lo: float) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of ``G = vecs diag(vals) vecs^T`` with ``rows`` and their columns deleted.

    ``vals`` ascends. An eigenvector vanishing on the r deleted rows is
    ``vecs y`` with ``W y = 0``, ``W = vecs[rows]``, so the eigenvalue ``mu`` is
    the smallest root of ``det(W (D - mu)^-1 W^T) = 0`` (Golub 1973). By
    interlacing it lies in ``[lo, vals_r]``, where ``lo`` is any lower bound,
    such as the root of a subset of ``rows``. The modes above
    ``vals_r (1 + 1e-3)`` (set H) have no pole near that bracket and are
    eliminated into ``M_H(mu) = W_H (D_H - mu)^-1 W_H^T``; the rest (set L)
    stay in the bordered matrix
    ``K(mu) = [[D_L - mu, s W_L^T], [s W_L, -s^2 M_H(mu)]]``, scaled by ``s`` so
    that both blocks are of the size of ``vals_r``. By Haynsworth's inertia
    additivity ``G`` with ``rows`` deleted has ``n_-(K(mu)) - r`` eigenvalues
    below ``mu``, which is ``#{vals < mu} - n_-(W (D - mu)^-1 W^T)``, so ``mu``
    is the zero of the (r+1)-th smallest eigenvalue ``kappa(mu)`` of ``K``,
    which does not increase, and never another root of the determinant.
    Newton steps on ``kappa`` are kept inside the bracket its sign
    certifies. They start from the secant of ``h(mu) = g(mu) - mu``, where
    ``g(mu)``, the smallest eigenvalue of ``D_L + W_L^T M_H(mu)^-1 W_L``, is
    the root with ``M_H`` frozen at ``mu``. As ``M_H`` grows with ``mu``,
    ``g`` falls, so ``g(lo)`` bounds the root above and ``g(g(lo))`` below;
    the secant through ``lo`` and ``g(lo)``, clamped between the two, costs
    two small ``eigvalsh`` calls. The steps then take typically 2 ``eigh``
    calls of size ``|L| + r``: 1.9 per pick on a Voronoi instance at
    n = 100 and 2.0 at n = 400, where a start at ``g(lo)`` took 2.6 and 2.9.
    A last step below 1e-8 relative is applied without another call. A root
    on a held eigenvalue whose eigenspace holds a combination vanishing on
    ``rows`` (star centre, disconnected triangles) needs no special case:
    there ``t = 0``.

    Returns the root and the eigenvector ``vecs y``, with exact zeros at
    ``rows``: ``y_L`` and ``t`` are the eigenvector of ``K``, and
    ``y_H = -(D_H - mu)^-1 W_H^T s t``.
    """
    eps = float(np.finfo(float).eps)
    r = len(rows)
    top = float(vals[r])
    n_low = int(np.searchsorted(vals, top + 1e-3 * abs(top), side="right"))
    scale = max(abs(float(vals[0])), abs(top)) or 1.0
    w = vecs[rows]
    w_low, w_high, d_high = w[:, :n_low], w[:, n_low:], vals[n_low:]
    bordered = np.zeros((n_low + r, n_low + r))  # eigh reads the lower triangle
    bordered[n_low:, :n_low] = scale * w_low
    diag = np.arange(n_low)
    lo, hi = min(max(float(lo), float(vals[0])), top), top
    tol = 4.0 * eps * max(abs(lo), abs(hi)) + eps * eps * abs(float(vals[-1]))

    def frozen_root(at: float) -> float:
        """The root with ``M_H`` frozen at ``at``: it falls as ``at`` grows, and equals ``at`` at the root."""
        frozen = np.linalg.solve((w_high / (d_high - at)) @ w_high.T, w_low)
        return float(np.linalg.eigvalsh(np.diag(vals[:n_low]) + w_low.T @ frozen)[0])

    try:
        upper = min(max(frozen_root(lo), lo), hi)
        lower = min(max(frozen_root(upper), lo), upper)
        drop = (upper - lo) - (lower - upper)  # h(lo) - h(g(lo))
        mu = upper if drop <= 0.0 else min(max(lo + (upper - lo) ** 2 / drop, lower), upper)
    except np.linalg.LinAlgError:  # r deleted rows that the modes in H cannot hold
        mu = hi
    while True:
        inv = 1.0 / (d_high - mu)
        bordered[diag, diag] = vals[:n_low] - mu
        bordered[n_low:, n_low:] = (-scale * scale) * ((w_high * inv) @ w_high.T)
        eig, u = np.linalg.eigh(bordered)
        kappa, y_low, t = eig[r], u[:n_low, r], scale * u[n_low:, r]
        y_high = -(t @ w_high) * inv
        if kappa >= 0.0:
            lo = mu
        else:
            hi = mu
        if abs(kappa) <= 8.0 * eps * max(-eig[0], eig[-1]) or hi - lo <= tol:
            break
        step = kappa / (y_low @ y_low + y_high @ y_high)
        if abs(step) <= 1e-8 * abs(mu) and lo <= mu + step <= hi:
            mu += step
            break
        mu += step
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    z = vecs[:, :n_low] @ y_low + vecs[:, n_low:] @ y_high
    z[rows] = 0.0
    return mu, z


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
    unsampled vertices. The selector holds one eigendecomposition of size
    ``p``: first that of ``B^{2k}`` itself, then that of the restriction it
    last decomposed. Every pick deletes the ``r`` rows picked since it, and
    the r x r secular equation of the held pair gives the new eigenpair in
    typically 2 iterations of O(r^2 p + r^3). Once ``r^2 > p`` the
    restriction is decomposed afresh from ``B^{2k}`` and held in turn,
    unless that would serve at most one more pick: about one pick in
    ``sqrt(p)``, so 11 decompositions for m = 90 at n = 100 and 3 for
    m = 80 at n = 400. The crossover is measured with one BLAS thread: a
    block step costs 0.12-0.33 ms at p <= 100 (mean 0.19 ms) against 0.9 ms
    for an ``eigh`` of size 89, and 0.18-0.83 ms at p <= 400 (mean 0.43 ms)
    against 18.5 ms for one of size 389; timed against fixed block lengths
    on those instances, ``r^2 > p`` is within 5% of the cheapest at both
    sizes. Cutoffs of the first block's picks, the first ``sqrt(n)``,
    are exact to roundoff; later ones inherit the ``eps ||B^{2k}||`` floor
    of the squared restriction they delete from. Deterministic for fixed
    inputs.

    Raises
    ------
    InvalidTargetError
        If ``m`` is not in ``[1, n)``.
    ValueError
        If ``m`` or ``k`` is not an integer, or ``k`` is not positive.
    """
    return _greedy_from_basis(compute_basis(variation, inner), m, k)


def _greedy_from_basis(basis: SpectralBasis, m: int, k: int) -> SamplingResult:
    """:func:`greedy_select` for callers that already hold the basis of the variation operator."""
    k = _check_order(k)
    inner = basis.inner
    n = inner.n
    m = _check_target(m, n)
    q = inner.entries
    v, d = _eigenpairs(basis, k)
    # a caller that handed the basis over, holding no reference, frees its modes before the first refresh
    del basis
    # B^{2k} on the vertices `held`, formed at the first refresh and cut down at each one
    gram = None
    # (vals, vecs): eigenpairs of B^{2k} on the vertices `held`, whose rows `rows` are picked since
    held, vals, vecs, rows = np.arange(n), d, v, []
    i, mu = _largest_root(v * v, d), float(d[0])
    order, cutoffs = [], []
    while True:
        order.append(int(held[i]))
        rows.append(i)
        # a refresh that would serve at most one more pick costs more than the block steps it saves
        if len(rows) ** 2 > len(held) and len(order) < m - 1:
            if gram is None:
                gram, v = (v * d) @ v.T, None
            # the held pair is released before the refresh replaces it, and the Gram before it is decomposed
            vals = vecs = None
            keep = np.delete(np.arange(len(held)), rows)
            held, rows = held[keep], []
            gram = gram[np.ix_(keep, keep)]
            vals, vecs = np.linalg.eigh(gram)
            mu, z = float(vals[0]), vecs[:, 0]
        else:
            mu, z = _deleted_root(vals, vecs, rows, mu)
        cutoffs.append(_omega(mu, k))
        if len(order) == m:
            break
        i = int(np.argmax(np.abs(z / np.sqrt(q[held]))))
    return SamplingResult(np.asarray(order), np.asarray(cutoffs))
