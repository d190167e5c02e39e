"""Signal reconstruction: closed form, error analysis, and polynomial filtering."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, EmptyVertexSetError, RankDeficientError
from .graphs import InnerProduct, _freeze, _integer, q_norm, vertex_set
from .spectral import SpectralBasis, bandlimit_split, compute_basis


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of a reconstruction.

    ``iters`` is 0 for the closed form and, for PoCS, the number of
    low-pass filter applications. ``residual_s`` is the largest absolute
    deviation between the reconstruction and the given samples. ``q_error``
    is filled only when a ground-truth signal was supplied, and
    ``last_rel_change`` only by PoCS.
    """

    x_hat: np.ndarray
    iters: int
    residual_s: float
    q_error: float | None = None
    last_rel_change: float | None = None

    def __post_init__(self):
        _freeze(self, "x_hat")


def _paired_samples(sampled, values, n: int):
    """Validate non-empty sample ids, and finite values of the same shape when given; sort both by id."""
    s = np.asarray(sampled)
    y = None if values is None else np.asarray(values, dtype=float)
    if s.ndim != 1 or (y is not None and y.shape != s.shape):
        raise DimensionMismatchError("sampled vertices and values must be equally long vectors")
    if s.size == 0:
        raise EmptyVertexSetError("at least one sample is required")
    if y is not None and not np.all(np.isfinite(y)):
        raise ValueError("sample values must be finite")
    return vertex_set(s, n), None if y is None else y[np.argsort(s, kind="stable")]


def _design(basis: SpectralBasis, sampled, band: int | None, values=None):
    """Validated sampled design ``(ids, values, root, a)``, ``1 <= band <= |S|`` (``None``: ``|S|``).

    ``root`` holds the square roots of the weights at the sorted ids and
    ``a = root * U_S[:, :band]`` is the weighted design matrix.
    """
    s, y = _paired_samples(sampled, values, basis.n)
    band = s.size if band is None else _integer(band, "band")
    if not 1 <= band <= s.size:
        raise ValueError(f"band must lie in [1, {s.size}], got {band}")
    root = np.sqrt(basis.inner.entries[s])
    return s, y, root, root[:, None] * basis.modes[s][:, :band]


def _svd(a: np.ndarray, compute_uv: bool = False):
    """Thin SVD of the weighted design ``a``, or ``RankDeficientError`` if ``sigma_min <= |S| eps sigma_max``.

    That one singularity rule is the default tolerance of ``numpy.linalg.matrix_rank``.
    """
    out = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    sigma = out[1] if compute_uv else out
    if not sigma[-1] > a.shape[0] * np.finfo(float).eps * sigma[0]:
        # LAPACK may return a zero singular value as -0.0
        raise RankDeficientError(abs(float(sigma[-1])))
    return out


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


def _fit(basis: SpectralBasis, a: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The least-squares synthesis ``rhs -> U_band a^+ rhs`` of weighted samples, and ``sigma_min(a)``.

    Solved by one thin SVD of ``a``, which does not square its condition
    number as a Gram matrix would; the synthesis applies it to any
    right-hand side, a vector or the columns of a matrix.
    """
    w, sigma, vt = _svd(a, compute_uv=True)
    left, right, modes = (w / sigma).T, vt.T, basis.modes[:, : a.shape[1]]
    return (lambda rhs: modes @ (right @ (left @ rhs))), float(sigma[-1])


def consistent_reconstruct(
    basis: SpectralBasis,
    sampled,
    values,
    band: int | None = None,
    truth=None,
) -> ReconstructionReport:
    """Weighted least-squares bandlimited reconstruction from vertex samples.

    Fits the first ``band`` modes to the samples in the inner product of the
    sampled subspace and synthesizes the full signal. With
    ``band == len(sampled)`` and a regular design the result interpolates
    the samples exactly.

    Parameters
    ----------
    sampled, values : array-like
        Sample locations and the measurement at each location, in matching
        order (any order; pairs are sorted internally).
    band : int, optional
        Number of low-frequency modes to fit. Defaults to the sample count.
    truth : array-like, optional
        Ground-truth signal; when given, the report carries the weighted
        norm of the reconstruction error.

    Raises
    ------
    RankDeficientError
        If the weighted design is singular: ``sigma_min <= |S| eps sigma_max``.
    """
    s, y, root, a = _design(basis, sampled, band, values)
    x_hat = _fit(basis, a)[0](root * y)
    residual = float(np.max(np.abs(x_hat[s] - y)))
    q_err = q_norm(x_hat - np.asarray(truth, dtype=float), basis.inner) if truth is not None else None
    return ReconstructionReport(x_hat, 0, residual, q_error=q_err)


def error_covariance(basis: SpectralBasis, sampled, band: int) -> np.ndarray:
    """Covariance of the reconstruction error under flat-spectrum sample noise.

    The trace of this matrix is the mean-squared-error design objective and
    its largest eigenvalue is the squared inverse of the smallest weighted
    design singular value. With ``F`` the fit of the identity, it is
    ``F F^T Q``.
    """
    _, _, _, a = _design(basis, sampled, band)
    f = _fit(basis, a)[0](np.eye(a.shape[0]))
    return (f @ f.T) * basis.inner.entries[None, :]


def verify_error_bound(basis: SpectralBasis, sampled, band: int, x):
    """Evaluate both sides of the worst-case model-mismatch bound.

    Reconstructs ``x`` from its own noiseless samples and returns
    ``(error, bound)``: the weighted reconstruction error, and the energy of
    the out-of-band part of ``x`` amplified by the inverse of the design's
    smallest singular value, both from one SVD. Up to roundoff,
    ``error <= bound``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise DimensionMismatchError(f"signal must have shape ({basis.n},)")
    s, _, root, a = _design(basis, sampled, band)
    fit, sigma = _fit(basis, a)
    _, high = bandlimit_split(basis, x, a.shape[1])
    return q_norm(x - fit(root * x[s]), basis.inner), q_norm(high, basis.inner) / sigma


@dataclass(frozen=True)
class PocsParams:
    """Settings for iterative reconstruction with a polynomial low-pass filter.

    ``alpha`` controls the sharpness of the logistic response
    ``1 / (1 + exp(alpha * (freq - omega)))``; when omitted it is set so the
    response falls from 0.92 to 0.08 over 10% of ``[0, lambda_max]``.
    ``cheb_order`` is the degree of the Chebyshev series of that response on
    ``[0, lambda_max]``; the series is evaluated at the graph frequencies.
    ``max_iters`` bounds the filter applications of one reconstruction;
    ``rel_tol`` bounds the weighted norm of the change one more
    filter-and-resample step would make, relative to the iterate's norm.
    """

    omega: float
    lambda_max: float
    alpha: float | None = None
    cheb_order: int = 60
    max_iters: int = 500
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.lambda_max > 0:
            raise ValueError(f"lambda_max must be positive, got {self.lambda_max}")
        if not 0.0 <= self.omega <= self.lambda_max:
            raise ValueError(f"omega must lie in [0, lambda_max] = [0, {self.lambda_max}], got {self.omega}")
        object.__setattr__(self, "cheb_order", _integer(self.cheb_order, "cheb_order"))
        if self.cheb_order < 0:
            raise ValueError(f"cheb_order must be nonnegative, got {self.cheb_order}")
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 2.0 * math.log(11.5) / (0.1 * self.lambda_max))
        elif not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def lowpass_response(freqs, omega: float, alpha: float) -> np.ndarray:
    """Logistic low-pass response ``1 / (1 + exp(alpha * (freq - omega)))``.

    Evaluated in an overflow-safe form for any argument sign.
    """
    t = -alpha * (np.asarray(freqs, dtype=float) - omega)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    grow = np.exp(t[~pos])
    out[~pos] = grow / (1.0 + grow)
    return out


def evaluate_cheb_series(coeffs, lambda_max: float, freqs) -> np.ndarray:
    """Clenshaw evaluation of a series ``c0/2 + sum_j c_j T_j`` at frequencies mapped onto [-1, 1].

    ``coeffs`` is one series of shape ``(terms,)``, giving an array of the
    shape of ``freqs``, or a stack of series of shape ``(rows, terms)``,
    giving ``(rows,) + freqs.shape`` in one pass. Every row equals the 1-D
    call on that row bit for bit: the recurrence is elementwise.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] == 0:
        raise ValueError(f"coefficients must be a non-empty (terms,) or (rows, terms) array, got shape {coeffs.shape}")
    t = 2.0 * np.asarray(freqs, dtype=float) / lambda_max - 1.0
    # terms first, each term broadcast against the frequencies
    terms = coeffs.T.reshape(coeffs.shape[::-1] + (1,) * t.ndim)
    b1 = np.zeros(coeffs.shape[:-1] + t.shape)
    b2 = np.zeros_like(b1)
    for c in terms[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return t * b1 - b2 + 0.5 * terms[0]


@functools.lru_cache(maxsize=8)
def _cheb_table(order: int, npts: int):
    """Node angles and the ``(order + 1) x npts`` cosine table, stored read-only."""
    theta = np.pi * (np.arange(npts) + 0.5) / npts
    table = np.cos(np.outer(np.arange(order + 1), theta))
    theta.flags.writeable = False
    table.flags.writeable = False
    return theta, table


def _cheb_coeffs(params: PocsParams) -> np.ndarray:
    """Chebyshev coefficients ``c`` of the logistic low-pass on ``[0, lambda_max]``, as ``c0/2 + sum_j c_j T_j``.

    Uses the cosine-transform construction on Chebyshev nodes; at least 1000
    quadrature nodes are used regardless of the series order.
    """
    npts = max(params.cheb_order + 1, 1000)
    theta, table = _cheb_table(params.cheb_order, npts)
    nodes = 0.5 * params.lambda_max * (np.cos(theta) + 1.0)
    vals = lowpass_response(nodes, params.omega, params.alpha)
    return (2.0 / npts) * (table @ vals)


def _spectral_filters(basis: SpectralBasis, coeffs: np.ndarray, lambda_max: float):
    """One filter function per row of a ``(rows, terms)`` stack of Chebyshev series, applied through the eigenbasis.

    Each series is evaluated at the frequencies, ``r = p(lambda)``, so its
    filter is ``x -> U (r * (U^T Q x))``: the same operator as the series in
    ``Q^-1 L`` up to roundoff. All responses come from one Clenshaw pass and
    the analysis matrix ``(Q U)^T`` is scaled once; the synthesis matrix
    ``U r`` of a row is scaled only when the generator reaches it, so a
    caller that takes the filters one by one holds one of them at a time.
    Each application costs two matrix-vector products.
    """
    responses = evaluate_cheb_series(coeffs, lambda_max, basis.frequencies)
    analysis = (basis.modes * basis.inner.entries[:, None]).T
    for response in responses:
        synthesis = basis.modes * response
        yield lambda x, synthesis=synthesis: synthesis @ (analysis @ x)


def pocs_reconstruct(
    variation,
    inner: InnerProduct,
    sampled,
    values,
    params: PocsParams,
    truth=None,
) -> ReconstructionReport:
    """Reconstruct by solving the fixed point of low-pass filtering and sample re-imposition.

    PoCS (Narang, Gadde & Ortega, ICASSP 2013) repeats: filter with the
    polynomial low-pass ``H``, restore the observed samples ``y`` on the
    sampled set ``S``. Its limit is the fixed point ``(I - H_UU) x_U = H_US y``
    on the unsampled set ``U``. This solves that system by conjugate gradients
    (Hestenes & Stiefel, 1952) in the ``Q_U`` inner product, in which
    ``I - H_UU`` is self-adjoint, starting from zero with the samples
    imposed. The CG residual ``(H x)_U - x_U`` is the change one more
    PoCS sweep would make; the solve stops once its weighted norm is at most
    ``rel_tol`` times the weighted norm of the iterate, or after
    ``max_iters`` filter applications. ``H`` is the Chebyshev series of the
    low-pass evaluated at the frequencies of :func:`compute_basis`
    ``(variation, inner)`` and applied through its modes, two matrix-vector
    products per application. The report's ``iters`` counts filter
    applications, and ``last_rel_change`` is the final relative residual.

    Slow convergence is not an error: the report then carries
    ``last_rel_change > rel_tol``. So does a curvature break: a search
    direction ``p`` with ``<p, (I - H_UU) p>_Q <= 0`` means ``H_UU`` has an
    eigenvalue of at least 1, where PoCS sweeps cannot converge either, and
    the current iterate is returned. The samples are never changed, so the
    reported residual on the sampled vertices is always zero.
    """
    return _pocs_from_basis(compute_basis(variation, inner), sampled, values, params, truth=truth)


def _pocs_from_basis(basis: SpectralBasis, sampled, values, params: PocsParams, truth=None) -> ReconstructionReport:
    """:func:`pocs_reconstruct` with the basis of ``(variation, inner)`` already computed."""
    s, y = _paired_samples(sampled, values, basis.n)
    (lowpass,) = _spectral_filters(basis, _cheb_coeffs(params)[None], params.lambda_max)
    return _pocs_solve(lowpass, basis.inner, s, y, params, truth)


def _pocs_solve(
    lowpass, inner: InnerProduct, ids: np.ndarray, values: np.ndarray, params: PocsParams, truth=None
) -> ReconstructionReport:
    """The CG solve of :func:`pocs_reconstruct` with its filter built and its samples validated.

    ``ids`` are sorted distinct vertices and ``values`` the finite samples in
    the same order; only ``params.rel_tol`` and ``params.max_iters`` are read.
    """
    q = inner.entries
    x = np.zeros(inner.n)
    x[ids] = values
    unsampled = np.ones(inner.n, dtype=bool)
    unsampled[ids] = False
    free = np.flatnonzero(unsampled)
    q_u = q[free]

    r = lowpass(x)[free] - x[free]
    iters = 1
    rr = float(np.dot(q_u * r, r))
    p = r.copy()
    padded = np.zeros(inner.n)
    while True:
        ref = math.sqrt(np.dot(x, q * x))  # q_norm(x, inner), without its checks
        delta = math.sqrt(rr)
        if delta <= params.rel_tol * ref or iters >= params.max_iters:
            break
        padded[free] = p
        ap = p - lowpass(padded)[free]
        iters += 1
        curvature = float(np.dot(q_u * p, ap))
        if not curvature > 0.0:  # H_UU has an eigenvalue >= 1: sweeps would not converge either
            break
        step = rr / curvature
        x[free] += step * p
        r -= step * ap
        rr_next = float(np.dot(q_u * r, r))
        p = r + (rr_next / rr) * p
        rr = rr_next
    rel_change = delta / ref if ref > 0.0 else (0.0 if delta == 0.0 else math.inf)

    residual = float(np.max(np.abs(x[ids] - values)))
    q_err = q_norm(x - np.asarray(truth, dtype=float), inner) if truth is not None else None
    return ReconstructionReport(x, iters, residual, q_error=q_err, last_rel_change=rel_change)
