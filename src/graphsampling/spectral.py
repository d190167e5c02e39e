"""Fourier bases of graphs under weighted inner products."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotFiniteError
from .graphs import InnerProduct, _freeze, _integer


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal graph Fourier modes and their frequencies.

    Column ``l`` of ``modes`` is the mode with frequency ``frequencies[l]``;
    orthonormality is with respect to ``inner``. Frequencies are sorted
    ascending, with tiny negative eigenvalues clamped to zero.
    """

    modes: np.ndarray
    frequencies: np.ndarray
    inner: InnerProduct

    def __post_init__(self):
        _freeze(self, "modes")
        _freeze(self, "frequencies")

    @property
    def n(self) -> int:
        return self.modes.shape[0]


def _symmetrized(variation: np.ndarray, inner: InnerProduct) -> np.ndarray:
    """The self-adjoint operator ``B = Q^{-1/2} M Q^{-1/2}`` of a checked variation matrix."""
    m = np.asarray(variation, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("variation matrix must be square")
    if m.shape[0] != inner.n:
        raise DimensionMismatchError(
            f"variation is {m.shape[0]}x{m.shape[0]} but inner product has n = {inner.n}"
        )
    if not np.isfinite(m).all():
        raise NotFiniteError("variation matrix contains non-finite values")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ValueError("variation matrix must be symmetric")
    root_inv = 1.0 / np.sqrt(inner.entries)
    return m * np.outer(root_inv, root_inv)


def compute_basis(variation: np.ndarray, inner: InnerProduct) -> SpectralBasis:
    """Diagonalize a variation operator in a weighted inner product.

    Solves the congruent symmetric problem ``R M R`` with
    ``R = diag(entries ** -1/2)`` and maps the eigenvectors back, which
    guarantees a real spectrum and an orthonormal mode matrix by
    construction. The sign of each mode is fixed so that its first
    component larger than 1e-12 in magnitude is positive.

    Parameters
    ----------
    variation : ndarray
        Symmetric positive semidefinite matrix defining the smoothness
        quadratic form.
    inner : InnerProduct
        Diagonal positive-definite inner product of the signal space.

    Raises
    ------
    NotFiniteError
        If the input contains non-finite values or the eigensolver fails.
    """
    sym = _symmetrized(variation, inner)
    try:
        lam, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NotFiniteError("eigensolver failed to converge") from exc
    if not (np.isfinite(lam).all() and np.isfinite(vecs).all()):
        raise NotFiniteError("eigensolver produced non-finite values")
    if lam[0] < -1e-10 * max(1.0, abs(float(lam[-1]))):
        raise ValueError("variation matrix is not positive semidefinite")
    lam = np.where(lam < 0.0, 0.0, lam)

    modes = vecs * (1.0 / np.sqrt(inner.entries))[:, None]
    lead = np.argmax(np.abs(modes) > 1e-12, axis=0)
    signs = np.where(modes[lead, np.arange(modes.shape[1])] < 0.0, -1.0, 1.0)
    modes = modes * signs
    return SpectralBasis(modes, lam, inner)


def analyze(basis: SpectralBasis, x) -> np.ndarray:
    """Spectral coefficients of a signal: inner products with every mode."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise DimensionMismatchError(f"signal must have shape ({basis.n},)")
    return basis.modes.T @ (basis.inner.entries * x)


def synthesize(basis: SpectralBasis, coeffs) -> np.ndarray:
    """Signal with the given spectral coefficients; inverse of :func:`analyze`."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.n,):
        raise DimensionMismatchError(f"spectrum must have shape ({basis.n},)")
    return basis.modes @ coeffs


def bandlimit_split(basis: SpectralBasis, x, modes_kept: int):
    """Split ``x`` into its projection on the first modes and the remainder.

    Returns ``(low, high)`` with ``x == low + high`` and the two parts
    orthogonal in the basis inner product.
    """
    modes_kept = _integer(modes_kept, "modes_kept")
    if not 0 <= modes_kept <= basis.n:
        raise ValueError(f"modes_kept must lie in [0, {basis.n}]")
    x = np.asarray(x, dtype=float)
    coeffs = analyze(basis, x)
    low = basis.modes[:, :modes_kept] @ coeffs[:modes_kept]
    return low, x - low


def _lambda_max(basis: SpectralBasis) -> float:
    """The top frequency of ``basis`` inflated by 1%, clamped at 0: a polynomial-filter interval end."""
    return 1.01 * max(float(basis.frequencies[-1]), 0.0)


def estimate_lambda_max(variation: np.ndarray, inner: InnerProduct) -> float:
    """Upper bound on the largest frequency, for a polynomial-filter interval end.

    The top frequency of :func:`compute_basis` ``(variation, inner)``,
    inflated by 1%. The eigensolver's backward error of about
    ``n eps ||B||`` lies far inside that margin. A zero operator gives 0.0.

    Raises
    ------
    NotFiniteError
        If the input contains non-finite values or the eigensolver fails.
    ValueError
        If the operator is not positive semidefinite, as :func:`compute_basis` does.
    """
    return _lambda_max(compute_basis(variation, inner))
