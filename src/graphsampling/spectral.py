"""Fourier bases of graphs under weighted inner products."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotFiniteError
from .graphs import InnerProduct


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
        u = np.array(self.modes, dtype=float)
        lam = np.array(self.frequencies, dtype=float)
        u.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "modes", u)
        object.__setattr__(self, "frequencies", lam)

    @property
    def n(self) -> int:
        return self.modes.shape[0]


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
    sym = m * np.outer(root_inv, root_inv)
    try:
        lam, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NotFiniteError("eigensolver failed to converge") from exc
    if not (np.isfinite(lam).all() and np.isfinite(vecs).all()):
        raise NotFiniteError("eigensolver produced non-finite values")
    if lam[0] < -1e-10 * max(1.0, abs(float(lam[-1]))):
        raise ValueError("variation matrix is not positive semidefinite")
    lam = np.where(lam < 0.0, 0.0, lam)

    modes = vecs * root_inv[:, None]
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
    if not 0 <= modes_kept <= basis.n:
        raise ValueError(f"modes_kept must lie in [0, {basis.n}]")
    x = np.asarray(x, dtype=float)
    coeffs = analyze(basis, x)
    low = basis.modes[:, :modes_kept] @ coeffs[:modes_kept]
    return low, x - low


def is_bandlimited(basis: SpectralBasis, x, omega: float, tol: float = 1e-9) -> bool:
    """Whether all spectral content above frequency ``omega`` is negligible.

    True iff the largest coefficient at frequencies above ``omega`` is at
    most ``tol`` times the Euclidean norm of the full spectrum.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    coeffs = analyze(basis, x)
    high = basis.frequencies > omega
    if not high.any():
        return True
    return float(np.abs(coeffs[high]).max()) <= tol * float(np.linalg.norm(coeffs))


def estimate_lambda_max(variation: np.ndarray, inner: InnerProduct, steps: int = 100) -> float:
    """Safe upper bound on the largest frequency, without a full decomposition.

    Runs ``min(steps, n)`` Lanczos steps with full reorthogonalization on the
    symmetrized operator from a fixed starting vector. The top Ritz value
    plus its residual norm ``|beta_m s_m|``, capped by the Gershgorin
    row-sum bound, is inflated by 1% so the result can be used as a
    polynomial-filter interval end. A zero operator gives 0.0.

    A breakdown means the Krylov space is invariant and may miss the top
    mode (on the 3-vertex path the start vector is orthogonal to it), so
    the iteration restarts from the coordinate vector the Lanczos vectors
    cover least, orthogonalized against them.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    n = inner.n
    root_inv = 1.0 / np.sqrt(inner.entries)
    sym = np.asarray(variation, dtype=float) * np.outer(root_inv, root_inv)
    gershgorin = float(np.abs(sym).sum(axis=1).max())
    if gershgorin == 0.0:
        return 0.0
    krylov = np.empty((min(steps, n), n))
    alphas, betas = [], []
    v = np.arange(1.0, n + 1.0)
    v /= np.linalg.norm(v)
    for j in range(krylov.shape[0]):
        krylov[j] = v
        done = krylov[: j + 1]
        w = sym @ v
        alphas.append(float(v @ w))
        for _ in range(2):  # full reorthogonalization, twice is enough
            w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        if beta <= n * np.finfo(float).eps * gershgorin:
            beta = 0.0
        betas.append(beta)
        if j + 1 == krylov.shape[0]:
            break
        if beta == 0.0:
            w = np.zeros(n)
            w[np.argmin(np.einsum("ij,ij->j", done, done))] = 1.0
            for _ in range(2):
                w -= done.T @ (done @ w)
        v = w / np.linalg.norm(w)
    off = betas[:-1]
    ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    top = float(ritz[-1]) + abs(beta * float(vecs[-1, -1]))
    return 1.01 * min(top, gershgorin)
