"""Seeded benchmark drivers for the geometric-graph experiments."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import RankDeficientError
from .geometry import GeoConfig, add_noise, build_instance, sinewave_signal, voronoi_areas
from .graphs import (
    VARIANTS,
    Graph,
    InnerProduct,
    _integer,
    degree_matrix,
    identity_inner_product,
    q_norm,
)
from .reconstruction import (
    PocsParams,
    _cheb_coeffs,
    _design,
    _fit,
    _pocs_solve,
    _spectral_filters,
    e_opt_metric,
)
from .sampling import _greedy_from_basis
from .spectral import _lambda_max, compute_basis

RECON_METHODS = ("closed-form", "pocs")


def realization_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one realization."""
    return np.random.default_rng([seed, index])


def inner_for_variant(variant: str, g: Graph, pc) -> InnerProduct:
    """Build the inner product named by ``variant`` for one instance."""
    if variant == "identity":
        return identity_inner_product(g.n)
    if variant == "degree":
        return degree_matrix(g)
    if variant == "voronoi":
        return voronoi_areas(pc)
    raise ValueError(f"unknown variant: {variant!r}")


def sample_sizes(n: int, fracs: Sequence[float]) -> list[int]:
    """Distinct sample counts for the given fractions, each in ``[1, n)``."""
    if n < 2:
        raise ValueError("need at least 2 vertices to sample a proper subset")
    if not fracs:
        raise ValueError("need at least one sampling fraction")
    return sorted({min(max(int(round(f * n)), 1), n - 1) for f in fracs})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass(frozen=True)
class TableRow:
    variant: str
    signal_cycles: int | None
    noise_sigma: float | None
    sample_size: int
    mean_value: float
    stderr: float
    n_failed: int


CSV_COLUMNS = tuple(f.name for f in fields(TableRow))


@dataclass(frozen=True)
class ResultTable:
    """Aggregated benchmark results with a stable CSV serialization."""

    rows: tuple[TableRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_fmt(getattr(r, name)) for name in CSV_COLUMNS) for r in self.rows]
        return "\n".join(lines) + "\n"


def _run_realizations(realizations: int, worker: Callable[[int], np.ndarray], workers: int):
    """Evaluate realizations, preserving index order for stable aggregation."""
    # more threads than cores, or than realizations, would only contend
    workers = min(workers, realizations, os.cpu_count() or 1)
    if workers > 1:
        # imported here: concurrent.futures loads logging, queue and heapq, which one worker never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, range(realizations)))
    return [worker(idx) for idx in range(realizations)]


def _mean_rows(stack: np.ndarray):
    """Per-cell mean, standard error, and failure count over realizations."""
    failed = np.isnan(stack).sum(axis=0)
    count = stack.shape[0] - failed
    # all-failed cells legitimately aggregate to NaN; keep that path silent
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(stack, axis=0)
        spread = np.nanstd(stack, axis=0, ddof=1)
    stderr = np.where(count > 1, spread / np.sqrt(np.maximum(count, 1)), 0.0)
    return mean, stderr, failed


def _sweep(
    cfg: GeoConfig,
    realizations: int,
    sample_fracs: Sequence[float],
    variants: Sequence[str],
    workers: int,
    progress: Callable[[int], None] | None,
    block: Callable[..., None],
    cycles: Sequence[int | None] = (None,),
    sigmas: Sequence[float | None] = (None,),
    draw: Callable[..., object] | None = None,
) -> ResultTable:
    """The realization sweep both drivers share.

    Per realization: one instance from its own stream, each variant's inner
    product, ``draw(rng, pc, inners)`` for the driver's own data, then per
    variant one basis and one greedy selection up to the largest size, whose
    cells ``block(out, data, basis, selection, sizes)`` fills into
    ``out[cycle, sigma, size]``. The bound table is the ``(None,) x (None,)`` grid.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    variants = tuple(variants)
    if len(set(variants)) != len(variants):
        raise ValueError(f"variants must be distinct, got {list(variants)}")
    sizes = sample_sizes(cfg.n, sample_fracs)

    def one(idx: int) -> np.ndarray:
        rng = realization_rng(cfg.seed, idx)
        pc, g, lap = build_instance(cfg, rng)
        inners = {variant: inner_for_variant(variant, g, pc) for variant in variants}
        data = draw(rng, pc, inners) if draw is not None else None
        cells = np.empty((len(variants), len(cycles), len(sigmas), len(sizes)))
        for vi, variant in enumerate(variants):
            basis = compute_basis(lap, inners[variant])
            selection = _greedy_from_basis(basis, sizes[-1], cfg.proxy_k)
            block(cells[vi], data, basis, selection, sizes)
        if progress is not None:
            progress(idx)
        return cells

    stack = np.stack(_run_realizations(realizations, one, workers))
    mean, stderr, failed = _mean_rows(stack)
    # C order of the cell stack is the row order: variant, signal, noise level, size
    cells = zip(product(variants, cycles, sigmas, sizes), mean.flat, stderr.flat, failed.flat)
    return ResultTable(tuple(TableRow(*key, float(m), float(e), int(f)) for key, m, e, f in cells))


def run_bound_experiment(
    cfg: GeoConfig,
    realizations: int,
    sample_fracs: Sequence[float],
    variants: Sequence[str] = VARIANTS,
    workers: int = 1,
    progress: Callable[[int], None] | None = None,
) -> ResultTable:
    """Average worst-case design quality over random geometric graphs.

    For each realization and inner-product variant, greedily selects up to
    the largest requested sampling size, then records the smallest weighted
    design singular value at every size with the band matched to the size.
    Rank-deficient cells are recorded as failures, not raised. Deterministic
    for a fixed ``cfg.seed``, including under ``workers > 1``.
    """

    def block(out, data, basis, selection, sizes):
        for si, size in enumerate(sizes):
            try:
                out[0, 0, si] = e_opt_metric(basis, selection.head(size), size)
            except RankDeficientError:
                out[0, 0, si] = np.nan

    return _sweep(cfg, realizations, sample_fracs, variants, workers, progress, block)


def _band_from_cutoff(frequencies: np.ndarray, omega: float, size: int) -> int:
    """Modes below the cutoff estimate, clamped to a usable band ``[1, size]``."""
    count = int(np.searchsorted(frequencies, omega))
    return min(max(count, 1), size)


def run_mse_experiment(
    cfg: GeoConfig,
    realizations: int,
    sample_fracs: Sequence[float],
    signal_cycles: Sequence[int],
    noise_sigmas: Sequence[float],
    method: str = "closed-form",
    variants: Sequence[str] = VARIANTS,
    workers: int = 1,
    progress: Callable[[int], None] | None = None,
) -> ResultTable:
    """Mean reconstruction error of sine waves sampled on geometric graphs.

    Signals are horizontal sine waves of the ground plane, measurements are
    perturbed with i.i.d. Gaussian noise, sampling sets come from the greedy
    selector, and the error is always measured in the Voronoi-area norm, no
    matter which inner product drove the selection. Both reconstruction
    methods band-limit at the cutoff estimate recorded during selection:
    the closed form fits the modes below it, the iterative method low-passes
    at it. Failed reconstructions are recorded per cell.

    Every (signal, noise) pair of one variant and size shares the sampling
    set, and so the closed form's fit and the PoCS low-pass. The closed form
    takes one SVD of each size's design and applies it to every pair, and a
    rank-deficient design fails that size for every pair at once. For PoCS,
    per variant, the analysis matrix is scaled once and every size's filter
    response comes from one Clenshaw pass; each size's synthesis matrix is
    scaled when the size loop reaches it, and only the CG solve runs per
    signal. Each cell equals the public :func:`consistent_reconstruct` or
    :func:`pocs_reconstruct` call bit for bit.
    """
    if method not in RECON_METHODS:
        raise ValueError(f"method must be one of {RECON_METHODS}")
    if not signal_cycles or not noise_sigmas:
        raise ValueError("need at least one signal and one noise level")
    cycles = tuple(_integer(c, "signal_cycles") for c in signal_cycles)
    sigmas = tuple(float(s) for s in noise_sigmas)
    for name, values in (("signal_cycles", cycles), ("noise_sigmas", sigmas)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be distinct, got {list(values)}")

    def draw(rng, pc, inners):
        # the Voronoi areas are also the error metric
        metric = inners["voronoi"] if "voronoi" in inners else voronoi_areas(pc)
        truths = {c: sinewave_signal(pc, c) for c in cycles}
        # one noise draw per (signal, level), shared by all variants and sizes
        noisy = {(c, s): add_noise(truths[c], s, rng) for c in cycles for s in sigmas}
        # checked once here, as every reconstruction would check its samples
        if not all(np.isfinite(y).all() for y in noisy.values()):
            raise ValueError("sample values must be finite")
        # a finite norm in every inner product keeps the fits and the errors from overflowing
        with np.errstate(over="ignore"):
            if not all(np.isfinite(q_norm(y, q)) for y in noisy.values() for q in (metric, *inners.values())):
                raise ValueError("noisy samples must have a finite norm in every inner product")
        return metric, truths, noisy

    def block(out, data, basis, selection, sizes):
        metric, truths, noisy = data
        omegas = [float(selection.cutoffs[size - 1]) for size in sizes]
        if method == "pocs":
            lam_max = _lambda_max(basis)
            params = [PocsParams(omega=min(omega, lam_max), lambda_max=lam_max) for omega in omegas]
            lowpasses = _spectral_filters(basis, np.stack([_cheb_coeffs(p) for p in params]), lam_max)
        for si, size in enumerate(sizes):
            # sorted distinct vertices of the basis: the samples _paired_samples would return
            chosen = selection.head(size)
            if method == "pocs":
                lowpass = next(lowpasses)
            else:
                _, _, root, a = _design(basis, chosen, _band_from_cutoff(basis.frequencies, omegas[si], size))
                try:
                    fit = _fit(basis, a)[0]
                except RankDeficientError:
                    out[:, :, si] = np.nan
                    continue
            for ci, c in enumerate(cycles):
                for ni, s in enumerate(sigmas):
                    y = noisy[c, s][chosen]
                    if method == "closed-form":
                        x_hat = fit(root * y)
                    else:
                        x_hat = _pocs_solve(lowpass, basis.inner, chosen, y, params[si]).x_hat
                    err = q_norm(x_hat - truths[c], metric)
                    out[ci, ni, si] = err if np.isfinite(err) else np.nan

    return _sweep(cfg, realizations, sample_fracs, variants, workers, progress, block, cycles, sigmas, draw)
