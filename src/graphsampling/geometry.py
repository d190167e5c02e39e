"""Geometric graphs on a square: point clouds, kernel weights, Voronoi areas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCellError
from .graphs import Graph, InnerProduct, _freeze, _integer, combinatorial_laplacian
from .sampling import DEFAULT_PROXY_ORDER


def _check_side(side) -> None:
    # the Voronoi radius test squares coordinate differences up to ``side`` on Python floats, which raise on overflow
    if not (side > 0 and math.isfinite(side * side)):
        raise ValueError(f"side must be positive with a finite square, got {side!r}")


@dataclass(frozen=True)
class PointCloud:
    """Planar sites inside the square ``[0, side] x [0, side]``."""

    positions: np.ndarray
    side: float

    def __post_init__(self):
        pts = _freeze(self, "positions")
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("positions must be a nonempty (n, 2) array")
        if not np.isfinite(pts).all():
            raise ValueError("positions must be finite")
        _check_side(self.side)
        if (pts < 0).any() or (pts > self.side).any():
            raise ValueError("positions must lie inside the square")

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class GeoConfig:
    """Settings for one geometric-graph instance family."""

    n: int = 100
    side: float = 10.0
    kernel_sigma: float = 1.0
    seed: int = 0
    proxy_k: int = DEFAULT_PROXY_ORDER

    def __post_init__(self):
        for name in ("n", "seed", "proxy_k"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 1:
            raise ValueError("need at least 1 vertex")
        _check_side(self.side)
        if not self.kernel_sigma > 0:
            raise ValueError("kernel_sigma must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.proxy_k < 1:
            raise ValueError("proxy_k must be a positive integer")


def sample_points(cfg: GeoConfig, rng: np.random.Generator) -> PointCloud:
    """Draw ``cfg.n`` uniform sites in the square; deterministic given ``rng``.

    Redraws in the measure-zero event of exactly coincident sites, so the
    returned cloud always has pairwise-distinct positions.
    """
    while True:
        pts = rng.uniform(0.0, cfg.side, size=(cfg.n, 2))
        if np.unique(pts, axis=0).shape[0] == cfg.n:
            return PointCloud(pts, cfg.side)


def build_instance(cfg: GeoConfig, rng: np.random.Generator) -> tuple[PointCloud, Graph, np.ndarray]:
    """Point cloud, Gaussian kernel graph and its Laplacian for one instance.

    Only the point draw consumes ``rng``, so a caller can keep drawing from
    it afterwards (noise, for instance) with a reproducible stream.
    """
    pc = sample_points(cfg, rng)
    g = gaussian_kernel_graph(pc, cfg.kernel_sigma)
    return pc, g, combinatorial_laplacian(g)


def gaussian_kernel_graph(pc: PointCloud, sigma: float) -> Graph:
    """Complete graph with weights ``exp(-dist^2 / (2 sigma^2))``.

    The squared distances are ``(x_i - x_j)**2 + (y_i - y_j)**2`` summed from
    two n x n planes, the same two squares in the same order as a sum over an
    (n, n, 2) stack of coordinate differences, without that stack's strided
    reduction.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    x, y = pc.positions.T
    dist2 = (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2
    w = np.exp(-dist2 / (2.0 * sigma * sigma))
    np.fill_diagonal(w, 0.0)
    return Graph(w)


def _clip_halfplane(poly, a, b, c):
    """Keep the part of a convex polygon with ``a*x + b*y <= c``; ``None`` if that is all of it."""
    f = [a * x + b * y - c for x, y in poly]
    if max(f) <= 0.0:
        return None
    out = []
    for (px, py), fp, (qx, qy), fq in zip(poly, f, poly[1:] + poly[:1], f[1:] + f[:1]):
        if fp <= 0.0:
            out.append((px, py))
            if fq > 0.0:
                t = fp / (fp - fq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        elif fq <= 0.0:
            t = fp / (fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _shoelace(poly) -> float:
    area = 0.0
    m = len(poly)
    for idx in range(m):
        x0, y0 = poly[idx]
        x1, y1 = poly[(idx + 1) % m]
        area += x0 * y1 - x1 * y0
    return 0.5 * abs(area)


def voronoi_areas(pc: PointCloud) -> InnerProduct:
    """Areas of the Voronoi cells of the sites, clipped to the square.

    Each cell starts as the full square and is clipped against the
    perpendicular bisector of every other site, nearest sites first; sites
    farther than twice the current cell radius cannot cut the cell and are
    skipped. A bisector that cuts nothing off leaves the polygon and its
    radius as they are, so neither is rebuilt. Areas are computed with the
    shoelace formula; they partition the square exactly up to roundoff.

    The clipping loop runs on plain Python floats: the positions as lists,
    and each candidate's distance read from one site's numpy row in its
    stable nearest-first order. Each step is the same IEEE double operation
    as on numpy ``float64`` scalars, bit for bit, at a fraction of numpy's
    per-scalar cost. The radius test keeps ``** 2``, which calls libm
    ``pow`` for both kinds of scalar, where ``x * x`` can round differently.

    Raises
    ------
    DegenerateCellError
        If a cell collapses below 3 vertices, which signals coincident sites.
    """
    x, y = pc.positions.T
    side = pc.side
    square = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]
    xs, ys = x.tolist(), y.tolist()
    norms2 = (x**2 + y**2).tolist()
    areas = np.empty(pc.n)
    for i, (pix, piy) in enumerate(zip(xs, ys)):
        d2 = (x - pix) ** 2 + (y - piy) ** 2
        poly = square
        radius2 = max((vx - pix) ** 2 + (vy - piy) ** 2 for vx, vy in poly)
        for j in d2.argsort(kind="stable")[1:]:
            # read one distance at a time: a cell stops after about a dozen of the n
            d2j = d2.item(j)
            if d2j == 0.0:
                raise DegenerateCellError(i)
            if d2j >= 4.0 * radius2:
                break
            a = 2.0 * (xs[j] - pix)
            b = 2.0 * (ys[j] - piy)
            clipped = _clip_halfplane(poly, a, b, norms2[j] - norms2[i])
            if clipped is None:
                continue
            if len(clipped) < 3:
                raise DegenerateCellError(i)
            poly = clipped
            radius2 = max((vx - pix) ** 2 + (vy - piy) ** 2 for vx, vy in poly)
        areas[i] = _shoelace(poly)
    return InnerProduct("voronoi", areas)


def sinewave_signal(pc: PointCloud, cycles: int) -> np.ndarray:
    """Horizontal sine wave with ``cycles`` full periods across the square."""
    cycles = _integer(cycles, "cycles")
    if cycles < 1:
        raise ValueError("cycles must be a positive integer")
    return np.sin(2.0 * np.pi * (cycles / pc.side) * pc.positions[:, 0])


def add_noise(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise of standard deviation ``sigma``.

    ``sigma == 0`` returns an untouched copy and consumes no random numbers.
    """
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    x = np.asarray(x, dtype=float)
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.shape)
