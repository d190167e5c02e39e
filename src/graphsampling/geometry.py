"""Geometric graphs on a square: point clouds, kernel weights, Voronoi areas."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCellError
from .graphs import Graph, InnerProduct, _freeze, combinatorial_laplacian


@dataclass(frozen=True)
class PointCloud:
    """Planar sites inside the square ``[0, side] x [0, side]``."""

    positions: np.ndarray
    side: float

    def __post_init__(self):
        pts = _freeze(self, "positions")
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("positions must be a nonempty (n, 2) array")
        if not self.side > 0:
            raise ValueError("side must be positive")
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
    proxy_k: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least 1 vertex")
        if not self.side > 0:
            raise ValueError("side must be positive")
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
    """Complete graph with weights ``exp(-dist^2 / (2 sigma^2))``."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    diff = pc.positions[:, None, :] - pc.positions[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    w = np.exp(-dist2 / (2.0 * sigma * sigma))
    np.fill_diagonal(w, 0.0)
    return Graph(w)


def _clip_halfplane(poly, a, b, c):
    """Keep the part of a convex polygon with ``a*x + b*y <= c``."""
    out = []
    m = len(poly)
    for idx in range(m):
        px, py = poly[idx]
        qx, qy = poly[(idx + 1) % m]
        fp = a * px + b * py - c
        fq = a * qx + b * qy - c
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
    skipped. Areas are computed with the shoelace formula; they partition
    the square exactly up to roundoff.

    Raises
    ------
    DegenerateCellError
        If a cell collapses below 3 vertices, which signals coincident sites.
    """
    pts = pc.positions
    side = pc.side
    n = pc.n
    square = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]
    norms2 = (pts ** 2).sum(axis=1)
    areas = np.empty(n)
    for i in range(n):
        pix, piy = pts[i]
        d2 = ((pts - pts[i]) ** 2).sum(axis=1)
        nearest_first = np.argsort(d2, kind="stable")
        poly = list(square)
        radius2 = max((vx - pix) ** 2 + (vy - piy) ** 2 for vx, vy in poly)
        for j in nearest_first[1:]:
            if d2[j] == 0.0:
                raise DegenerateCellError(i)
            if d2[j] >= 4.0 * radius2:
                break
            a = 2.0 * (pts[j, 0] - pix)
            b = 2.0 * (pts[j, 1] - piy)
            c = norms2[j] - norms2[i]
            poly = _clip_halfplane(poly, a, b, c)
            if len(poly) < 3:
                raise DegenerateCellError(i)
            radius2 = max((vx - pix) ** 2 + (vy - piy) ** 2 for vx, vy in poly)
        areas[i] = _shoelace(poly)
    return InnerProduct("voronoi", areas)


def sinewave_signal(pc: PointCloud, cycles: int) -> np.ndarray:
    """Horizontal sine wave with ``cycles`` full periods across the square."""
    cycles = int(cycles)
    if cycles < 1:
        raise ValueError("cycles must be a positive integer")
    return np.sin(2.0 * np.pi * (cycles / pc.side) * pc.positions[:, 0])


def add_noise(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise of standard deviation ``sigma``.

    ``sigma == 0`` returns an untouched copy and consumes no random numbers.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x, dtype=float)
    if sigma == 0.0:
        return x.copy()
    return x + rng.normal(0.0, sigma, size=x.shape)
