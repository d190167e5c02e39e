"""Geometric graphs on a square: point clouds, kernel weights, Voronoi areas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCellError
from .graphs import Graph, InnerProduct, _freeze, _integer, combinatorial_laplacian
from .sampling import DEFAULT_PROXY_ORDER


def _check_side(side) -> None:
    # Voronoi cell radii square coordinate differences up to ``side``, and a stop test
    # near its bound squares them again on Python floats, where ``**`` raises on overflow
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
    reduction. The sum is negated, divided and exponentiated in its own
    buffer, the same operations in the same order as
    ``exp(-dist2 / (2 sigma^2))``.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    x, y = pc.positions.T
    w, dy = x[:, None] - x, y[:, None] - y
    np.square(w, out=w)
    w += np.square(dy, out=dy)
    del dy
    np.negative(w, out=w)
    w /= 2.0 * sigma * sigma
    np.exp(w, out=w)
    np.fill_diagonal(w, 0.0)
    return Graph(w)


# nearest sites per cell taken in bulk, by one partition of each distance row;
# fitted on random clouds (n = 100 to 1000), whose cells take about a dozen
_PREFIX = 33
# distance entries held at once while the prefixes are built (64 KB of floats)
_CHUNK = 1 << 13
# candidates a cell tests per round against its current polygon (3 to 6 run alike)
_BATCH = 4
# relative distance from a stop bound within which the numpy radius is not trusted
_STOP_ROUNDOFF = 1e-12


def _distance_rows(x, y, rows):
    """Squared distances ``(x - x_i)**2 + (y - y_i)**2`` from each site ``i`` in ``rows`` to all sites."""
    return (x - x[rows, None]) ** 2 + (y - y[rows, None]) ** 2


def _nearest_prefixes(x, y):
    """Head of each site's ``argsort(d2, kind="stable")`` row, from one partition per row.

    Row ``i`` of ``order`` holds the sites strictly nearer to site ``i`` than
    the row's ``_PREFIX``-th smallest distance, ordered by ``(d2, index)``, so
    its first ``length[i]`` entries are the stable order's, ties included.
    With at most ``_PREFIX`` sites every row is complete. The rows are built a
    chunk at a time, so no n x n array is held.
    """
    n = x.size
    width = min(_PREFIX, n)
    order = np.empty((n, width), dtype=np.intp)
    length = np.full(n, n)
    step = max(1, _CHUNK // n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        d2 = _distance_rows(x, y, rows)
        part = np.argpartition(d2, width - 1, axis=1)[:, :width]
        near = np.take_along_axis(d2, part, axis=1)
        if width < n:
            below = near < near.max(axis=1, keepdims=True)
            length[rows] = below.sum(axis=1)
            near[~below] = np.inf
        order[rows] = np.take_along_axis(part, np.lexsort((part, near), axis=1), axis=1)
    return order, length


def voronoi_areas(pc: PointCloud) -> InnerProduct:
    """Areas of the Voronoi cells of the sites, clipped to the square.

    Each cell starts as the full square and is clipped against the
    perpendicular bisector of every other site, nearest sites first in the
    order of a stable sort of the squared distances. A site at least twice
    the cell's radius away cannot cut it and ends the cell. A bisector that
    cuts nothing off leaves the polygon and its radius as they are. Areas come
    from the shoelace formula; they partition the square exactly up to
    roundoff.

    All cells are clipped together in numpy rounds. The candidates come from
    :func:`_nearest_prefixes`; a cell that uses up its prefix reads its full
    stable row. In a round each cell tests its next ``_BATCH`` candidates
    against its current polygon and acts on the first that fails, stops or
    cuts it: the candidates before that one cut nothing, so skipping them
    changes nothing. Every result is the IEEE double operation of a scalar
    clip, in its order: the bisector value ``a*x + b*y - c``, each kept vertex
    followed by the crossing point ``p + t*(q - p)`` of its edge, with
    ``t = fp/(fp - fq)`` taken on crossing edges only, and a shoelace summed
    over the vertices in turn. Radii square with ``x * x``, where a scalar
    loop's ``x ** 2`` calls libm ``pow``, which can differ in the last bit;
    a stop test that close to its bound is decided again with ``pow``. So the
    areas equal such a loop's bit for bit.

    Raises
    ------
    DegenerateCellError
        Naming the lowest site that has a coincident twin or whose cell
        collapses below 3 vertices; else the lowest whose area is zero.
    """
    x, y = pc.positions.T
    n, side = pc.n, pc.side
    order, length = _nearest_prefixes(x, y)
    short_from = length.min()
    xy = np.stack([x, y])
    norms2 = x**2 + y**2
    # the cells still clipping, as (coordinate, slot, cell): each cell's
    # vertices are padded with copies of its first vertex, so the slot after
    # the last vertex closes the polygon, and a padding slot is never a
    # maximum alone; the slots lead, so the per-cell maxima reduce fast
    act = np.arange(n)
    square = np.array([[0.0, side, side, 0.0, 0.0], [0.0, 0.0, side, side, 0.0]])
    cells = np.repeat(square[..., None], n, axis=2)
    count = np.full(n, 4)
    radius2 = ((cells[0] - x) ** 2 + (cells[1] - y) ** 2).max(axis=0)
    # each cell's next rank; rank 0 is the site itself, or its coincident twin of lower index
    nxt = np.ones(n, dtype=np.intp)
    batch = np.arange(_BATCH)[:, None]
    full_rows = {}
    done, failed = [], []
    while act.size:
        # (batch, cell) arrays: each cell's next _BATCH candidates
        ranks = nxt + batch
        last = ranks.max()
        j = order[act, np.minimum(ranks, order.shape[1] - 1)]
        if last >= short_from:
            for s in np.flatnonzero(np.minimum(ranks[-1], n - 1) >= length[act]).tolist():
                i = act.item(s)
                if i not in full_rows:
                    full_rows[i] = np.argsort(_distance_rows(x, y, [i])[0], kind="stable")
                j[:, s] = full_rows[i][np.minimum(ranks[:, s], n - 1)]
        p = xy[:, act]
        d = xy[:, j] - p[:, None]
        d2j = d[0] ** 2 + d[1] ** 2
        bound = 4.0 * radius2
        stop = d2j >= bound
        for k, s in zip(*np.nonzero(np.abs(d2j - bound) <= _STOP_ROUNDOFF * bound)):
            pix, piy = p[:, s].tolist()
            verts = zip(*cells[:, : count[s], s].tolist())
            stop[k, s] = d2j[k, s] >= 4.0 * max((u - pix) ** 2 + (v - piy) ** 2 for u, v in verts)
        zero = d2j == 0.0
        if last >= n:
            # past its last candidate a cell is complete
            end = ranks >= n
            stop |= end
            zero &= ~end
        a, b = 2.0 * d
        # (slot, batch, cell)
        f = a * cells[0][:, None] + b * cells[1][:, None]
        f -= norms2[j] - norms2[act]
        event = zero | stop | (f.max(axis=0) > 0.0)
        first = event.argmax(axis=0)
        cols = np.arange(act.size)
        hit = event[first, cols]
        nxt += np.where(hit, first + 1, _BATCH)
        zero, stop = zero[first, cols], stop[first, cols]
        # each cell's bisector: its first event, or a candidate that cuts nothing
        f = f[:, first, cols]
        if zero.any():
            failed += act[zero].tolist()
            stop |= zero
        if stop.any():
            done.append((act[stop], cells[:, :, stop]))
            go = ~stop
            act, cells, count, nxt, p, f = act[go], cells[:, :, go], count[go], nxt[go], p[:, go], f[:, go]
            if not act.size:
                break
        cells, count = _clip_cells(cells, count, f)
        if (count < 3).any():
            ok = count >= 3
            failed += act[~ok].tolist()
            act, cells, count, nxt, p = act[ok], cells[:, :, ok], count[ok], nxt[ok], p[:, ok]
        radius2 = ((cells[0] - p[0]) ** 2 + (cells[1] - p[1]) ** 2).max(axis=0)
    if failed:
        raise DegenerateCellError(min(failed))
    width = max(c.shape[1] for _, c in done)
    verts = np.empty((2, width, n))
    for sites, c in done:
        verts[:, : c.shape[1], sites] = c
        verts[:, c.shape[1] :, sites] = c[:, :1]
    vx, vy = verts
    area = np.zeros(n)
    # padding slots add x0*y0 - x0*y0 == 0.0
    for k in range(width - 1):
        area += vx[k] * vy[k + 1] - vx[k + 1] * vy[k]
    area = 0.5 * np.abs(area)
    # a cell below the roundoff of the square's side can keep 3 vertices, two of them equal, and no area
    empty = np.flatnonzero(area == 0.0)
    if empty.size:
        raise DegenerateCellError(int(empty[0]))
    return InnerProduct("voronoi", area)


def _clip_cells(cells, count, f):
    """Clip padded cells to their sides ``f <= 0`` of one bisector each; ``f`` holds its values at the slots.

    Emits, slot by slot, each kept vertex and then the crossing point of its
    edge, as a scalar clip does, into cells padded as the input is; a cell
    that the bisector does not cut comes out as it went in. Returns the cells
    and their vertex counts.
    """
    slots, sites = f.shape[0] - 1, f.shape[1]
    fp, fq = f[:-1], f[1:]
    inside = fp <= 0.0
    cross = inside != (fq <= 0.0)
    t = np.divide(fp, fp - fq, out=np.zeros_like(fp), where=cross)
    src = cells[:, :-1]
    out = np.empty((2, slots, 2, sites))
    out[:, :, 0] = src
    out[:, :, 1] = src + t * (cells[:, 1:] - src)
    emit = np.empty((slots, 2, sites), dtype=bool)
    emit[:, 0] = inside & (np.arange(slots)[:, None] < count)
    emit[:, 1] = cross
    emit, out = emit.reshape(-1, sites), out.reshape(2, -1)
    place = np.cumsum(emit, axis=0)
    count = place[-1]
    width = count.max() + 1
    cols = np.arange(sites)
    # fill each cell with its first vertex, then write the emitted ones in
    # order; the others all go to a spare last slot
    new = np.empty((2, width + 1, sites))
    new[...] = out[:, emit.argmax(axis=0) * sites + cols][:, None]
    new.reshape(2, -1)[:, (np.where(emit, place - 1, width) * sites + cols).ravel()] = out
    return new[:, :width], count


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
