"""Shared instance builders and independent oracles for the test suite."""

import numpy as np

import graphsampling as gs
from graphsampling.errors import DegenerateCellError


PATH3_LAP = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])


def geometric_instance(seed, n=12, side=10.0, kernel_sigma=1.0):
    """Point cloud, kernel graph, and Laplacian for one seeded instance."""
    cfg = gs.GeoConfig(n=n, side=side, kernel_sigma=kernel_sigma, seed=seed)
    return gs.build_instance(cfg, np.random.default_rng(seed))


def all_inners(g, pc):
    """The three inner products used throughout the experiments."""
    return {v: gs.inner_for_variant(v, g, pc) for v in gs.VARIANTS}


def cluster_cloud(seed, per=13, spread=0.35, side=10.0):
    """Three tight blobs in the square: a graph with a wide spectral gap."""
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 2.0], [8.0, 2.0], [5.0, 8.0]])
    pts = np.concatenate([c + spread * rng.standard_normal((per, 2)) for c in centers])
    return gs.PointCloud(np.clip(pts, 0.0, side), side), rng


def random_weights(rng, n):
    """Symmetric nonnegative weight matrix with zero diagonal."""
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def laplacian_quadratic_oracle(w, x):
    """Explicit double sum ``0.5 * sum_ij w_ij (x_i - x_j)^2``."""
    n = w.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += w[i, j] * (x[i] - x[j]) ** 2
    return 0.5 * total


def brute_force_singleton(lap, inner, k):
    """Exhaustive argmax of the singleton cutoff, via explicit powers and SVD."""
    best, best_val = -1, -1.0
    for i in range(inner.n):
        omega = explicit_cutoff(lap, inner, [i], k)
        if omega > best_val:
            best, best_val = i, omega
    return best, best_val


def explicit_cutoff(lap, inner, sampled, k):
    """Cutoff via explicit dense matrices and SVD, independent of the library path.

    Forming ``(Q^{-1} L)^k`` leaves the singular values on an absolute floor of
    about ``eps * lambda_max^k``: on a Voronoi instance with ``lambda_max`` near
    276 a singleton cutoff of 0.1287 errs by 2.4e-8 relative, so tolerances
    below about 1e-7 can fail on large-``lambda_max`` instances.
    """
    n = inner.n
    q = inner.entries
    keep = np.array(sorted(set(range(n)) - set(int(s) for s in sampled)))
    zk = np.linalg.matrix_power(lap / q[:, None], k)
    h = (np.sqrt(q)[:, None] * zk)[:, keep] / np.sqrt(q[keep])[None, :]
    return np.linalg.svd(h, compute_uv=False)[-1] ** (1.0 / k)


def restricted_cutoff(lap, inner, sampled, k):
    """Cutoff from one ``eigvalsh`` of ``B^{2k}`` restricted to the unsampled vertices.

    The route the selector's refresh steps take: ``B^{2k} = V diag(lam^{2k}) V^T``
    from the eigendecomposition of ``B = Q^{-1/2} L Q^{-1/2}``, its smallest
    eigenvalue on ``keep`` clamped at 0, then the 2k-th root. Squaring ``B^k``
    leaves it on the ``eps ||B^{2k}||`` floor that :func:`explicit_cutoff` avoids.
    """
    basis = gs.compute_basis(lap, inner)
    v = basis.modes * np.sqrt(inner.entries)[:, None]
    keep = gs.complement(sampled, inner.n)
    power = np.linalg.eigvalsh(((v * basis.frequencies ** (2 * k)) @ v.T)[np.ix_(keep, keep)])[0]
    return max(float(power), 0.0) ** (1.0 / (2 * k))


def kernel_weights_oracle(pc, sigma):
    """Gaussian kernel weights from a sum over the (n, n, 2) stack of coordinate differences."""
    diff = pc.positions[:, None, :] - pc.positions[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    w = np.exp(-dist2 / (2.0 * sigma * sigma))
    np.fill_diagonal(w, 0.0)
    return w


def _clip_halfplane_oracle(poly, a, b, c):
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


def _shoelace_oracle(poly):
    area = 0.0
    m = len(poly)
    for idx in range(m):
        x0, y0 = poly[idx]
        x1, y1 = poly[(idx + 1) % m]
        area += x0 * y1 - x1 * y0
    return 0.5 * abs(area)


def voronoi_oracle(pc):
    """Voronoi cell areas by clipping on numpy scalars, rebuilding the cell after every candidate bisector."""
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
            poly = _clip_halfplane_oracle(poly, a, b, c)
            if len(poly) < 3:
                raise DegenerateCellError(i)
            radius2 = max((vx - pix) ** 2 + (vy - piy) ** 2 for vx, vy in poly)
        areas[i] = _shoelace_oracle(poly)
    return areas
