"""Command-line front end: instance generation, selection, reconstruction, benchmarks."""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, graphs, spectral
from .bench import (
    RECON_METHODS,
    ResultTable,
    inner_for_variant,
    run_bound_experiment,
    run_mse_experiment,
)
from .errors import GraphSamplingError, NotFiniteError
from .geometry import GeoConfig, build_instance
from .graphs import VARIANTS, InnerProduct, combinatorial_laplacian, graph_from_json, graph_to_json
from .reconstruction import PocsParams, _pocs_from_basis, consistent_reconstruct
from .sampling import DEFAULT_PROXY_ORDER, _check_order, _check_target, _greedy_from_basis
from .spectral import SpectralBasis, _lambda_max, compute_basis
from .svgplot import line_chart

_EXIT_OK = 0
_EXIT_FILE_ERROR = 1
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3
_EXIT_BENCH_FAILED = 4

# the most sampling fractions one --fracs may give
_MAX_FRACS = 10_000


class _Parser(argparse.ArgumentParser):
    """Parser that takes flags by their full names only and whose rejections print one ``error:`` line and exit 2.

    Subcommand parsers are built from the same class, so both hold for them too.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(_EXIT_USAGE, f"error: {message}\n")


# argparse's own fields, and the worker count, on which no output depends
_UNRECORDED = ("command", "bench_command", "func", "threads")


def _manifest(command: str, args: argparse.Namespace, **resolved) -> dict:
    """Provenance of one run: every parsed flag in parser order, with the values the command resolved in their place."""
    params = {key: value for key, value in vars(args).items() if key not in _UNRECORDED}
    return {
        "tool": "graphsampling",
        "version": __version__,
        "command": command,
        "parameters": params | resolved,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _read_json(path: Path, parse, raw: bytes | None = None):
    """``parse`` of the JSON document in ``path``: the one reader of an input file.

    ``raw`` is the file's bytes when the caller has read them already. A file
    that is not JSON, or whose document ``parse`` rejects, raises one
    ``ValueError`` that names the file. A path that cannot be opened as a file
    raises the ``OSError`` of ``open``, which names it.
    """
    if raw is None:
        raw = path.read_bytes()
    # decoded as a file opened in text mode would be, newlines included
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"{path}: no field {exc}") from None
        except (TypeError, IndexError) as exc:
            raise ValueError(f"{path}: wrong JSON shape ({exc})") from None


def _out_dir(text: str) -> Path:
    """``--out`` of ``gen`` and ``bench``, checked before any work: a directory, or a path not yet taken."""
    out = Path(text)
    if out.exists() and not out.is_dir():
        raise ValueError(f"--out {out}: exists and is not a directory")
    return out


def _out_file(text: str) -> Path:
    """``--out`` of ``select`` and ``reconstruct``, checked before any input is read: a file in a directory."""
    out = Path(text)
    if out.is_dir():
        raise ValueError(f"--out {out}: is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--out {out}: no directory {out.parent}")
    return out


def _numbers(values, count: int | None = None) -> np.ndarray:
    """``values`` as floats, if it is a JSON list of finite numbers within the range of a double, ``count`` if given."""
    # numpy would take booleans and numeric strings as numbers
    if isinstance(values, list) and count in (None, len(values)) and all(type(v) in (int, float) for v in values):
        with contextlib.suppress(OverflowError):
            out = np.asarray(values, dtype=float)
            if np.isfinite(out).all():
                return out
    raise ValueError(f"expected a list of {'' if count is None else f'{count} '}finite numbers")


def _inner(doc, n: int) -> InnerProduct:
    return InnerProduct(doc["variant"], _numbers(doc["entries"], n))


def _ids(doc, field: str) -> list:
    """``doc[field]`` if it is a list of integer vertex ids."""
    ids = doc[field]
    # numpy would take booleans as vertex ids
    if not (isinstance(ids, list) and all(type(v) is int for v in ids)):
        raise ValueError(f'"{field}" must be a list of integers')
    return ids


def _samples(doc, n: int) -> tuple[list, np.ndarray]:
    """``--samples`` ids and values: one or more distinct ids in ``[0, n)`` and as many finite numbers."""
    vertices = _ids(doc, "vertices")
    if not vertices:
        raise ValueError("at least one sample is required")
    if not all(0 <= v < n for v in vertices):
        raise ValueError(f"vertex id out of range [0, {n})")
    if len(set(vertices)) < len(vertices):
        raise ValueError("duplicate vertex ids")
    return vertices, _numbers(doc["values"], len(vertices))


def _selection(doc) -> tuple[list, np.ndarray]:
    """A selection's pick order and its cutoffs, one per pick."""
    order = _ids(doc, "order")
    return order, _numbers(doc["cutoffs"], len(order))


def _own_cutoff(vertices: list, order: list, cutoffs: np.ndarray) -> float:
    """The selection's cutoff of the samples: ``cutoffs[j - 1]`` when their ids are its first ``j`` picks as a set."""
    chosen = set(vertices)
    j = len(chosen)
    if chosen != set(order[:j]):
        raise ValueError("samples that are not the first picks of the selection need --omega")
    return float(cutoffs[j - 1])


def _digest(*parts: bytes) -> bytes:
    """SHA-256 of the SHA-256 digests of ``parts``, so that no two splits of the same bytes collide."""
    return hashlib.sha256(b"".join(hashlib.sha256(part).digest() for part in parts)).digest()


@functools.cache
def _basis_code() -> bytes | None:
    """Digest of numpy's version and of the sources that parse and decompose an instance; None if one is unreadable."""
    try:
        sources = [Path(path).read_bytes() for path in (__file__, graphs.__file__, spectral.__file__)]
    except OSError:
        return None
    return _digest(np.__version__.encode(), *sources)


class _Instance:
    """The Laplacian and one inner product of a ``gen`` directory, and the basis ``select`` left beside them.

    The basis file ``basis_<q>.bin`` holds one JSON header line,
    ``{"key": ..., "n": n, "sha256": ...}``, then the frequencies and the
    mode matrix, row by row, as 8(n + n^2) little-endian float64 bytes.
    ``key`` is a SHA-256 of the exact bytes of ``graph.json`` and
    ``q_<q>.json`` and of :func:`_basis_code`, and ``sha256`` that of the
    numbers. A file whose key differs, or that is missing, truncated or
    unreadable, counts as absent: the graph is then parsed, and the basis
    computed, as without one. Only the graph's Laplacian is kept, and only
    until the basis is computed from it.
    """

    def __init__(self, directory: Path, variant: str):
        graph_path, q_path = directory / "graph.json", directory / f"q_{variant}.json"
        self.path = directory / f"basis_{variant}.bin"
        graph_raw, q_raw = graph_path.read_bytes(), None
        # a missing inner-product file is reported after the graph's own errors, as without a basis file
        with contextlib.suppress(OSError):
            q_raw = q_path.read_bytes()
        code = _basis_code()
        self.key = None if q_raw is None or code is None else _digest(code, graph_raw, q_raw).hex()
        cached = self._load()
        self.laplacian = None if cached else combinatorial_laplacian(_read_json(graph_path, graph_from_json, graph_raw))
        self.n = len(cached[0]) if cached else len(self.laplacian)
        self.inner = _read_json(q_path, lambda doc: _inner(doc, self.n), q_raw)
        self.cached = SpectralBasis(cached[1], cached[0], self.inner) if cached else None

    def _load(self):
        """``(frequencies, modes)`` from the basis file, or None when it is absent."""
        if self.key is None:
            return None
        try:
            head, _, body = self.path.read_bytes().partition(b"\n")
            header = json.loads(head)
            n = header["n"]
            fresh = header["key"] == self.key and header["sha256"] == hashlib.sha256(body).hexdigest()
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if not (fresh and type(n) is int and n > 0 and len(body) == 8 * n * (n + 1)):
            return None
        numbers = np.frombuffer(body, dtype="<f8")
        return numbers[:n], numbers[n:].reshape(n, n)

    def basis(self) -> SpectralBasis:
        """The basis of the variation operator: the one in the basis file, else computed from the Laplacian.

        A computed basis releases the Laplacian, so it is computed at most once.
        """
        if self.cached is not None:
            return self.cached
        laplacian, self.laplacian = self.laplacian, None
        return compute_basis(laplacian, self.inner)

    def store(self, basis: SpectralBasis) -> None:
        """Leave ``basis`` in the basis file, if it was computed here; a failed write leaves no file and no error."""
        if self.key is None or self.cached is not None:
            return
        # on a little-endian host these are the arrays' own memory, hashed and written without a copy
        body = [np.ascontiguousarray(a, dtype="<f8") for a in (basis.frequencies, basis.modes)]
        digest = hashlib.sha256(body[0])
        digest.update(body[1])
        header = json.dumps({"key": self.key, "n": basis.n, "sha256": digest.hexdigest()})
        part = self.path.with_name(f"{self.path.name}.{os.getpid()}.part")
        try:
            with part.open("wb") as fh:
                fh.write(header.encode("ascii") + b"\n")
                fh.writelines(body)
            os.replace(part, self.path)
        except OSError:
            with contextlib.suppress(OSError):
                part.unlink()


def _progress(total: int):
    if not sys.stderr.isatty():
        return None

    def report(idx: int) -> None:
        print(f"realization {idx + 1}/{total}", file=sys.stderr)

    return report


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_fracs(text: str) -> list[float]:
    try:
        start, stop, step = (_finite(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected START:STOP:STEP") from None
    if step <= 0 or start <= 0 or stop >= 1 or start > stop:
        raise argparse.ArgumentTypeError("fractions must satisfy 0 < START <= STOP < 1, STEP > 0")
    # the count is one more than this, floored; it is bounded before any list is built
    span = (stop - start) / step + 1e-9
    if span >= _MAX_FRACS:
        raise argparse.ArgumentTypeError(f"START:STOP:STEP must give at most {_MAX_FRACS} fractions")
    return [round(start + i * step, 10) for i in range(math.floor(span) + 1)]


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values."""

    def parse(text: str) -> list:
        try:
            return [kind(t) for t in text.split(",") if t]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of {kind.__name__} values") from None

    return parse


def _parse_variants(text: str) -> list[str]:
    names = [t for t in text.split(",") if t]
    for name in names:
        if name not in VARIANTS:
            raise argparse.ArgumentTypeError(f"unknown variant {name!r}")
    if not names:
        raise argparse.ArgumentTypeError("need at least one variant")
    return names


def cmd_gen(args) -> int:
    out = _out_dir(args.out)
    cfg = GeoConfig(n=args.n, side=args.side, kernel_sigma=args.kernel_sigma, seed=args.seed)
    pc, g = build_instance(cfg, np.random.default_rng(cfg.seed))[:2]
    variants = list(VARIANTS) if args.q == "all" else [args.q]
    inners = [inner_for_variant(variant, g, pc) for variant in variants]
    # created only now, so a rejected or failed run leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "points.json", {"side": pc.side, "positions": pc.positions.tolist()})
    # the weights as one base64 block of 16n(n-1)/3 bytes: 0.85 MB at n=400
    _write_json(out / "graph.json", graph_to_json(g))
    for inner in inners:
        _write_json(out / f"q_{inner.variant}.json", {"variant": inner.variant, "entries": inner.entries.tolist()})
    _write_json(out / "manifest.json", _manifest("gen", args, q=variants, out=str(out)))
    print(f"wrote instance with {g.n} vertices to {out}")
    return _EXIT_OK


def cmd_select(args) -> int:
    # the selector's own checks, each as early as it can run: k before any input is read, m once n is known
    k = _check_order(args.k)
    directory = Path(args.dir)
    out = _out_file(args.out) if args.out else directory / f"selection_{args.q}.json"
    instance = _Instance(directory, args.q)
    m = _check_target(args.m, instance.n)
    basis = instance.basis()
    result = _greedy_from_basis(basis, m, k)
    _write_json(
        out,
        {
            "variant": args.q,
            "k": args.k,
            "m": args.m,
            "order": result.order.tolist(),
            "cutoffs": result.cutoffs.tolist(),
            "manifest": _manifest("select", args, dir=str(directory), out=str(out)),
        },
    )
    instance.store(basis)
    print(f"final cutoff estimate: {result.cutoffs[-1]:.12g}")
    return _EXIT_OK


def cmd_reconstruct(args) -> int:
    directory = Path(args.dir)
    out = _out_file(args.out) if args.out else directory / "reconstruction.json"
    instance = _Instance(directory, args.q)
    n = instance.n
    selection_path = Path(args.selection) if args.selection else directory / f"selection_{args.q}.json"
    vertices, values = _read_json(Path(args.samples), lambda doc: _samples(doc, n))
    # only PoCS uses the selection, for its default cutoff
    omega = args.omega
    if args.method == "pocs" and omega is None:
        omega = _own_cutoff(vertices, *_read_json(selection_path, _selection))
    else:
        selection_path = None
    truth = _read_json(Path(args.truth), lambda doc: _numbers(doc["values"], n)) if args.truth else None

    # floating-point warnings stay silent: a non-finite result is reported below as one error line
    with np.errstate(all="ignore"):
        basis = instance.basis()
        if args.method == "closed-form":
            report = consistent_reconstruct(basis, vertices, values, band=args.band, truth=truth)
        else:
            params = PocsParams(
                omega=omega,
                lambda_max=_lambda_max(basis),
                alpha=args.alpha,
                cheb_order=args.cheb_order,
                max_iters=args.max_iters,
                rel_tol=args.rel_tol,
            )
            report = _pocs_from_basis(basis, vertices, values, params, truth=truth)
    # json.dumps would write NaN and Infinity, which are not JSON
    scalars = [v for v in (report.residual_s, report.q_error, report.last_rel_change) if v is not None]
    if not (np.isfinite(report.x_hat).all() and np.isfinite(scalars).all()):
        raise NotFiniteError(f"the {args.method} reconstruction has non-finite values")

    _write_json(
        out,
        {
            "method": args.method,
            "x_hat": report.x_hat.tolist(),
            "iters": report.iters,
            "residual_s": report.residual_s,
            "q_error": report.q_error,
            "last_rel_change": report.last_rel_change,
            "manifest": _manifest(
                "reconstruct",
                args,
                dir=str(directory),
                selection=str(selection_path) if selection_path else None,
                truth=args.truth or None,
                out=str(out),
            ),
        },
    )
    summary = f"method={args.method} iters={report.iters} residual_s={report.residual_s:.3e}"
    if report.q_error is not None:
        summary += f" q_error={report.q_error:.6e}"
    print(summary)
    return _EXIT_OK


def _series(table: ResultTable, variants, x_scale: float = 1.0, cycles=None, sigma=None) -> list:
    """One chart series per variant: sample size over ``x_scale`` against the mean, for one grid cell."""
    series = []
    for variant in variants:
        rows = [r for r in table.rows if (r.variant, r.signal_cycles, r.noise_sigma) == (variant, cycles, sigma)]
        series.append((variant, [r.sample_size / x_scale for r in rows], [r.mean_value for r in rows]))
    return series


def cmd_bench(args) -> int:
    """``bench bound`` and ``bench mse``: run the driver, then write its CSV, charts and manifest."""
    out = _out_dir(args.out)
    cfg = GeoConfig(n=args.n, side=args.side, kernel_sigma=args.kernel_sigma, seed=args.seed, proxy_k=args.k)
    run = {"variants": args.variants, "workers": args.threads, "progress": _progress(args.realizations)}
    if args.bench_command == "bound":
        table = run_bound_experiment(cfg, args.realizations, args.fracs, **run)
        chart = line_chart(
            _series(table, args.variants, x_scale=cfg.n),
            title="Mean smallest design singular value",
            x_label="sampling fraction |S|/n",
            y_label="mean sigma_min",
        )
        charts = [("bound.svg", chart)]
    else:
        table = run_mse_experiment(
            cfg, args.realizations, args.fracs, args.signals, args.noises, method=args.recon, **run
        )
        charts = [
            (
                f"mse_s{c}_sigma{s:g}.svg",
                line_chart(
                    _series(table, args.variants, cycles=c, sigma=s),
                    title=f"Mean reconstruction error, {c} cycles, noise {s:g}",
                    x_label="sampling set size |S|",
                    y_label="mean area-weighted error",
                    log_y=args.log_scale,
                ),
            )
            for c in args.signals
            for s in args.noises
        ]
    # created only now, so a rejected run leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.bench_command}.csv"
    csv_path.write_text(table.to_csv(), encoding="utf-8")
    for name, svg in charts:
        (out / name).write_text(svg, encoding="utf-8")
    _write_json(out / "manifest.json", _manifest(f"bench {args.bench_command}", args, out=str(out)))
    if all(np.isnan(row.mean_value) for row in table.rows):
        print("error: every benchmark cell failed", file=sys.stderr)
        return _EXIT_BENCH_FAILED
    print(f"wrote {csv_path}")
    return _EXIT_OK


def _add_geometry_flags(parser):
    parser.add_argument("--n", type=int, default=GeoConfig.n, help="number of vertices")
    parser.add_argument("--side", type=_finite, default=GeoConfig.side, help="square side length")
    parser.add_argument("--kernel-sigma", type=_finite, default=GeoConfig.kernel_sigma, help="Gaussian kernel width")
    parser.add_argument("--seed", type=int, default=GeoConfig.seed, help="base random seed")


def _add_bench_flags(parser, realizations: int, mse: bool = False) -> None:
    _add_geometry_flags(parser)
    parser.add_argument("--k", type=int, default=DEFAULT_PROXY_ORDER, help="proxy order")
    parser.add_argument("--realizations", type=int, default=realizations)
    parser.add_argument("--fracs", type=_parse_fracs, default="0.1:0.9:0.1", help="START:STOP:STEP")
    if mse:
        parser.add_argument("--signals", type=_list_of(int), default="2,3,4,5", help="sine cycles")
        parser.add_argument("--noises", type=_list_of(_finite), default="0.1,0.2,0.4", help="noise levels")
        parser.add_argument("--recon", choices=RECON_METHODS, default="closed-form")
        parser.add_argument("--log-scale", action="store_true", help="log-scale error axis in SVG")
    parser.add_argument("--variants", type=_parse_variants, default=",".join(VARIANTS))
    parser.add_argument("--threads", type=int, default=1, help="worker threads; raise only with BLAS on one thread")
    parser.add_argument("--out", default=".", help="output directory")
    parser.set_defaults(func=cmd_bench)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphsampling",
        description="Vertex sampling set selection and reconstruction on geometric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a geometric graph instance")
    _add_geometry_flags(gen)
    gen.add_argument("--q", choices=(*VARIANTS, "all"), default="voronoi", help="inner product(s) to write")
    gen.add_argument("--out", default=".", help="output directory")
    gen.set_defaults(func=cmd_gen)

    sel = sub.add_parser("select", help="greedy sampling set selection on a generated instance")
    sel.add_argument("--dir", default=".", help="directory holding gen outputs")
    sel.add_argument("--q", choices=VARIANTS, default="voronoi", help="inner product variant")
    sel.add_argument("--m", type=int, required=True, help="target sampling set size")
    sel.add_argument("--k", type=int, default=DEFAULT_PROXY_ORDER, help="proxy order")
    sel.add_argument("--out", default=None, help="output file (default selection_<q>.json)")
    sel.set_defaults(func=cmd_select)

    rec = sub.add_parser("reconstruct", help="reconstruct a signal from vertex samples")
    rec.add_argument("--dir", default=".", help="directory holding gen outputs")
    rec.add_argument("--q", choices=VARIANTS, default="voronoi", help="inner product variant")
    rec.add_argument("--method", choices=RECON_METHODS, default="closed-form")
    rec.add_argument("--band", type=int, default=None, help="modes to fit (closed form)")
    rec.add_argument(
        "--omega", type=_finite, default=None, help="low-pass cutoff (default: the selection's cutoff of the samples)"
    )
    rec.add_argument("--alpha", type=_finite, default=None, help="low-pass sharpness")
    rec.add_argument(
        "--cheb-order",
        type=int,
        default=PocsParams.cheb_order,
        help="PoCS filter order: degree of the Chebyshev series",
    )
    rec.add_argument(
        "--max-iters", type=int, default=PocsParams.max_iters, help="PoCS bound on filter applications (iters)"
    )
    rec.add_argument(
        "--rel-tol",
        type=_finite,
        default=PocsParams.rel_tol,
        help="PoCS bound on the relative change one more sweep would make",
    )
    rec.add_argument("--samples", required=True, help="JSON file with sampled vertices and values")
    rec.add_argument("--selection", default=None, help="selection file (default selection_<q>.json)")
    rec.add_argument("--truth", default=None, help="optional JSON file with the true signal")
    rec.add_argument("--out", default=None, help="output file (default reconstruction.json)")
    rec.set_defaults(func=cmd_reconstruct)

    bench = sub.add_parser("bench", help="seeded benchmark drivers")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bound = bench_sub.add_parser("bound", help="average design quality versus sampling size")
    _add_bench_flags(bound, realizations=200)

    mse = bench_sub.add_parser("mse", help="mean reconstruction error of sine waves")
    _add_bench_flags(mse, realizations=50, mse=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    # a missing input file, a path that is not a readable file, such as a directory, or a failed write
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FILE_ERROR
    # bad input: a bad flag value, an input file ``_read_json`` rejected, and the library's ValueError subclasses
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except GraphSamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
