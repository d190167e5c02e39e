"""Command-line front end: instance generation, selection, reconstruction, benchmarks."""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
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
from .reconstruction import PocsParams, consistent_reconstruct, pocs_reconstruct
from .sampling import greedy_select
from .spectral import compute_basis, estimate_lambda_max
from .svgplot import line_chart

_EXIT_OK = 0
_EXIT_MISSING_INPUT = 1
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3
_EXIT_BENCH_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """Parser that takes flags by their full names only and whose rejections print one ``error:`` line and exit 2.

    Subcommand parsers are built from the same class, so both hold for them too.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(_EXIT_USAGE, f"error: {message}\n")


def _manifest(command: str, params: dict) -> dict:
    return {
        "tool": "graphsampling",
        "version": __version__,
        "command": command,
        "parameters": params,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _write_json(path: Path, payload: dict, indent: int | None = 2) -> None:
    path.write_text(json.dumps(payload, indent=indent) + "\n", encoding="utf-8")


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_inner(directory: Path, variant: str) -> InnerProduct:
    data = _read_json(directory / f"q_{variant}.json")
    return InnerProduct(data["variant"], np.asarray(data["entries"], dtype=float))


def _progress(total: int):
    if not sys.stderr.isatty():
        return None

    def report(idx: int) -> None:
        print(f"realization {idx + 1}/{total}", file=sys.stderr)

    return report


def _parse_fracs(text: str) -> list[float]:
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected START:STOP:STEP") from None
    if step <= 0 or start <= 0 or stop >= 1 or start > stop:
        raise argparse.ArgumentTypeError("fractions must satisfy 0 < START <= STOP < 1, STEP > 0")
    out = []
    value = start
    while value <= stop + 1e-9:
        out.append(round(value, 10))
        value += step
    return out


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from None


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated float list") from None


def _parse_variants(text: str) -> list[str]:
    names = [t for t in text.split(",") if t]
    for name in names:
        if name not in VARIANTS:
            raise argparse.ArgumentTypeError(f"unknown variant {name!r}")
    if not names:
        raise argparse.ArgumentTypeError("need at least one variant")
    return names


def cmd_gen(args) -> int:
    cfg = GeoConfig(n=args.n, side=args.side, kernel_sigma=args.kernel_sigma, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pc, g = build_instance(cfg, np.random.default_rng(cfg.seed))[:2]

    _write_json(out / "points.json", {"side": pc.side, "positions": pc.positions.tolist()})
    # up to n(n-1)/2 edge triples: without indentation the file is 45% smaller and 3x faster to write
    _write_json(out / "graph.json", graph_to_json(g), indent=None)
    variants = list(VARIANTS) if args.q == "all" else [args.q]
    for variant in variants:
        inner = inner_for_variant(variant, g, pc)
        _write_json(out / f"q_{variant}.json", {"variant": variant, "entries": inner.entries.tolist()})
    _write_json(
        out / "manifest.json",
        _manifest(
            "gen",
            {
                "n": args.n,
                "side": args.side,
                "kernel_sigma": args.kernel_sigma,
                "seed": args.seed,
                "q": variants,
                "out": str(out),
            },
        ),
    )
    print(f"wrote instance with {g.n} vertices to {out}")
    return _EXIT_OK


def cmd_select(args) -> int:
    directory = Path(args.dir)
    g = graph_from_json(_read_json(directory / "graph.json"))
    inner = _load_inner(directory, args.q)
    result = greedy_select(combinatorial_laplacian(g), inner, args.m, k=args.k)
    out = Path(args.out) if args.out else directory / f"selection_{args.q}.json"
    _write_json(
        out,
        {
            "variant": args.q,
            "k": args.k,
            "m": args.m,
            "order": result.order.tolist(),
            "cutoffs": result.cutoffs.tolist(),
            "manifest": _manifest(
                "select",
                {"dir": str(directory), "q": args.q, "m": args.m, "k": args.k, "out": str(out)},
            ),
        },
    )
    print(f"final cutoff estimate: {result.cutoffs[-1]:.12g}")
    return _EXIT_OK


def cmd_reconstruct(args) -> int:
    directory = Path(args.dir)
    g = graph_from_json(_read_json(directory / "graph.json"))
    inner = _load_inner(directory, args.q)
    selection_path = Path(args.selection) if args.selection else directory / f"selection_{args.q}.json"
    # only PoCS uses the selection, for its default cutoff
    omega = args.omega
    if args.method == "pocs" and omega is None:
        omega = float(_read_json(selection_path)["cutoffs"][-1])
    else:
        selection_path = None
    samples = _read_json(Path(args.samples))
    vertices, values = samples["vertices"], samples["values"]
    # numpy would take booleans as vertex ids and numeric strings as values
    if any(type(v) is not int for v in vertices) or any(type(v) not in (int, float) for v in values):
        raise ValueError("samples must list integer vertex ids and numeric values")
    truth = None
    if args.truth:
        truth = np.asarray(_read_json(Path(args.truth))["values"], dtype=float)

    lap = combinatorial_laplacian(g)
    # floating-point warnings stay silent: a non-finite result is reported below as one error line
    with np.errstate(all="ignore"):
        if args.method == "closed-form":
            basis = compute_basis(lap, inner)
            report = consistent_reconstruct(basis, vertices, values, band=args.band, truth=truth)
        else:
            lam_max = estimate_lambda_max(lap, inner)
            params = PocsParams(
                omega=omega,
                lambda_max=lam_max,
                alpha=args.alpha,
                cheb_order=args.cheb_order,
                max_iters=args.max_iters,
                rel_tol=args.rel_tol,
            )
            report = pocs_reconstruct(lap, inner, vertices, values, params, truth=truth)
    # json.dumps would write NaN and Infinity, which are not JSON
    scalars = [v for v in (report.residual_s, report.q_error, report.last_rel_change) if v is not None]
    if not (np.isfinite(report.x_hat).all() and np.isfinite(scalars).all()):
        raise NotFiniteError(f"the {args.method} reconstruction has non-finite values")

    out = Path(args.out) if args.out else directory / "reconstruction.json"
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
                {
                    "dir": str(directory),
                    "q": args.q,
                    "method": args.method,
                    "band": args.band,
                    "omega": args.omega,
                    "alpha": args.alpha,
                    "cheb_order": args.cheb_order,
                    "max_iters": args.max_iters,
                    "rel_tol": args.rel_tol,
                    "samples": str(args.samples),
                    "selection": str(selection_path) if selection_path else None,
                    "truth": str(args.truth) if args.truth else None,
                    "out": str(out),
                },
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
    cfg = GeoConfig(n=args.n, side=args.side, kernel_sigma=args.kernel_sigma, seed=args.seed, proxy_k=args.k)
    out = Path(args.out)
    run = {"variants": args.variants, "workers": args.threads, "progress": _progress(args.realizations)}
    params = {
        "n": cfg.n,
        "side": cfg.side,
        "kernel_sigma": cfg.kernel_sigma,
        "seed": cfg.seed,
        "k": cfg.proxy_k,
        "realizations": args.realizations,
        "fracs": args.fracs,
    }
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
        params.update(
            signals=list(args.signals), noises=list(args.noises), recon=args.recon, log_scale=bool(args.log_scale)
        )
    params.update(variants=list(args.variants), out=str(out))
    # created only now, so a rejected run leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.bench_command}.csv"
    csv_path.write_text(table.to_csv(), encoding="utf-8")
    for name, svg in charts:
        (out / name).write_text(svg, encoding="utf-8")
    _write_json(out / "manifest.json", _manifest(f"bench {args.bench_command}", params))
    if all(np.isnan(row.mean_value) for row in table.rows):
        print("error: every benchmark cell failed", file=sys.stderr)
        return _EXIT_BENCH_FAILED
    print(f"wrote {csv_path}")
    return _EXIT_OK


def _add_geometry_flags(parser):
    parser.add_argument("--n", type=int, default=100, help="number of vertices")
    parser.add_argument("--side", type=float, default=10.0, help="square side length")
    parser.add_argument("--kernel-sigma", type=float, default=1.0, help="Gaussian kernel width")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")


def _add_bench_flags(parser, realizations: int) -> None:
    _add_geometry_flags(parser)
    parser.add_argument("--k", type=int, default=3, help="proxy order")
    parser.add_argument("--realizations", type=int, default=realizations)
    parser.add_argument("--fracs", type=_parse_fracs, default="0.1:0.9:0.1", help="START:STOP:STEP")
    parser.add_argument("--variants", type=_parse_variants, default="identity,degree,voronoi")
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
    sel.add_argument("--k", type=int, default=3, help="proxy order")
    sel.add_argument("--out", default=None, help="output file (default selection_<q>.json)")
    sel.set_defaults(func=cmd_select)

    rec = sub.add_parser("reconstruct", help="reconstruct a signal from vertex samples")
    rec.add_argument("--dir", default=".", help="directory holding gen outputs")
    rec.add_argument("--q", choices=VARIANTS, default="voronoi", help="inner product variant")
    rec.add_argument("--selection", default=None, help="selection file (default selection_<q>.json)")
    rec.add_argument("--samples", required=True, help="JSON file with sampled vertices and values")
    rec.add_argument("--method", choices=RECON_METHODS, default="closed-form")
    rec.add_argument("--band", type=int, default=None, help="modes to fit (closed form)")
    rec.add_argument("--omega", type=float, default=None, help="low-pass cutoff (default: final selection cutoff)")
    rec.add_argument("--alpha", type=float, default=None, help="low-pass sharpness")
    rec.add_argument("--cheb-order", type=int, default=60, help="PoCS filter order: operator products per application")
    rec.add_argument("--max-iters", type=int, default=500, help="PoCS bound on filter applications (iters)")
    rec.add_argument(
        "--rel-tol", type=float, default=1e-8, help="PoCS bound on the relative change one more sweep would make"
    )
    rec.add_argument("--truth", default=None, help="optional JSON file with the true signal")
    rec.add_argument("--out", default=None, help="output file (default reconstruction.json)")
    rec.set_defaults(func=cmd_reconstruct)

    bench = sub.add_parser("bench", help="seeded benchmark drivers")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bound = bench_sub.add_parser("bound", help="average design quality versus sampling size")
    _add_bench_flags(bound, realizations=200)

    mse = bench_sub.add_parser("mse", help="mean reconstruction error of sine waves")
    _add_bench_flags(mse, realizations=50)
    mse.add_argument("--signals", type=_parse_int_list, default="2,3,4,5", help="sine cycles")
    mse.add_argument("--noises", type=_parse_float_list, default="0.1,0.2,0.4", help="noise levels")
    mse.add_argument("--recon", choices=RECON_METHODS, default="closed-form")
    mse.add_argument("--log-scale", action="store_true", help="log-scale error axis in SVG")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return _EXIT_MISSING_INPUT
    # bad input: malformed JSON or JSON of the wrong shape, numbers beyond a double,
    # out-of-range values and the library's ValueError subclasses
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        detail = f"an input file has the wrong JSON shape ({exc!r})" if isinstance(exc, (TypeError, KeyError)) else exc
        print(f"error: {detail}", file=sys.stderr)
        return _EXIT_USAGE
    except GraphSamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
