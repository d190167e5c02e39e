"""The three workloads: plain units, their traced replays and the cross-checks.

A plain unit is what the timed run measures: one driver realization, or one
CLI chain. A traced unit runs the plain unit untraced first (the reference
time and the outputs to reproduce), then replays it step by step through the
public functions of the package with a span around every call. Everything is
measured from outside the package.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import graphsampling as gs
from graphsampling.cli import main as cli_main
from graphsampling.errors import RankDeficientError, SingularGramError

from .checks import check_chain, check_driver_csv, csv_cells, read_json, sha256_json_file, sha256_text
from .spans import Tracer

# the paper's geometry: side 10, kernel sigma 1, proxy order 3, all three inner products
VARIANTS = ("identity", "degree", "voronoi")
FRACS = tuple(round(0.1 * i, 10) for i in range(1, 10))
SIGNALS = (3,)
NOISES = (0.1, 0.2)
DRIVER_N = 100
CHAIN_N, CHAIN_M, CHAIN_BAND = 400, 80, 40
CHAIN_CYCLES, CHAIN_NOISE = 3, 0.1
# A reconstruction error above this marks a diverged reconstruction. The true
# signal, a unit sine over the 10 x 10 square, has a Voronoi norm of about 7 and
# sound reconstructions err by less than about 10. PoCS goes past it only when its
# filter amplifies frequencies above an underestimated lambda_max and the iterates
# grow without bound, to errors of 1e58 and more. Such a reconstruction counts as a
# failed operation, as the drivers already count the ones whose error overflows,
# and is left out of the error mean.
DIVERGED_ERROR = 1e3


def failed_error(err: float) -> bool:
    """Whether a reconstruction error marks a failed reconstruction: NaN, infinite or diverged."""
    return math.isnan(err) or err > DIVERGED_ERROR


def unit_seed(seed: int, unit: int) -> int:
    """Seed of unit ``unit`` of a run: every unit is a fresh instance."""
    return seed * 1_000_000 + unit


def driver_cfg(seed: int, unit: int, n: int = DRIVER_N) -> gs.GeoConfig:
    return gs.GeoConfig(n=n, side=10.0, kernel_sigma=1.0, seed=unit_seed(seed, unit), proxy_k=3)


def driver_sizes(n: int = DRIVER_N) -> list[int]:
    return gs.sample_sizes(n, FRACS)


@dataclass
class UnitResult:
    """Outcome of one plain unit."""

    seconds: float
    attempted: int
    failed: int
    problems: list
    hashes: dict
    cells: list = field(default_factory=list)
    recon_errors: list = field(default_factory=list)


@dataclass
class Tally:
    """Counts gathered by the traced replays."""

    attempts: int = 0
    singular_gram: int = 0
    rank_deficient: int = 0
    non_finite: int = 0
    pocs_diverged: int = 0
    cutoff_evals: int = 0
    pocs_iters: list = field(default_factory=list)
    pocs_times: list = field(default_factory=list)
    pocs_maxiter: int = 0
    cheb_matvecs: int = 0
    relerr: list = field(default_factory=list)
    first_pick: list = field(default_factory=list)
    lambda_ratio: list = field(default_factory=list)
    io: dict = field(default_factory=dict)
    reference_s: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)


# ---------------------------------------------------------------- drivers


def driver_unit(kind: str, cfg: gs.GeoConfig, method: str = "pocs", fracs=FRACS) -> tuple[float, str]:
    """One realization through a driver: realization time from its progress callback, and the CSV."""
    stamps = []
    start = perf_counter()
    if kind == "bound":
        table = gs.run_bound_experiment(
            cfg, 1, fracs, variants=VARIANTS, workers=1, progress=lambda idx: stamps.append(perf_counter())
        )
    else:
        table = gs.run_mse_experiment(
            cfg,
            1,
            fracs,
            SIGNALS,
            NOISES,
            method=method,
            variants=VARIANTS,
            workers=1,
            progress=lambda idx: stamps.append(perf_counter()),
        )
    return stamps[0] - start, table.to_csv()


def failed_cell(kind: str, value: float) -> bool:
    """A failed driver cell: NaN, or on the mse driver a diverged reconstruction."""
    return failed_error(value) if kind == "mse" else math.isnan(value)


def driver_result(kind: str, seconds: float, csv: str) -> UnitResult:
    """Checks one driver CSV; attempted counts its cells, failed its failed cells (all, if unreadable)."""
    problems = check_driver_csv(csv, kind, 1, VARIANTS, driver_sizes(), SIGNALS, NOISES)
    cells = csv_cells(csv) if not problems else []
    attempted = len(VARIANTS) * len(driver_sizes()) * (1 if kind == "bound" else len(SIGNALS) * len(NOISES))
    failed = sum(failed_cell(kind, v) for v in cells) if cells else attempted
    return UnitResult(seconds, attempted, failed, problems, {f"{kind}.csv": sha256_text(csv)}, cells=cells)


def driver_cross_check(kind: str, seed: int, units: int) -> tuple[list, list, dict]:
    """Runs the sibling driver on the first ``units`` instances of a driver workload.

    Both drivers draw the cloud first from the same realization stream and
    select with the same call, so they share selections for a seed. The
    bound workload gets its reconstruction error from the closed-form mse
    driver and the mse workload its design quality from the bound driver.
    """
    sibling = "mse" if kind == "bound" else "bound"
    values, problems, hashes = [], [], {}
    for u in range(units):
        _, csv = driver_unit(sibling, driver_cfg(seed, u), method="closed-form")
        res = driver_result(sibling, 0.0, csv)
        problems += res.problems
        values += [v for v in res.cells if not failed_cell(sibling, v)]
        hashes[f"u{u}/cross-{sibling}.csv"] = res.hashes[f"{sibling}.csv"]
    return values, problems, hashes


def _traced_inner(tr: Tracer, variant: str, g, pc):
    if variant == "voronoi":
        with tr.span("geometry.voronoi"):
            return gs.voronoi_areas(pc)
    with tr.span("graphs.inner_product"):
        return gs.identity_inner_product(g.n) if variant == "identity" else gs.degree_matrix(g)


def _traced_select(tr: Tracer, tally: Tally, lap, inner, m: int, k: int):
    with tr.span("sampling.select"):
        selection = gs.greedy_select(lap, inner, m, k=k)
    with tr.span("sampling.select_singleton", extra=True):
        gs.greedy_select(lap, inner, 1, k=k)
    tally.cutoff_evals += inner.n + m - 1
    return selection


def _oracles(tr: Tracer, tally: Tally, lap, inner, selection, k: int, basis=None, lam=None, first_pick=True):
    """Cutoff, first-pick and lambda-max oracles for one selection (extra work)."""
    n = inner.n
    with tr.span("oracle.cutoffs", extra=True):
        full = gs.proxy_operator(lap, inner, np.arange(n), k)

        def exact(sampled):
            keep = np.setdiff1d(np.arange(n), sampled)
            return float(np.linalg.svd(full[:, keep], compute_uv=False)[-1]) ** (1.0 / k)

        for size in (1, 2):
            want = exact(selection.order[:size])
            got = float(selection.cutoffs[size - 1])
            tally.relerr.append(abs(got - want) / want if want > 0 else (0.0 if got == 0 else math.inf))
        if first_pick:
            singles = [exact([i]) for i in range(n)]
            tally.first_pick.append(int(np.argmax(singles)) == int(selection.order[0]))
    with tr.span("oracle.lambda_max", extra=True):
        if lam is None:
            lam = gs.estimate_lambda_max(lap, inner)
        if basis is None:
            basis = gs.compute_basis(lap, inner)
        tally.lambda_ratio.append(lam / float(basis.frequencies[-1]))


def replay_bound(tr: Tracer, tally: Tally, cfg: gs.GeoConfig) -> list:
    """The bound driver's realization 0, step by step, with the same RNG use."""
    rng = gs.realization_rng(cfg.seed, 0)
    with tr.span("geometry.sample_points"):
        pc = gs.sample_points(cfg, rng)
    with tr.span("geometry.kernel_graph"):
        g = gs.gaussian_kernel_graph(pc, cfg.kernel_sigma)
    with tr.span("graphs.laplacian"):
        lap = gs.combinatorial_laplacian(g)
    sizes = driver_sizes(cfg.n)
    cells = []
    for variant in VARIANTS:
        inner = _traced_inner(tr, variant, g, pc)
        selection = _traced_select(tr, tally, lap, inner, max(sizes), cfg.proxy_k)
        with tr.span("spectral.compute_basis"):
            basis = gs.compute_basis(lap, inner)
        for size in sizes:
            tally.attempts += 1
            try:
                with tr.span("sampling.e_opt"):
                    value = gs.e_opt_metric(basis, selection.head(size), size)
            except RankDeficientError:
                tally.rank_deficient += 1
                value = math.nan
            cells.append(value)
        _oracles(tr, tally, lap, inner, selection, cfg.proxy_k, basis=basis)
    return cells


def replay_mse(tr: Tracer, tally: Tally, cfg: gs.GeoConfig) -> list:
    """The PoCS mse driver's realization 0, step by step, with the same RNG use."""
    rng = gs.realization_rng(cfg.seed, 0)
    with tr.span("geometry.sample_points"):
        pc = gs.sample_points(cfg, rng)
    with tr.span("geometry.kernel_graph"):
        g = gs.gaussian_kernel_graph(pc, cfg.kernel_sigma)
    with tr.span("graphs.laplacian"):
        lap = gs.combinatorial_laplacian(g)
    with tr.span("geometry.voronoi"):
        metric = gs.voronoi_areas(pc)
    with tr.span("geometry.signals"):
        truths = {c: gs.sinewave_signal(pc, c) for c in SIGNALS}
        noisy = {(c, s): gs.add_noise(truths[c], s, rng) for c in SIGNALS for s in NOISES}
    sizes = driver_sizes(cfg.n)
    cells = np.empty((len(VARIANTS), len(SIGNALS), len(NOISES), len(sizes)))
    for vi, variant in enumerate(VARIANTS):
        inner = _traced_inner(tr, variant, g, pc)
        selection = _traced_select(tr, tally, lap, inner, max(sizes), cfg.proxy_k)
        with tr.span("spectral.lambda_max"):
            lam = gs.estimate_lambda_max(lap, inner)
        for si, size in enumerate(sizes):
            chosen = selection.head(size)
            omega = float(selection.cutoffs[size - 1])
            for ci, c in enumerate(SIGNALS):
                for ni, s in enumerate(NOISES):
                    y = noisy[c, s][chosen]
                    cells[vi, ci, ni, si] = _traced_pocs(tr, tally, lap, inner, chosen, y, min(omega, lam), lam, truths[c], metric)
        _oracles(tr, tally, lap, inner, selection, cfg.proxy_k, lam=lam)
    return cells.ravel().tolist()


def _traced_pocs(tr, tally, lap, inner, chosen, y, omega, lam, truth, metric) -> float:
    tally.attempts += 1
    try:
        with tr.span("reconstruction.pocs") as sp:
            params = gs.PocsParams(omega=omega, lambda_max=lam)
            rep = gs.pocs_reconstruct(lap, inner, chosen, y, params)
        _count_pocs(tally, sp, rep, params)
        with tr.span("graphs.q_norm"):
            err = gs.q_norm(rep.x_hat - truth, metric)
    except SingularGramError:
        tally.singular_gram += 1
        return math.nan
    except RankDeficientError:
        tally.rank_deficient += 1
        return math.nan
    if not math.isfinite(err):
        tally.non_finite += 1
        return math.nan
    # the driver keeps a diverged error in its CSV, so the replay returns it too
    tally.pocs_diverged += failed_error(err)
    return err


def _count_pocs(tally: Tally, span: dict, rep, params) -> None:
    tally.pocs_iters.append(rep.iters)
    tally.pocs_times.append(span["end"] - span["start"])
    tally.pocs_maxiter += rep.iters == params.max_iters
    # computed, not counted: each sweep applies the filter's order in operator products
    tally.cheb_matvecs += rep.iters * params.cheb_order


def same_cells(replayed: list, driver: list) -> bool:
    """Exact agreement, NaN matching NaN."""
    return len(replayed) == len(driver) and all(
        (math.isnan(a) and math.isnan(b)) or a == b for a, b in zip(replayed, driver)
    )


def traced_driver_unit(kind: str, tr: Tracer, tally: Tally, seed: int, unit: int) -> UnitResult:
    cfg = driver_cfg(seed, unit)
    seconds, csv = driver_unit(kind, cfg)
    result = driver_result(kind, seconds, csv)
    tally.reference_s.append(seconds)
    tr.unit = unit
    with tr.span("unit"):
        replayed = (replay_bound if kind == "bound" else replay_mse)(tr, tally, cfg)
    if not same_cells(replayed, result.cells):
        tally.mismatches.append(f"unit {unit}: step-by-step cells differ from the driver's CSV")
    return result


# ---------------------------------------------------------------- CLI chain


def _run_cli(argv: list) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    if code:
        sys.stderr.write(f"{argv[0]} exited {code}: {err.getvalue()}")
    return code


def _proc_io() -> tuple[int, int]:
    """Bytes this process has read and written so far; zeros where the kernel does not say."""
    counters = {}
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                counters[key] = int(value)
    except OSError:
        return 0, 0
    return counters["rchar"], counters["wchar"]


@dataclass(frozen=True)
class ChainSize:
    """Instance size of a CLI chain: vertices, selection size and closed-form band."""

    n: int = CHAIN_N
    m: int = CHAIN_M
    band: int = CHAIN_BAND


def chain_argv(d: Path, seed_u: int, size: ChainSize) -> dict:
    samples, truth = d / "samples.json", d / "truth.json"
    rec = ["reconstruct", "--dir", d, "--q", "voronoi", "--samples", samples, "--truth", truth]
    return {
        "gen": ["gen", "--n", size.n, "--q", "all", "--seed", seed_u, "--out", d],
        "select": ["select", "--dir", d, "--q", "voronoi", "--m", size.m],
        "closed_form": rec + ["--method", "closed-form", "--band", size.band, "--out", d / "rec_closed_form.json"],
        "pocs": rec + ["--method", "pocs", "--out", d / "rec_pocs.json"],
    }


def write_samples(d: Path, seed_u: int) -> None:
    """Noisy values of a sine at the selected vertices, and the true signal."""
    pts = read_json(d / "points.json")
    pc = gs.PointCloud(np.asarray(pts["positions"]), pts["side"])
    truth = gs.sinewave_signal(pc, CHAIN_CYCLES)
    order = read_json(d / "selection_voronoi.json")["order"]
    noise = np.random.default_rng([seed_u, 1]).normal(0.0, CHAIN_NOISE, size=len(order))
    values = truth[order] + noise
    (d / "samples.json").write_text(json.dumps({"vertices": order, "values": values.tolist()}), encoding="utf-8")
    (d / "truth.json").write_text(json.dumps({"values": truth.tolist()}), encoding="utf-8")


def run_chain(d: Path, seed_u: int, size: ChainSize = ChainSize(), command=None, tr: Tracer | None = None) -> dict:
    """gen, select, samples, closed-form and PoCS reconstruct; exit codes by command.

    Stops at the first command that exits non-zero.
    """
    command = command or (lambda name, argv: _run_cli(argv))
    argv = chain_argv(d, seed_u, size)
    codes = {}
    for name in ("gen", "select", "closed_form", "pocs"):
        if name == "closed_form":
            with tr.span("chain.samples") if tr else nullcontext():
                write_samples(d, seed_u)
        codes[name] = command(name, argv[name])
        if codes[name] != 0:
            break
    return codes


CHAIN_OUTPUTS = ("selection_voronoi.json", "rec_closed_form.json", "rec_pocs.json")


def chain_result(d: Path, seconds: float, codes: dict, size: ChainSize = ChainSize()) -> UnitResult:
    """Checks one chain; attempted counts its four commands and its output check.

    A diverged reconstruction fails too, as one more failed operation; it
    passes the output checks, which it meets.
    """
    if len(codes) < 4 or any(codes.values()):
        return UnitResult(seconds, 5, sum(c != 0 for c in codes.values()) + 1, check_chain(codes, {}, {}, size.n, size.m), {})
    selection = read_json(d / CHAIN_OUTPUTS[0])
    recs = {"closed_form": read_json(d / CHAIN_OUTPUTS[1]), "pocs": read_json(d / CHAIN_OUTPUTS[2])}
    problems = check_chain(codes, selection, recs, size.n, size.m)
    hashes = {name: sha256_json_file(d / name) for name in CHAIN_OUTPUTS}
    errors = [recs["closed_form"]["q_error"], recs["pocs"]["q_error"]]
    diverged = sum(math.isfinite(e) and failed_error(e) for e in errors)
    kept = [e for e in errors if not failed_error(e)]
    return UnitResult(seconds, 5, int(bool(problems)) + diverged, problems, hashes, recon_errors=kept)


def chain_unit(workdir: Path, seed: int, unit: int, size: ChainSize = ChainSize()) -> UnitResult:
    d = workdir / f"u{unit}"
    start = perf_counter()
    codes = run_chain(d, unit_seed(seed, unit), size)
    return chain_result(d, perf_counter() - start, codes, size)


def chain_design(d: Path, band: int = CHAIN_BAND) -> list:
    """Smallest design singular value of a chain's whole selection at the closed-form band.

    Empty when the design is rank-deficient, which counts as no value.
    """
    g = gs.graph_from_json(read_json(d / "graph.json"))
    q = read_json(d / "q_voronoi.json")
    basis = gs.compute_basis(gs.combinatorial_laplacian(g), gs.InnerProduct(q["variant"], q["entries"]))
    try:
        return [gs.e_opt_metric(basis, read_json(d / CHAIN_OUTPUTS[0])["order"], band)]
    except RankDeficientError:
        return []


def traced_chain_unit(tr: Tracer, tally: Tally, workdir: Path, seed: int, unit: int) -> UnitResult:
    """The chain once untraced (reference), once with CLI spans, then its layers replayed."""
    seed_u = unit_seed(seed, unit)
    tally.reference_s.append(chain_unit(workdir, seed, unit).seconds)
    d = workdir / f"u{unit}-traced"
    span_names = {"gen": "cli.gen", "select": "cli.select", "closed_form": "cli.reconstruct", "pocs": "cli.reconstruct"}

    def command(name, argv):
        r0, w0 = _proc_io()
        with tr.span(span_names[name]):
            code = _run_cli(argv)
        r1, w1 = _proc_io()
        read, written = tally.io.get(name, (0, 0))
        tally.io[name] = (read + r1 - r0, written + w1 - w0)
        return code

    tr.unit = unit
    with tr.span("unit") as unit_span:
        codes = run_chain(d, seed_u, ChainSize(), command, tr)
    result = chain_result(d, unit_span["end"] - unit_span["start"], codes)
    if not result.problems:
        with tr.span("chain.replay", extra=True):
            _replay_chain(tr, tally, d, seed_u)
    return result


def _replay_chain(tr: Tracer, tally: Tally, d: Path, seed_u: int) -> None:
    """The chain's layers on the same instance, checked against the CLI's files."""
    cfg = gs.GeoConfig(n=CHAIN_N, side=10.0, kernel_sigma=1.0, seed=seed_u, proxy_k=3)
    with tr.span("geometry.sample_points"):
        pc = gs.sample_points(cfg, np.random.default_rng(seed_u))
    with tr.span("geometry.kernel_graph"):
        g = gs.gaussian_kernel_graph(pc, cfg.kernel_sigma)
    with tr.span("geometry.voronoi"):
        inner = gs.voronoi_areas(pc)
    with tr.span("graphs.json_roundtrip"):
        g = gs.graph_from_json(gs.graph_to_json(g))
    with tr.span("graphs.laplacian"):
        lap = gs.combinatorial_laplacian(g)
    selection = _traced_select(tr, tally, lap, inner, CHAIN_M, cfg.proxy_k)
    with tr.span("spectral.compute_basis"):
        basis = gs.compute_basis(lap, inner)
    samples, truth = read_json(d / "samples.json"), read_json(d / "truth.json")["values"]
    vertices, values = np.asarray(samples["vertices"]), np.asarray(samples["values"])
    reports = {}
    tally.attempts += 1
    try:
        with tr.span("reconstruction.closed_form"):
            reports["closed_form"] = gs.consistent_reconstruct(basis, vertices, values, band=CHAIN_BAND, truth=truth)
    except SingularGramError:
        tally.singular_gram += 1
    with tr.span("spectral.lambda_max"):
        lam = gs.estimate_lambda_max(lap, inner)
    tally.attempts += 1
    with tr.span("reconstruction.pocs") as sp:
        params = gs.PocsParams(omega=float(selection.cutoffs[-1]), lambda_max=lam)
        reports["pocs"] = gs.pocs_reconstruct(lap, inner, vertices, values, params, truth=truth)
    _count_pocs(tally, sp, reports["pocs"], params)
    tally.non_finite += sum(not math.isfinite(r.q_error) for r in reports.values())
    tally.pocs_diverged += math.isfinite(reports["pocs"].q_error) and failed_error(reports["pocs"].q_error)
    _oracles(tr, tally, lap, inner, selection, cfg.proxy_k, basis=basis, lam=lam, first_pick=False)

    points = read_json(d / "points.json")["positions"]
    cli_selection = read_json(d / "selection_voronoi.json")
    expected = {
        "points": (pc.positions.tolist(), points),
        "voronoi areas": (inner.entries.tolist(), read_json(d / "q_voronoi.json")["entries"]),
        "selection": ([selection.order.tolist(), selection.cutoffs.tolist()], [cli_selection["order"], cli_selection["cutoffs"]]),
    }
    for method, rep in reports.items():
        expected[f"{method} reconstruction"] = (rep.x_hat.tolist(), read_json(d / f"rec_{method}.json")["x_hat"])
    for what, (mine, theirs) in expected.items():
        if mine != theirs:
            tally.mismatches.append(f"seed {seed_u}: replayed {what} differ from the CLI's")


# ---------------------------------------------------------------- scaling


def scaling_report(tr: Tracer, seed: int, sizes=(100, 200, 400)) -> dict:
    """Layer times on one Voronoi-weighted instance per n, with m = n / 5."""
    rows = {}
    for n in sizes:
        tr.unit = f"scaling-n{n}"
        cfg = driver_cfg(seed, 0, n=n)
        rng = gs.realization_rng(cfg.seed, 1)
        pc = gs.sample_points(cfg, rng)
        lap = gs.combinatorial_laplacian(gs.gaussian_kernel_graph(pc, cfg.kernel_sigma))
        m = n // 5
        with tr.span("geometry.voronoi") as s_vor:
            inner = gs.voronoi_areas(pc)
        with tr.span("spectral.compute_basis") as s_basis:
            gs.compute_basis(lap, inner)
        with tr.span("sampling.select_singleton") as s_single:
            gs.greedy_select(lap, inner, 1, k=cfg.proxy_k)
        with tr.span("sampling.select") as s_full:
            selection = gs.greedy_select(lap, inner, m, k=cfg.proxy_k)
        chosen = selection.head(m)
        truth = gs.sinewave_signal(pc, CHAIN_CYCLES)
        y = gs.add_noise(truth, CHAIN_NOISE, rng)[chosen]
        lam = gs.estimate_lambda_max(lap, inner)
        params = gs.PocsParams(omega=min(float(selection.cutoffs[-1]), lam), lambda_max=lam)
        with tr.span("reconstruction.pocs") as s_pocs:
            rep = gs.pocs_reconstruct(lap, inner, chosen, y, params)

        def dur(s):
            return s["end"] - s["start"]

        rows[n] = {
            "m": m,
            "voronoi_s": dur(s_vor),
            "compute_basis_s": dur(s_basis),
            "select_singleton_s": dur(s_single),
            "select_growth_s": dur(s_full) - dur(s_single),
            "pocs_sweeps": rep.iters,
            "pocs_sweep_s": dur(s_pocs) / rep.iters,
        }
    return rows
