"""Benchmark of graphsampling: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound-n100 --seed 1 --seconds 25 --trace 0
    python3 perfbench/selftest.py

Workloads, all on the paper's geometry (side 10, kernel sigma 1, proxy order
3, all three inner products) with ``workers=1``; unit ``u`` of a run is a
fresh instance seeded by ``seed * 1000000 + u``:

- ``bound-n100``: one ``run_bound_experiment`` realization per unit at n=100,
  fractions 0.1..0.9. Nearly all of it is ``greedy_select``, so a selector
  change shows here and a reconstruction change must not.
- ``mse-pocs-n100``: one ``run_mse_experiment(method="pocs")`` realization
  per unit, signal 3 cycles, noises 0.1 and 0.2. Mostly PoCS sweeps.
- ``cli-chain-n400``: ``gen``, ``select --m 80``, a samples file written by
  the benchmark, and closed-form and PoCS ``reconstruct``, all in-process
  through ``graphsampling.cli.main``. One large O(n^4) selection beside a
  5 MB ``graph.json`` written once and parsed three times.

With ``--trace 0`` a run measures plain units for ``--seconds`` (and at
least the workload's quality units) and reports the end-to-end metrics.
Throughput and median unit time are given in units of a calibration kernel
timed between the units (see ``calibrate.py``), because the speed of a core
on a shared machine drifts by tens of percent between runs; the raw values
are in the summary and the report. ``design_sigma_min_mean`` and
``recon_error_mean`` are fixed for a seed: they come from the first
quality units. Where a workload's own outputs lack one of them, a
cross-check outside the timed loop supplies it: bound-n100 runs the
closed-form mse driver and mse-pocs-n100 the bound driver on their first
instances (the two drivers share selections), and the chain takes the
smallest design singular value of its whole selection at the closed-form
band. ``success_share`` is one minus failed over attempted operations; a
reconstruction whose error overflows or diverges past ``DIVERGED_ERROR``
(see ``workloads.py``) is a failed operation and stays out of
``recon_error_mean``.

With ``--trace 1`` each unit is run plain once for reference, then replayed
step by step through the package's public functions with a span around
each call; the per-layer metrics, the tracing overhead and a layer scaling
report come from those spans. Per-layer metrics are per unit unless their
name says otherwise; one that the workload never reaches reads 0 and is
listed as absent. Spans and a report are written under ``.perfbench/``.

``setup_s`` is the median over this process and a few fresh processes spread
over the run of imports plus a warm-up unit, each divided by an interpreter
kernel timed just before and after it in the same process and multiplied by
the kernel's reference time: seconds at a fixed reference speed (see
``calibrate.py``). The raw set-up seconds are in the report.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when an
output check fails or the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import INTERPRETER_REF_S, interpreter_kernel  # noqa: E402  (no numpy)

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# fresh-process set-ups, spread over the timed loop so that one run's median
# does not rest on a single phase of the machine's speed
SETUP_PROBES = 6

# kind; quality units, always run so that quality metrics are fixed for a seed
# (on mse-pocs-n100 and cli-chain-n400 they take longer than a 25 s run, about
# 46 and 33 s); sibling-driver cross-check units; calibration kernels before each
# unit, 6-8% of a unit's time; whether the traced run adds the layer scaling report
WORKLOADS = {
    "bound-n100": {"kind": "bound", "quality_units": 48, "cross_units": 6, "cal_reps": 1, "scaling": True},
    "mse-pocs-n100": {"kind": "mse", "quality_units": 12, "cross_units": 20, "cal_reps": 5, "scaling": False},
    "cli-chain-n400": {"kind": "chain", "quality_units": 3, "cross_units": 0, "cal_reps": 15, "scaling": False},
}
SCALING_SIZES = (100, 200, 400)
SCALING_KEYS = ("select_singleton_s", "select_growth_s", "compute_basis_s", "voronoi_s", "pocs_sweep_s")
TRACE_CAL_REPS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="graphsampling benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_environment() -> None:
    """One BLAS thread, set before numpy loads; GSP_SEED would override the unit seeds."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ.pop("GSP_SEED", None)


def import_package():
    """The workloads module, with graphsampling imported from this checkout's sources only."""
    if not (SRC / "graphsampling" / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found under {SRC.name}/")
    sys.path.insert(0, str(SRC))
    import graphsampling

    if Path(graphsampling.__file__).resolve().parent != SRC / "graphsampling":
        raise SystemExit("error: graphsampling was imported from outside this checkout")
    from perfbench import workloads

    return workloads


def set_up(kind: str, scratch: Path):
    """Imports plus a warm-up unit on a tiny instance.

    Returns the workloads module and a set-up sample: the set-up's seconds and
    the mean seconds of the interpreter kernel run just before and after it.
    """
    before = interpreter_kernel()
    start = perf_counter()
    wl = import_package()
    if kind == "chain":
        wl.chain_unit(scratch / "warm-up", 0, 0, wl.ChainSize(n=20, m=4, band=2))
    else:
        wl.driver_unit(kind, wl.driver_cfg(0, 0, n=20), fracs=(0.5,))
    setup_s = perf_counter() - start
    return wl, (setup_s, (before + interpreter_kernel()) / 2)


def setup_probe(workload: str) -> tuple[float, float]:
    """Set-up sample of a fresh process doing this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(done.stdout.splitlines()[-1])["setup_sample"])


def setup_seconds(samples: list) -> float:
    """Median set-up time in seconds at the interpreter kernel's reference speed."""
    return statistics.median(s / k for s, k in samples) * INTERPRETER_REF_S


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workers": 1,
    }


# ---------------------------------------------------------------- untraced


def run_plain(wl, args, spec: dict, scratch: Path, setup: list):
    """Timed units with calibration kernels and set-up probes between them.

    Appends the probes' set-up samples to ``setup``; their time and the
    kernels' are left out of the throughput.
    """
    from perfbench.calibrate import Calibration

    kind = spec["kind"]
    units, cal, probes_s = [], Calibration(wl.CHAIN_N if kind == "chain" else wl.DRIVER_N), 0.0

    def probe():
        nonlocal probes_s
        begin = perf_counter()
        setup.append(setup_probe(args.workload))
        probes_s += perf_counter() - begin

    start = perf_counter()
    while len(units) < spec["quality_units"] or perf_counter() - start < args.seconds:
        while len(setup) <= SETUP_PROBES and perf_counter() - start >= (len(setup) - 1) * args.seconds / SETUP_PROBES:
            probe()
        cal.run(spec["cal_reps"])
        u = len(units)
        if kind == "chain":
            units.append(wl.chain_unit(scratch, args.seed, u))
        else:
            units.append(wl.driver_result(kind, *wl.driver_unit(kind, wl.driver_cfg(args.seed, u))))
    elapsed = perf_counter() - start - probes_s
    while len(setup) <= SETUP_PROBES:
        probe()

    quality = units[: spec["quality_units"]]
    problems = [p for r in units for p in r.problems]
    hashes = {f"u{i}/{name}": h for i, r in enumerate(quality) for name, h in r.hashes.items()}
    own = [v for r in quality for v in r.cells if not wl.failed_cell(kind, v)]
    if kind == "bound":
        design = own
        recon, cross_problems, cross_hashes = wl.driver_cross_check(kind, args.seed, spec["cross_units"])
    elif kind == "mse":
        recon = own
        design, cross_problems, cross_hashes = wl.driver_cross_check(kind, args.seed, spec["cross_units"])
    else:
        recon = [e for r in quality for e in r.recon_errors]
        design = [v for i, r in enumerate(quality) if not r.problems for v in wl.chain_design(scratch / f"u{i}")]
        cross_problems, cross_hashes = [], {}
    problems += cross_problems
    hashes.update(cross_hashes)
    attempted = sum(r.attempted for r in units)
    failed = sum(r.failed for r in units)
    # kernels run between units, so their mean covers the same stretches of time as the
    # throughput, and their median matches the median unit time
    units_per_s = len(units) / (elapsed - sum(cal.samples))
    unit_s_p50 = statistics.median([r.seconds for r in units])
    metrics = {
        "units_per_1000cal": 1000.0 * units_per_s * statistics.fmean(cal.samples),
        "unit_cal_p50": unit_s_p50 / statistics.median(cal.samples),
        "success_share": 1.0 - failed / attempted,
        "design_sigma_min_mean": statistics.fmean(design) if design else 0.0,
        "recon_error_mean": statistics.fmean(recon) if recon else 0.0,
    }
    if not design or not recon:
        problems.append("no non-failed value for a quality metric")
    times = sorted(r.seconds for r in units)
    report = {
        "units": len(units),
        "units_per_s": units_per_s,
        "unit_s_p50": unit_s_p50,
        "calibration_s_p50": statistics.median(cal.samples),
        "calibration_samples": len(cal.samples),
        "unit_s_quartiles": statistics.quantiles(times, n=4) if len(times) > 1 else times,
        "quality_units": spec["quality_units"],
        "cross_check_units": spec["cross_units"],
        "outputs_sha256": hashes,
        "outputs_sha256_all": _digest(hashes),
    }
    return metrics, attempted, failed, problems, report


def _digest(hashes: dict) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- traced


def run_traced(wl, args, spec: dict, scratch: Path):
    from perfbench.calibrate import Calibration
    from perfbench.spans import Tracer

    kind = spec["kind"]
    tr, tally, results = Tracer(), wl.Tally(), []
    start = perf_counter()
    while not results or perf_counter() - start < args.seconds:
        u = len(results)
        if kind == "chain":
            results.append(wl.traced_chain_unit(tr, tally, scratch, args.seed, u))
        else:
            results.append(wl.traced_driver_unit(kind, tr, tally, args.seed, u))
    scaling = wl.scaling_report(tr, args.seed, SCALING_SIZES) if spec["scaling"] else {}
    cal = Calibration(wl.CHAIN_N if kind == "chain" else wl.DRIVER_N)
    cal.run(TRACE_CAL_REPS)

    metrics, absent = layer_metrics(tr, tally, kind, len(results), scaling)
    metrics["calibration.kernel_s"] = statistics.median(cal.samples)
    problems = [p for r in results for p in r.problems] + tally.mismatches
    report = {
        "traced_units": len(results),
        "reference_unit_s": tally.reference_s,
        "absent": absent,
        "cli_io_by_command": tally.io,
        "scaling": scaling,
        "spans": len(tr.spans),
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tr.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, sum(r.attempted for r in results), sum(r.failed for r in results), problems, report


def layer_metrics(tr, tally, kind: str, n_units: int, scaling: dict):
    """Per-layer metrics from the spans and counts of the traced units.

    Returns the metrics and, for each metric no call on this workload's path
    produced, the reason it reads 0.
    """
    units = list(range(n_units))
    m, absent = {}, {}

    def per_unit(value: float) -> float:
        return value / n_units

    def timed(metric: str, span: str):
        m[metric] = per_unit(tr.total(span, units))
        if not tr.of(span, units):
            absent[metric] = f"no {span} call on this workload's path"

    def share(metric: str, values: list, reduce, why: str):
        m[metric] = float(reduce(values)) if values else 0.0
        if not values:
            absent[metric] = why

    for layer, fn in (("geometry", "sample_points"), ("geometry", "kernel_graph"), ("geometry", "voronoi"),
                      ("graphs", "laplacian"), ("graphs", "json_roundtrip"), ("spectral", "compute_basis"),
                      ("spectral", "lambda_max"), ("sampling", "select"), ("sampling", "select_singleton"),
                      ("sampling", "e_opt"), ("reconstruction", "closed_form"), ("reconstruction", "pocs")):
        timed(f"{layer}.{fn}_s", f"{layer}.{fn}")
    for layer, fn in (("spectral", "compute_basis"), ("sampling", "select"), ("reconstruction", "closed_form"),
                      ("reconstruction", "pocs")):
        m[f"{layer}.{fn}_calls"] = per_unit(len(tr.of(f"{layer}.{fn}", units)))
    m["sampling.select_growth_s"] = m["sampling.select_s"] - m["sampling.select_singleton_s"]
    if "sampling.select_s" in absent:
        absent["sampling.select_growth_s"] = absent["sampling.select_s"]
    m["sampling.cutoff_evals"] = per_unit(tally.cutoff_evals)
    share("spectral.lambda_max_ratio_min", tally.lambda_ratio, min, "no lambda-max estimate checked")
    share("sampling.cutoff_relerr_max", tally.relerr, max, "no cutoff oracle run")
    share("sampling.first_pick_argmax_share", tally.first_pick, statistics.fmean,
          "the singleton oracle runs on the n=100 workloads only")

    times, sweeps = tally.pocs_times, sum(tally.pocs_iters)
    share("reconstruction.pocs_call_s_p50", times, statistics.median, "no PoCS call")
    share("reconstruction.pocs_call_s_p90", times, _p90, "no PoCS call")
    m["reconstruction.pocs_sweeps"] = per_unit(sweeps)
    m["reconstruction.pocs_sweep_s"] = sum(times) / sweeps if sweeps else 0.0
    m["reconstruction.pocs_maxiter_hits"] = per_unit(tally.pocs_maxiter)
    m["reconstruction.cheb_matvecs"] = per_unit(tally.cheb_matvecs)
    for metric in ("reconstruction.pocs_sweeps", "reconstruction.pocs_sweep_s",
                   "reconstruction.pocs_maxiter_hits", "reconstruction.cheb_matvecs"):
        if not times:
            absent[metric] = "no PoCS call"

    unit_spans = [tr.of("unit", [u])[0] for u in units]
    traced_s = [_dur(s) - sum(_dur(c) for c in tr.children(s) if c["extra"]) for s in unit_spans]
    overhead = [t - ref for t, ref in zip(traced_s, tally.reference_s)]
    m["trace.overhead_s"] = statistics.median(overhead)
    m["trace.overhead_share"] = statistics.median(o / ref for o, ref in zip(overhead, tally.reference_s))
    if kind == "chain":
        m["bench.self_s"] = 0.0
        absent["bench.self_s"] = "the chain runs no driver"
    else:
        layers_s = [sum(_dur(c) for c in tr.children(s) if not c["extra"]) for s in unit_spans]
        m["bench.self_s"] = statistics.median(ref - lay for ref, lay in zip(tally.reference_s, layers_s))

    for cmd in ("gen", "select", "reconstruct"):
        timed(f"cli.{cmd}_s", f"cli.{cmd}")
    m["cli.read_bytes"] = per_unit(sum(r for r, _ in tally.io.values()))
    m["cli.write_bytes"] = per_unit(sum(w for _, w in tally.io.values()))
    if not tally.io:
        absent["cli.read_bytes"] = absent["cli.write_bytes"] = "no CLI command on this workload's path"

    attempts = tally.attempts
    m["failures.attempts"] = per_unit(attempts)
    for reason, count in (("singular_gram", tally.singular_gram), ("rank_deficient", tally.rank_deficient),
                          ("non_finite", tally.non_finite), ("pocs_diverged", tally.pocs_diverged),
                          ("pocs_maxiter", tally.pocs_maxiter)):
        m[f"failures.{reason}"] = count / attempts if attempts else 0.0

    for n in SCALING_SIZES:
        for key in SCALING_KEYS:
            m[f"scaling.n{n}.{key}"] = scaling[n][key] if scaling else 0.0
            if not scaling:
                absent[f"scaling.n{n}.{key}"] = "the layer scaling report runs in the bound-n100 traced run only"
    return m, absent


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# ---------------------------------------------------------------- output


def result_line(spec_names: list, metrics: dict, correct: bool, attempted: int, failed: int) -> str:
    missing = [name for name, _ in spec_names if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec_names},
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    spec = WORKLOADS[args.workload]
    # relative paths keep the CLI manifests, and so the output hashes, the same in any checkout
    os.chdir(ROOT)
    role = "probe" if args.setup_probe else f"trace{args.trace}"
    scratch = Path(".perfbench", "work", f"{args.workload}-seed{args.seed}-{role}")
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        wl, sample = set_up(spec["kind"], scratch)
        if args.setup_probe:
            print(json.dumps({"setup_sample": sample}))
            return 0
        samples = [sample]
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = environment()
        if args.trace:
            names = [(x["name"], x["unit"]) for x in bench["per_layer"]]
            metrics, attempted, failed, problems, report = run_traced(wl, args, spec, scratch)
        else:
            names = [(x["name"], x["unit"]) for x in bench["end_to_end"]]
            metrics, attempted, failed, problems, report = run_plain(wl, args, spec, scratch, samples)
            metrics["setup_s"] = setup_seconds(samples)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
                   "setup_samples_s_kernel_s": samples, "problems": problems, "metrics": metrics})
    out = ROOT / ".perfbench"
    (out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8"
    )
    print_summary(report)
    print(result_line(names, metrics, not problems, attempted, failed))
    return 1 if problems else 0


def print_summary(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']}")
    print(f"# env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"workers={env['workers']} {env['thread_vars']}")
    for key in ("units", "units_per_s", "unit_s_p50", "unit_s_quartiles", "calibration_s_p50", "outputs_sha256_all",
                "traced_units", "reference_unit_s"):
        if key in report:
            print(f"# {key}: {report[key]}")
    for name, value in report["metrics"].items():
        print(f"#   {name} = {value:.6g}")
    for name, why in report.get("absent", {}).items():
        print(f"# absent {name}: {why}")
    for n, row in report.get("scaling", {}).items():
        print(f"# scaling n={n}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))
    for problem in report["problems"]:
        print(f"# CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
