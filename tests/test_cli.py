"""End-to-end command-line workflows on temporary directories."""

import argparse
import contextlib
import io
import json
import shutil
import signal
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsampling as gs
from graphsampling import cli
from graphsampling.cli import build_parser, main
from graphsampling.errors import RankDeficientError


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gen(tmp_path, *extra):
    args = ["gen", "--n", "24", "--kernel-sigma", "2.0", "--seed", "7", "--out", str(tmp_path)]
    return main(args + list(extra))


class TestGen:
    def test_writes_instance_files_and_manifest(self, tmp_path):
        assert gen(tmp_path, "--q", "voronoi") == 0
        for name in ("points.json", "graph.json", "q_voronoi.json", "manifest.json"):
            assert (tmp_path / name).exists()
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "gen"
        assert manifest["parameters"]["seed"] == 7

    def test_rerun_produces_identical_graph_bytes(self, tmp_path):
        gen(tmp_path / "a")
        gen(tmp_path / "b")
        assert (tmp_path / "a" / "graph.json").read_bytes() == (tmp_path / "b" / "graph.json").read_bytes()

    def test_graph_round_trips_through_graph_from_json(self, tmp_path):
        assert gen(tmp_path, "--q", "identity") == 0
        _, g, _ = gs.build_instance(gs.GeoConfig(n=24, kernel_sigma=2.0, seed=7), np.random.default_rng(7))
        np.testing.assert_array_equal(gs.graph_from_json(read_json(tmp_path / "graph.json")).weights, g.weights)

    def test_all_variants(self, tmp_path):
        assert gen(tmp_path, "--q", "all") == 0
        for variant in ("identity", "degree", "voronoi"):
            assert (tmp_path / f"q_{variant}.json").exists()

    def test_tiny_instance_supported(self, tmp_path):
        code = main(["gen", "--n", "2", "--seed", "1", "--q", "voronoi", "--out", str(tmp_path)])
        assert code == 0
        entries = read_json(tmp_path / "q_voronoi.json")["entries"]
        assert sum(entries) == pytest.approx(100.0, abs=1e-6)

    def test_single_vertex_generates_but_cannot_select(self, tmp_path):
        assert main(["gen", "--n", "1", "--seed", "1", "--q", "identity", "--out", str(tmp_path)]) == 0
        code = main(["select", "--dir", str(tmp_path), "--q", "identity", "--m", "1"])
        assert code == 2

    def test_manifest_parameters(self, tmp_path):
        # a path is recorded as resolved: without its trailing slash
        assert gen(tmp_path, "--q", "all", "--out", f"{tmp_path}/") == 0
        assert list(read_json(tmp_path / "manifest.json")["parameters"].items()) == [
            ("n", 24),
            ("side", 10.0),
            ("kernel_sigma", 2.0),
            ("seed", 7),
            ("q", ["identity", "degree", "voronoi"]),
            ("out", str(tmp_path)),
        ]

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # a kernel this narrow leaves vertex 0 without neighbours, so its degree inner product is singular
        out = tmp_path / "zero"
        assert main(["gen", "--n", "30", "--kernel-sigma", "0.001", "--q", "degree", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n, seed", [(30, 3), (30, 11), (1, 1), (2, 1)])
    def test_points_match_build_instance(self, tmp_path, n, seed):
        # replays of a CLI chain rebuild the instance through the library
        assert main(["gen", "--n", str(n), "--seed", str(seed), "--q", "identity", "--out", str(tmp_path)]) == 0
        pc, _, _ = gs.build_instance(gs.GeoConfig(n=n, seed=seed), np.random.default_rng(seed))
        points = read_json(tmp_path / "points.json")
        assert points == {"side": pc.side, "positions": pc.positions.tolist()}


class TestSelect:
    def test_selection_output(self, tmp_path, capsys):
        gen(tmp_path, "--q", "degree")
        code = main(["select", "--dir", str(tmp_path), "--q", "degree", "--m", "8", "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final cutoff estimate" in out
        data = read_json(tmp_path / "selection_degree.json")
        assert len(data["order"]) == 8
        assert len(data["cutoffs"]) == 8
        assert len(set(data["order"])) == 8

    def test_zero_target_is_usage_error(self, tmp_path):
        gen(tmp_path, "--q", "degree")
        assert main(["select", "--dir", str(tmp_path), "--q", "degree", "--m", "0"]) == 2

    def test_missing_inputs_exit_one(self, tmp_path):
        assert main(["select", "--dir", str(tmp_path / "nope"), "--q", "degree", "--m", "4"]) == 1

    def test_missing_inner_product_is_named_after_the_graph(self, tmp_path, capsys):
        gen(tmp_path, "--q", "voronoi")
        argv = ["select", "--dir", str(tmp_path), "--q", "degree", "--m", "4"]
        capsys.readouterr()
        assert main(argv) == 1
        assert str(tmp_path / "q_degree.json") in capsys.readouterr().err
        (tmp_path / "graph.json").write_text("not json", encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'graph.json'}: ")

    def test_deterministic_output(self, tmp_path):
        gen(tmp_path, "--q", "identity")
        main(["select", "--dir", str(tmp_path), "--q", "identity", "--m", "6",
              "--out", str(tmp_path / "s1.json")])
        main(["select", "--dir", str(tmp_path), "--q", "identity", "--m", "6",
              "--out", str(tmp_path / "s2.json")])
        a = read_json(tmp_path / "s1.json")
        b = read_json(tmp_path / "s2.json")
        assert a["order"] == b["order"] and a["cutoffs"] == b["cutoffs"]

    def test_bad_flags_exit_two(self):
        assert main(["select", "--m", "not-a-number"]) == 2

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        gen(tmp_path, "--q", "degree")
        argv = ["select", "--dir", str(tmp_path), "--q", "degree", "--m", "6"]
        assert main([*argv, "--out", str(tmp_path / "named.json")]) == 0
        # the last call's --out is not the next call's default
        assert main(argv) == 0
        assert (tmp_path / "named.json").exists() and (tmp_path / "selection_degree.json").exists()
        capsys.readouterr()
        assert main([*argv, "--k", "x"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert main(argv) == 0

    def test_manifest_parameters(self, tmp_path):
        gen(tmp_path, "--q", "degree")
        assert main(["select", "--dir", f"{tmp_path}/", "--q", "degree", "--m", "6", "--k", "2"]) == 0
        assert list(read_json(tmp_path / "selection_degree.json")["manifest"]["parameters"].items()) == [
            ("dir", str(tmp_path)),
            ("q", "degree"),
            ("m", 6),
            ("k", 2),
            ("out", str(tmp_path / "selection_degree.json")),
        ]


class TestReconstruct:
    def prepare(self, tmp_path, band=6):
        gen(tmp_path, "--q", "degree")
        main(["select", "--dir", str(tmp_path), "--q", "degree", "--m", str(band)])
        g = gs.graph_from_json(read_json(tmp_path / "graph.json"))
        qd = read_json(tmp_path / "q_degree.json")
        inner = gs.InnerProduct(qd["variant"], np.asarray(qd["entries"]))
        basis = gs.compute_basis(gs.combinatorial_laplacian(g), inner)
        rng = np.random.default_rng(0)
        coeffs = np.zeros(g.n)
        coeffs[:band] = rng.standard_normal(band)
        x = gs.synthesize(basis, coeffs)
        order = read_json(tmp_path / "selection_degree.json")["order"]
        with open(tmp_path / "samples.json", "w", encoding="utf-8") as fh:
            json.dump({"vertices": order, "values": [float(x[v]) for v in order]}, fh)
        with open(tmp_path / "truth.json", "w", encoding="utf-8") as fh:
            json.dump({"values": x.tolist()}, fh)
        return x

    def test_closed_form_recovers_bandlimited_signal(self, tmp_path, capsys):
        self.prepare(tmp_path)
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "degree",
            "--samples", str(tmp_path / "samples.json"),
            "--truth", str(tmp_path / "truth.json"),
            "--method", "closed-form", "--band", "6",
        ])
        assert code == 0
        report = read_json(tmp_path / "reconstruction.json")
        assert report["q_error"] <= 1e-8

    def test_closed_form_needs_no_selection_file(self, tmp_path):
        self.prepare(tmp_path)
        (tmp_path / "selection_degree.json").unlink()
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "degree",
            "--samples", str(tmp_path / "samples.json"),
            "--truth", str(tmp_path / "truth.json"),
            "--method", "closed-form", "--band", "6",
        ])
        assert code == 0
        report = read_json(tmp_path / "reconstruction.json")
        assert report["q_error"] <= 1e-8
        assert report["manifest"]["parameters"]["selection"] is None

    def test_pocs_reports_iterations(self, tmp_path):
        self.prepare(tmp_path)
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "degree",
            "--samples", str(tmp_path / "samples.json"),
            "--method", "pocs", "--cheb-order", "60",
        ])
        assert code == 0
        report = read_json(tmp_path / "reconstruction.json")
        assert report["method"] == "pocs"
        assert 1 <= report["iters"] <= 500
        assert report["residual_s"] == 0.0

    def test_manifest_parameters(self, tmp_path):
        self.prepare(tmp_path)
        samples, truth = str(tmp_path / "samples.json"), str(tmp_path / "truth.json")
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "degree", "--samples", samples, "--truth", truth,
            "--method", "pocs", "--max-iters", "400",
        ])
        assert code == 0
        # a defaulted omega is recorded as null; the selection file is recorded because PoCS read its cutoff
        assert list(read_json(tmp_path / "reconstruction.json")["manifest"]["parameters"].items()) == [
            ("dir", str(tmp_path)),
            ("q", "degree"),
            ("method", "pocs"),
            ("band", None),
            ("omega", None),
            ("alpha", None),
            ("cheb_order", 60),
            ("max_iters", 400),
            ("rel_tol", 1e-8),
            ("samples", samples),
            ("selection", str(tmp_path / "selection_degree.json")),
            ("truth", truth),
            ("out", str(tmp_path / "reconstruction.json")),
        ]

    def test_missing_samples_file_exits_one(self, tmp_path):
        self.prepare(tmp_path)
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "degree",
            "--samples", str(tmp_path / "missing.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--samples", "--truth"])
    def test_directory_as_input_file_exits_one(self, tmp_path, capsys, flag):
        self.prepare(tmp_path)
        (tmp_path / "adir").mkdir()
        paths = {"--samples": tmp_path / "samples.json", "--truth": tmp_path / "truth.json", flag: tmp_path / "adir"}
        argv = ["reconstruct", "--dir", str(tmp_path), "--q", "degree", "--band", "6"]
        for name, path in paths.items():
            argv += [name, str(path)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "adir") in err and err.count("\n") == 1

    def test_band_beyond_sample_count_is_usage_error(self, tmp_path):
        self.prepare(tmp_path)
        samples = read_json(tmp_path / "samples.json")
        trimmed = {"vertices": samples["vertices"][:2], "values": samples["values"][:2]}
        with open(tmp_path / "two.json", "w", encoding="utf-8") as fh:
            json.dump(trimmed, fh)
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "degree",
            "--samples", str(tmp_path / "two.json"), "--band", "5",
        ])
        assert code == 2

    def test_rank_deficient_design_exits_three(self, tmp_path, capsys):
        # two disconnected triangles: sampling one component cannot see band 2
        w = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[i, j] = w[j, i] = 1.0
        with open(tmp_path / "graph.json", "w", encoding="utf-8") as fh:
            json.dump(gs.graph_to_json(gs.Graph(w)), fh)
        with open(tmp_path / "q_identity.json", "w", encoding="utf-8") as fh:
            json.dump({"variant": "identity", "entries": [1.0] * 6}, fh)
        with open(tmp_path / "selection_identity.json", "w", encoding="utf-8") as fh:
            json.dump({"variant": "identity", "k": 3, "m": 2, "order": [0, 1], "cutoffs": [0.1, 0.2]}, fh)
        with open(tmp_path / "samples.json", "w", encoding="utf-8") as fh:
            json.dump({"vertices": [0, 1], "values": [1.0, 2.0]}, fh)
        code = main([
            "reconstruct", "--dir", str(tmp_path), "--q", "identity",
            "--samples", str(tmp_path / "samples.json"), "--band", "2",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.endswith("sigma_min = 0.000e+00\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "method", [["--method", "closed-form"], ["--method", "pocs", "--omega", "0.5"]], ids=["closed-form", "pocs"]
    )
    def test_non_finite_result_exits_three_and_writes_nothing(self, tmp_path, capsys, method):
        # finite samples near the double maximum overflow both solvers
        assert main(["gen", "--n", "30", "--out", str(tmp_path)]) == 0
        samples = tmp_path / "samples.json"
        samples.write_text('{"vertices": [0, 1, 2], "values": [1e308, -1e308, 1e308]}', encoding="utf-8")
        capsys.readouterr()
        assert main(["reconstruct", "--dir", str(tmp_path), "--samples", str(samples), *method]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
        assert not (tmp_path / "reconstruction.json").exists()


class TestBench:
    def test_bound_outputs(self, tmp_path):
        code = main([
            "bench", "bound", "--n", "12", "--kernel-sigma", "2.0", "--seed", "5",
            "--realizations", "2", "--fracs", "0.25:0.75:0.25",
            "--threads", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        csv_text = (tmp_path / "bound.csv").read_text()
        assert csv_text.startswith("variant,signal_cycles,noise_sigma,sample_size,mean_value,stderr,n_failed")
        assert len(csv_text.strip().splitlines()) == 1 + 3 * 3
        assert (tmp_path / "bound.svg").exists()
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "bench bound"
        assert list(manifest["parameters"].items()) == [
            ("n", 12),
            ("side", 10.0),
            ("kernel_sigma", 2.0),
            ("seed", 5),
            ("k", 3),
            ("realizations", 2),
            ("fracs", [0.25, 0.5, 0.75]),
            ("variants", ["identity", "degree", "voronoi"]),
            ("out", str(tmp_path)),
        ]

    def test_mse_outputs_one_panel_per_grid_cell(self, tmp_path):
        code = main([
            "bench", "mse", "--n", "12", "--kernel-sigma", "2.0", "--seed", "5",
            "--realizations", "1", "--fracs", "0.3:0.6:0.3",
            "--signals", "2,3", "--noises", "0.1,0.2", "--log-scale",
            "--threads", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "mse.csv").exists()
        panels = sorted(p.name for p in tmp_path.glob("mse_*.svg"))
        assert panels == [
            "mse_s2_sigma0.1.svg",
            "mse_s2_sigma0.2.svg",
            "mse_s3_sigma0.1.svg",
            "mse_s3_sigma0.2.svg",
        ]
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "bench mse"
        assert list(manifest["parameters"].items()) == [
            ("n", 12),
            ("side", 10.0),
            ("kernel_sigma", 2.0),
            ("seed", 5),
            ("k", 3),
            ("realizations", 1),
            ("fracs", [0.3, 0.6]),
            ("signals", [2, 3]),
            ("noises", [0.1, 0.2]),
            ("recon", "closed-form"),
            ("log_scale", True),
            ("variants", ["identity", "degree", "voronoi"]),
            ("out", str(tmp_path)),
        ]

    def test_bound_manifest_does_not_depend_on_threads(self, tmp_path):
        manifests = []
        for threads in ("1", "2"):
            code = main([
                "bench", "bound", "--n", "12", "--kernel-sigma", "2.0", "--seed", "5",
                "--realizations", "2", "--fracs", "0.25:0.75:0.25",
                "--threads", threads, "--out", str(tmp_path),
            ])
            assert code == 0
            manifests.append(stable_text(tmp_path / "manifest.json"))
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("command", ["bound", "mse"])
    def test_one_worker_by_default(self, command):
        assert build_parser().parse_args(["bench", command]).threads == 1

    def test_progress_is_reported_on_a_terminal_only(self, monkeypatch):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setattr(sys, "stderr", Terminal())
        report = cli._progress(2)
        report(0)
        report(1)
        assert sys.stderr.getvalue() == "realization 1/2\nrealization 2/2\n"
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert cli._progress(2) is None

    def test_fracs_count_is_bounded_before_any_list_is_built(self):
        # a step this small once made the parser loop without end; the alarm turns a hang into a failure
        previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("--fracs parsing did not return"))
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(argparse.ArgumentTypeError, match="at most 10000 fractions"):
                cli._parse_fracs("1e-300:0.9:1e-300")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert len(cli._parse_fracs("0.1:0.9:0.0001")) == 8001

    def test_svg_regenerates_from_csv_series(self, tmp_path):
        main([
            "bench", "bound", "--n", "12", "--kernel-sigma", "2.0", "--seed", "5",
            "--realizations", "1", "--fracs", "0.5:0.5:0.1",
            "--threads", "1", "--out", str(tmp_path),
        ])
        svg = (tmp_path / "bound.svg").read_text()
        assert svg.count("<polyline") + svg.count("<circle") >= 3

    def test_total_failure_exits_four(self, tmp_path, monkeypatch):
        from graphsampling.bench import ResultTable, TableRow

        rows = tuple(
            TableRow(v, None, None, 5, float("nan"), 0.0, 2) for v in ("identity", "degree")
        )
        monkeypatch.setattr(cli, "run_bound_experiment", lambda *a, **kw: ResultTable(rows))
        code = main([
            "bench", "bound", "--n", "12", "--realizations", "2",
            "--threads", "1", "--out", str(tmp_path),
        ])
        assert code == 4
        assert (tmp_path / "bound.csv").exists()


# a samples file the closed form accepts at band 6, so only a flag can make its command fail
SIX_SAMPLES = '{"vertices": [0, 1, 2, 3, 4, 5], "values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}'
# truth files for the 24-vertex instance of ``gen``: one value is not finite, or too few values
BAD_TRUTHS = {
    "nan-truth.json": '{"values": [NaN' + ", 0.0" * 23 + "]}",
    "short-truth.json": '{"values": [1.0, 2.0, 3.0, 4.0, 5.0]}',
}


@pytest.mark.parametrize(
    "argv, samples",
    [
        (["gen", "--n", "5", "--seed", "-1"], None),
        (["select", "--q", "degree", "--m", "4", "--k", "0"], None),
        (["select", "--q", "degree", "--m", "0"], None),
        (["bench", "bound", "--n", "12", "--realizations", "0", "--threads", "1"], None),
        (["bench", "bound", "--n", "1", "--realizations", "1", "--threads", "1"], None),
        (["bench", "mse", "--n", "1", "--realizations", "1", "--threads", "1"], None),
        (["bench", "bound", "--n", "12", "--realizations", "1", "--threads", "0"], None),
        (["bench", "mse", "--n", "12", "--realizations", "1", "--threads", "1", "--variants", "degree,degree"], None),
        (["bench", "mse", "--n", "12", "--realizations", "1", "--threads", "1", "--signals", "2,2"], None),
        (["bench", "mse", "--n", "12", "--realizations", "1", "--threads", "1", "--noises", "0.1,0.1"], None),
        (["reconstruct", "--q", "degree", "--band", "2"], '{"values": [1.0, 2.0]}'),
        (["reconstruct", "--q", "degree", "--band", "2"], "not json"),
        (["reconstruct", "--q", "degree", "--band", "2"], '{"vertices": [0, 1.5], "values": [1.0, 2.0]}'),
        (["reconstruct", "--q", "degree", "--band", "2"], "[1, 2]"),
        (["reconstruct", "--q", "degree", "--band", "2"], '"x"'),
        (["reconstruct", "--q", "degree", "--band", "2"], '{"vertices": [0, 1], "values": {"a": 1}}'),
        (["reconstruct", "--q", "degree", "--band", "2"], '{"vertices": [0, 1], "values": [NaN, 1.0]}'),
        (["bench", "bound", "--n", "12", "--fracs", "0.5:0.1:0.1"], None),
        (["bench", "mse", "--n", "12", "--variants", "foo"], None),
        (["bench", "bound", "--n", "12", "--threads", "abc"], None),
        (["select", "--q", "degree", "--m", "x"], None),
        (["gen", "--n", "5", "--kern", "2"], None),
        (["reconstruct", "--q", "degree", "--r", "6"], SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--max", "7"], SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--method", "pocs", "--rel-tol", "inf"], SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--method", "pocs", "--alpha", "inf"], SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--method", "pocs", "--omega", "nan"], SIX_SAMPLES),
        (["gen", "--n", "5", "--kernel-sigma", "inf"], None),
        (["gen", "--n", "5", "--side", "inf"], None),
        (["bench", "mse", "--n", "12", "--kernel-sigma", "inf"], None),
        (["bench", "mse", "--n", "12", "--fracs", "nan:0.5:0.1"], None),
        (["bench", "mse", "--n", "12", "--noises", "0.1,inf"], None),
        (["bench", "mse", "--n", "12", "--realizations", "1", "--fracs", "0.5:0.5:0.1", "--signals", "2",
          "--noises", "1e308"], None),
        (["bench", "bound", "--n", "12", "--fracs", "0.1:0.9:1e-5"], None),
        (["reconstruct", "--q", "degree", "--truth", "{d}/nan-truth.json"], SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--truth", "{d}/short-truth.json"], SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--method", "pocs", "--omega", "0.5", "--truth", "{d}/nan-truth.json"],
         SIX_SAMPLES),
        (["reconstruct", "--q", "degree", "--method", "pocs", "--omega", "0.5", "--truth", "{d}/short-truth.json"],
         SIX_SAMPLES),
        (["gen", "--n", "5", "--side", "abc"], None),
        (["bench", "bound", "--n", "12", "--fracs", "0.1:0.5"], None),
        (["bench", "mse", "--n", "12", "--signals", "a,b"], None),
        (["bench", "bound", "--n", "12", "--variants", ","], None),
    ],
    ids=[
        "negative-seed", "zero-order", "zero-target", "zero-realizations", "bound-one-vertex", "mse-one-vertex",
        "zero-threads", "repeated-variant", "repeated-signal", "repeated-noise",
        "no-vertices", "not-json", "fractional-vertex", "samples-list", "samples-string", "values-dict",
        "nan-value",
        "reversed-fracs", "unknown-variant", "non-integer-threads", "non-integer-target",
        "kernel-sigma-prefix", "band-alias", "max-iters-prefix",
        "infinite-rel-tol", "infinite-alpha", "nan-omega", "gen-infinite-kernel-sigma", "infinite-side",
        "mse-infinite-kernel-sigma", "nan-fracs", "infinite-noise", "huge-noise", "too-many-fracs",
        "nan-truth", "short-truth", "pocs-nan-truth", "pocs-short-truth",
        "non-numeric-side", "two-part-fracs", "non-integer-signals", "no-variant",
    ],
)
def test_bad_input_exits_two_with_one_error_line(tmp_path, capsys, argv, samples):
    gen(tmp_path, "--q", "degree")
    capsys.readouterr()
    for name, text in BAD_TRUTHS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [a.format(d=tmp_path) for a in argv]
    if argv[0] in ("gen", "bench"):
        argv = argv + ["--out", str(tmp_path / "out")]
    else:
        argv = argv + ["--dir", str(tmp_path)]
    if samples is not None:
        (tmp_path / "samples.json").write_text(samples, encoding="utf-8")
        argv += ["--samples", str(tmp_path / "samples.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] in ("gen", "bench"):
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "10"],
        ["bench", "bound", "--n", "12", "--realizations", "1"],
        ["bench", "mse", "--n", "12", "--realizations", "1"],
    ],
    ids=["gen", "bench-bound", "bench-mse"],
)
def test_out_naming_a_file_exits_two_and_writes_nothing(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    assert main(argv + ["--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {taken}: exists and is not a directory\n"
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def run_with_out(tmp_path, capsys, monkeypatch, command, target):
    """Exit code of ``command`` with ``--out target``; fails if any input is read or any result computed."""
    gen(tmp_path, "--q", "degree")
    (tmp_path / "samples.json").write_text(SIX_SAMPLES, encoding="utf-8")
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    # neither input is read nor any result computed
    monkeypatch.setattr(cli, "_Instance", no_work)
    monkeypatch.setattr(cli, "_read_json", no_work)
    monkeypatch.setattr(cli, "_greedy_from_basis", no_work)
    monkeypatch.setattr(cli, "consistent_reconstruct", no_work)
    argv = [command, "--dir", str(tmp_path), "--q", "degree", "--out", str(target)]
    argv += ["--m", "4"] if command == "select" else ["--samples", str(tmp_path / "samples.json")]
    return main(argv)


@pytest.mark.parametrize("command", ["select", "reconstruct"])
def test_out_in_a_missing_directory_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    target = tmp_path / "nodir" / "x.json"
    assert run_with_out(tmp_path, capsys, monkeypatch, command, target) == 2
    assert capsys.readouterr().err == f"error: --out {target}: no directory {target.parent}\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["select", "reconstruct"])
def test_out_naming_a_directory_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    target = tmp_path / "adir"
    target.mkdir()
    assert run_with_out(tmp_path, capsys, monkeypatch, command, target) == 2
    assert capsys.readouterr().err == f"error: --out {target}: is a directory\n"
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m", "4", "--k", "0"], "proxy order k must be a positive integer, got 0"),
        (["--m", "0"], "sampling set size must be in [1, 24), got 0"),
        (["--m", "24"], "sampling set size must be in [1, 24), got 24"),
    ],
    ids=["zero-order", "zero-target", "target-n"],
)
def test_select_checks_order_and_target_before_the_eigensolver(tmp_path, capsys, monkeypatch, flags, message):
    gen(tmp_path, "--q", "degree")
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("ran before --k and --m were checked")

    monkeypatch.setattr(cli, "compute_basis", no_work)
    if "--k" in flags:
        # the order needs no input at all
        monkeypatch.setattr(cli, "_Instance", no_work)
    assert main(["select", "--dir", str(tmp_path), "--q", "degree", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "selection_degree.json").exists() and not (tmp_path / "basis_degree.bin").exists()


@pytest.mark.parametrize("method", ["closed-form", "pocs"])
def test_bad_truth_is_named_before_any_work(tmp_path, capsys, monkeypatch, method):
    gen(tmp_path, "--q", "degree")
    (tmp_path / "samples.json").write_text(SIX_SAMPLES, encoding="utf-8")
    truth = tmp_path / "nan-truth.json"
    truth.write_text(BAD_TRUTHS["nan-truth.json"], encoding="utf-8")
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the truth file was checked")

    # the command's one eigensolver call
    monkeypatch.setattr(cli, "compute_basis", no_work)
    argv = ["reconstruct", "--dir", str(tmp_path), "--q", "degree", "--method", method, "--omega", "0.5"]
    assert main(argv + ["--samples", str(tmp_path / "samples.json"), "--truth", str(truth)]) == 2
    assert capsys.readouterr().err == f"error: {truth}: expected a list of 24 finite numbers\n"
    assert not (tmp_path / "reconstruction.json").exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[1, 2]", "wrong JSON shape (list indices must be integers or slices, not str)"),
        ('{"vertices": [true, 1], "values": [1.0, 2.0]}', '"vertices" must be a list of integers'),
        ('{"vertices": [0, 1], "values": ["1.0", 2.0]}', "expected a list of 2 finite numbers"),
        ('{"vertices": [0, 1, 2], "values": [1.0, 2.0]}', "expected a list of 3 finite numbers"),
        ('{"vertices": [0, 1], "values": [NaN, 2.0]}', "expected a list of 2 finite numbers"),
        ('{"vertices": [0, 1], "values": [1' + "0" * 400 + ', 2.0]}', "expected a list of 2 finite numbers"),
        ('{"vertices": [0, 99], "values": [1.0, 2.0]}', "vertex id out of range [0, 24)"),
        ('{"vertices": [0, 36893488147419103232], "values": [1.0, 2.0]}', "vertex id out of range [0, 24)"),
        ('{"vertices": [3, 3], "values": [1.0, 2.0]}', "duplicate vertex ids"),
        ('{"vertices": [], "values": []}', "at least one sample is required"),
    ],
    ids=[
        "list", "boolean-id", "string-value", "unequal-lengths", "nan-value", "int-beyond-double", "id-out-of-range",
        "id-beyond-int64", "duplicate-id", "no-samples",
    ],
)
def test_bad_samples_are_named_before_any_work(tmp_path, capsys, monkeypatch, text, problem):
    gen(tmp_path, "--q", "degree")
    samples = tmp_path / "samples.json"
    samples.write_text(text, encoding="utf-8")
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the samples file was checked")

    monkeypatch.setattr(cli, "compute_basis", no_work)
    assert main(["reconstruct", "--dir", str(tmp_path), "--q", "degree", "--samples", str(samples)]) == 2
    assert capsys.readouterr().err == f"error: {samples}: {problem}\n"
    assert not (tmp_path / "reconstruction.json").exists()


def count_calls(monkeypatch, *names):
    """Calls of the named functions of ``cli``, by name; the functions still run."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def stable_text(path):
    """The lines of a JSON output, its timestamp aside."""
    return [line for line in path.read_text(encoding="utf-8").splitlines() if '"created_utc"' not in line]


@pytest.fixture
def selected(tmp_path):
    """A 24-vertex instance after ``select --q degree --m 6``, with samples at its six picks."""
    gen(tmp_path, "--q", "degree")
    assert main(["select", "--dir", str(tmp_path), "--q", "degree", "--m", "6"]) == 0
    order = read_json(tmp_path / "selection_degree.json")["order"]
    samples = {"vertices": order, "values": [1.0, -2.0, 0.5, 3.0, 0.0, 1.5]}
    (tmp_path / "six.json").write_text(json.dumps(samples), encoding="utf-8")
    return tmp_path


# each command on the ``selected`` instance, and the output it writes there
BASIS_READERS = {
    "select": (["select", "--q", "degree", "--m", "6"], "selection_degree.json"),
    "closed-form": (["reconstruct", "--q", "degree", "--samples", "{d}/six.json", "--band", "4"], "reconstruction.json"),
    "pocs": (
        ["reconstruct", "--q", "degree", "--samples", "{d}/six.json", "--method", "pocs", "--omega", "0.5"],
        "reconstruction.json",
    ),
}


def run_in(d, command):
    argv, output = BASIS_READERS[command]
    assert main([a.format(d=d) for a in argv] + ["--dir", str(d)]) == 0
    return d / output


@pytest.mark.parametrize("command", list(BASIS_READERS))
def test_the_basis_select_left_replaces_parse_and_eigensolver(selected, monkeypatch, command):
    basis_file = selected / "basis_degree.bin"
    assert basis_file.exists()
    calls = count_calls(monkeypatch, "compute_basis", "graph_from_json")
    reused = stable_text(run_in(selected, command))
    assert calls == {"compute_basis": 0, "graph_from_json": 0}
    basis_file.unlink()
    assert stable_text(run_in(selected, command)) == reused
    assert calls == {"compute_basis": 1, "graph_from_json": 1}
    # only select leaves a basis file
    assert basis_file.exists() == (command == "select")


@pytest.mark.parametrize("change", ["graph.json", "q_degree.json", "code"])
def test_a_stale_basis_file_is_not_read(selected, tmp_path_factory, monkeypatch, change):
    if change == "graph.json":
        other = tmp_path_factory.mktemp("other")
        assert main(["gen", "--n", "24", "--kernel-sigma", "2.0", "--seed", "8", "--q", "degree", "--out", str(other)]) == 0
        shutil.copy(other / "graph.json", selected / "graph.json")
    elif change == "q_degree.json":
        doc = read_json(selected / "q_degree.json")
        doc["entries"] = [2.0 * q for q in doc["entries"]]
        (selected / "q_degree.json").write_text(json.dumps(doc), encoding="utf-8")
    else:
        # the basis file was written by other code: another eigensolver, parser or numpy
        monkeypatch.setattr(cli, "_basis_code", lambda: b"other code")
    fresh = tmp_path_factory.mktemp("fresh")
    for name in ("graph.json", "q_degree.json", "six.json"):
        shutil.copy(selected / name, fresh / name)
    calls = count_calls(monkeypatch, "compute_basis")
    outputs = [{command: read_json(run_in(d, command)) for command in BASIS_READERS} for d in (selected, fresh)]
    # one eigensolver call per directory: select's, whose basis both reconstructions read
    assert calls == {"compute_basis": 2}
    for command in BASIS_READERS:
        mine, theirs = (out[command] for out in outputs)
        mine.pop("manifest"), theirs.pop("manifest")
        assert mine == theirs


@pytest.mark.parametrize("damage", ["garbled", "truncated", "flipped-bit", "other-size", "directory"])
def test_a_damaged_basis_file_counts_as_absent(selected, monkeypatch, damage):
    basis_file = selected / "basis_degree.bin"
    raw = basis_file.read_bytes()
    expected = stable_text(run_in(selected, "closed-form"))
    if damage == "directory":
        basis_file.unlink()
        basis_file.mkdir()
    else:
        damaged = {
            "garbled": b"not a basis file",
            "truncated": raw[:-8],
            "flipped-bit": raw[:-1] + bytes([raw[-1] ^ 1]),
            "other-size": raw.replace(b'"n": 24', b'"n": 23', 1),
        }[damage]
        assert damaged != raw
        basis_file.write_bytes(damaged)
    calls = count_calls(monkeypatch, "compute_basis")
    assert stable_text(run_in(selected, "closed-form")) == expected
    assert calls == {"compute_basis": 1}


def test_a_failed_basis_write_leaves_select_at_exit_zero(tmp_path, capsys):
    gen(tmp_path, "--q", "degree")
    argv = ["select", "--dir", str(tmp_path), "--q", "degree", "--m", "6"]
    assert main(argv) == 0
    expected = stable_text(tmp_path / "selection_degree.json")
    # a directory in its place: the write of the basis file fails
    (tmp_path / "basis_degree.bin").unlink()
    (tmp_path / "basis_degree.bin").mkdir()
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert stable_text(tmp_path / "selection_degree.json") == expected
    assert (tmp_path / "basis_degree.bin").is_dir()
    assert not list(tmp_path.glob("*.part"))


def test_unreadable_sources_leave_no_basis_file(selected, monkeypatch):
    expected = {command: stable_text(run_in(selected, command)) for command in BASIS_READERS}
    (selected / "basis_degree.bin").unlink()
    read_bytes = Path.read_bytes

    def no_sources(path):
        if path.suffix == ".py":
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    # without the package's sources no basis file can be keyed, so none is written or read
    monkeypatch.setattr(Path, "read_bytes", no_sources)
    cli._basis_code.cache_clear()
    try:
        for command in BASIS_READERS:
            assert stable_text(run_in(selected, command)) == expected[command]
            assert not (selected / "basis_degree.bin").exists()
    finally:
        cli._basis_code.cache_clear()


# n x n float64 arrays each command may hold at once, as tracemalloc counts them (numpy's arrays
# and Python's objects, not LAPACK's workspace): above the 3.1 and 4.5 held, below the 5.1 and
# 6.6 held when each step kept its own copies and temporaries. select's 4.5 is the parse of
# graph.json in cli._Instance; its resident peak is set by the eigensolves, which tracemalloc
# does not see in full (test_select_frees_what_each_eigensolve_does_not_read)
PEAK_ARRAYS = {"gen": 4.0, "select": 5.5}


def test_gen_and_select_hold_few_n_by_n_arrays(tmp_path):
    # a small chain first, so that lazy imports and caches are not counted
    gen(tmp_path / "warm-up")
    assert main(["select", "--dir", str(tmp_path / "warm-up"), "--m", "4"]) == 0
    n, d = 300, tmp_path / "fresh"
    commands = {"gen": ["gen", "--n", str(n), "--seed", "3", "--out", str(d)], "select": ["select", "--dir", str(d), "--m", "60"]}
    for name, argv in commands.items():
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_ARRAYS[name] * 8 * n * n, f"{name} held {peak / (8 * n * n):.2f} n x n arrays"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_select_frees_what_each_eigensolve_does_not_read(tmp_path, monkeypatch):
    assert main(["gen", "--n", "60", "--seed", "3", "--out", str(tmp_path)]) == 0
    laplacians, modes, calls = [], [], []
    laplacian = cli.combinatorial_laplacian

    def recorded_laplacian(graph):
        out = laplacian(graph)
        laplacians.append(weakref.ref(out))
        return out

    post_init = gs.SpectralBasis.__post_init__

    def recorded_modes(self):
        post_init(self)
        modes.append(weakref.ref(self.modes))

    eigh = np.linalg.eigh

    def alive(refs):
        return any(ref() is not None for ref in refs)

    def recorded_eigh(a, *args, **kwargs):
        calls.append((len(a), alive(laplacians), alive(modes)))
        return eigh(a, *args, **kwargs)

    # no patch wraps compute_basis or _greedy_from_basis: a wrapper's frame would hold the arrays
    monkeypatch.setattr(cli, "combinatorial_laplacian", recorded_laplacian)
    monkeypatch.setattr(gs.SpectralBasis, "__post_init__", recorded_modes)
    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    # the first refresh comes at 8 picks (8^2 > 60), so 20 picks refresh at sizes 52 and 44
    assert main(["select", "--dir", str(tmp_path), "--m", "20"]) == 0
    assert len(laplacians) == len(modes) == 1
    (size, laplacian_alive, _), *growth = calls
    assert size == 60 and not laplacian_alive
    assert {52, 44} <= {size for size, _, _ in growth}
    assert not any(modes_alive for _, _, modes_alive in growth)


def test_pocs_x_hat_equals_the_public_call(tmp_path):
    assert main(["gen", "--n", "30", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert main(["select", "--dir", str(tmp_path), "--m", "9"]) == 0
    selection = read_json(tmp_path / "selection_voronoi.json")
    vertices = selection["order"]
    values = np.sin(np.arange(len(vertices))).tolist()
    with open(tmp_path / "samples.json", "w", encoding="utf-8") as fh:
        json.dump({"vertices": vertices, "values": values}, fh)
    argv = ["reconstruct", "--dir", str(tmp_path), "--samples", str(tmp_path / "samples.json"), "--method", "pocs"]
    assert main(argv) == 0
    lap = gs.combinatorial_laplacian(gs.graph_from_json(read_json(tmp_path / "graph.json")))
    inner = gs.InnerProduct("voronoi", np.asarray(read_json(tmp_path / "q_voronoi.json")["entries"]))
    params = gs.PocsParams(omega=selection["cutoffs"][-1], lambda_max=gs.estimate_lambda_max(lap, inner))
    report = gs.pocs_reconstruct(lap, inner, vertices, values, params)
    assert read_json(tmp_path / "reconstruction.json")["x_hat"] == report.x_hat.tolist()


@pytest.fixture(scope="module")
def sixty(tmp_path_factory):
    """An n=60 Voronoi instance with a 30-pick selection, and its pick order and cutoffs."""
    d = tmp_path_factory.mktemp("sixty")
    assert main(["gen", "--n", "60", "--seed", "3", "--q", "voronoi", "--out", str(d)]) == 0
    assert main(["select", "--dir", str(d), "--m", "30"]) == 0
    selection = read_json(d / "selection_voronoi.json")
    return d, selection["order"], selection["cutoffs"]


def test_pocs_default_cutoff_is_that_of_the_sampled_picks(sixty, tmp_path):
    d, order, cutoffs = sixty
    # the first 12 picks as a set, listed in another order
    vertices = [order[i] for i in np.random.default_rng(0).permutation(12)]
    values = np.cos(np.arange(12.0)).tolist()
    samples, out = tmp_path / "samples.json", tmp_path / "rec.json"
    samples.write_text(json.dumps({"vertices": vertices, "values": values}), encoding="utf-8")
    assert main(["reconstruct", "--dir", str(d), "--samples", str(samples), "--method", "pocs", "--out", str(out)]) == 0
    lap = gs.combinatorial_laplacian(gs.graph_from_json(read_json(d / "graph.json")))
    inner = gs.InnerProduct("voronoi", np.asarray(read_json(d / "q_voronoi.json")["entries"]))
    # 0.636 for these 12 picks; the cutoff of all 30 is 1.981
    params = gs.PocsParams(omega=cutoffs[11], lambda_max=gs.estimate_lambda_max(lap, inner))
    report = read_json(out)
    assert report["x_hat"] == gs.pocs_reconstruct(lap, inner, vertices, values, params).x_hat.tolist()
    assert report["manifest"]["parameters"]["omega"] is None


def test_pocs_samples_off_the_pick_order_need_an_omega(sixty, tmp_path, capsys):
    d, order, _ = sixty
    samples, out = tmp_path / "samples.json", tmp_path / "rec.json"
    samples.write_text(json.dumps({"vertices": order[2:9], "values": [1.0] * 7}), encoding="utf-8")
    argv = ["reconstruct", "--dir", str(d), "--samples", str(samples), "--method", "pocs", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: samples that are not the first picks of the selection need --omega\n"
    assert not out.exists()
    # an explicit cutoff serves any samples
    assert main(argv + ["--omega", "1.0"]) == 0


# left out of every manifest: argparse's own fields, and the worker count, on which no output depends
UNRECORDED = ("command", "bench_command", "func", "threads")


@pytest.mark.parametrize(
    "argv, output",
    [
        (["gen", "--n", "12", "--out", "{d}/g"], "g/manifest.json"),
        (["select", "--dir", "{d}", "--q", "degree", "--m", "4"], "selection_degree.json"),
        (["reconstruct", "--dir", "{d}", "--q", "degree", "--samples", "{d}/six.json"], "reconstruction.json"),
        (["reconstruct", "--dir", "{d}", "--q", "degree", "--samples", "{d}/six.json", "--method", "pocs"],
         "reconstruction.json"),
        (["bench", "bound", "--n", "12", "--realizations", "1", "--fracs", "0.5:0.5:0.1", "--out", "{d}/b"],
         "b/manifest.json"),
        (["bench", "mse", "--n", "12", "--realizations", "1", "--fracs", "0.5:0.5:0.1", "--signals", "2",
          "--noises", "0.1", "--out", "{d}/m"], "m/manifest.json"),
    ],
    ids=["gen", "select", "closed-form", "pocs", "bench-bound", "bench-mse"],
)
def test_manifest_records_every_flag_in_parser_order(tmp_path, argv, output):
    gen(tmp_path, "--q", "degree")
    assert main(["select", "--dir", str(tmp_path), "--q", "degree", "--m", "6"]) == 0
    # the six picks, so that PoCS defaults to their own cutoff
    order = read_json(tmp_path / "selection_degree.json")["order"]
    (tmp_path / "six.json").write_text(json.dumps({"vertices": order, "values": [1.0] * 6}), encoding="utf-8")
    argv = [a.format(d=tmp_path) for a in argv]
    assert main(argv) == 0
    manifest = read_json(tmp_path / output)
    manifest = manifest.get("manifest", manifest)
    recorded = [key for key in vars(build_parser().parse_args(argv)) if key not in UNRECORDED]
    assert list(manifest["parameters"]) == recorded


POCS = ["reconstruct", "--method", "pocs"]


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("graph.json", "[]", ["select", "--m", "4"]),
        # the edge-list layout of earlier versions has no payload field
        ("graph.json", '{"n": 3, "edges": 5}', ["select", "--m", "4"]),
        ("graph.json", "not json", ["select", "--m", "4"]),
        ("graph.json", '{"upper_f8le": ""}', ["select", "--m", "4"]),
        ("graph.json", '{"n": true, "upper_f8le": ""}', ["select", "--m", "4"]),
        ("graph.json", '{"n": 24.0, "upper_f8le": ""}', ["select", "--m", "4"]),
        ("graph.json", '{"n": -1, "upper_f8le": ""}', ["select", "--m", "4"]),
        ("graph.json", '{"n": 24, "upper_f8le": [0.5]}', ["select", "--m", "4"]),
        ("graph.json", '{"n": 24, "upper_f8le": "not base64!"}', ["reconstruct"]),
        ("graph.json", '{"n": 24, "upper_f8le": "AAAAAAAAAAA"}', ["select", "--m", "4"]),
        ("graph.json", '{"n": 24, "upper_f8le": "AAAAAAAAAAA="}', ["reconstruct"]),
        ("q_degree.json", "[]", ["select", "--m", "4"]),
        ("q_degree.json", "not json", ["reconstruct"]),
        ("q_degree.json", '{"variant": "degree", "entries": [' + ", ".join(["true"] * 24) + "]}", ["select", "--m", "4"]),
        ("q_degree.json", '{"variant": "degree", "entries": [' + ", ".join(['"1.0"'] * 24) + "]}", ["reconstruct"]),
        ("q_degree.json", '{"variant": "degree"}', ["select", "--m", "4"]),
        ("q_degree.json", '{"variant": "degree", "entries": [' + ", ".join(["1.0"] * 23) + "]}", ["reconstruct"]),
        ("selection_degree.json", '{"cutoffs": 5}', POCS),
        ("selection_degree.json", "not json", POCS),
        ("selection_degree.json", '{"cutoffs": []}', POCS),
        ("selection_degree.json", '{"cutoffs": [true]}', POCS),
        ("selection_degree.json", '{"cutoffs": ["0.5"]}', POCS),
    ],
    ids=[
        "graph-list", "graph-edges-number", "graph-not-json", "graph-no-n", "graph-boolean-n", "graph-float-n",
        "graph-negative-n", "graph-payload-list", "graph-not-base64", "graph-payload-unpadded", "graph-payload-short",
        "inner-list", "inner-not-json", "inner-booleans",
        "inner-strings", "inner-no-entries", "short-entries", "cutoffs-number", "selection-not-json", "cutoffs-empty",
        "cutoffs-boolean", "cutoffs-string",
    ],
)
def test_malformed_input_file_exits_two(tmp_path, capsys, name, text, argv):
    gen(tmp_path, "--q", "degree")
    (tmp_path / name).write_text(text, encoding="utf-8")
    if argv[0] == "reconstruct":
        (tmp_path / "samples.json").write_text('{"vertices": [0, 1], "values": [1.0, 2.0]}', encoding="utf-8")
        argv = argv + ["--samples", str(tmp_path / "samples.json")]
    capsys.readouterr()
    assert main(argv + ["--q", "degree", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ") and err.count("\n") == 1


def test_library_type_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    gen(tmp_path, "--q", "degree")

    def broken(*args, **kwargs):
        raise TypeError("a library fault")

    # only a ValueError means bad input; any other error is a fault and ends in a traceback
    monkeypatch.setattr(cli, "_greedy_from_basis", broken)
    with pytest.raises(TypeError, match="a library fault"):
        main(["select", "--dir", str(tmp_path), "--q", "degree", "--m", "4"])


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(-1e9, 1e9)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])
    | st.text(max_size=4)
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def paired_samples(draw):
    """Samples documents at and near the valid ones: ids around [0, 10) and as many values."""
    ids = st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True) | st.lists(st.integers(-1, 10), max_size=10)
    vertices = draw(ids)
    count = {"min_size": len(vertices), "max_size": len(vertices)}
    values = draw(st.lists(st.floats(-1e6, 1e6), **count) | st.lists(st.floats(-1e6, 1e6) | JSON_SCALARS, **count))
    return {"vertices": vertices, "values": values}


def well_formed(doc, n):
    """A samples document the closed form must accept: distinct ids in [0, n), as many finite numbers."""
    if not isinstance(doc, dict) or not {"vertices", "values"} <= doc.keys():
        return False
    vertices, values = doc["vertices"], doc["values"]
    return (
        isinstance(vertices, list)
        and isinstance(values, list)
        and all(type(v) is int and 0 <= v < n for v in vertices)
        # a NaN fails the comparison, an int beyond a double exceeds the bound
        and all(type(v) in (int, float) and abs(v) < 1e300 for v in values)
        and 0 < len(vertices) == len(values) == len(set(vertices))
    )


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small")
    assert main(["gen", "--n", "10", "--kernel-sigma", "2.0", "--seed", "3", "--out", str(directory)]) == 0
    return directory


@settings(max_examples=60, deadline=None)
@given(doc=JSON_DOCS | st.fixed_dictionaries({"vertices": JSON_DOCS, "values": JSON_DOCS}) | paired_samples())
def test_samples_file_never_ends_in_a_traceback(small_instance, doc):
    path, out = small_instance / "samples.json", small_instance / "reconstruction.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["reconstruct", "--dir", str(small_instance), "--samples", str(path), "--out", str(out)])
    if not well_formed(doc, 10):
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    elif code == 3:
        # the one exit a well-formed document may take: a design that cannot see the band
        lap = gs.combinatorial_laplacian(gs.graph_from_json(read_json(small_instance / "graph.json")))
        entries = read_json(small_instance / "q_voronoi.json")["entries"]
        basis = gs.compute_basis(lap, gs.InnerProduct("voronoi", np.asarray(entries)))
        with pytest.raises(RankDeficientError):
            gs.e_opt_metric(basis, doc["vertices"], len(doc["vertices"]))
    else:
        assert code == 0
        assert np.all(np.isfinite(read_json(out)["x_hat"]))
