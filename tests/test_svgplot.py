"""SVG chart rendering."""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import graphsampling
from graphsampling.svgplot import _escape, line_chart


def test_output_is_well_formed_xml():
    svg = line_chart(
        [("a & b", [0, 1], [1.0, 2.0])],
        title="<title>",
        x_label="x",
        y_label="y",
    )
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_polylines_and_legend_present():
    svg = line_chart(
        [("a", [0, 1, 2], [1.0, 2.0, 1.5]), ("b", [0, 1, 2], [0.5, 0.7, 0.9])],
        title="demo",
        x_label="x",
        y_label="y",
    )
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg and ">b</text>" in svg
    assert "demo" in svg


def test_nan_breaks_polyline():
    svg = line_chart([("a", [0, 1, 2, 3], [1.0, math.nan, 2.0, 3.0])])
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 1


def test_flat_series_is_widened_by_half_a_unit():
    svg = line_chart([("flat", [0, 1, 2], [3.0, math.nan, 3.0])])
    # y range [2.5, 3.5] before the 4% padding: ticks from 2.46 to 3.54, both points at mid-height
    assert ">2.46</text>" in svg and ">3.54</text>" in svg
    assert svg.count('cy="232.50"') == 2


def test_log_scale_drops_nonpositive_values():
    svg = line_chart([("a", [0, 1, 2], [0.0, 10.0, 100.0])], log_y=True)
    assert "(log scale)" in svg


def test_deterministic_output():
    series = [("s", [0.0, 0.5], [2.0, 4.0])]
    assert line_chart(series) == line_chart(series)


def test_empty_series_render_placeholder():
    svg = line_chart([("a", [], [])])
    assert "no finite data" in svg


def test_escape_matches_saxutils():
    for text in ["", "plain", "a & b", "<title>", "&amp;", "&<>\"'", "'x' > \"y\" & <z>", ">>&&<<"]:
        assert _escape(text) == escape(text)


def test_cli_import_loads_no_network_or_xml_stack():
    # saxutils imports urllib.request, which pulls in http, email and ssl on every CLI start;
    # concurrent.futures pulls in logging, queue and heapq, which only a worker pool needs
    code = "import sys; s = set(sys.modules); import graphsampling.cli; print(*{m.split('.')[0] for m in set(sys.modules) - s})"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(graphsampling.__file__))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert not {"urllib", "http", "email", "ssl", "xml"} & loaded
    assert not {"concurrent", "logging", "queue", "heapq"} & loaded
