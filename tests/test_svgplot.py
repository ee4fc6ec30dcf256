"""SVG emitter: well-formed XML, expected elements, deterministic output."""

import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest

from portopt.svgplot import Series, escape, render_plot

SRC = Path(__file__).resolve().parents[1] / "src"

LINE = Series(x=(0.0, 1.0, 2.0), y=(0.0, 1.0, 0.5), label="a line",
              css_class="frontier-mm")
DOTS = Series(x=(0.2, 0.8, 1.4), y=(0.3, 0.9, 0.1), label="dots & more",
              kind="scatter", css_class="cloud-mm")


def test_renders_well_formed_xml():
    svg = render_plot([LINE, DOTS], title="t", xlabel="x", ylabel="y")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_contains_expected_elements():
    svg = render_plot([LINE, DOTS])
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") >= 3   # 3 data dots plus the legend marker
    assert 'class="frontier-mm"' in svg
    assert 'class="cloud-mm"' in svg


def test_labels_escaped():
    svg = render_plot([DOTS])
    assert "dots &amp; more" in svg


def test_deterministic():
    a = render_plot([LINE, DOTS], title="same")
    b = render_plot([LINE, DOTS], title="same")
    assert a == b


def test_nonfinite_points_dropped():
    s = Series(x=(0.0, float("nan"), 2.0), y=(0.0, 1.0, 4.0), label="gap")
    svg = render_plot([s])
    ET.fromstring(svg)
    poly = [ln for ln in svg.split("\n") if "<polyline" in ln][0]
    assert poly.count(",") == 2   # two surviving points


@pytest.mark.parametrize("text", [
    "", "plain", "dots & more", "a < b > c", "&amp; stays &amp;amp;", "<&>",
    "\"double\" and 'single' quotes", "&lt;tag attr=\"x\"&gt; & <tag attr='y'>",
])
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils alone would load urllib.request, http.client, email and ssl
    heavy = ("xml.sax", "urllib.request", "http.client", "ssl")
    code = f"import sys, portopt.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "[]"
