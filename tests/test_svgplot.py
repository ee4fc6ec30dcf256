"""SVG emitter: well-formed XML, expected elements, deterministic output."""

import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest

from portopt.svgplot import Series, _bounds, _nice_ticks, escape, render_plot

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


@pytest.mark.parametrize("series", [
    [], [Series(x=(), y=(), label="empty")],
    [Series(x=(float("nan"),), y=(1.0,), label="no finite x")],
], ids=["no-series", "empty-series", "no-finite-point"])
def test_a_plot_without_points_gets_the_unit_box(series):
    # no finite point reaches the default bounds, and the plot still renders
    assert _bounds(series) == (0.0, 1.0, 0.0, 1.0)
    ET.fromstring(render_plot(series))


def test_a_flat_range_widens_by_one_each_way():
    # one point has no x or y range: each widens to +-1 around it, then pads
    x0, x1, y0, y1 = _bounds([Series(x=(2.0, 2.0), y=(3.0, 3.0), label="one point")])
    assert (x0, x1) == pytest.approx((1.0 - 0.08, 3.0 + 0.08))
    assert (y0, y1) == pytest.approx((2.0 - 0.12, 4.0 + 0.12))
    ET.fromstring(render_plot([Series(x=(2.0,), y=(3.0,), label="dot", kind="scatter")]))


@pytest.mark.parametrize("lo, hi", [
    (1.0, 1.0), (2.0, -1.0),
    # ranges a few ulps wide, where a step would not move the tick
    (1.0, 1.0 + 4e-16), (-1.0 - 4e-16, -1.0), (0.9999999999999999, 1.0000000000000004),
    (5e-324, 2e-323),
])
def test_nice_ticks_of_an_empty_range_is_its_low_end(lo, hi):
    assert _nice_ticks(lo, hi) == [lo]


def test_a_range_a_few_ulps_wide_renders():
    svg = render_plot([Series((1.0, 1.0 + 4e-16), (0.0, 1.0), "a")])
    ET.fromstring(svg)
    assert svg.count('text-anchor="middle">1</text>') == 1     # the one x tick


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
