"""Hand-rolled SVG output: document structure, escaping, validation."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from quantmeu import svgplot
from quantmeu.svgplot import Series, VLine, line_plot


def test_line_plot_is_wellformed_xml(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0, 1, 20)
    line_plot(path, [Series(x, x ** 2, label="sq"),
                     Series(x, 1 - x, label="lin", dashed=True)],
              title="demo", xlabel="x", ylabel="y",
              vlines=[VLine(0.5, label="half")])
    text = path.read_text()
    assert text.startswith("<?xml")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert root.get("width") and root.get("height")


def test_line_plot_contains_labels(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0, 2, 10)
    line_plot(path, [Series(x, np.sin(x), label="wave")],
              title="title here", xlabel="xaxis", ylabel="yaxis",
              vlines=[VLine(1.0, label="marker")])
    text = path.read_text()
    for token in ("title here", "xaxis", "yaxis", "wave", "marker"):
        assert token in text


def test_line_plot_escapes_markup(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.array([0.0, 1.0])
    line_plot(path, [Series(x, x, label="a<b&c")], title="t")
    text = path.read_text()
    assert "a<b&c" not in text
    assert "a&lt;b&amp;c" in text
    ET.fromstring(text)


@pytest.mark.parametrize("s", ["", "plain", "a<b&c", "&lt;", "x > y >> z", "<&>&&<<>>;"])
def test_escape_matches_saxutils(s):
    assert svgplot._escape(s) == escape(s)


def test_import_leaves_urllib_out():
    # xml.sax.saxutils imports urllib.request, and with it http.client,
    # email, ssl and socket; a fresh process, since pytest may have loaded it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svgplot.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys, quantmeu; "
                          "print('urllib.request' in sys.modules)"],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_series_validation():
    with pytest.raises(ValueError):
        Series(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Series(np.array([1.0, 2.0]), np.array([1.0]))


def test_line_plot_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        line_plot(tmp_path / "x.svg", [])
    with pytest.raises(ValueError):
        line_plot(tmp_path / "x.svg",
                  [Series(np.array([0.0, 1.0]), np.array([0.0, np.inf]))])


def test_line_plot_degenerate_ranges(tmp_path):
    # constant y and constant x must still render
    path = tmp_path / "flat.svg"
    line_plot(path, [Series(np.array([0.0, 0.0]), np.array([2.0, 2.0]))])
    ET.fromstring(path.read_text())
