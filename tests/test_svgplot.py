import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixproc import svgplot
from fixproc.density import IntensityGrid
from fixproc.svgplot import (
    _DIV_STOPS,
    _SEQ_STOPS,
    ENVELOPE_COLOR,
    OBSERVED_COLOR,
    _points,
    _ramp_colors,
    envelope_panel,
    heatmap_svg,
    panel_grid_svg,
)
from helpers import WINDOW, points_reference, ramp_reference

STOPS = pytest.mark.parametrize("stops", [_SEQ_STOPS, _DIV_STOPS], ids=["seq", "div"])


def _expected(values, stops):
    return [ramp_reference(v, stops) for v in np.asarray(values, dtype=float).ravel().tolist()]


def _half_way_values(stops):
    # values whose unrounded channel lands exactly on .5, so rounding breaks a tie
    found = []
    for (p0, c0), (p1, c1) in zip(stops, stops[1:]):
        for value in np.linspace(p0, p1, 4097)[1:-1].tolist():
            t = (value - p0) / (p1 - p0)
            if any((a + t * (b - a)) % 1.0 == 0.5 for a, b in zip(c0, c1)):
                found.append(value)
    return found


class TestRampColors:
    @STOPS
    def test_special_values(self, stops):
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1e-300, 1.0 + 1e-15, 2.0, -5.0]
        values += [p for p, _ in stops]
        values += [np.nextafter(p, 2.0) for p, _ in stops]
        values += [np.nextafter(p, -1.0) for p, _ in stops]
        assert _ramp_colors(np.array(values), stops) == _expected(values, stops)

    @STOPS
    def test_half_way_channels_round_half_to_even(self, stops):
        values = _half_way_values(stops)
        assert len(values) >= 8
        assert _ramp_colors(np.array(values), stops) == _expected(values, stops)

    @STOPS
    def test_dense_sweep(self, stops):
        values = np.linspace(-0.1, 1.1, 20_001)
        assert _ramp_colors(values, stops) == _expected(values, stops)

    @STOPS
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_any_floats(self, stops, values):
        assert _ramp_colors(np.array(values), stops) == _expected(values, stops)

    def test_quarter_of_the_diverging_ramp(self):
        # channels 140, 174.5 and 209.5 round to 140, 174 and 210
        assert _ramp_colors(np.array([0.25]), _DIV_STOPS) == ["#8caed2"]

    def test_two_dimensional_input_is_flattened_row_major(self):
        values = np.array([[0.0, 0.3], [0.6, np.nan]])
        assert _ramp_colors(values, _SEQ_STOPS) == _expected(values, _SEQ_STOPS)


class TestHeatmap:
    @pytest.mark.parametrize("diverging", [False, True])
    def test_cells_take_the_reference_colours(self, rng, diverging):
        nx, ny = 7, 5
        values = rng.normal(size=(ny, nx))
        values[0, 0] = 0.0
        svg = heatmap_svg(IntensityGrid(WINDOW, nx, ny, values, 24.0), diverging=diverging)
        if diverging:
            norm, stops = 0.5 + values / (2.0 * np.abs(values).max()), _DIV_STOPS
        else:
            norm, stops = (values - values.min()) / (values.max() - values.min()), _SEQ_STOPS
        assert re.findall(r'fill="(#[0-9a-f]{6})"', svg) == _expected(norm, stops)


class TestPoints:
    # array-pass number text must give the bytes of _fmt on every point
    @pytest.mark.parametrize("values", [
        [0.125, 1.005, 2.675, 0.005, 0.015, 0.995, 99999.995],  # half-cent ties
        [-0.001, -0.0, -0.005, -1.0, -123.456, -1e-300],
        [1e-9, 0.0, 5e-324, 0.004999999999999999, 0.5, 10.0, 100.1, 0.1],
        [1e6, 999999.994, 999999.996, 1e7, 1.5e8, 1e300],
        [np.inf, -np.inf, np.nan],
    ], ids=["ties", "negatives", "small", "huge", "non_finite"])
    def test_edge_values(self, values):
        xs = np.array(values)
        ys = xs[::-1].copy()
        assert _points(xs, ys) == points_reference(xs, ys)

    def test_dense_sweeps(self, rng):
        xs = np.concatenate([
            np.arange(0.0, 50.0, 0.0005),
            np.round(rng.uniform(0.0, 1000.0, 50_000), 3),
            rng.uniform(0.0, 1e6, 50_000),
        ])
        ys = rng.permutation(xs)
        assert _points(xs, ys) == points_reference(xs, ys)

    @given(st.lists(st.tuples(st.floats(), st.floats()), max_size=40))
    def test_any_floats(self, pairs):
        xs = np.array([x for x, _ in pairs], dtype=float)
        ys = np.array([y for _, y in pairs], dtype=float)
        assert _points(xs, ys) == points_reference(xs, ys)

    def test_panel_equals_the_per_point_writer(self, rng, monkeypatch):
        grid = np.linspace(0.0, 20_000.0, 361)
        lower, upper = -np.abs(rng.normal(size=361)), np.abs(rng.normal(size=361))
        observed = rng.normal(size=361).cumsum()
        observed[::17] = np.nan
        panels = [dict(x=grid, series=[(observed, "#e6701b", 1.0), (upper, "#000000", 1.5)],
                       band=(lower, upper), refline=0.0, title="t")]
        svg = panel_grid_svg(panels)
        monkeypatch.setattr(svgplot, "_points", points_reference)
        assert svg == panel_grid_svg(panels)


class TestEnvelopePanel:
    def test_equals_the_hand_built_series(self, rng):
        grid = np.linspace(0.0, 20_000.0, 41)
        lower, upper = -np.abs(rng.normal(size=41)), np.abs(rng.normal(size=41))
        observed = [rng.normal(size=41).cumsum() for _ in range(3)]
        panel = envelope_panel(grid, lower, upper, observed, "hull", 0.8, 1.2)
        series = [(v, OBSERVED_COLOR, 0.8) for v in observed]
        series += [(lower, ENVELOPE_COLOR, 1.2), (upper, ENVELOPE_COLOR, 1.2)]
        by_hand = dict(x=grid, series=series, title="hull")
        assert panel_grid_svg([panel], ncols=1) == panel_grid_svg([by_hand], ncols=1)


class TestTitleText:
    def test_markup_in_titles_is_escaped(self):
        grid = IntensityGrid(WINDOW, 4, 4, np.ones((4, 4)), 10.0)
        heat = heatmap_svg(grid, "A&B<1> 1->2")
        panels = panel_grid_svg([dict(x=np.arange(3.0), series=[], title="A&B<1> 1->2")])
        for svg in (heat, panels):
            assert ">A&amp;B&lt;1> 1->2</text>" in svg
            ET.fromstring(svg)
