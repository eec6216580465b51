"""SVG scene assembly: determinism, element counts, sample-count validation."""

import numpy as np
import pytest

from hvl import (
    ParameterError,
    check_criterion,
    render_scene,
    presets,
    render,
)

import oracles

EX1 = presets.example1()

FAST = 512  # the fewest samples per curve render_scene accepts
# one boundary + six interior circles + 24 rays
N_POLYLINES = 1 + 6 + 24


def test_options_validation():
    for samples in (100, 511, 512.0):
        with pytest.raises(ParameterError):
            render_scene(EX1, samples=samples)


def test_scene_is_wellformed_svg():
    svg = render_scene(EX1, samples=FAST)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'viewBox="' in svg
    assert svg.count("<rect") == 1  # background
    assert svg.count("<polyline") == N_POLYLINES
    import xml.etree.ElementTree as ET

    ET.fromstring(svg)  # parses cleanly


def test_scene_determinism():
    a = render_scene(EX1, samples=FAST)
    b = render_scene(EX1, samples=FAST)
    assert a == b


def test_cusp_markers_follow_certificate():
    report = check_criterion(EX1)
    svg = render_scene(EX1, criterion=report, samples=FAST)
    assert svg.count("<circle") == 7
    assert 'fill="#c0392b"' in svg


def test_no_markers_without_certificate():
    svg = render_scene(EX1, samples=FAST)
    assert svg.count("<circle") == 0
    star = presets.star()
    report = check_criterion(star)  # not satisfied
    svg_star = render_scene(star, criterion=report, samples=FAST)
    assert svg_star.count("<circle") == 0


def test_flat_preset_renders_without_warnings():
    svg = render_scene(presets.star(), samples=FAST)
    assert "<!-- warning" not in svg
    assert svg.count("<polyline") == N_POLYLINES


def test_image_y_axis_points_up():
    """SVG y grows downward; the scene must flip signs so that a point with
    positive imaginary part lands above the real axis."""
    svg = render_scene(EX1, samples=FAST)
    # f(e^{i pi/4}) = i + 0.4 e^{-i 5 pi/4} has positive imaginary part;
    # its flipped y must be negative somewhere in the boundary polyline.
    boundary = svg.split("<polyline")[-1]
    pts = boundary.split('points="')[1].split('"')[0]
    ys = np.array([float(pair.split(",")[1]) for pair in pts.split()])
    assert ys.min() < 0 < ys.max()


@pytest.mark.parametrize("name", ["example1", "example2", "star", "octagon"])
def test_polylines_match_per_coordinate_formatter(name, monkeypatch):
    """The one-template polyline points have the bytes of one "%.6f" call
    per coordinate, in every polyline of the scene."""
    spec = getattr(presets, name)()
    report = check_criterion(spec)
    svg = render_scene(spec, criterion=report, samples=FAST)
    monkeypatch.setattr(render, "_polyline_points", oracles.svg_points_ref)
    assert oracles.first_difference(
        svg, render_scene(spec, criterion=report, samples=FAST)) is None


def test_polyline_points_signed_zeros_and_two_points():
    """-0.0, values that round to -0.000000 (and to +0.000000 after the y
    flip), and the shortest polyline."""
    pts = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(-4e-7, 4e-7),
                    complex(1e-300, -2.5e-7), complex(-1.5, 2.0)])
    out = render._polyline_points(pts)
    assert out == oracles.svg_points_ref(pts)
    assert out.startswith("0.000000,-0.000000 -0.000000,-0.000000 -0.000000,0.000000 ")
    assert out.endswith(" -1.500000,-2.000000")
    for two in (pts[4:], pts[:2]):
        assert render._polyline_points(two) == oracles.svg_points_ref(two)
