"""SVG scene assembly: determinism, element counts, option validation."""

import numpy as np
import pytest

from hvl import (
    ParameterError,
    RenderOptions,
    check_criterion,
    render_scene,
    presets,
)

EX1 = presets.example1()

FAST = RenderOptions(samples_per_curve=512, circle_radii=(0.4, 0.8), ray_count=6)


def test_options_validation():
    with pytest.raises(ParameterError):
        RenderOptions(samples_per_curve=100)
    with pytest.raises(ParameterError):
        RenderOptions(circle_radii=(0.5, 1.5))
    with pytest.raises(ParameterError):
        RenderOptions(max_radius=1.5)
    RenderOptions(max_radius=1.0)  # boundary itself is allowed (clamped)


def test_scene_is_wellformed_svg():
    svg = render_scene(EX1, opts=FAST)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'viewBox="' in svg
    assert svg.count("<rect") == 1  # background
    # one boundary + two circles + six rays
    assert svg.count("<polyline") == 1 + 2 + 6
    import xml.etree.ElementTree as ET

    ET.fromstring(svg)  # parses cleanly


def test_scene_determinism():
    a = render_scene(EX1, opts=FAST)
    b = render_scene(EX1, opts=FAST)
    assert a == b


def test_cusp_markers_follow_certificate():
    report = check_criterion(EX1.h, EX1.m)
    svg = render_scene(EX1, criterion=report, opts=FAST)
    assert svg.count("<circle") == 7
    assert 'fill="#c0392b"' in svg
    # suppressed when asked
    quiet = RenderOptions(samples_per_curve=512, circle_radii=(0.4, 0.8),
                          ray_count=6, show_cusps=False)
    svg2 = render_scene(EX1, criterion=report, opts=quiet)
    assert svg2.count("<circle") == 0


def test_no_markers_without_certificate():
    svg = render_scene(EX1, opts=FAST)
    assert svg.count("<circle") == 0
    star = presets.star()
    report = check_criterion(star.h, star.m)  # not satisfied
    svg_star = render_scene(star, criterion=report, opts=FAST)
    assert svg_star.count("<circle") == 0


def test_flat_preset_renders_without_warnings():
    svg = render_scene(presets.star(), opts=FAST)
    assert "<!-- warning" not in svg
    assert svg.count("<polyline") == 9


def test_image_y_axis_points_up():
    """SVG y grows downward; the scene must flip signs so that a point with
    positive imaginary part lands above the real axis."""
    svg = render_scene(EX1, opts=FAST)
    # f(e^{i pi/4}) = i + 0.4 e^{-i 5 pi/4} has positive imaginary part;
    # its flipped y must be negative somewhere in the boundary polyline.
    boundary = svg.split("<polyline")[-1]
    pts = boundary.split('points="')[1].split('"')[0]
    ys = np.array([float(pair.split(",")[1]) for pair in pts.split()])
    assert ys.min() < 0 < ys.max()
