"""SVG scene assembly: determinism, element counts, sample-count validation,
and the exact bulk formatter of polyline points."""

import hashlib
import json
import pathlib
from unittest import mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hvl import (
    ParameterError,
    check_criterion,
    render_scene,
    presets,
    render,
)
from hvl.cli import main

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
    """The bulk-formatted polyline points have the bytes of one "%.6f" call
    per coordinate, in every polyline of the scene."""
    spec = getattr(presets, name)()
    report = check_criterion(spec)
    svg = render_scene(spec, criterion=report, samples=FAST)
    monkeypatch.setattr(render, "_polyline_points", oracles.svg_polylines_ref)
    assert oracles.first_difference(
        svg, render_scene(spec, criterion=report, samples=FAST)) is None


def test_polyline_points_signed_zeros_and_two_points():
    """-0.0, values that round to -0.000000 (and to +0.000000 after the y
    flip), and the shortest polyline."""
    pts = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(-4e-7, 4e-7),
                    complex(1e-300, -2.5e-7), complex(-1.5, 2.0)])
    [out] = render._polyline_points([pts])
    assert out == oracles.svg_points_ref(pts)
    assert out.startswith("0.000000,-0.000000 -0.000000,-0.000000 -0.000000,0.000000 ")
    assert out.endswith(" -1.500000,-2.000000")
    for two in (pts[4:], pts[:2]):
        assert render._polyline_points([two]) == [oracles.svg_points_ref(two)]


_LIMIT = render._EXACT_LIMIT
_TIES = [1 / 128, 3 / 128, 122.0703125]
_SPECIAL = sorted({v for x in _TIES + [_LIMIT]
                   for v in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))}
                  | {0.0, 4e-7, 1e-300, 5e-324, 2.5e-7, 1e15, 1e300,
                     # |x| 10^6 lands on a half in float64 but lies above it
                     2.5e-6, 2.0000005})
_coord = st.one_of(
    st.sampled_from(_SPECIAL).flatmap(lambda v: st.sampled_from([v, -v])),
    # integer parts of 1 to 10 digits, with a fraction
    st.builds(lambda digits, frac, sign: sign * (10.0 ** (digits - 1) * (1 + 8 * frac)),
              st.integers(1, 10), st.floats(0, 1), st.sampled_from([1.0, -1.0])),
    st.floats(-1e3, 1e3),
)
_point = st.builds(complex, _coord, _coord)
_curve = st.lists(_point, min_size=1, max_size=12).map(np.array)


def test_bulk_formatter_matches_per_coordinate_percent():
    """Every call, of one curve or several, gives the bytes of one "%.6f"
    per coordinate; the exact path and the % fallback are both reached."""
    used_fallback = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(_curve, min_size=1, max_size=4))
    @example([np.array([1.5 + 2.25j, -3.0 - 0.5j])])  # exact path
    @example([np.array([1 / 128 + 0j]), np.array([complex(_LIMIT, 0), 0j])])  # fallback
    def check(curves):
        with mock.patch.object(render, "_percent_points", wraps=render._percent_points) as spy:
            got = render._polyline_points(curves)
        assert got == oracles.svg_polylines_ref(curves)
        used_fallback.add(spy.called)

    check()
    assert used_fallback == {False, True}


def _render_file(spec_json, tmp_path, samples=FAST):
    src, out = tmp_path / "spec.json", tmp_path / "scene.svg"
    src.write_text(spec_json)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["render", "--input", str(src), "--samples", str(samples),
                     "--out", str(out)]) == 0
    return out.read_text()


def test_huge_image_renders_without_overflow(tmp_path, monkeypatch):
    """|x| 10^6 would overflow here, so the formatter must bound |x| before
    it multiplies; the % fallback writes the bytes."""
    spec = '{"schema_version":"1","kind":"poly","p":1,"m":2,"coeffs":[[1,0],[5e305,0]]}'
    svg = _render_file(spec, tmp_path)
    assert svg.count("<polyline") == N_POLYLINES
    monkeypatch.setattr(render, "_polyline_points", oracles.svg_polylines_ref)
    assert oracles.first_difference(svg, _render_file(spec, tmp_path)) is None


def test_ray_into_a_pole_is_skipped_with_a_warning(tmp_path):
    """h' = 1/(1 + 1000 z) has its pole at -0.001, on ray 0 (angle -pi):
    the ray keeps one finite sample and is left out with a comment."""
    spec = ('{"schema_version":"1","kind":"rational_hprime","p":1,"m":2,'
            '"numer":[[1,0]],"denom":[[1,0],[1000,0]]}')
    svg = _render_file(spec, tmp_path)
    assert svg.count("<polyline") == N_POLYLINES - 1
    assert svg.count("<!-- warning") == 1
    assert "<!-- warning: ray 0 skipped: fewer than 2 finite samples -->" in svg


def test_scene_bytes_are_pinned():
    """The scenes of the four presets have the bytes recorded in
    tests/data/render_sha256.json, so a formatting or sampling change that
    moves one byte shows here."""
    path = pathlib.Path(__file__).parent / "data" / "render_sha256.json"
    pinned = json.loads(path.read_text())["sha256"]
    got = {}
    for name in ("example1", "example2", "star", "octagon"):
        spec = getattr(presets, name)()
        report = check_criterion(spec) if name == "example2" else None
        for n in (512, 2048):
            got[f"{name}@{n}"] = render_scene(spec, samples=n)
            if report is not None:
                got[f"{name}+criterion@{n}"] = render_scene(spec, criterion=report, samples=n)
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in got.items()} == pinned
