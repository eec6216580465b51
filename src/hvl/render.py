"""Deterministic SVG pictures of image domains.

``render_scene`` draws the image of the unit disk under f: the image of a
circle just inside the boundary, the images of a few interior circles and
radial rays (the curvilinear "polar grid" that shows how the disk folds),
and, when a satisfied criterion report is supplied, dots at the boundary
cusps.  Output is a plain SVG string assembled with fixed 6-decimal
formatting and no timestamps, so identical inputs give identical bytes.
Curves that fail to evaluate (a ray running into a pole of h', say) degrade
to an SVG comment instead of aborting the whole picture.
"""

from __future__ import annotations

import math

import numpy as np

from .criterion import CriterionReport
from .fncore import HarmonicMapSpec, HvlError, ParameterError, eval_f_many, require_int

_TWO_PI = 2.0 * math.pi
# The boundary is drawn at _MAX_RADIUS, with the images of the circles of
# _CIRCLE_RADII and of _RAY_COUNT equally spaced radii under it.
_MAX_RADIUS = 1.0 - 1e-6
_CIRCLE_RADII = (0.2, 0.4, 0.6, 0.8, 0.95, 0.999)
_RAY_COUNT = 24


def _fmt(x: float) -> str:
    return "%.6f" % x


def _polyline_points(pts: np.ndarray) -> str:
    # SVG y axis points down; flip the imaginary part
    return " ".join(_fmt(p.real) + "," + _fmt(-p.imag) for p in pts)


def _curve_samples(map_spec: HarmonicMapSpec, zs: np.ndarray) -> np.ndarray:
    vals, failed = eval_f_many(map_spec, zs, on_failure="mask")
    vals = np.atleast_1d(vals)
    keep = ~np.atleast_1d(failed) & np.isfinite(vals)
    return vals[keep]


def render_scene(map_spec: HarmonicMapSpec,
                 criterion: CriterionReport | None = None,
                 samples: int = 2048) -> str:
    """Compose the SVG scene for one map from ``samples`` (at least 512)
    points per curve; returns the file content."""
    samples = require_int(samples, 512, "render needs at least 512 samples per curve")
    t = -math.pi + _TWO_PI * np.arange(samples) / samples
    warnings: list[str] = []

    boundary = _curve_samples(map_spec, _MAX_RADIUS * np.exp(1j * t))
    if boundary.size < 2:
        raise ParameterError("boundary curve failed to evaluate; nothing to draw")
    re, im = boundary.real, -boundary.imag
    pad = 0.05 * max(float(np.ptp(re)), float(np.ptp(im)), 1e-9)
    x0, y0 = float(re.min()) - pad, float(im.min()) - pad
    vw, vh = float(np.ptp(re)) + 2 * pad, float(np.ptp(im)) + 2 * pad
    extent = max(vw, vh)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="%s %s %s %s">' % (_fmt(x0), _fmt(y0), _fmt(vw), _fmt(vh)),
        '<rect x="%s" y="%s" width="%s" height="%s" fill="#ffffff"/>'
        % (_fmt(x0), _fmt(y0), _fmt(vw), _fmt(vh)),
    ]

    ray_n = max(256, samples // 8)
    s = np.linspace(0.0, _MAX_RADIUS, ray_n)
    for j in range(_RAY_COUNT):
        theta = -math.pi + _TWO_PI * j / _RAY_COUNT
        try:
            pts = _curve_samples(map_spec, s * np.exp(1j * theta))
            if pts.size < 2:
                raise HvlError("fewer than 2 finite samples")
            parts.append(
                '<polyline fill="none" stroke="#c9d6e3" stroke-width="%s" points="%s"/>'
                % (_fmt(extent * 0.0012), _polyline_points(pts))
            )
        except HvlError as exc:
            warnings.append(f"ray {j} skipped: {exc}")

    for r in _CIRCLE_RADII:
        try:
            pts = _curve_samples(map_spec, r * np.exp(1j * t))
            if pts.size < 2:
                raise HvlError("fewer than 2 finite samples")
            closed = np.concatenate([pts, pts[:1]])
            parts.append(
                '<polyline fill="none" stroke="#6e9bc5" stroke-width="%s" points="%s"/>'
                % (_fmt(extent * 0.0018), _polyline_points(closed))
            )
        except HvlError as exc:
            warnings.append(f"circle r={r:g} skipped: {exc}")

    closed = np.concatenate([boundary, boundary[:1]])
    parts.append(
        '<polyline fill="none" stroke="#13315c" stroke-width="%s" points="%s"/>'
        % (_fmt(extent * 0.0035), _polyline_points(closed))
    )

    if criterion is not None and criterion.criterion_satisfied:
        marker_r = 0.009 * extent
        for rec in criterion.roots:
            if rec.suspected_tangency:
                continue
            img = rec.boundary_image
            if img is None:
                img = complex(eval_f_many(map_spec, np.exp(1j * rec.t)))
            parts.append(
                '<circle cx="%s" cy="%s" r="%s" fill="#c0392b"/>'
                % (_fmt(img.real), _fmt(-img.imag), _fmt(marker_r))
            )

    for msg in warnings:
        parts.append("<!-- warning: %s -->" % msg.replace("--", "- -"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
