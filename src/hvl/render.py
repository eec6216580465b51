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
from .fncore import HarmonicMapSpec, ParameterError, eval_f_many, require_int
from .geometry import MAX_SAMPLES, _write_digits

_TWO_PI = 2.0 * math.pi
# The boundary is drawn at _MAX_RADIUS, with the images of the circles of
# _CIRCLE_RADII and of _RAY_COUNT equally spaced radii under it.
_MAX_RADIUS = 1.0 - 1e-6
_CIRCLE_RADII = (0.2, 0.4, 0.6, 0.8, 0.95, 0.999)
_RAY_COUNT = 24
# Below this |x| 10^6 rounds to an integer that float64 and int64 hold exactly.
_EXACT_LIMIT = 2.0 ** 51 / 1e6


def _fmt(x: float) -> str:
    return "%.6f" % x


def _polyline_points(curves: list[np.ndarray]) -> list[str]:
    """The SVG points of each curve, one "%.6f" per coordinate, y flipped."""
    xy = np.concatenate(curves).view(float)  # interleaved (re, im)
    xy[1::2] *= -1  # the SVG y axis points down
    sep = np.full(xy.size, ord(","), np.uint8)
    sep[1::2] = ord(" ")
    sep[2 * np.cumsum([c.size for c in curves]) - 1] = ord("\n")  # end of a curve
    return (_exact_points(xy, sep) or _percent_points(xy, sep)).split("\n")[:-1]


def _percent_points(xy: np.ndarray, sep: np.ndarray) -> str:
    return "".join(["%.6f" + chr(c) for c in sep.tolist()]) % tuple(xy.tolist())


def _exact_points(xy: np.ndarray, sep: np.ndarray) -> str | None:
    """The bytes of ``_percent_points`` from integer arithmetic on
    q = round(|x| 10^6), or None when that might differ from "%.6f": some
    |x| >= 2^51/10^6, or some |x| 10^6 within its rounding error of a half."""
    mag = np.abs(xy)
    if not np.all(mag < _EXACT_LIMIT):  # checked first: |x| 10^6 may overflow
        return None
    y = mag * 1e6
    q = np.rint(y)
    if not np.all(0.5 - np.abs(y - q) > 2.0 ** -52 * y):
        return None
    q = q.astype(np.int64)
    whole = q // 10 ** 6
    width = len(str(int(whole.max()))) + 9  # sign, digits, point, 6 decimals, separator
    mat = np.empty((xy.size, width), np.uint8)
    mat[:, 0], mat[:, -8], mat[:, -1] = ord("-"), ord("."), sep
    _write_digits(mat, [*range(width - 2, width - 8, -1), *range(width - 9, 0, -1)], q)
    keep = np.ones(mat.shape, bool)  # drop a + sign and leading zeros
    keep[:, 0] = np.signbit(xy)  # -0.000000 for -0.0 and tiny negatives, as %
    keep[:, 1:width - 9] = whole[:, None] >= 10 ** np.arange(width - 10, 0, -1)
    return mat[keep].tobytes().decode("ascii")


def _curve_samples(map_spec: HarmonicMapSpec, zs: np.ndarray) -> list[np.ndarray]:
    """The finite values of f along each row of zs, one evaluation call."""
    zs = np.atleast_2d(zs)
    vals = eval_f_many(map_spec, zs.ravel(), on_pole="nan").reshape(zs.shape)
    return [v[np.isfinite(v)] for v in vals]


def render_scene(map_spec: HarmonicMapSpec,
                 criterion: CriterionReport | None = None,
                 samples: int = 2048) -> str:
    """Compose the SVG scene for one map from ``samples`` (512 to
    ``MAX_SAMPLES``) points per circle and max(256, samples // 8) per ray;
    returns the file content."""
    samples = require_int(samples, 512, MAX_SAMPLES, "render samples per curve")
    t = -math.pi + _TWO_PI * np.arange(samples) / samples
    unit = np.exp(1j * t)  # shared by the boundary and every circle
    warnings: list[str] = []

    boundary = _curve_samples(map_spec, _MAX_RADIUS * unit)[0]
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

    theta = -math.pi + _TWO_PI * np.arange(_RAY_COUNT) / _RAY_COUNT
    s = np.linspace(0.0, _MAX_RADIUS, max(256, samples // 8))
    rays = []
    for j, pts in enumerate(_curve_samples(map_spec, np.exp(1j * theta)[:, None] * s)):
        if pts.size < 2:
            warnings.append(f"ray {j} skipped: fewer than 2 finite samples")
        else:
            rays.append(pts)
    if rays:
        parts += ['<polyline fill="none" stroke="#c9d6e3" stroke-width="%s" points="%s"/>'
                  % (_fmt(extent * 0.0012), line) for line in _polyline_points(rays)]

    for r in _CIRCLE_RADII:
        # one polyline per formatting call keeps the digit matrix small
        pts = _curve_samples(map_spec, r * unit)[0]
        if pts.size < 2:
            warnings.append(f"circle r={r:g} skipped: fewer than 2 finite samples")
            continue
        parts.append(
            '<polyline fill="none" stroke="#6e9bc5" stroke-width="%s" points="%s"/>'
            % (_fmt(extent * 0.0018), *_polyline_points([np.concatenate([pts, pts[:1]])]))
        )

    parts.append(
        '<polyline fill="none" stroke="#13315c" stroke-width="%s" points="%s"/>'
        % (_fmt(extent * 0.0035), *_polyline_points([np.concatenate([boundary, boundary[:1]])]))
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
