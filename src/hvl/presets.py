"""Built-in example maps.

Four families, all normalized so h(z) = z**p + higher order terms:

* ``example1``  h = z**p with m = 4 (default p = 2): the simplest map whose
  boundary image has 2p+m-1 inward cusps.
* ``example2``  h = z**p + c z**(p+1)/(p+1) with m = 2 (default p = 3,
  c = i); |c| must stay below p - 2p/(2p+m+1) for the cusp criterion.
* ``star``      h' = p z**(p-1) / (1 + z**(2p+m-1)), p = 2, m = 2: image is a
  five-pointed star bounded by straight lines, boundary arcs collapse to the
  star tips.
* ``octagon``   same rational family with p = 1, m = 7: a univalent map onto
  a regular octagon.

The rational family puts the poles of h' exactly at the (2p+m-1)-th roots of
-1 on the unit circle, which is what flattens the sides.
"""

from __future__ import annotations

from .fncore import (MAX_ORDER, HarmonicMapSpec, ParameterError, PolySeries, RationalDeriv,
                     require_int)


def example1(p: int = 2, m: int = 4) -> HarmonicMapSpec:
    """h = z**p; with the default (p, m) = (2, 4), f = z^2 + (2/5) conj(z)^5."""
    return HarmonicMapSpec(PolySeries(p, (1 + 0j,)), m)


def example2(p: int = 3, m: int = 2, c: complex = 1j) -> HarmonicMapSpec:
    """h = z**p + c z**(p+1)/(p+1), subject to |c| <= p - 2p/(2p+m+1)."""
    p, m = require_int(p, 1, MAX_ORDER, "p"), require_int(m, 2, MAX_ORDER, "m")
    c = complex(c)
    bound = p - 2.0 * p / (2 * p + m + 1)
    if abs(c) > bound + 1e-12:
        raise ParameterError(
            f"|c| = {abs(c):.6g} exceeds the admissible bound {bound:.6g} for p={p}, m={m}"
        )
    return HarmonicMapSpec(PolySeries(p, (1 + 0j, c / (p + 1))), m)


def flat_sided(p: int, m: int) -> HarmonicMapSpec:
    """The rational family h'(z) = p z**(p-1) / (1 + z**(2p+m-1)).

    The image of the open disk is bounded by 2p+m-1 straight lines meeting in
    cusps; the boundary circle itself maps onto nothing but the cusp points.
    """
    p, m = require_int(p, 1, MAX_ORDER, "p"), require_int(m, 2, MAX_ORDER, "m")
    n_sides = 2 * p + m - 1
    numer = (0j,) * (p - 1) + (complex(p),)
    denom = (1 + 0j,) + (0j,) * (n_sides - 1) + (1 + 0j,)
    return HarmonicMapSpec(RationalDeriv(p, numer, denom), m)


def star(p: int = 2, m: int = 2) -> HarmonicMapSpec:
    """Five-pointed star preset (2-valent)."""
    return flat_sided(p, m)


def octagon(p: int = 1, m: int = 7) -> HarmonicMapSpec:
    """Regular octagon preset (univalent)."""
    return flat_sided(p, m)


# name -> (factory, override keys accepted in spec files)
PRESETS = {
    "example1": (example1, ("p", "m")),
    "example2": (example2, ("p", "m", "c")),
    "star": (star, ("p", "m")),
    "octagon": (octagon, ("p", "m")),
}
