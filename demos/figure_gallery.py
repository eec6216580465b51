#!/usr/bin/env python3
"""Render the image domain of each preset to an SVG file.

Cusp markers appear automatically on the maps whose criterion certificate
holds.  Output lands in ./gallery (override with the first argument).

Usage:
    python3 figure_gallery.py [out_dir]
"""

import pathlib
import sys

from hvl import HvlError, check_criterion, presets, render_scene


def main():
    out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("example1", "example2", "star", "octagon"):
        spec = getattr(presets, name)()
        criterion = None
        try:
            criterion = check_criterion(spec)
        except HvlError as exc:
            print(f"{name}: criterion check failed ({exc}); drawing bare scene")
        svg = render_scene(spec, criterion)
        path = out_dir / f"{name}.svg"
        path.write_text(svg)
        marks = svg.count("<circle")
        print(f"wrote {path}  ({len(svg) // 1024} KiB, {marks} cusp markers)")


if __name__ == "__main__":
    main()
