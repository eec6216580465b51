"""``python -m hvl``: the ``hvl`` command line without an installed script."""

from .cli import run

run()
