"""``python -m shorphase``: the same command line as the ``shorphase`` script."""

from .cli import entrypoint

entrypoint()
