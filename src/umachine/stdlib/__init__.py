"""The shipped biform library: CD theories, native realizations, examples.

The library is itself a project (``source/`` holds the ``.mmt`` sources and
the lists OMDoc document, which declares the types of the rule-bearing list
constants ``append`` and ``append_many``) and is loaded by default into every
CLI and server session.  Importing :mod:`umachine.stdlib.rules` populates the
native-function registry.
"""

from __future__ import annotations

from pathlib import Path

from . import rules  # noqa: F401  (registers the native functions on import)


def root() -> Path:
    """The stdlib project root (contains ``source/``)."""
    return Path(__file__).resolve().parent
