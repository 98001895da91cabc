"""Desk-scale Galois cohomology through etale algebras, Kummer data,
and local symbols."""

__version__ = "0.1.0"


class InternalError(Exception):
    """A broken invariant of coclass itself, never a fault of the input: the
    CLI reports it with exit 70, not as invalid input."""


class UnsupportedSize(ValueError):
    """An input past a documented size cap, such as |G| > 24, |M| > 16 or a
    square class needing a factor past the trial-division bound: the CLI
    reports it with exit 3."""
