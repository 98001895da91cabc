"""Desk-scale Galois cohomology through etale algebras, Kummer data,
and local symbols."""

__version__ = "0.1.0"


class InternalError(Exception):
    """A broken invariant of coclass itself, never a fault of the input: the
    CLI reports it with exit 70, not as invalid input."""
