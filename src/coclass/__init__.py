"""Desk-scale Galois cohomology through etale algebras, Kummer data,
and local symbols."""

__version__ = "0.1.0"


class InternalError(Exception):
    """A broken invariant of coclass itself, never a fault of the input: the
    CLI reports it with exit 70, not as invalid input."""


# desk caps on the group and module of a G-module
GROUP_CAP = 24
MODULE_CAP = 16


class Unsupported(ValueError):
    """An input outside the declared scope, not a malformed one: the CLI
    reports every subclass with exit 3."""


class UnsupportedSize(Unsupported):
    """An input past a documented size cap, such as |G| > GROUP_CAP,
    |M| > MODULE_CAP or a square class needing a factor past the
    trial-division bound."""
