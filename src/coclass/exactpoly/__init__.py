"""Exact rational polynomial arithmetic: discriminants, resultants,
factorization over Q, certified numeric roots, and extension-field tests."""

from .extension import (
    charpoly,
    compositum_factors,
    extension_automorphisms,
    fields_isomorphic,
    has_root_in_extension,
    roots_in_extension,
    trager_norm,
)
from .factor import factor_rationals, factor_squarefree, is_irreducible, squarefree_decomposition
from .poly import (
    ExactPolyError,
    RationalPoly,
    discriminant,
    gcd,
    is_squarefree,
    resultant,
)

# `roots` needs mpmath, which no library path uses; load it on first access.
_LAZY = {"ComplexBall", "PrecisionExceeded", "numeric_roots", "real_roots"}


def __getattr__(name):
    if name in _LAZY:
        from . import roots
        return getattr(roots, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ComplexBall", "ExactPolyError", "PrecisionExceeded",
    "RationalPoly", "charpoly", "compositum_factors", "discriminant", "factor_rationals",
    "extension_automorphisms",
    "factor_squarefree", "fields_isomorphic", "gcd", "has_root_in_extension",
    "is_irreducible", "is_squarefree", "numeric_roots", "real_roots",
    "resultant", "roots_in_extension",
    "squarefree_decomposition",
    "trager_norm",
]
