"""Exact construction and mechanical verification of Racah algebras."""

from .freealg import (
    AlgebraError,
    Gen,
    NCPoly,
    RankMismatchError,
    RewriteRule,
    RewriteSystem,
    UnknownGeneratorError,
    anticommutator,
    commutator,
)

__all__ = [
    "AlgebraError",
    "Gen",
    "NCPoly",
    "RankMismatchError",
    "RewriteRule",
    "RewriteSystem",
    "UnknownGeneratorError",
    "anticommutator",
    "commutator",
]

__version__ = "0.1.0"
