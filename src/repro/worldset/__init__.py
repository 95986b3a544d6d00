"""Explicit (enumerated) world-set backend: the reference possible-worlds semantics."""

from .operations import (
    choice_of,
    choice_relation_worlds,
    repair_by_key,
    repair_relation_worlds,
)
from .probability import normalize
from .world import World
from .worldset import WorldSet

__all__ = [
    "World",
    "WorldSet",
    "choice_of",
    "choice_relation_worlds",
    "normalize",
    "repair_by_key",
    "repair_relation_worlds",
]
