"""Data cleaning with constraints and queries (Section 3.2 of the paper)."""

from .pipeline import (
    CleaningReport,
    CleaningPipeline,
    enforce_functional_dependency,
    repair_key_step,
    swap_candidates_sql,
)

__all__ = [
    "CleaningPipeline",
    "CleaningReport",
    "enforce_functional_dependency",
    "repair_key_step",
    "swap_candidates_sql",
]
