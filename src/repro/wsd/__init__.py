"""World-set decompositions: the compact representation of large world-sets."""

from .approximate import (
    AnytimeBudget,
    AnytimeSampler,
    ApproximateConfidence,
    wilson_interval,
)
from .aggregate import (
    DEFAULT_STATE_BUDGET,
    AggregateBudgetExceededError,
    AggregateStats,
    DecomposedAggregator,
    analyse_aggregate_query,
)
from .budgets import ResourceBudgets
from .component import Alternative, Component
from .confidence import (
    DEFAULT_NODE_BUDGET,
    ConfidenceLadder,
    ConfidenceStats,
    DTreeBudgetExceededError,
    DTreeEngine,
    normalise_clauses,
)
from .construct import (
    add_certain_relation,
    from_choice_of,
    from_key_repair,
    from_worldset,
)
from .decomposition import (
    DEFAULT_ENUMERATION_LIMIT,
    Template,
    TemplateTuple,
    WorldSetDecomposition,
    ensure_enumerable,
)
from .execute import (
    Condition,
    SymbolicRelation,
    SymTuple,
    WSDExecutor,
    WSDQueryResult,
    WsdExecutionStats,
    prune_and_normalize,
)
from .fields import EXISTS_ATTRIBUTE, Field
from .grouping import (
    GroupingUnsupportedError,
    WorldFunction,
    WorldGroup,
    compile_world_function,
    evaluate_group_worlds,
)
from .normalize import factorize_component, is_normalized, normalize
from .setops import (
    DEFAULT_CLAUSE_BUDGET,
    SetOpBudgetExceededError,
    evaluate_compound_entries,
)

__all__ = [
    "AggregateBudgetExceededError",
    "AnytimeBudget",
    "AnytimeSampler",
    "ApproximateConfidence",
    "AggregateStats",
    "Alternative",
    "Component",
    "Condition",
    "ConfidenceLadder",
    "ConfidenceStats",
    "DEFAULT_CLAUSE_BUDGET",
    "DEFAULT_ENUMERATION_LIMIT",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_STATE_BUDGET",
    "DecomposedAggregator",
    "DTreeBudgetExceededError",
    "DTreeEngine",
    "EXISTS_ATTRIBUTE",
    "Field",
    "GroupingUnsupportedError",
    "ResourceBudgets",
    "SetOpBudgetExceededError",
    "SymTuple",
    "SymbolicRelation",
    "Template",
    "TemplateTuple",
    "WSDExecutor",
    "WSDQueryResult",
    "WorldFunction",
    "WorldGroup",
    "WorldSetDecomposition",
    "WsdExecutionStats",
    "add_certain_relation",
    "analyse_aggregate_query",
    "compile_world_function",
    "ensure_enumerable",
    "evaluate_compound_entries",
    "evaluate_group_worlds",
    "factorize_component",
    "from_choice_of",
    "from_key_repair",
    "from_worldset",
    "is_normalized",
    "normalise_clauses",
    "normalize",
    "wilson_interval",
    "prune_and_normalize",
]
