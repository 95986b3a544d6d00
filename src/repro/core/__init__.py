"""The I-SQL engine: binder, planner, executors, backends, session and
results."""

from .backends import ExecutionBackend, ExplicitBackend, WsdBackend
from .executor import Executor, WorldQueryResult
from .binder import Binder
from .planner import Planner, ResolvedFrom
from .results import StatementResult, WorldAnswer
from .session import MayBMS

__all__ = [
    "Binder",
    "ExecutionBackend",
    "Executor",
    "ExplicitBackend",
    "MayBMS",
    "Planner",
    "ResolvedFrom",
    "StatementResult",
    "WorldAnswer",
    "WorldQueryResult",
    "WsdBackend",
]
