"""Binding for hand-built expression trees in unit tests.

Product code binds whole statements (:class:`repro.core.binder.Binder`,
called by every backend before it runs one); a unit test that evaluates a
free-standing expression binds it here, against one input's columns.
"""

from __future__ import annotations

from repro.core.binder import Binder, _Scope
from repro.relational.expressions import Expression
from repro.relational.schema import Schema


def bind_expression(expression: Expression, schema: Schema) -> Expression:
    """Bind *expression* in place against the columns of *schema*."""
    Binder(lambda name: Schema([]), {})._expr(expression,
                                              _Scope([(None, schema)]))
    return expression
