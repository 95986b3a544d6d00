"""Unit tests for keys, key-repair groups, and FD enforcement through I-SQL.

Functional dependencies have no checker of their own: they are enforced the
way the paper's Section 3.2 does it, with an ``assert not exists`` statement
on the explicit backend.
"""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.cleaning import enforce_functional_dependency
from repro.errors import ConstraintViolationError, ParseError, WorldSetError
from repro.relational.constraints import (
    check_key,
    key_repair_groups,
    key_violations,
)
from repro.relational.relation import Relation


class TestKeyChecking:
    def test_figure1_r_violates_key_a(self, relation_r):
        violations = key_violations(relation_r, ["A"])
        assert set(violations) == {("a1",), ("a2",)}
        assert not check_key(relation_r, ["A"])

    def test_key_holds_on_full_key(self, relation_r):
        assert check_key(relation_r, ["A", "B"])

    def test_raise_on_violation(self, relation_r):
        with pytest.raises(ConstraintViolationError):
            check_key(relation_r, ["A"], raise_on_violation=True)


class TestFunctionalDependencies:
    def test_fd_violation_drops_the_only_world(self):
        db = MayBMS({"R": Relation(["SSN", "TEL"], [(123, 456), (123, 789)])})
        with pytest.raises(WorldSetError):
            db.execute(enforce_functional_dependency("R", "U", "SSN", "TEL"))

    def test_fd_holds(self):
        db = MayBMS({"R": Relation(["SSN", "TEL"], [(123, 456), (789, 123)])})
        db.execute(enforce_functional_dependency("R", "U", "SSN", "TEL"))
        assert db.world_count() == 1
        assert sorted(db.relation("U").rows) == [(123, 456), (789, 123)]

    def test_fd_drops_only_the_violating_worlds(self):
        db = MayBMS({"S": Relation(["ID", "SSN", "TEL"], [
            (1, 123, 456), (1, 123, 789), (2, 123, 456)])})
        db.execute("create table T as select SSN, TEL from S repair by key ID;")
        assert db.world_count() == 2
        db.execute(enforce_functional_dependency("T", "U", "SSN", "TEL"))
        assert db.world_count() == 1
        assert db.execute("select certain SSN, TEL from U;").rows() == \
            [(123, 456)]


class TestRepairGroups:
    def test_groups_preserve_first_appearance_order(self, relation_r):
        groups = key_repair_groups(relation_r, ["A"])
        assert [value for value, _ in groups] == [("a1",), ("a2",), ("a3",)]
        assert [len(rows) for _, rows in groups] == [2, 2, 1]

    def test_repair_by_key_requires_attributes(self, relation_r):
        db = MayBMS({"R": relation_r})
        with pytest.raises(ParseError):
            db.execute("create table I as select * from R repair by key;")

    def test_repair_count_is_product_of_group_sizes(self, relation_r):
        db = MayBMS({"R": relation_r})
        db.execute("create table I as select * from R repair by key A;")
        assert db.world_count() == 4

    def test_repair_count_explodes_exponentially(self):
        rows = [(group, option) for group in range(10) for option in range(3)]
        db = MayBMS({"R": Relation(["K", "V"], rows)}, backend="wsd")
        db.execute("create table I as select * from R repair by key K;")
        assert db.world_count() == 3 ** 10
