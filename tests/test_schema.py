"""Unit tests for Column and Schema (repro.relational.schema)."""

from __future__ import annotations

import pytest

from repro.errors import AmbiguousColumnError, SchemaError, UnknownColumnError
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType


class TestColumn:
    def test_qualified_name(self):
        assert Column("A").qualified_name() == "A"
        assert Column("A", qualifier="R").qualified_name() == "R.A"

    def test_matches_is_case_insensitive(self):
        column = Column("Pos", qualifier="I")
        assert column.matches("pos")
        assert column.matches("POS", "i")
        assert not column.matches("pos", "J")

    def test_with_qualifier_and_name(self):
        column = Column("A", SqlType.TEXT, "R")
        assert column.with_qualifier(None).qualifier is None
        assert column.with_name("B").name == "B"
        assert column.with_name("B").type is SqlType.TEXT


class TestSchemaConstruction:
    def test_from_strings(self):
        schema = Schema(["A", "B"])
        assert schema.names() == ["A", "B"]
        assert all(column.type is SqlType.ANY for column in schema)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["A", "a"])

    def test_same_name_different_qualifiers_allowed(self):
        schema = Schema([Column("A", qualifier="r1"), Column("A", qualifier="r2")])
        assert len(schema) == 2

    def test_invalid_entry_rejected(self):
        with pytest.raises(SchemaError):
            Schema([42])  # type: ignore[list-item]


class TestSchemaLookup:
    def setup_method(self):
        self.schema = Schema([
            Column("Id", SqlType.INTEGER, "i1"),
            Column("Pos", SqlType.TEXT, "i1"),
            Column("Id", SqlType.INTEGER, "i2"),
        ])

    def test_unqualified_unique_lookup(self):
        assert self.schema.index_of("Pos") == 1

    def test_unqualified_ambiguous_lookup_raises(self):
        with pytest.raises(AmbiguousColumnError):
            self.schema.index_of("Id")

    def test_qualified_lookup_disambiguates(self):
        assert self.schema.index_of("Id", "i2") == 2

    def test_unknown_column_raises_with_candidates(self):
        with pytest.raises(UnknownColumnError) as excinfo:
            self.schema.index_of("Gender")
        assert "i1.Pos" in str(excinfo.value)

    def test_has(self):
        assert self.schema.has("Pos")
        assert not self.schema.has("Id")  # ambiguous -> not a unique match
        assert self.schema.has("Id", "i1")


class TestSchemaDerivation:
    def test_with_qualifier(self):
        schema = Schema(["A", "B"]).with_qualifier("R")
        assert schema.qualified_names() == ["R.A", "R.B"]
        assert schema.without_qualifiers().qualified_names() == ["A", "B"]

    def test_project(self):
        schema = Schema(["A", "B", "C"]).project([2, 0])
        assert schema.names() == ["C", "A"]

    def test_project_out_of_range(self):
        with pytest.raises(SchemaError):
            Schema(["A"]).project([3])

    def test_concat(self):
        left = Schema(["A"]).with_qualifier("r")
        right = Schema(["A"]).with_qualifier("s")
        assert left.concat(right).qualified_names() == ["r.A", "s.A"]

    def test_concat_genuine_duplicate_rejected(self):
        left = Schema(["A"]).with_qualifier("r")
        with pytest.raises(SchemaError):
            left.concat(left)

    def test_union_compatibility(self):
        Schema(["A", "B"]).require_union_compatible(Schema(["X", "Y"]))
        with pytest.raises(SchemaError):
            Schema(["A"]).require_union_compatible(Schema(["X", "Y"]))

    def test_equality_and_hash(self):
        assert Schema(["A", "B"]) == Schema(["A", "B"])
        assert Schema(["A"]) != Schema(["B"])
        assert hash(Schema(["A"])) == hash(Schema(["A"]))
