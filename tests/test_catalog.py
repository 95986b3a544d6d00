"""Unit tests for the Catalog (named relation store)."""

from __future__ import annotations

import pytest

from repro.errors import DuplicateRelationError, UnknownRelationError
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation


@pytest.fixture
def catalog():
    c = Catalog()
    c.create("R", Relation(["A"], [(1,), (2,)]))
    c.create("S", Relation(["B"], [("x",)]))
    return c


class TestLookup:
    def test_case_insensitive_access(self, catalog):
        assert len(catalog.get("r")) == 2
        assert "s" in catalog and "S" in catalog

    def test_unknown_relation(self, catalog):
        with pytest.raises(UnknownRelationError):
            catalog.get("T")
        assert catalog.maybe_get("T") is None

    def test_names_sorted(self, catalog):
        assert catalog.names() == ["R", "S"]

    def test_len_and_iter(self, catalog):
        assert len(catalog) == 2
        assert list(catalog) == ["R", "S"]


class TestMutation:
    def test_create_duplicate_rejected(self, catalog):
        with pytest.raises(DuplicateRelationError):
            catalog.create("r", Relation(["A"], []))

    def test_replace(self, catalog):
        catalog.create("R", Relation(["A"], [(9,)]), replace=True)
        assert catalog.get("R").rows == [(9,)]

    def test_drop(self, catalog):
        catalog.drop("R")
        assert "R" not in catalog
        with pytest.raises(UnknownRelationError):
            catalog.drop("R")
        catalog.drop("R", if_exists=True)  # no error

    def test_stored_relation_carries_name(self, catalog):
        assert catalog.get("R").name == "R"


class TestCopyAndEquality:
    def test_copy_is_independent(self, catalog):
        clone = catalog.copy()
        clone.get("R").insert((3,))
        assert len(catalog.get("R")) == 2
        assert len(clone.get("R")) == 3

    def test_equality_by_contents(self, catalog):
        other = catalog.copy()
        assert catalog == other
        other.get("R").insert((3,))
        assert catalog != other

    def test_hash_stable_for_equal_catalogs(self, catalog):
        assert hash(catalog) == hash(catalog.copy())
