"""Shared fixtures: the paper's datasets and preloaded MayBMS sessions.

Hypothesis runs under one of two profiles, picked by ``HYPOTHESIS_PROFILE``:

* ``tier1`` (the default) draws the same examples on every run — the seed is
  derived from each test, and no example database is replayed — so a tier-1
  run is reproducible;
* ``explore`` draws fresh random examples, for the nightly fuzz job.  Turn a
  failure it finds into an ``@example`` on the test.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import MayBMS
from repro.datasets import (
    cleaning_relation_r,
    figure1_database,
    figure1_relation_r,
    figure1_relation_s,
    figure2_expected_worlds,
    figure3_whale_worlds,
)

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def relation_r():
    """Relation R(A, B, C, D) of Figure 1."""
    return figure1_relation_r()


@pytest.fixture
def relation_s():
    """Relation S(C, E) of Figure 1."""
    return figure1_relation_s()


@pytest.fixture
def figure1_catalog():
    """The complete database of Figure 1 (R and S)."""
    return figure1_database()


@pytest.fixture
def figure2_worlds():
    """The expected world-set of Figure 2."""
    return figure2_expected_worlds()


@pytest.fixture
def whale_worlds():
    """The six whale-tracking worlds of Figure 3."""
    return figure3_whale_worlds()


@pytest.fixture
def db_figure1():
    """A MayBMS session holding the complete database of Figure 1."""
    return MayBMS(figure1_database())


@pytest.fixture
def db_figure2(db_figure1):
    """A MayBMS session after Example 2.4: table I repaired with weights."""
    db_figure1.execute(
        "create table I as select A, B, C from R repair by key A weight D;")
    return db_figure1


@pytest.fixture
def db_whales():
    """A MayBMS session whose world-set is the six worlds of Figure 3."""
    db = MayBMS()
    db.world_set = figure3_whale_worlds()
    return db


@pytest.fixture
def db_cleaning():
    """A MayBMS session holding the dirty relation R of Figure 5."""
    return MayBMS({"R": cleaning_relation_r()})
