"""The anytime approximation tier: statistical and robustness guarantees.

Four layers of coverage:

* **sampler statistics** — on random decompositions with brute-force ground
  truth, the reported Wilson / Karp–Luby intervals must actually cover the
  true probability at (close to) the promised level, and identical seeds
  must reproduce identical estimates bit-for-bit;
* **Hypothesis properties** — for arbitrary decomposition shapes and DNFs,
  the estimate is a sane probability, the interval brackets it, and the
  estimate lands within a generous multiple of the reported epsilon of the
  brute-force truth;
* **session-level degradation** — with deliberately tiny resource budgets,
  ``degradation="strict"`` refuses with a structured
  :class:`~repro.errors.ResourceBudgetError` while ``"anytime"`` (or a
  per-request option) answers approximately, bracketing the exact value
  computed by an unconstrained session;
* **serving-layer contract** — forced overruns over HTTP never surface as
  bare 500s: budget refusals are structured 400s, deadline expiries are
  structured 408s, and ``/health`` advertises the budgets in force.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import (
    AnytimeBudget,
    MayBMS,
    MayBMSServer,
    QueryOptions,
    ResourceBudgets,
)
from repro.errors import (
    AnalysisError,
    DeadlineExceededError,
    ResourceBudgetError,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import SqlType
from repro.workloads import DirtyRelationSpec, dirty_key_relation
from repro.wsd import Alternative, AnytimeSampler, Component, Field
from repro.wsd.approximate import normal_quantile, wilson_interval


# -- scaffolding --------------------------------------------------------------------------


def make_components(*specs):
    """Components from specs: an int (size, unweighted) or probabilities."""
    components = []
    for index, spec in enumerate(specs):
        f = Field("T", index, "a")
        if isinstance(spec, int):
            components.append(Component([f], [Alternative((v,))
                                              for v in range(spec)]))
        else:
            components.append(Component(
                [f], [Alternative((v,), p) for v, p in enumerate(spec)]))
    return components


def brute_force(components, clauses):
    """Reference DNF probability by full joint enumeration."""
    total = 0.0
    masses = [c.effective_probabilities() for c in components]
    for combo in product(*(range(len(c)) for c in components)):
        holds = any(all(combo[index] in allowed for index, allowed in clause)
                    for clause in clauses)
        if holds:
            weight = 1.0
            for index, alt in enumerate(combo):
                weight *= masses[index][alt]
            total += weight
    return total


def random_instance(rng):
    """A random decomposition plus a random DNF over it."""
    components = []
    for index in range(rng.randint(2, 5)):
        size = rng.randint(2, 4)
        if rng.random() < 0.5:
            components.append(make_components(size)[0])
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in range(size)]
            total = sum(raw)
            f = Field("T", index, "a")
            components.append(Component(
                [f], [Alternative((v,), p / total)
                      for v, p in enumerate(raw)]))
    clauses = []
    for _ in range(rng.randint(1, 4)):
        atoms = []
        for index in rng.sample(range(len(components)),
                                rng.randint(1, len(components))):
            size = len(components[index].alternatives)
            allowed = frozenset(rng.sample(range(size),
                                           rng.randint(1, size)))
            atoms.append((index, allowed))
        clauses.append(atoms)
    return components, clauses


# -- the estimators in isolation ----------------------------------------------------------


class TestNormalQuantile:
    def test_standard_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-4)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-4)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestWilsonInterval:
    def test_brackets_the_estimate(self):
        value, low, high = wilson_interval(30, 100, 1.96)
        assert 0.0 <= low <= value <= high <= 1.0
        assert value == pytest.approx(0.3, abs=0.02)

    def test_degenerate_counts(self):
        assert wilson_interval(0, 0, 1.96) == (0.0, 0.0, 1.0)
        value, low, high = wilson_interval(0, 50, 1.96)
        assert low == 0.0 and high > 0.0
        value, low, high = wilson_interval(50, 50, 1.96)
        assert high == pytest.approx(1.0) and low < 1.0

    def test_narrows_with_samples(self):
        _, low1, high1 = wilson_interval(40, 100, 1.96)
        _, low2, high2 = wilson_interval(400, 1000, 1.96)
        assert high2 - low2 < high1 - low1


class TestSamplerStatistics:
    def test_interval_coverage_on_random_instances(self):
        """~95% nominal intervals must cover the truth ≥ 90% of the time
        over 200 seeded random instances (slack for Monte-Carlo noise)."""
        rng = Random(20260808)
        covered = 0
        trials = 200
        budget = AnytimeBudget(max_samples=4096, target_epsilon=0.02,
                               seed=11)
        for trial in range(trials):
            components, clauses = random_instance(rng)
            truth = brute_force(components, clauses)
            estimate = AnytimeSampler(components, budget).dnf_confidence(
                clauses)
            if estimate.exact:
                covered += int(abs(estimate.value - truth) < 1e-9)
            else:
                covered += int(estimate.low - 1e-9 <= truth
                               <= estimate.high + 1e-9)
        assert covered / trials >= 0.90, f"coverage {covered}/{trials}"

    def test_karp_luby_handles_rare_events(self):
        """A conjunction of tiny probabilities: naive sampling would need
        millions of draws; Karp–Luby gets relative accuracy cheaply."""
        components = make_components([0.001, 0.999], [0.002, 0.998])
        clauses = [[(0, frozenset({0})), (1, frozenset({0}))]]
        truth = 0.001 * 0.002
        budget = AnytimeBudget(max_samples=20000, target_epsilon=1e-7,
                               seed=5)
        estimate = AnytimeSampler(components, budget).dnf_confidence(clauses)
        assert estimate.estimator == "karp-luby"
        assert estimate.value == pytest.approx(truth, rel=0.2)
        assert estimate.low <= truth <= estimate.high

    def test_fixed_seed_is_deterministic(self):
        components = make_components(3, [0.2, 0.3, 0.5], 2)
        clauses = [[(0, frozenset({0, 1})), (1, frozenset({2}))],
                   [(2, frozenset({1}))]]
        budget = AnytimeBudget(max_samples=2048, target_epsilon=0.005,
                               seed=42)
        first = AnytimeSampler(components, budget).dnf_confidence(clauses)
        second = AnytimeSampler(components, budget).dnf_confidence(clauses)
        assert first == second

    def test_different_seeds_differ(self):
        # Overlapping clauses with union bound > 0.5 force the naive
        # Monte-Carlo path, whose estimate genuinely varies with the seed
        # (a single Karp–Luby clause would be deterministically exact).
        components = make_components(3, 3, 3)
        clauses = [[(0, frozenset({0, 1}))], [(1, frozenset({0, 1}))]]
        estimates = {
            AnytimeSampler(
                components,
                AnytimeBudget(max_samples=512, target_epsilon=1e-6,
                              seed=seed)).dnf_confidence(clauses).value
            for seed in range(4)}
        assert len(estimates) > 1

    def test_trivial_clauses_are_exact(self):
        components = make_components(2, 2)
        sampler = AnytimeSampler(components, AnytimeBudget())
        # Tautology: one clause allowing everything.
        estimate = sampler.dnf_confidence(
            [[(0, frozenset({0, 1}))], [(0, frozenset({0, 1}))]])
        assert estimate.exact and estimate.value == pytest.approx(1.0)
        # Empty DNF: probability zero.
        estimate = sampler.dnf_confidence([])
        assert estimate.exact and estimate.value == 0.0

    def test_deadline_raises_structured_error(self):
        components = make_components(*([3] * 8))
        clauses = [[(i, frozenset({0})), ((i + 1) % 8, frozenset({1}))]
                   for i in range(8)]
        budget = AnytimeBudget(max_samples=10**9, target_epsilon=1e-12,
                               seed=1).with_timeout_ms(0.0001)
        with pytest.raises(DeadlineExceededError) as excinfo:
            AnytimeSampler(components, budget).dnf_confidence(clauses)
        payload = excinfo.value.payload()
        assert payload["kind"] == "deadline"
        assert "partial" in payload


@st.composite
def instance_strategy(draw):
    components = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        size = draw(st.integers(min_value=1, max_value=3))
        if draw(st.booleans()) and size > 1:
            raw = draw(st.lists(
                st.floats(min_value=0.05, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
                min_size=size, max_size=size))
            total = sum(raw)
            f = Field("T", index, "a")
            components.append(Component(
                [f], [Alternative((v,), p / total)
                      for v, p in enumerate(raw)]))
        else:
            components.append(make_components(size)[0])
    clauses = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        indexes = draw(st.sets(
            st.integers(min_value=0, max_value=len(components) - 1),
            min_size=1, max_size=len(components)))
        atoms = []
        for index in sorted(indexes):
            size = len(components[index].alternatives)
            allowed = draw(st.sets(
                st.integers(min_value=0, max_value=size - 1),
                min_size=1, max_size=size))
            atoms.append((index, frozenset(allowed)))
        clauses.append(atoms)
    return components, clauses


class TestSamplerProperties:
    @given(instance_strategy(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_estimate_is_sane_and_near_truth(self, instance, seed):
        components, clauses = instance
        truth = brute_force(components, clauses)
        budget = AnytimeBudget(max_samples=4096, target_epsilon=0.02,
                               seed=seed)
        estimate = AnytimeSampler(components, budget).dnf_confidence(clauses)
        assert 0.0 <= estimate.low <= estimate.value \
            <= estimate.high <= 1.0
        assert estimate.samples <= budget.max_samples
        if estimate.exact:
            assert estimate.value == pytest.approx(truth, abs=1e-9)
        else:
            # 6 sigma-ish slack: the interval itself is only a 95% one.
            slack = 4.0 * max(estimate.epsilon, 0.01)
            assert estimate.value == pytest.approx(truth, abs=slack)


# -- session-level graceful degradation ---------------------------------------------------


LINK_SCHEMA = Schema([Column("A", SqlType.INTEGER),
                      Column("B", SqlType.INTEGER)])
REPAIR = "create table I as select K, P1, P2 from Dirty repair by key K weight W;"
CHAIN_CONF = ("select conf from I i1, L, I i2 "
              "where i1.K = L.A and i2.K = L.B and i1.P1 > i2.P2;")
TINY = ResourceBudgets(enumeration_limit=8, dtree_nodes=4)
#: The directory holding the ``repro`` package, for child interpreters.
SOURCE_ROOT = os.path.dirname(os.path.dirname(repro.__file__))


def chain_session(groups=12, seed=3, **kwargs):
    relation = dirty_key_relation(
        DirtyRelationSpec(groups=groups, options=2, seed=seed))
    link = Relation(LINK_SCHEMA, [(k, k + 1) for k in range(groups - 1)],
                    name="L")
    db = MayBMS({"Dirty": relation, "L": link}, backend="wsd", **kwargs)
    db.execute(REPAIR)
    return db


class TestSessionDegradation:
    def test_strict_refuses_with_structured_error(self):
        db = chain_session(budgets=TINY, degradation="strict")
        with pytest.raises(ResourceBudgetError) as excinfo:
            db.execute(CHAIN_CONF)
        payload = excinfo.value.payload()
        assert payload["kind"] in ("enumeration", "dtree-nodes")
        assert payload["observed"] > payload["budget"]

    def test_anytime_brackets_the_exact_answer(self):
        exact = chain_session().execute(CHAIN_CONF).rows()[0][0]
        db = chain_session(budgets=TINY, degradation="anytime")
        result = db.execute(CHAIN_CONF)
        assert result.approximate
        names = [column.name for column in result.relation.schema.columns]
        assert names == ["conf", "conf_low", "conf_high"]
        value, low, high = result.rows()[0]
        assert low - 1e-9 <= exact <= high + 1e-9
        assert value == pytest.approx(exact, abs=0.05)
        contract = result.approximation
        assert contract["samples"] > 0
        assert 0.0 < contract["epsilon"] <= 1.0

    def test_anytime_is_deterministic_per_seed(self):
        rows = [chain_session(budgets=TINY, degradation="anytime")
                .execute(CHAIN_CONF).rows() for _ in range(2)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("query, columns", [
        ("select conf, P1 from I where K = 1 order by P1;",
         ["P1", "conf", "conf_low", "conf_high"]),
        ("select conf from I where K = 1 and P1 = 15532 order by P1;",
         ["conf", "conf_low", "conf_high"]),
    ], ids=["select-items", "no-select-items"])
    def test_sampled_component_joint_conf(self, query, columns):
        """ORDER BY keeps a conf query on the component-joint path; past
        the enumeration limit it samples joint alternatives and reports a
        Wilson interval per confidence."""
        exact = {row[:-1]: row[-1]
                 for row in chain_session().execute(query).rows()}
        answers = []
        for _ in range(2):
            db = chain_session(budgets=TINY, degradation="anytime")
            result = db.execute(query)
            assert db.backend.stats.component_joint == 1
            assert result.approximate
            assert [column.name for column in
                    result.relation.schema.columns] == columns
            contract = result.approximation
            assert contract["estimators"] == ["joint-sampling"]
            assert contract["samples"] > 0
            assert 0.0 < contract["epsilon"] <= 1.0
            rows = result.rows()
            assert {row[:-3] for row in rows} == set(exact)
            for row in rows:
                value, low, high = row[-3:]
                assert low <= value <= high
                assert low - 1e-9 <= exact[row[:-3]] <= high + 1e-9
            answers.append(rows)
        assert answers[0] == answers[1]

    def test_joint_samples_reproduce_across_processes(self):
        """The sampled joint alternatives depend on the seed and the query
        alone, not on a process's string-hash randomisation, so every
        process (e.g. every serving worker) answers a sampled statement
        alike."""
        query = "select conf, P1 from I where K = 1 order by P1;"
        script = (
            f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_approximate_properties import TINY, chain_session\n"
            "db = chain_session(budgets=TINY, degradation='anytime')\n"
            f"print(db.execute({query!r}).rows())\n")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           [SOURCE_ROOT, os.environ.get("PYTHONPATH", "")]))
            completed = subprocess.run([sys.executable, "-c", script],
                                       env=env, capture_output=True,
                                       text=True, timeout=120, check=True)
            outputs.add(completed.stdout)
        assert len(outputs) == 1

    def test_per_request_options_override_strict_session(self):
        db = chain_session(budgets=TINY)
        with pytest.raises(ResourceBudgetError):
            db.execute(CHAIN_CONF)
        result = db.execute(CHAIN_CONF,
                            options={"degradation": "anytime",
                                     "epsilon": 0.05, "seed": 9})
        assert result.approximate
        # The next plain execute is strict again.
        with pytest.raises(ResourceBudgetError):
            db.execute(CHAIN_CONF)

    def test_exact_shapes_stay_exact_under_anytime(self):
        db = chain_session(degradation="anytime")
        result = db.execute(CHAIN_CONF)
        assert not result.approximate
        assert result.approximation is None
        assert db.backend.budgets.as_dict()["enumeration_limit"] == 100_000

    def test_timeout_option_raises_deadline_error(self):
        db = chain_session(budgets=TINY)
        with pytest.raises(DeadlineExceededError) as excinfo:
            db.execute(CHAIN_CONF, options={"degradation": "anytime",
                                            "timeout_ms": 0.0001})
        assert excinfo.value.payload()["kind"] == "deadline"

    def test_budgets_are_configurable_per_session(self):
        db = chain_session(budgets={"enumeration_limit": 16,
                                    "dtree_nodes": 4})
        assert db.backend.budgets.enumeration_limit == 16
        assert db.backend.budgets.dtree_nodes == 4
        with pytest.raises(ResourceBudgetError):
            db.execute(CHAIN_CONF)

    def test_unknown_budget_key_rejected(self):
        with pytest.raises(AnalysisError):
            chain_session(budgets={"no_such_budget": 1})


class TestQueryOptions:
    def test_defaults_inherit(self):
        options = QueryOptions.coerce(None)
        assert options.is_default()
        assert options.resolve_degradation("anytime") == "anytime"
        base = AnytimeBudget()
        assert options.resolve_budget(base) == base

    def test_overrides_apply(self):
        options = QueryOptions.coerce({"degradation": "anytime",
                                       "epsilon": 0.05, "seed": 3,
                                       "max_samples": 10,
                                       "confidence_level": 0.99})
        assert options.resolve_degradation("strict") == "anytime"
        budget = options.resolve_budget(AnytimeBudget())
        assert budget.target_epsilon == 0.05
        assert budget.seed == 3
        assert budget.max_samples == 10
        assert budget.confidence_level == 0.99

    def test_timeout_arms_deadline(self):
        budget = QueryOptions(timeout_ms=50).resolve_budget(AnytimeBudget())
        assert budget.deadline is not None
        assert not budget.expired()

    def test_validation(self):
        for bad in ({"degradation": "fast"}, {"epsilon": 0},
                    {"epsilon": 2.0}, {"timeout_ms": -1},
                    {"max_samples": 0}, {"confidence_level": 1.0},
                    {"seed": "x"}, {"epsilon": True}, {"nope": 1}):
            with pytest.raises(AnalysisError):
                QueryOptions.coerce(bad)


# -- the serving layer never emits a bare 500 on overruns ---------------------------------


@pytest.fixture(scope="module")
def overloaded_server():
    db = chain_session(budgets=TINY)
    server = MayBMSServer(db, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.httpd.serve_forever,
                              daemon=True)
    thread.start()
    try:
        yield server.address[1]
    finally:
        server.shutdown()
        thread.join(timeout=5)


def post_query(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServingDegradation:
    def test_strict_overrun_is_structured_400(self, overloaded_server):
        status, body = post_query(overloaded_server, {"sql": CHAIN_CONF})
        assert status == 400
        assert body["error"]["kind"] == "enumeration"
        assert body["error"]["observed"] > body["error"]["budget"]
        assert body["type"] == "EnumerationLimitError"

    def test_anytime_request_answers_with_contract(self, overloaded_server):
        status, body = post_query(
            overloaded_server,
            {"sql": CHAIN_CONF, "degradation": "anytime", "epsilon": 0.05})
        assert status == 200
        assert body["approximate"] is True
        assert body["columns"] == ["conf", "conf_low", "conf_high"]
        value, low, high = body["rows"][0]
        assert 0.0 <= low <= value <= high <= 1.0
        assert body["approximation"]["samples"] > 0

    def test_deadline_is_structured_408(self, overloaded_server):
        status, body = post_query(
            overloaded_server,
            {"sql": CHAIN_CONF, "degradation": "anytime",
             "timeout_ms": 0.0001})
        assert status == 408
        assert body["error"]["kind"] == "deadline"

    def test_forced_overruns_never_500(self, overloaded_server):
        payloads = [
            {"sql": CHAIN_CONF},
            {"sql": CHAIN_CONF, "degradation": "anytime",
             "timeout_ms": 0.0001},
            {"sql": CHAIN_CONF, "degradation": "anytime",
             "max_samples": 1},
            {"sql": CHAIN_CONF, "epsilon": 17},
            {"sql": "select conf from I;", "degradation": "anytime"},
        ]
        for payload in payloads:
            status, body = post_query(overloaded_server, payload)
            assert status != 500, (payload, body)
            if status != 200:
                assert "error" in body, (payload, body)

    def test_health_reports_budgets(self, overloaded_server):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{overloaded_server}/health",
                timeout=30) as response:
            health = json.loads(response.read())
        assert health["budgets"] == TINY.as_dict()
        assert health["degradation"] == "strict"
