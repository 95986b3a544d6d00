"""Unit tests for the tracking toolkit, the workload generators and the datasets."""

from __future__ import annotations

import pytest

from repro import MayBMS
from repro.datasets import (
    cleaning_relation_r,
    cleaning_swap_relation_s,
    figure1_database,
    figure1_relation_r,
    figure2_expected_probabilities,
    figure2_expected_worlds,
    figure3_whale_worlds,
    figure4_expected_groups,
    figure6_expected_worlds,
    figure7_expected_worlds,
)
from repro.errors import ReproError, WorldSetError
from repro.tracking import (
    Observation,
    ObservationModel,
    UncertainAttribute,
    build_tracking_worlds,
)
from repro.workloads import (
    DirtyRelationSpec,
    census_like_relation,
    dirty_key_relation,
    random_tracking_observations,
    scalability_sweep,
    tuple_probabilities,
)


class TestObservationModel:
    def test_product_mode_counts_worlds(self):
        observations = [
            Observation(1, certain={"Species": "orca"},
                        uncertain=[UncertainAttribute("Pos", ("a", "b"))]),
            Observation(2, certain={"Species": "sperm"},
                        uncertain=[UncertainAttribute("Pos", ("a", "b", "c"))]),
        ]
        model = ObservationModel(observations)
        assert model.world_count() == 6
        assert len(model.build_world_set()) == 6

    def test_constraints_prune_worlds(self):
        observations = [
            Observation(1, uncertain=[UncertainAttribute("Pos", ("a", "b"))]),
            Observation(2, uncertain=[UncertainAttribute("Pos", ("a", "b"))]),
        ]
        def no_collision(assignment):
            return assignment[1]["Pos"] != assignment[2]["Pos"]
        world_set = build_tracking_worlds(observations,
                                          constraints=[no_collision])
        assert len(world_set) == 2

    def test_too_strict_constraints_raise(self):
        observations = [
            Observation(1, uncertain=[UncertainAttribute("Pos", ("a",))])]
        with pytest.raises(WorldSetError):
            build_tracking_worlds(observations, constraints=[lambda a: False])

    def test_schema_collects_all_attribute_names(self):
        observations = [
            Observation(1, certain={"Species": "orca"}),
            Observation(2, uncertain=[UncertainAttribute("Pos", ("a",))]),
        ]
        model = ObservationModel(observations)
        assert model.schema.names() == ["Id", "Species", "Pos"]
        relation = model.world_relation(next(model.iter_joint_assignments()))
        assert relation.rows[0] == (1, "orca", None)

    def test_scenario_mode_uses_exact_scenarios(self):
        observations = [
            Observation(1, uncertain=[UncertainAttribute("Pos", ("a", "b"))])]
        model = ObservationModel(observations,
                                 scenarios=[{1: {"Pos": "a"}}])
        assert model.world_count() == 1

    def test_empty_model_rejected(self):
        with pytest.raises(WorldSetError):
            ObservationModel([])

    def test_uncertain_attribute_needs_candidates(self):
        with pytest.raises(WorldSetError):
            UncertainAttribute("Pos", ())

    def test_extra_relations_copied_into_every_world(self):
        observations = [
            Observation(1, uncertain=[UncertainAttribute("Pos", ("a", "b"))])]
        model = ObservationModel(observations)
        world_set = model.build_world_set(
            extra_relations={"R": figure1_relation_r()})
        assert all(len(world.relation("R")) == 5 for world in world_set)


class TestWorkloadGenerators:
    def test_dirty_relation_shape_and_world_count(self):
        spec = DirtyRelationSpec(groups=5, options=3, payload_columns=2, seed=1)
        relation = dirty_key_relation(spec)
        assert len(relation) == 15
        assert relation.schema.names() == ["K", "P1", "P2", "W"]
        db = MayBMS({"Dirty": relation})
        db.execute("create table I as select * from Dirty repair by key K;")
        assert db.world_count() == spec.expected_world_count()

    def test_dirty_relation_is_deterministic(self):
        spec = DirtyRelationSpec(groups=3, options=2, seed=9)
        assert dirty_key_relation(spec).rows == dirty_key_relation(spec).rows

    def test_dirty_relation_options_are_distinct_repairs(self):
        relation = dirty_key_relation(DirtyRelationSpec(groups=2, options=4))
        for _, rows in __import__("itertools").groupby(
                sorted(relation.rows), key=lambda row: row[0]):
            payloads = [row[1] for row in rows]
            assert len(payloads) == len(set(payloads))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ReproError):
            dirty_key_relation(DirtyRelationSpec(groups=0, options=2))

    def test_census_relation(self):
        census = census_like_relation(people=4, conflicts_per_person=3, seed=2)
        assert len(census) == 12
        ssns = {row[0] for row in census.rows}
        assert len(ssns) == 4
        weights = [row[-1] for row in census.rows]
        assert all(weight >= 1 for weight in weights)

    def test_census_requires_positive_parameters(self):
        with pytest.raises(ReproError):
            census_like_relation(people=0, conflicts_per_person=1)

    def test_tuple_probabilities_bounds_and_determinism(self):
        values = tuple_probabilities(20, seed=4)
        assert values == tuple_probabilities(20, seed=4)
        assert all(0.05 <= value <= 0.95 for value in values)
        with pytest.raises(ReproError):
            tuple_probabilities(-1)

    def test_random_tracking_observations(self):
        observations = random_tracking_observations(objects=12, positions=3,
                                                    uncertain_fraction=1.0,
                                                    seed=3)
        assert len(observations) == 12
        assert all(len(o.uncertain) == 1 for o in observations)
        with pytest.raises(ReproError):
            random_tracking_observations(objects=0, positions=3)

    def test_scalability_sweep_feasibility_cut(self):
        sweep = scalability_sweep(groups=(2, 20), options=(2,),
                                  explicit_limit=100)
        assert len(sweep) == 2
        feasible = sweep.explicit_points()
        assert len(feasible) == 1
        assert feasible[0].world_count == 4
        assert "groups=20" in sweep.labels()[1]


class TestDatasets:
    def test_figure1_contents(self):
        catalog = figure1_database()
        assert len(catalog.get("R")) == 5
        assert len(catalog.get("S")) == 3

    def test_figure2_probabilities_sum_to_one(self):
        probabilities = figure2_expected_probabilities()
        assert sum(probabilities.values()) == pytest.approx(1.0)
        worlds = figure2_expected_worlds()
        assert len(worlds) == 4
        assert worlds.is_probabilistic()
        # Every world also contains the complete relations R and S.
        for world in worlds:
            assert world.has_relation("R") and world.has_relation("S")

    def test_figure3_six_worlds_with_three_whales(self):
        worlds = figure3_whale_worlds()
        assert len(worlds) == 6
        for world in worlds:
            assert len(world.relation("I")) == 3

    def test_figure4_groups_shapes(self):
        groups = figure4_expected_groups()
        assert len(groups["c"]) == 4 and len(groups["b"]) == 2

    def test_cleaning_figures_consistent(self):
        assert len(cleaning_relation_r()) == 2
        assert len(cleaning_swap_relation_s()) == 4
        assert set(figure7_expected_worlds()) <= set(figure6_expected_worlds())


class TestReplScriptMode:
    def test_main_executes_script_arguments(self, capsys):
        from repro.__main__ import main

        exit_code = main(["select possible sum(B) from R choice of A;"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "25" in captured.out and "34" in captured.out

    def test_load_helper_datasets(self):
        from repro.__main__ import _load

        assert _load("figure1").table_names() == ["R", "S"]
        assert _load("figure3").world_count() == 6
        assert _load("figure5").table_names() == ["R"]
        with pytest.raises(ReproError):
            _load("figure9")
