"""Forge generator: determinism, coverage, and universal admissibility."""

from repro.forge import ScenarioForge, audit_scenario
from repro.forge import generator
from repro.forge.scenario import SCHEDULABLE_FAULT_KINDS

SAMPLE_SEEDS = range(40)


class TestDeterminism:
    def test_same_seed_same_canonical_bytes(self):
        forge = ScenarioForge()
        for seed in (0, 1, 17, 123456):
            assert forge.generate(seed).canonical_json() == forge.generate(
                seed
            ).canonical_json()

    def test_fresh_forge_instances_agree(self):
        assert (
            ScenarioForge().generate(99).canonical_json()
            == ScenarioForge().generate(99).canonical_json()
        )

    def test_different_seeds_differ(self):
        forge = ScenarioForge()
        assert forge.generate(0).canonical_json() != forge.generate(1).canonical_json()


class TestCoverage:
    """Over a modest seed range, every dimension must actually appear."""

    def test_dimensions_all_sampled(self):
        forge = ScenarioForge()
        scenarios = [forge.generate(seed) for seed in SAMPLE_SEEDS]
        tags = {tag for s in scenarios for tag in s.tags}
        assert "hetero-fleet" in tags
        assert {"diurnal-arrival", "bursty-arrival"} & tags
        assert {"skew-shift", "vocab-growth"} & tags
        assert {"gpu-pair-loss", "pool-cascade", "drift-storm"} & tags
        assert "retry-jitter" in tags and "retry-budget" in tags
        assert any(s.heterogeneous for s in scenarios)
        assert any(not s.heterogeneous for s in scenarios)

    def test_scheduled_kinds_stay_schedulable(self):
        forge = ScenarioForge()
        for seed in SAMPLE_SEEDS:
            for event in forge.generate(seed).fault_schedule:
                assert event.kind in SCHEDULABLE_FAULT_KINDS

    def test_pair_loss_requires_a_survivor(self):
        forge = ScenarioForge()
        for seed in SAMPLE_SEEDS:
            scenario = forge.generate(seed)
            if "gpu-pair-loss" in scenario.tags:
                assert scenario.num_gpus >= 3


class TestAdmission:
    def test_every_generated_scenario_passes_the_audit(self):
        forge = ScenarioForge()
        for seed in SAMPLE_SEEDS:
            result = audit_scenario(forge.generate(seed), forge)
            assert result.ok, (seed, [f.to_dict() for f in result.findings])

    def test_config_bounds_are_respected(self):
        forge = ScenarioForge()
        scenarios = [forge.generate(seed) for seed in range(200)]
        for scenario in scenarios:
            assert generator.MIN_GPUS <= scenario.num_gpus <= generator.MAX_GPUS
            assert generator.MIN_ITERATIONS <= scenario.iterations <= generator.MAX_ITERATIONS
            assert set(scenario.fleet) <= set(generator.PROFILES)
            assert scenario.workload.batch in generator.BATCHES
            for spec in scenario.fault_specs:
                assert spec.rate <= generator.MAX_FAULT_RATE
        # The draws cover each inclusive range, ends included.
        assert {s.num_gpus for s in scenarios} == set(
            range(generator.MIN_GPUS, generator.MAX_GPUS + 1)
        )
        assert {s.iterations for s in scenarios} == set(
            range(generator.MIN_ITERATIONS, generator.MAX_ITERATIONS + 1)
        )
