"""Multi-core experiments at micro scale."""

import json
from pathlib import Path

import pytest

from repro.campaign import parse_spec, run_campaign
from repro.exec.pool import MixJob, execute_job
from repro.experiments import ExperimentRunner, Scale, smt_accuracy_check
from repro.experiments.runner import Config
from repro.security.mitigations import randomized_llc_params
from repro.sim.multicore import MulticoreSystem
from repro.sim.params import baseline
from repro.workloads.spec import spec_trace


@pytest.fixture(scope="module")
def micro_runner():
    # 2 mixes of very short traces keep this test in seconds.
    return ExperimentRunner(scale=Scale("micro", 2000, 3, 1, 2))


FIG15 = Path(__file__).resolve().parents[2] / "campaigns" / "fig15.json"


def fig15(runner, cores, n_mixes):
    """Render the committed Fig. 15 spec over ``n_mixes`` mixes of
    ``cores`` cores."""
    doc = json.loads(FIG15.read_text())
    doc["outputs"][0].update(cores=cores, n_mixes=n_mixes)
    return run_campaign(parse_spec(doc, str(FIG15)), runner)


class TestFig15:
    def test_structure(self, micro_runner):
        result = fig15(micro_runner, cores=2, n_mixes=2)
        assert set(result.rows) == {
            "no-pref/S", "berti-OA/NS", "berti-OC/S", "berti-OC/S+SUF",
            "tsb", "tsb+suf"}
        for label, (geo, lo, hi) in result.rows.items():
            assert 0 < lo <= geo <= hi, label
        assert len(result.sorted_norms["tsb"]) == 2

    def test_secure_costs_weighted_speedup(self, micro_runner):
        result = fig15(micro_runner, cores=2, n_mixes=2)
        assert result.rows["no-pref/S"][0] <= 1.02


class TestSmtProxy:
    def test_accuracy_stats(self, micro_runner):
        stats = smt_accuracy_check(micro_runner, n_mixes=2)
        assert 0.0 <= stats["min_suf_accuracy"] <= \
            stats["mean_suf_accuracy"] <= 1.0


class TestMixSystemMitigations:
    """Mix jobs build their shared LLC and DRAM from the config's
    mitigation params, as single-core jobs build their private ones."""

    RAND_LLC = Config.from_spec("nonsecure", "ip-stride",
                                mitigation="rand-llc")

    def test_rand_llc_shared_llc_is_random(self):
        runner = ExperimentRunner(scale=Scale("micro", 2000, 3, 1, 2))
        mc = runner.build_multicore_system(self.RAND_LLC, 2)
        assert mc.llc._policy == "random"
        # The cross-core-probe attack builds its system this way.
        assert mc.llc.params == MulticoreSystem(
            cores=2, params=randomized_llc_params(baseline())).llc.params
        assert mc.llc.params.keyed_index
        assert all(system.hierarchy.llc is mc.llc for system in mc.systems)

    def test_lru_configs_keep_lru(self):
        runner = ExperimentRunner(scale=Scale("micro", 2000, 3, 1, 2))
        mc = runner.build_multicore_system(Config(), 2)
        assert mc.llc._policy == "lru"
        assert not mc.llc.params.keyed_index

    def test_execute_mix_job_applies_mitigation_params(self, monkeypatch):
        built = []
        build = ExperimentRunner.build_multicore_system

        def spy(self, config, cores):
            built.append(build(self, config, cores))
            return built[-1]

        monkeypatch.setattr(ExperimentRunner, "build_multicore_system", spy)
        scale = Scale("micro", 300, 3, 1, 2)
        traces = (spec_trace("605.mcf-1554B", 300, 1),
                  spec_trace("619.lbm-2676B", 300, 1))
        result = execute_job(MixJob(key="rand-llc-mix", config=self.RAND_LLC,
                                    traces=traces, cores=2, scale=scale,
                                    params=baseline()))
        assert len(result.per_core) == 2
        (mc,) = built
        assert mc.llc._policy == "random"
