"""The mitigation registry and its experiment-layer wiring."""

import pytest

from repro.experiments.runner import (CONFIG_MITIGATIONS, SCALES, Config,
                                      ExperimentRunner)
from repro.security.mitigations import (MITIGATION_MECHANISMS,
                                        PAPER_MITIGATIONS, Mitigation,
                                        build_attack_system, describe,
                                        is_registered, make_mitigation,
                                        mitigation_names, register,
                                        unregister)
from repro.workloads.synthetic import pointer_chase_trace, stream_trace


class TestRegistry:
    def test_shipped_defenses_registered(self):
        for name in PAPER_MITIGATIONS + ("ghostminion-suf",):
            assert is_registered(name)

    def test_unknown_name_error_lists_known(self):
        with pytest.raises(ValueError) as err:
            make_mitigation("rowhammer")
        message = str(err.value)
        assert "rowhammer" in message
        for name in mitigation_names():
            assert name in message

    def test_make_passes_instances_through(self):
        mitigation = make_mitigation("rand-llc")
        assert make_mitigation(mitigation) is mitigation

    def test_duplicate_register_guard(self):
        with pytest.raises(ValueError, match="override=True"):
            register(Mitigation("rand-llc", "silent shadow"))
        # The guard left the original registration untouched.
        assert make_mitigation("rand-llc").scramble_llc

    def test_register_override_replaces(self):
        original = make_mitigation("rand-llc")
        replacement = Mitigation("rand-llc", "re-keyed variant",
                                 scramble_llc=True)
        try:
            register(replacement, override=True)
            assert make_mitigation("rand-llc") is replacement
        finally:
            register(original, override=True)

    def test_register_unregister_roundtrip(self):
        extra = Mitigation("test-extra", "extension defense", delay=True)
        register(extra)
        try:
            assert make_mitigation("test-extra") is extra
            assert describe()["test-extra"] == "extension defense"
        finally:
            unregister("test-extra")
        assert not is_registered("test-extra")

    def test_register_validates_shape(self):
        with pytest.raises(ValueError, match="SUF requires secure"):
            register(Mitigation("bad-suf", "", suf=True))
        with pytest.raises(ValueError, match="mutually exclusive"):
            register(Mitigation("bad-delay", "", delay=True, secure=True))
        with pytest.raises(ValueError, match="invalid mitigation name"):
            register(Mitigation("", "anonymous"))

    def test_unregister_unknown_is_a_noop(self):
        unregister("never-registered")


class TestMechanismSync:
    """``Config.mitigation`` and the registry must agree on mechanisms
    (the experiment layer hard-codes the tuple to stay import-light)."""

    def test_config_mitigations_match_registry(self):
        assert tuple(CONFIG_MITIGATIONS) == tuple(MITIGATION_MECHANISMS)

    def test_every_registered_defense_maps_to_a_config_value(self):
        for name in mitigation_names():
            assert make_mitigation(name).mechanism in CONFIG_MITIGATIONS


class TestConfigWiring:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mitigation"):
            Config(mitigation="rowhammer")

    def test_delay_excludes_ghostminion(self):
        with pytest.raises(ValueError, match="pick one mitigation"):
            Config(secure=True, mitigation="delay")

    def test_label_carries_the_mechanism(self):
        labelled = Config(prefetcher="ip-stride", mitigation="rand-llc")
        assert labelled.label().endswith("rand-llc")
        assert Config(prefetcher="ip-stride").label() == \
            "ip-stride/OA/NS"

    def test_from_spec_names_the_field(self):
        with pytest.raises(ValueError,
                           match="config field 'mitigation'"):
            Config.from_spec(mitigation="rowhammer")
        with pytest.raises(ValueError,
                           match="config field 'mitigation'"):
            Config.from_spec("on-commit-secure", "ip-stride",
                             mitigation="delay")

    def test_config_spec_roundtrips_for_every_defense(self):
        for name in mitigation_names():
            mitigation = make_mitigation(name)
            config = Config.from_spec(
                **mitigation.config_spec("ip-stride"))
            assert config.secure == mitigation.secure
            assert config.suf == mitigation.suf
            assert config.mitigation == mitigation.mechanism
            assert (config.mode == mitigation.train_mode) \
                or not mitigation.secure


class TestRunnerKnobs:
    """``Config.mitigation`` reaches the built system."""

    def test_build_system_applies_each_mechanism(self):
        runner = ExperimentRunner(SCALES["tiny"])
        rand = runner.build_system(
            Config(prefetcher="ip-stride", mitigation="rand-llc"))
        assert rand.hierarchy.llc.params.keyed_index
        assert rand.params.llc.replacement == "random"
        shim = runner.build_system(
            Config(prefetcher="ip-stride", mitigation="prefender"))
        assert shim.prefetcher.name == "prefender(ip-stride)"
        delay = runner.build_system(
            Config(prefetcher="ip-stride", mitigation="delay"))
        assert delay.delay_policy is not None
        plain = runner.build_system(Config(prefetcher="ip-stride"))
        assert not plain.hierarchy.llc.params.keyed_index
        assert plain.delay_policy is None
        assert plain.prefetcher.name == "ip-stride"

    def test_default_config_untouched(self):
        """The mitigation field defaults to 'none': labels and store
        keys of every pre-existing config are unchanged."""
        assert Config().mitigation == "none"
        assert Config().label() == "none/OA/NS"


class TestRandLLCKeysOnlyTheSetIndex:
    """rand-llc hashes the LLC's set index; tags and the addresses DRAM
    sees stay physical, so DRAM traffic and its row-buffer locality match
    the plain LLC's."""

    @pytest.mark.parametrize("make_trace", [stream_trace,
                                            pointer_chase_trace],
                             ids=["stream", "pointer-chase"])
    def test_dram_row_hits_match_the_plain_llc(self, make_trace):
        trace = make_trace("rowhit", 3000)
        plain = build_attack_system("nonsecure", None).run(trace)
        keyed = build_attack_system("rand-llc", None)
        rand = keyed.run(trace)
        assert keyed.hierarchy.llc.params.keyed_index
        assert rand.dram.requests == plain.dram.requests
        assert plain.dram.row_hit_rate() > 0.5
        assert abs(rand.dram.row_hit_rate()
                   - plain.dram.row_hit_rate()) <= 0.02
