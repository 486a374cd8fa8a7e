"""Fault plan: spec parsing, deterministic selection, injection modes."""

import pytest

from repro.exec.faults import ENV_VAR, FaultPlan, InjectedFault


class TestParsing:
    def test_empty_is_inactive(self):
        assert not FaultPlan.parse("").active
        assert not FaultPlan.parse("   ").active

    def test_full_spec(self):
        plan = FaultPlan.parse(
            "crash:3,hang:5,die:7,corrupt:4,attempts:2,hang_s:0.25")
        assert plan.crash_every == 3
        assert plan.hang_every == 5
        assert plan.die_every == 7
        assert plan.corrupt_every == 4
        assert plan.attempts == 2
        assert plan.hang_s == 0.25
        assert plan.active

    def test_from_env(self):
        plan = FaultPlan.from_env({ENV_VAR: "crash:2"})
        assert plan.crash_every == 2
        assert not FaultPlan.from_env({}).active

    # A spec naming a kind the plan does not have (kill, wal_trunc and
    # stall included) must fail loudly, not run fault-free.
    @pytest.mark.parametrize("spec", ["explode:3", "kill:1", "wal_trunc:1",
                                      "stall:1"])
    def test_unknown_kind_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse(spec)

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            FaultPlan.parse("crash:lots")

    def test_missing_colon_rejected(self):
        with pytest.raises(ValueError, match="kind:value"):
            FaultPlan.parse("crash")


class TestSelection:
    def test_modulus_one_selects_everything(self):
        plan = FaultPlan(crash_every=1)
        for key in ("00ab12", "ff0099", "deadbeef"):
            assert plan.should_crash(key, attempt=1)

    def test_selection_is_deterministic(self):
        plan = FaultPlan(crash_every=3)
        picks = {k: plan.should_crash(k) for k in
                 ("%08x" % (i * 2654435761 % 2**32) for i in range(64))}
        again = {k: plan.should_crash(k) for k in picks}
        assert picks == again
        assert any(picks.values()) and not all(picks.values())

    def test_attempt_window(self):
        plan = FaultPlan(crash_every=1, attempts=2)
        assert plan.should_crash("aa", attempt=1)
        assert plan.should_crash("aa", attempt=2)
        assert not plan.should_crash("aa", attempt=3)

    def test_corrupt_ignores_attempts(self):
        plan = FaultPlan(corrupt_every=1, attempts=1)
        assert plan.should_corrupt("aa")

    def test_disabled_kind_never_selects(self):
        plan = FaultPlan(crash_every=0)
        assert not plan.should_crash("00")


class TestInjection:
    def test_crash_raises(self):
        plan = FaultPlan(crash_every=1)
        with pytest.raises(InjectedFault, match="injected crash"):
            plan.inject("ab", 1, in_worker=False)

    def test_retry_attempt_passes(self):
        FaultPlan(crash_every=1, attempts=1).inject("ab", 2,
                                                    in_worker=False)

    def test_hang_degrades_to_fault_in_serial_mode(self):
        plan = FaultPlan(hang_every=1, hang_s=1000)
        with pytest.raises(InjectedFault, match="injected hang"):
            plan.inject("ab", 1, in_worker=False)

    def test_die_degrades_to_fault_in_serial_mode(self):
        plan = FaultPlan(die_every=1)
        with pytest.raises(InjectedFault, match="injected die"):
            plan.inject("ab", 1, in_worker=False)

    def test_inactive_plan_is_a_noop(self):
        FaultPlan().inject("ab", 1, in_worker=False)


class TestNewKinds:
    def test_each_new_kind_activates_the_plan(self):
        plan = FaultPlan.parse("torn:3")
        assert plan.torn_every == 3
        assert plan.active

    def test_tear_ignores_attempts(self):
        # Store-side kinds are once-per-key via markers, not per attempt.
        plan = FaultPlan(torn_every=1, attempts=1)
        assert plan.should_tear("ab")
