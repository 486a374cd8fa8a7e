"""Determinism pins: attacks are pure functions of their inputs.

The security matrix's leakage cells run in-process, so their guarantee
is simpler than the executor's: same attack + same defense must yield a
byte-identical :class:`AttackResult` on every run, at any ``--jobs``
level (the executor never sees an attack), and regardless of
registry-mutating tests that ran earlier.  These pins keep that promise
honest.
"""

import pytest

from repro.experiments.runner import SCALES, ExperimentRunner
from repro.security.attacks import attack_names, run_attack
from repro.security.matrix import run_security_matrix

ALL_ATTACKS = attack_names()


@pytest.mark.parametrize("attack", ALL_ATTACKS)
def test_attack_repeatable_in_process(attack):
    first = run_attack(attack, "nonsecure")
    second = run_attack(attack, "nonsecure")
    assert first == second


def test_matrix_text_identical_across_fresh_runners():
    """Two independent runners (the in-process equivalent of two
    ``--jobs`` levels: leakage cells never touch the executor) render
    the same matrix byte for byte."""
    kwargs = dict(attacks=["covert-stride", "prime-probe"],
                  defenses=["nonsecure", "ghostminion", "rand-llc"],
                  cost=False)
    first = run_security_matrix(ExperimentRunner(SCALES["tiny"]),
                                **kwargs)
    second = run_security_matrix(ExperimentRunner(SCALES["tiny"]),
                                 **kwargs)
    assert first.text == second.text
    assert first.leakage("channel_capacity") == \
        second.leakage("channel_capacity")
