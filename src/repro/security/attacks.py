"""Attack library: transient, conflict, and cross-core cache channels.

This module is the *attack axis* of the security matrix
(``repro security-matrix``; see docs/SECURITY.md for the threat model).
Every attack follows the same two-phase shape the paper's introduction
describes -- a victim whose execution encodes a secret into
microarchitectural state, then an attacker who reads that state back
through timed probe loads -- but each one exercises a different leakage
mechanism, so the set of defenses that closes each channel differs:

``covert-stride``
    The baseline Spectre-style prefetcher covert channel (threat model,
    Section II-A): *transient* victim loads whose stride encodes the
    secret train the hardware prefetcher, whose architectural fills the
    attacker probes.  Closed by anything that stops transient loads
    from training or filling (GhostMinion + on-commit training,
    delay-on-miss) or that camouflages the prefetch pattern (PREFENDER).
``prime-probe``
    A classic conflict channel on the LLC: the attacker primes two
    cache sets, the victim's single transient load evicts a line from
    one of them, and the attacker probes for the eviction.  No
    prefetcher involvement -- this is the channel randomized-index
    caches (``rand-llc``) are built against, and the one prefetcher-
    centric defenses do *not* close.
``stride-inference``
    The victim's loads are **committed** (no misprediction): a secret-
    dependent but architecturally legal stride.  Secure speculation
    cannot help -- commit-time training sees the pattern too -- so only
    obfuscation (PREFENDER) closes it; it is the matrix's honesty row,
    separating "stops transient leaks" from "stops the prefetcher from
    amplifying any secret-dependent pattern".
``cross-core-probe``
    The covert-stride channel mounted across cores: victim and attacker
    run on different cores of a :class:`~repro.sim.multicore
    .MulticoreSystem`, and the attacker probes the *shared LLC* for the
    victim's prefetch fills through its own private hierarchy.  Shows
    that on-access prefetching leaks across isolation boundaries, and
    that index randomization alone does not stop shared-address (non-
    conflict) channels.

All attacks are pure functions of their inputs -- fixed traces, fixed
seeds, in-process probes -- so results are byte-identical across
``--jobs`` levels and the batch/scalar front-ends (pinned by
tests/security/test_determinism.py).

:func:`run_attack` is the uniform entry point used by the matrix
harness: ``run_attack(attack, mitigation, prefetcher, ...)`` builds the
defended system via :mod:`repro.security.mitigations` and returns an
:class:`AttackResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..prefetchers.base import MODE_ON_ACCESS, Prefetcher
from ..prefetchers.registry import make_prefetcher
from ..sim.multicore import MulticoreSystem
from ..sim.params import SystemParams
from ..sim.system import System
from ..workloads.synthetic import REGION_GAP
from ..workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                               FLAG_WRONG_PATH, Record, Trace, alu)
from .channels import HIT_THRESHOLD, hit_threshold, probe_latency
from .mitigations import (Mitigation, attack_params, build_attack_system,
                          core_factory, make_mitigation,
                          randomized_llc_params)

#: Transient loads the victim executes per bit (enough to train a stride
#: prefetcher past its confidence threshold).
TRAIN_LOADS = 6
#: Tell-tale probe blocks, relative to each bit's region base.  Stride 1
#: touches 0..5 and prefetches 6, 7, ...; stride 2 touches 0..10 (even) and
#: prefetches 12, 14, ...  Block 7 is reachable only by a stride-1
#: prefetch; block 13 would be the stride-2 analogue but is odd, so we
#: probe 14 and rely on 7 vs 14 exclusivity.
PROBE_STRIDE1 = 7
PROBE_STRIDE2 = 14

#: Default secret for matrix/CLI runs (8 bits, both values, asymmetric).
DEFAULT_SECRET = (1, 0, 1, 1, 0, 0, 1, 0)


@dataclass
class AttackResult:
    """Outcome of one attack attempt."""

    sent_bits: List[int]
    recovered_bits: List[Optional[int]]
    probe_latencies: List[tuple]
    #: The hit/miss classification cut used by the probes (derived from
    #: the attacked system's params; see ``channels.hit_threshold``).
    threshold: int = HIT_THRESHOLD

    @property
    def bits_correct(self) -> int:
        return sum(1 for s, r in zip(self.sent_bits, self.recovered_bits)
                   if s == r)

    @property
    def success_rate(self) -> float:
        if not self.sent_bits:
            return 0.0
        return self.bits_correct / len(self.sent_bits)

    @property
    def leaked(self) -> bool:
        """The channel works if it beats guessing decisively."""
        return self.success_rate >= 0.9


# ----------------------------------------------------------------------
# shared victim/attacker building blocks
# ----------------------------------------------------------------------

def _victim_segment(region_base_block: int, stride: int,
                    victim_ip: int) -> List[Record]:
    """A mispredicted branch followed by the transient encoding loads."""
    records: List[Record] = [
        (0x5000, -1, FLAG_BRANCH | FLAG_MISPREDICT)]
    for k in range(TRAIN_LOADS):
        addr = (region_base_block + k * stride) * 64
        records.append((victim_ip, addr, FLAG_LOAD | FLAG_WRONG_PATH))
    return records


def _filler(count: int) -> List[Record]:
    return [alu(0x6000 + 4 * i) for i in range(count)]


def _covert_trace(secret_bits: Sequence[int], victim_ip: int,
                  transient: bool) -> tuple:
    """The stride-encoding victim trace; returns ``(records, regions)``.

    ``transient=True`` wraps each bit's loads in a mispredicted branch
    (covert-stride); ``False`` emits them as committed loads
    (stride-inference).
    """
    records: List[Record] = []
    region_blocks: List[int] = []
    for i, bit in enumerate(secret_bits):
        # Spacing co-prime with every level's set count, so per-bit regions
        # do not alias onto the same sets and evict earlier bits' signal.
        base_block = (REGION_GAP // 64) * 9 + i * 4097
        region_blocks.append(base_block)
        stride = 2 if bit else 1
        records.extend(_filler(40))
        if transient:
            records.extend(_victim_segment(base_block, stride, victim_ip))
        else:
            for k in range(TRAIN_LOADS):
                addr = (base_block + k * stride) * 64
                records.append((victim_ip, addr, FLAG_LOAD))
        # Non-memory victim work between leaks: long enough (in cycles)
        # for the triggered prefetches to complete before the next burst.
        records.extend(_filler(2000))
    return records, region_blocks


def _domain_flush(system: System) -> None:
    """Victim -> attacker domain switch: drop all speculative state.

    The X-LQ needs no flush: its fields travel with each load to that
    load's commit, so none outlives it.
    """
    system.hierarchy.flush_speculative()


def _probe_telltales(system: System, region_blocks: Sequence[int],
                     probe_time: int, threshold: int) -> tuple:
    """Probe both stride tell-tales per region; decode one bit each."""
    recovered: List[Optional[int]] = []
    latencies = []
    for base_block in region_blocks:
        lat1 = probe_latency(system, base_block + PROBE_STRIDE1, probe_time)
        probe_time += 600
        lat2 = probe_latency(system, base_block + PROBE_STRIDE2, probe_time)
        probe_time += 600
        latencies.append((lat1, lat2))
        hit1 = lat1 < threshold
        hit2 = lat2 < threshold
        if hit1 == hit2:
            recovered.append(None)  # no signal
        else:
            recovered.append(1 if hit2 else 0)
    return recovered, latencies


def _stride_channel(system: System, secret_bits: Sequence[int],
                    transient: bool, domain_flush: bool) -> AttackResult:
    """Run one stride-encoding channel end to end on ``system``."""
    records, region_blocks = _covert_trace(secret_bits, 0x7000, transient)
    system.run(Trace("victim", records), warmup=0.0)
    if domain_flush:
        _domain_flush(system)
    threshold = hit_threshold(system.params)
    recovered, latencies = _probe_telltales(
        system, region_blocks, system.core.final_retire + 1000, threshold)
    return AttackResult(list(secret_bits), recovered, latencies, threshold)


# ----------------------------------------------------------------------
# the attacks
# ----------------------------------------------------------------------

def run_prefetch_covert_channel(
        secret_bits: Sequence[int], *,
        secure: bool = False,
        suf: bool = False,
        train_mode: str = MODE_ON_ACCESS,
        prefetcher: Union[Prefetcher, str, None] = "ip-stride",
        params: Optional[SystemParams] = None,
        domain_flush: bool = True) -> AttackResult:
    """Mount the covert channel; return what the attacker recovered.

    The original low-level entry point (kept for the invisibility tests
    and anyone composing a bespoke system): ``secure`` / ``suf`` /
    ``train_mode`` / ``prefetcher`` select the defence level directly.
    ``prefetcher`` is an instance, a registry name, or ``None`` for no
    prefetcher.  Matrix code goes through :func:`run_attack`, which
    builds the system from a registered mitigation instead.  Raises
    ``ValueError`` for an unknown prefetcher name or SUF without
    ``secure``.
    """
    if isinstance(prefetcher, str):
        prefetcher = make_prefetcher(prefetcher)
    if params is None:
        # The attack runs on an otherwise quiet machine: a real controller
        # would not throttle the trickle of prefetches the victim triggers,
        # so relax the bandwidth-saturation backpressure.
        params = attack_params()
    system = System(params=params, secure=secure, suf=suf,
                    prefetcher=prefetcher, train_mode=train_mode,
                    label="covert-channel")
    return _stride_channel(system, secret_bits, transient=True,
                           domain_flush=domain_flush)


def _covert_stride_attack(mitigation: Mitigation, prefetcher: Optional[str],
                          secret_bits: Sequence[int],
                          params: Optional[SystemParams]) -> AttackResult:
    system = build_attack_system(mitigation, prefetcher, params,
                                 label=f"covert-stride/{mitigation.name}")
    return _stride_channel(system, secret_bits, transient=True,
                           domain_flush=True)


def _stride_inference_attack(mitigation: Mitigation,
                             prefetcher: Optional[str],
                             secret_bits: Sequence[int],
                             params: Optional[SystemParams]) -> AttackResult:
    system = build_attack_system(
        mitigation, prefetcher, params,
        label=f"stride-inference/{mitigation.name}")
    return _stride_channel(system, secret_bits, transient=False,
                           domain_flush=True)


#: prime-probe: lines primed per set == LLC ways (fills the set), and the
#: way index the victim's conflicting block lives at (beyond the primed
#: range, so it is never part of the prime).
_PP_VICTIM_WAY_OFFSET = 8


def _prime_probe_attack(mitigation: Mitigation, prefetcher: Optional[str],
                        secret_bits: Sequence[int],
                        params: Optional[SystemParams]) -> AttackResult:
    system = build_attack_system(mitigation, prefetcher, params,
                                 label=f"prime-probe/{mitigation.name}")
    llc = system.params.llc
    sets, ways = llc.sets, llc.ways
    victim_way = ways + _PP_VICTIM_WAY_OFFSET

    records: List[Record] = []
    set_pairs: List[tuple] = []
    attacker_ip = 0x8000
    for i, bit in enumerate(secret_bits):
        # Two disjoint target sets per bit; the victim's transient load
        # conflicts with exactly one of them, chosen by the secret.
        set_a = (16 + 4 * i) % sets
        set_b = (sets // 2 + 16 + 4 * i) % sets
        set_pairs.append((set_a, set_b))
        records.extend(_filler(20))
        # Prime: fill both LLC sets completely.  Every load uses a fresh
        # IP so no stride pattern exists for the prefetcher to amplify;
        # the earliest-primed ways also fall out of the (smaller) L1D/L2
        # sets, leaving them LLC-resident -- exactly what we probe.
        for target_set in (set_a, set_b):
            for way in range(1, ways + 1):
                block = target_set + way * sets
                records.append((attacker_ip, block * 64, FLAG_LOAD))
                attacker_ip += 8
        records.extend(_filler(200))
        # Victim: one transient load conflicting with the secret's set.
        victim_block = (set_a if bit else set_b) + victim_way * sets
        records.append((0x5000, -1, FLAG_BRANCH | FLAG_MISPREDICT))
        records.append((0x7000, victim_block * 64,
                        FLAG_LOAD | FLAG_WRONG_PATH))
        records.append((0x7000, victim_block * 64,
                        FLAG_LOAD | FLAG_WRONG_PATH))
        records.extend(_filler(2000))

    system.run(Trace("prime-probe", records), warmup=0.0)
    _domain_flush(system)
    threshold = hit_threshold(system.params)

    probe_time = system.core.final_retire + 1000
    recovered: List[Optional[int]] = []
    latencies = []
    for set_a, set_b in set_pairs:
        lats = []
        misses = []
        for target_set in (set_a, set_b):
            count = 0
            # The two oldest primed ways: evicted from L1D/L2 by the
            # later prime traffic, so a fast probe can only mean the LLC
            # still holds them -- i.e. the victim did not conflict here.
            for way in (1, 2):
                lat = probe_latency(system, target_set + way * sets,
                                    probe_time)
                probe_time += 600
                lats.append(lat)
                if lat >= threshold:
                    count += 1
            misses.append(count)
        latencies.append(tuple(lats))
        if misses[0] > misses[1]:
            recovered.append(1)
        elif misses[0] < misses[1]:
            recovered.append(0)
        else:
            recovered.append(None)
    return AttackResult(list(secret_bits), recovered, latencies, threshold)


def _cross_core_probe_attack(mitigation: Mitigation,
                             prefetcher: Optional[str],
                             secret_bits: Sequence[int],
                             params: Optional[SystemParams]) -> AttackResult:
    mc_params = attack_params(params)
    if mitigation.scramble_llc:
        mc_params = randomized_llc_params(mc_params)
    mc = MulticoreSystem(cores=2, params=mc_params,
                         system_factory=core_factory(mitigation, prefetcher))
    victim, attacker = mc.systems

    records, region_blocks = _covert_trace(secret_bits, 0x7000,
                                           transient=True)
    attacker_trace = Trace("attacker", _filler(len(records) // 2))
    mc.run([Trace("victim", records), attacker_trace], warmup=0.0)
    _domain_flush(victim)
    _domain_flush(attacker)

    # The attacker probes through its own private hierarchy: only fills
    # that reached the *shared* LLC are visible from this side.
    threshold = hit_threshold(mc_params)
    probe_time = max(victim.core.final_retire,
                     attacker.core.final_retire) + 1000
    recovered, latencies = _probe_telltales(attacker, region_blocks,
                                            probe_time, threshold)
    return AttackResult(list(secret_bits), recovered, latencies, threshold)


# ----------------------------------------------------------------------
# registry + uniform entry point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AttackSpec:
    """One registered attack: its mount function plus display metadata."""

    name: str
    description: str
    fn: Callable = field(repr=False)


ATTACKS: Dict[str, AttackSpec] = {
    "covert-stride": AttackSpec(
        "covert-stride",
        "transient stride trains the prefetcher; probe its fills",
        _covert_stride_attack),
    "prime-probe": AttackSpec(
        "prime-probe",
        "LLC conflict channel: prime two sets, probe for the eviction",
        _prime_probe_attack),
    "stride-inference": AttackSpec(
        "stride-inference",
        "committed secret-dependent stride; prefetcher amplifies it",
        _stride_inference_attack),
    "cross-core-probe": AttackSpec(
        "cross-core-probe",
        "victim's prefetch fills probed from another core's shared LLC",
        _cross_core_probe_attack),
}


def attack_names() -> List[str]:
    """All registered attack names."""
    return sorted(ATTACKS)


def run_attack(attack: str, mitigation="nonsecure",
               prefetcher: Optional[str] = "ip-stride",
               secret_bits: Optional[Sequence[int]] = None,
               params: Optional[SystemParams] = None) -> AttackResult:
    """Mount one registered attack against one registered mitigation.

    ``prefetcher`` is a registry *name* (``"none"``/``None`` disables
    prefetching -- useful as a sanity column: prefetcher-based channels
    must then read pure noise).  Deterministic: same arguments, same
    result, regardless of executor parallelism or batch front-end.
    """
    try:
        spec = ATTACKS[attack]
    except KeyError:
        raise ValueError(
            f"unknown attack {attack!r}; known: {attack_names()}"
        ) from None
    mit = make_mitigation(mitigation)
    bits = list(DEFAULT_SECRET if secret_bits is None else secret_bits)
    return spec.fn(mit, prefetcher, bits, params)


def transient_blocks_in_caches(system: System,
                               blocks: Sequence[int]) -> List[int]:
    """Which of ``blocks`` leaked into the non-speculative hierarchy.

    Used by the invisibility property tests: after transient execution, a
    secure cache system must show none of the transiently-touched blocks in
    L1D/L2/LLC (the GM does not count -- it is flushed on domain switch).
    """
    leaked = []
    for block in blocks:
        if any(level.contains(block) for level in system.hierarchy.levels()):
            leaked.append(block)
    return leaked
