"""Pluggable mitigation registry: the defense axis of the security matrix.

A *mitigation* is a named, declarative recipe for hardening the
simulated system against the attacks in :mod:`repro.security.attacks`.
Each one maps onto mechanisms the substrate already models (or that were
added alongside this registry):

``nonsecure``
    The conventional hierarchy -- the matrix's insecure baseline.
``delay-on-miss``
    Speculative L1D misses stall until their branch horizon resolves
    (:class:`repro.sim.delay.DelayOnMissPolicy`); squashed loads never
    touch the memory system.
``ghostminion`` / ``ghostminion-suf``
    The paper's secure cache system: invisible speculative walks, fills
    parked in the GM, on-commit writes, and (``-suf``) the Secure Update
    Filter.  Prefetcher training moves to commit time.
``rand-llc``
    Random-and-Safe-style randomized LLC (arXiv:2309.16172): the LLC
    picks a line's set from a keyed hash of its block
    (``CacheParams.keyed_index``) and fills with random replacement,
    defeating eviction-set construction for conflict channels.  Tags and
    the addresses DRAM sees stay physical.
``prefender``
    PREFENDER-style access obfuscation (arXiv:2307.06756): the active
    prefetcher is wrapped in
    :class:`repro.security.prefender.AccessObfuscationShim`, which
    issues camouflage prefetches whenever the real prefetcher emits.

The registry mirrors the prefetcher registry
(:mod:`repro.prefetchers.registry`) exactly: ``register`` guards against
silent shadowing, ``make_mitigation`` raises naming the known set, and
``describe`` summarizes each entry.  Experiment configs reference
mitigations *by mechanism* (``Config.mitigation``), so registering a new
defense here is all it takes to add a row to the security matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..prefetchers.base import MODE_ON_ACCESS, MODE_ON_COMMIT, Prefetcher
from ..prefetchers.registry import make_prefetcher
from ..sim.params import SystemParams, baseline
from ..sim.system import System
from .prefender import AccessObfuscationShim

__all__ = [
    "Mitigation", "MITIGATION_MECHANISMS",
    "PAPER_MITIGATIONS", "mitigation_names", "make_mitigation",
    "is_registered", "register", "unregister", "describe",
    "randomized_llc_params", "attack_params", "build_attack_prefetcher",
    "build_attack_system", "core_factory",
]

#: The mechanism knob carried by ``Config.mitigation`` (experiment
#: layer).  "none" covers nonsecure *and* the GhostMinion modes, whose
#: mechanisms ride on ``Config.mode``/``Config.suf`` instead.
MITIGATION_MECHANISMS = ("none", "delay", "rand-llc", "prefender")


@dataclass(frozen=True)
class Mitigation:
    """One registered defense: which mechanisms it turns on."""

    name: str
    description: str
    #: GhostMinion secure cache system (invisible walks + GM + commit).
    secure: bool = False
    #: Secure Update Filter (requires ``secure``).
    suf: bool = False
    #: Prefetcher training time under this defense.
    train_mode: str = MODE_ON_ACCESS
    #: Delay-on-miss speculative-load policy.
    delay: bool = False
    #: Keyed LLC set index + random-replacement fill.
    scramble_llc: bool = False
    #: PREFENDER-style camouflage shim around the prefetcher.
    obfuscate: bool = False

    @property
    def mechanism(self) -> str:
        """The ``Config.mitigation`` value this defense maps onto."""
        if self.delay:
            return "delay"
        if self.scramble_llc:
            return "rand-llc"
        if self.obfuscate:
            return "prefender"
        return "none"

    def config_spec(self, prefetcher: str) -> Dict[str, object]:
        """Keyword arguments for ``Config.from_spec`` (campaign layer)."""
        if self.secure:
            mode = "on-commit-secure" if self.train_mode == MODE_ON_COMMIT \
                else "on-access-secure"
        else:
            mode = "nonsecure"
        return {"mode": mode, "prefetcher": prefetcher, "suf": self.suf,
                "mitigation": self.mechanism}


_REGISTRY: Dict[str, Mitigation] = {}


def mitigation_names() -> List[str]:
    """All registered mitigation names."""
    return sorted(_REGISTRY)


def make_mitigation(name) -> Mitigation:
    """Look up a mitigation by name (passing one through unchanged)."""
    if isinstance(name, Mitigation):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown mitigation {name!r}; known: {mitigation_names()}"
        ) from None


def is_registered(name: str) -> bool:
    """Whether ``name`` is a known mitigation."""
    return name in _REGISTRY


def register(mitigation: Mitigation, *, override: bool = False) -> None:
    """Register an additional mitigation (used by extensions).

    Re-registering an existing name raises unless ``override=True`` --
    silently shadowing a defense would corrupt every matrix that
    references it by name.
    """
    name = mitigation.name
    if not name:
        raise ValueError(f"invalid mitigation name {name!r}")
    if mitigation.suf and not mitigation.secure:
        raise ValueError(f"mitigation {name!r}: SUF requires secure")
    if mitigation.delay and mitigation.secure:
        raise ValueError(f"mitigation {name!r}: delay-on-miss and "
                         f"GhostMinion are mutually exclusive")
    if mitigation.mechanism != "none" and \
            mitigation.mechanism not in MITIGATION_MECHANISMS:
        raise ValueError(
            f"mitigation {name!r}: unknown mechanism "
            f"{mitigation.mechanism!r}")  # pragma: no cover - defensive
    if name in _REGISTRY and not override:
        raise ValueError(
            f"mitigation {name!r} is already registered; pass "
            f"override=True to replace it")
    _REGISTRY[name] = mitigation


def unregister(name: str) -> None:
    """Remove an extension registration (primarily for tests)."""
    _REGISTRY.pop(name, None)


def describe() -> Dict[str, str]:
    """``name -> description`` for every registered mitigation."""
    return {name: _REGISTRY[name].description
            for name in sorted(_REGISTRY)}


# ----------------------------------------------------------------------
# the shipped defenses
# ----------------------------------------------------------------------

register(Mitigation(
    "nonsecure", "conventional hierarchy, no defense (baseline)"))
register(Mitigation(
    "delay-on-miss",
    "speculative L1D misses wait for their branch horizon", delay=True))
register(Mitigation(
    "ghostminion",
    "GhostMinion secure cache system, on-commit training",
    secure=True, train_mode=MODE_ON_COMMIT))
register(Mitigation(
    "ghostminion-suf",
    "GhostMinion + Secure Update Filter, on-commit training",
    secure=True, suf=True, train_mode=MODE_ON_COMMIT))
register(Mitigation(
    "rand-llc",
    "Random-and-Safe-style randomized-index LLC with random fill",
    scramble_llc=True))
register(Mitigation(
    "prefender",
    "PREFENDER-style camouflage prefetches around the real prefetcher",
    obfuscate=True))

#: The defense rows evaluated by the committed security-matrix campaign.
PAPER_MITIGATIONS = ("nonsecure", "delay-on-miss", "ghostminion",
                     "rand-llc", "prefender")


# ----------------------------------------------------------------------
# system construction helpers
# ----------------------------------------------------------------------

def randomized_llc_params(params: SystemParams) -> SystemParams:
    """Random-and-Safe LLC: a keyed set index and random replacement."""
    return replace(params, llc=replace(params.llc, replacement="random",
                                       keyed_index=True))


def attack_params(params: Optional[SystemParams] = None) -> SystemParams:
    """Baseline params with the DRAM prefetch throttle relaxed.

    The attack traces are tiny and bursty; the backlog margin exists to
    model steady-state fairness, not to drop the handful of prefetches
    the channel rides on.
    """
    if params is None:
        params = baseline()
    return replace(params, dram=replace(params.dram,
                                        prefetch_backlog_margin=1000))


def build_attack_prefetcher(mitigation: Mitigation,
                            name: Optional[str]) -> Optional[Prefetcher]:
    """Instantiate (and, under ``prefender``, wrap) a prefetcher."""
    prefetcher = make_prefetcher(name)
    if prefetcher is not None and mitigation.obfuscate:
        prefetcher = AccessObfuscationShim(prefetcher)
    return prefetcher


def build_attack_system(mitigation, prefetcher: Optional[str] = "ip-stride",
                        params: Optional[SystemParams] = None,
                        **system_kwargs) -> System:
    """Build one :class:`System` hardened by ``mitigation``.

    ``mitigation`` is a name or a :class:`Mitigation`; extra keyword
    arguments (``shared_llc``, ``label``, ...) pass through to
    :class:`System`.
    """
    mitigation = make_mitigation(mitigation)
    params = attack_params(params)
    if mitigation.scramble_llc:
        params = randomized_llc_params(params)
    return System(
        params=params,
        secure=mitigation.secure,
        suf=mitigation.suf,
        delay_mitigation=mitigation.delay,
        prefetcher=build_attack_prefetcher(mitigation, prefetcher),
        train_mode=mitigation.train_mode,
        **system_kwargs)


def core_factory(mitigation, prefetcher: Optional[str] = "ip-stride"):
    """A per-core ``system_factory`` for :class:`MulticoreSystem`.

    Every core gets a fresh prefetcher instance hardened the same way;
    the multicore driver supplies the shared LLC/DRAM, built from its
    params (so ``rand-llc`` needs :func:`randomized_llc_params` there).
    """
    mitigation = make_mitigation(mitigation)

    def factory(*, params, shared_llc, shared_dram):
        return System(
            params=params,
            secure=mitigation.secure,
            suf=mitigation.suf,
            delay_mitigation=mitigation.delay,
            prefetcher=build_attack_prefetcher(mitigation, prefetcher),
            train_mode=mitigation.train_mode,
            shared_llc=shared_llc, shared_dram=shared_dram)

    return factory
