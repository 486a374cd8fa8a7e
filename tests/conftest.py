"""Shared fixtures: small deterministic traces and common systems."""

import pytest

from repro.prefetchers.base import MODE_ON_COMMIT, Prefetcher
from repro.sim.params import baseline
from repro.sim.system import System
from repro.workloads.synthetic import stream_trace
from repro.workloads.trace import Trace, load


@pytest.fixture()
def params():
    return baseline()


@pytest.fixture()
def tiny_stream():
    """A small 2-stream trace with stores and mispredicts."""
    return stream_trace("tiny-stream", 1500, streams=2, stride_blocks=1,
                        elems_per_block=8, footprint_mb=4, store_every=8,
                        seed=3)


@pytest.fixture()
def pure_loads():
    """400 sequential loads, one per 8 bytes, no branches or stores."""
    records = [load(0x1000, (1 << 30) + i * 8) for i in range(400)]
    return Trace("pure-loads", records)


def make_load_trace(blocks, ip=0x1000, base=1 << 30):
    """Build a trace of one load per listed block number."""
    return Trace("blocks", [load(ip, base + b * 64) for b in blocks])


class RecordingPrefetcher(Prefetcher):
    """Records every training event; issues ``issue[block]`` when trained
    on ``block`` (nothing by default).  ``requires_xlq`` makes the system
    train it at commit on events rebuilt from each load's X-LQ fields."""

    name = "recording"
    requires_xlq = True

    def __init__(self, issue=None):
        self.issue = issue or {}
        self.events = []

    def train(self, event):
        self.events.append(event)
        return self.issue.get(event.block, [])

    def storage_bits(self):
        return 0


@pytest.fixture(scope="session")
def xlq_run():
    """``run(params, records, issue=None, setup=None)`` replays
    ``records`` on a secure system whose on-commit prefetcher is a
    :class:`RecordingPrefetcher` (``issue`` passes through) and whose
    miss classifier's shadow records the on-access events of the same
    run; ``setup(system)`` runs first.  Returns ``(system, result,
    access_events, commit_events)``; warm-up 0."""

    def run(params, records, issue=None, setup=None):
        prefetcher = RecordingPrefetcher(issue)
        shadow = RecordingPrefetcher()
        sim = System(params, secure=True, prefetcher=prefetcher,
                     train_mode=MODE_ON_COMMIT, shadow=shadow)
        if setup is not None:
            setup(sim)
        result = sim.run(Trace("xlq", records), warmup=0.0)
        return sim, result, shadow.events, prefetcher.events
    return run
