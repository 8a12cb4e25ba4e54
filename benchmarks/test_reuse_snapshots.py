"""Benchmark (infrastructure): warm-state snapshot reuse on a period sweep.

Not a paper figure. A migration-period sweep is the reuse layer's
headline case: ``migration_period_ms`` is warmup-inert, so every period
shares one warm-up fingerprint — the first cell warms and publishes a
snapshot, the rest restore and go straight to measurement. The vSnoop
policy family (base, counter, counter-threshold) shares one snapshot
too, so a Figure 7-9 sweep warms once per app. This
benchmark times the same sweep with snapshots off and on (fresh store
directories both times, so neither arm replays stored *results*) and
asserts the advertised speed-up.

The differential suite (``tests/store/test_snapshot_differential.py``)
owns the correctness claim; this file owns the performance claim.
"""

import json
import os
import tempfile
import time

from conftest import emit

from repro.core.filter import SnoopPolicy
from repro.sim import SimConfig, SimTask
from repro.sim.runner import run_simulation_task
from repro.store import get_store

_FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")

# Warm-up dominates each cell (6:1) so the sweep's cost is mostly the
# repeated warm-ups the snapshot path eliminates.
_WARMUP = 1_500 if _FAST else 6_000
_MEASURE = 250 if _FAST else 1_000
_PERIODS_MS = [5.0, 2.5, 0.5, 0.1]


def _sweep_tasks(policies=(SnoopPolicy.VSNOOP_COUNTER,), periods=_PERIODS_MS):
    return [
        SimTask(
            SimConfig.migration_study(
                snoop_policy=policy,
                migration_period_ms=period,
                accesses_per_vcpu=_MEASURE,
                warmup_accesses_per_vcpu=_WARMUP,
            ),
            "fft",
        )
        for policy in policies
        for period in periods
    ]


def _in_fresh_store(tasks, snapshots: str):
    """(wall time, stats, store counters) of ``tasks`` in a fresh store."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        saved = {
            var: os.environ.get(var) for var in ("REPRO_STORE", "REPRO_SNAPSHOTS")
        }
        os.environ["REPRO_STORE"] = root
        os.environ["REPRO_SNAPSHOTS"] = snapshots
        try:
            start = time.perf_counter()
            stats = [run_simulation_task(task) for task in tasks]
            elapsed = time.perf_counter() - start
            counters = get_store().counters()
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
    assert counters["hits"] == 0, "fresh store must not serve results"
    return elapsed, stats, counters


def _run_sweep(snapshots: str) -> float:
    """Wall time of the sweep in a fresh store with snapshots on/off."""
    elapsed, stats, counters = _in_fresh_store(_sweep_tasks(), snapshots)
    if snapshots == "on":
        # First period warms cold, the other three restore.
        assert counters["snapshot_hits"] == len(_PERIODS_MS) - 1, counters
    else:
        assert counters["snapshot_hits"] == 0, counters
    assert all(s.execution_cycles > 0 for s in stats)
    return elapsed


def test_period_sweep_snapshot_speedup(benchmark):
    cold = _run_sweep("off")
    warm = benchmark.pedantic(_run_sweep, args=("on",), rounds=1, iterations=1)
    speedup = cold / warm
    emit(
        f"period sweep x{len(_PERIODS_MS)} (warmup {_WARMUP}/vcpu, "
        f"measure {_MEASURE}/vcpu): snapshots off {cold:.2f}s, "
        f"on {warm:.2f}s -> {speedup:.2f}x"
    )
    # Acceptance floor from ISSUE 5; the 6:1 warm-up ratio gives ~3x in
    # practice, so 1.5x leaves headroom for slow CI machines.
    assert speedup >= 1.5, f"snapshot reuse only {speedup:.2f}x"


def test_policy_family_sweep_warms_once():
    """vsnoop-base, counter and counter-threshold share one warm-up.

    The three policies differ only in how a vCPU map shrinks after a
    migration, and the warm-up runs none, so the runner keys their
    snapshot by policy family: a 3-policy x 2-period sweep warms once
    and restores five times, and every cell still equals its
    snapshots-off run.
    """
    tasks = _sweep_tasks(
        policies=(
            SnoopPolicy.VSNOOP_BASE,
            SnoopPolicy.VSNOOP_COUNTER,
            SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
        ),
        periods=(0.5, 0.1),
    )
    cold, straight, _ = _in_fresh_store(tasks, "off")
    warm, forked, counters = _in_fresh_store(tasks, "on")
    assert counters["snapshot_misses"] == 1, counters
    assert counters["snapshot_hits"] == len(tasks) - 1 == 5, counters
    for task, a, b in zip(tasks, forked, straight):
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        ), task
    emit(
        f"policy-family sweep 3x2 (warmup {_WARMUP}/vcpu, measure "
        f"{_MEASURE}/vcpu): snapshots off {cold:.2f}s, on {warm:.2f}s -> "
        f"{cold / warm:.2f}x"
    )
