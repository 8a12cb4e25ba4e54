"""Differential and unit tests for the bulk-miss seam (DESIGN §6).

The seam applies eligible same-VM private misses inline in the batched
kernel instead of descending through ``_transact``. Everything here
pins its hard edges: migration windows and metrics samples landing in
the middle of a bulk run, dirty, cross-VM, untracked and
provider-designated victims committed inline, migration and metrics
deadlines between step-path accesses, deadline-clamped chunk refills,
sanitized runs disabling the seam entirely, and the bail-out histogram
that records why misses stayed on the reference path. All differential
assertions are byte-equality of ``SimStats.to_dict()`` — the seam's
contract is exactness, not approximation.
"""

import json
import sys
from dataclasses import replace

import pytest

from repro.coherence.plan import RequestPlan
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.core.residence import UNTRACKED_VM
from repro.mem.pagetype import PageType
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES
from tests.sim.test_kernel import assert_identical_on_step_path

# Small caches + a read-heavy zipfian suite: most accesses miss and most
# misses are seam-eligible (clean VM-local victims), so every downstream
# assertion exercises the inline path heavily.
MISS_HEAVY = SimConfig(
    l1_size=4 * 1024,
    l2_size=16 * 1024,
    suite="web-farm",
    accesses_per_vcpu=4000,
    warmup_accesses_per_vcpu=500,
)

# The write-heavy counterpart: the backup service's ~95% store mix keeps
# L2 victims dirty, so the seam writes them back inline.
WRITE_HEAVY = replace(MISS_HEAVY, suite="backup-window")


def run_system(config: SimConfig, app: str = "fft"):
    system = build_system(config, PROFILES[app])
    engine = engine_for(system)
    engine.run()
    return system, engine


def run_stats(config: SimConfig, app: str = "fft") -> str:
    system, _ = run_system(config, app)
    return json.dumps(system.stats.to_dict(), sort_keys=True)


def assert_identical(config: SimConfig, app: str = "fft") -> None:
    reference = run_stats(replace(config, kernel="reference"), app)
    batched = run_stats(replace(config, kernel="batched"), app)
    assert batched == reference


class TestBulkDifferential:
    def test_miss_heavy_cell(self):
        assert_identical(MISS_HEAVY)

    def test_migration_window_mid_bulk_run(self):
        # Tiny migration periods land windows inside runs of inline
        # misses; the boundary fold must stop the chunk exactly there.
        assert_identical(
            replace(
                MISS_HEAVY,
                migration_period_ms=0.05,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )

    def test_metrics_sample_on_bulk_transacted_access(self):
        # Samples every ~2k cycles fall on accesses the seam applied
        # inline; the sampled network/memory counters must already be
        # flushed (the seam batches traffic per transaction, never
        # across one).
        assert_identical(replace(MISS_HEAVY, metrics_sample_every=2000))

    def test_dirty_victim_bails_mid_run(self):
        assert_identical(WRITE_HEAVY)

    def test_dirty_victims_with_migration(self):
        assert_identical(
            replace(
                WRITE_HEAVY,
                migration_period_ms=0.1,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )

    def test_counter_threshold_retry_plans(self):
        # COUNTER_THRESHOLD plans carry a retry ladder; only misses whose
        # first attempt provably succeeds may stay inline.
        assert_identical(
            replace(
                MISS_HEAVY,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                counter_threshold=3,
            )
        )

    def test_deadlines_between_step_path_accesses(self, monkeypatch):
        # Multi-vCPU VMs on the step path: migration and metrics
        # deadlines land between stepper accesses while small caches
        # keep the seam busy; packed-mirror validation runs at every
        # phase end.
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        assert_identical_on_step_path(
            SimConfig(
                num_cores=4,
                mesh_width=2,
                mesh_height=2,
                num_vms=2,
                vcpus_per_vm=2,
                l1_size=2 * 1024,
                l2_size=8 * 1024,
                accesses_per_vcpu=600,
                warmup_accesses_per_vcpu=200,
                migration_period_ms=0.2,
                metrics_sample_every=3000,
            )
        )

    def test_deadline_clamped_chunk_refills(self, monkeypatch):
        # Same deadlines on the chunk path (pattern workloads refill via
        # stream_chunk): the refill size must clamp to the next
        # coherence-visible deadline up front.
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        assert_identical(
            replace(
                MISS_HEAVY,
                migration_period_ms=0.05,
                metrics_sample_every=2000,
                accesses_per_vcpu=2000,
            )
        )


class _RecordingSet(dict):
    """An L2 set that reports the victims the seam pops from it."""

    def __init__(self, lines, core, probe):
        super().__init__(lines)
        self.core = core
        self.probe = probe

    def pop(self, *args):
        line = super().pop(*args)
        if sys._getframe(1).f_code.co_name == "bulk":
            self.probe.seam_evicted(self.core, line)
        return line


class SeamProbe:
    """Test-side record of the victims the bulk-miss seam commits.

    The seam is the ``bulk`` closure of ``BatchedEngine._run_phase``: a
    caller frame of that name marks an eviction (or a residence
    ``on_low`` call) the seam performed itself, where the reference
    path would do it from ``_apply_transact`` and
    ``ResidenceTracker._decrement``. The requester is the VM of the
    plan the seam looked up last. Install before ``engine.run()``: the
    seam hoists the plan function, set lists and hooks at phase start.
    """

    def __init__(self, system, engine):
        self.registry = system.registry._blocks
        self.requester = None
        # One record per seam eviction: (requester VM, victim line,
        # core, held), where held is the victim block's registry state
        # as (owned by core, dirty, providers), or None when the core
        # held no tokens for it.
        self.victims = []
        # One record per seam-fired on_low: (requester VM, low VM).
        self.lows = []
        plan = engine._plan

        def recording_plan(core, vm_id, page_type, block=None):
            self.requester = vm_id
            return plan(core, vm_id, page_type, block)

        engine._plan = recording_plan
        for core, hierarchy in engine._caches.items():
            sets = hierarchy._l2_sets
            for index, lines in enumerate(sets):
                sets[index] = _RecordingSet(lines, core, self)
        for tracker in system.snoop_filter.trackers.values():
            tracker.on_low = self._recording_low(tracker.on_low)

    def _recording_low(self, on_low):
        def wrapper(core, vm_id, count):
            if sys._getframe(1).f_code.co_name == "bulk":
                self.lows.append((self.requester, vm_id))
            if on_low is not None:
                on_low(core, vm_id, count)

        return wrapper

    def seam_evicted(self, core, line):
        state = self.registry.get(line.block)
        if state is None or core not in state.sharers:
            held = None
        else:
            held = (state.owner == core, state.dirty, dict(state.providers))
        self.victims.append((self.requester, line, core, held))

    def cross_vm(self):
        return [
            line for requester, line, _, _ in self.victims
            if line.vm_id not in (requester, UNTRACKED_VM)
        ]

    def untracked(self):
        return [
            line for _, line, _, _ in self.victims
            if line.vm_id == UNTRACKED_VM
        ]

    def provider_designated(self):
        return [
            line for _, line, core, held in self.victims
            if held is not None and core in held[2].values()
        ]

    def written_back(self):
        # registry.evicted's writeback rule: the owner token travels
        # with dirty data.
        return [
            line for _, line, _, held in self.victims
            if held is not None and held[0] and (held[1] or line.dirty)
        ]


def _memory_counts(system):
    # Not on SimStats: a writeback charged as a token return (or the
    # reverse) would otherwise only show up as a flit-count difference.
    memory = system.memory_ctrl
    return memory.data_reads, memory.writebacks, memory.token_returns


def assert_identical_with_probe(config: SimConfig, app: str = "fft"):
    """``assert_identical`` (plus the memory controller's counters) with
    a :class:`SeamProbe` on the batched run."""
    reference, _ = run_system(replace(config, kernel="reference"), app)
    system = build_system(replace(config, kernel="batched"), PROFILES[app])
    engine = engine_for(system)
    assert isinstance(engine, BatchedEngine)
    probe = SeamProbe(system, engine)
    engine.run()
    assert system.stats.to_dict() == reference.stats.to_dict()
    assert _memory_counts(system) == _memory_counts(reference)
    return probe


class TestNewlyLegalVictims:
    """Victims the seam used to bail on, now committed inline."""

    def test_cross_vm_victims_fire_on_low(self, monkeypatch):
        # Fast relocation leaves each VM's lines behind on cores it no
        # longer runs on; evicting them decrements *their* VM's counter,
        # which is how counter-threshold maps shrink (Section IV-B).
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        probe = assert_identical_with_probe(
            replace(
                MISS_HEAVY,
                migration_period_ms=0.1,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                counter_threshold=3,
                accesses_per_vcpu=2000,
            )
        )
        assert probe.cross_vm()
        assert any(low != requester for requester, low in probe.lows)

    def test_untracked_and_provider_victims(self, monkeypatch):
        # Hypervisor/dom0 lines carry no residence counter, and RO-shared
        # content lines can hold a provider designation the eviction
        # must drop.
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        probe = assert_identical_with_probe(
            replace(
                MISS_HEAVY,
                l2_size=8 * 1024,
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
                content_policy=ContentPolicy.INTRA_VM,
                accesses_per_vcpu=2000,
            )
        )
        assert probe.untracked()
        assert probe.provider_designated()

    def test_dirty_owned_victims_write_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_VALIDATE", "1")
        probe = assert_identical_with_probe(
            replace(
                WRITE_HEAVY,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                counter_threshold=3,
                accesses_per_vcpu=2000,
            )
        )
        assert probe.written_back()


class TestSanitizedBulk:
    def test_sanitizer_disables_seam_and_stays_clean(self):
        config = replace(MISS_HEAVY, sanitize=True, accesses_per_vcpu=2000)
        outputs = {}
        for kernel in ("reference", "batched"):
            system, engine = run_system(replace(config, kernel=kernel))
            assert system.sanitizer.violation_count == 0
            if kernel == "batched":
                # The seam is gated off under any observer: every miss
                # must have taken the reference path the sanitizer
                # shadows.
                summary = engine.bulk_summary()
                assert summary["bulk_transacts"] == 0
                assert summary["bailouts"] == {}
            outputs[kernel] = json.dumps(system.stats.to_dict(), sort_keys=True)
        assert outputs["batched"] == outputs["reference"]


class TestBailHistogram:
    def test_miss_heavy_majority_inline(self):
        _, engine = run_system(replace(MISS_HEAVY, kernel="batched"))
        summary = engine.bulk_summary()
        bulk = summary["bulk_transacts"]
        bailed = sum(summary["bailouts"].values())
        assert bulk > 0
        # The acceptance bar for the miss-heavy cell: at least half of
        # the seam-visible private misses commit inline.
        assert bulk / (bulk + bailed) >= 0.5

    def test_write_heavy_commits_victims_inline(self):
        _, engine = run_system(replace(WRITE_HEAVY, kernel="batched"))
        summary = engine.bulk_summary()
        bulk = summary["bulk_transacts"]
        bailed = sum(summary["bailouts"].values())
        # Dirty victims no longer bail: the seam writes them back inline.
        assert bulk / (bulk + bailed) >= 0.9, summary
        assert not any(
            reason.startswith("victim-") for reason in summary["bailouts"]
        )

    def test_summary_is_sorted_and_detached(self):
        _, engine = run_system(replace(MISS_HEAVY, kernel="batched"))
        summary = engine.bulk_summary()
        reasons = list(summary["bailouts"])
        assert reasons == sorted(reasons)
        # Mutating the summary must not touch the engine's live counters.
        summary["bailouts"]["fake"] = 1
        assert "fake" not in engine.bulk_summary()["bailouts"]

    def test_counters_reset_between_measurements(self):
        system = build_system(
            replace(MISS_HEAVY, kernel="batched", accesses_per_vcpu=1500),
            PROFILES["fft"],
        )
        engine = engine_for(system)
        assert isinstance(engine, BatchedEngine)
        clocks = engine.warm()
        # The measurement boundary zeroes the histogram with the rest of
        # the measurement state: the warm-up phase ran plenty of inline
        # misses, but the summary after warm() reports none of them.
        warm_summary = engine.bulk_summary()
        assert warm_summary["bulk_transacts"] == 0
        assert warm_summary["bailouts"] == {}
        engine.measure(clocks)
        measured = engine.bulk_summary()
        # The measured phase's counts only.
        assert measured["bulk_transacts"] > 0

    def test_reference_engine_has_no_summary(self):
        system = build_system(
            replace(MISS_HEAVY, kernel="reference"), PROFILES["fft"]
        )
        engine = engine_for(system)
        assert not hasattr(engine, "bulk_summary")


class TestPlanProperties:
    def test_first_attempt_and_single_attempt(self):
        single = RequestPlan(attempts=(frozenset({1, 2}),))
        assert single.first_attempt == frozenset({1, 2})
        assert single.single_attempt
        ladder = RequestPlan(
            attempts=(frozenset({1}), frozenset({1, 2, 3})),
            page_type=PageType.VM_PRIVATE,
        )
        assert ladder.first_attempt == frozenset({1})
        assert not ladder.single_attempt
