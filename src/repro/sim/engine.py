"""The trace-driven simulation engine.

Quasi-event-driven interleaving: each vCPU carries a local cycle clock;
the engine always advances the vCPU with the smallest clock, so cores
stay loosely synchronised without a global event queue. Each step:

1. fire any due migration (the paper's approximation: every period, two
   random vCPUs of *different* VMs swap physical cores),
2. generate the vCPU's next access, translate it (COW applies here),
3. look up the local L1/L2; on a miss — or a store without exclusive
   tokens — run a coherence transaction under the filter's plan,
4. fill the caches, handle the replacement victim, advance the clock.

Execution time (Figure 6) is the largest per-vCPU clock at completion.
"""

from __future__ import annotations

import gc
import heapq
import random
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.core.residence import UNTRACKED_VM
from repro.hypervisor.vm import DOM0_VM_ID, VCpu
from repro.mem.pagetype import PageType
from repro.sim.system import HYPERVISOR_SPACE, SimulatedSystem
from repro.workloads.trace import Initiator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore the state found on exit.

    A simulation allocates heavily into long-lived containers (cache
    lines, registry state, snapshot payloads), which makes the collector
    fire constantly for no reclaimable garbage. Everything a run
    allocates is reachable or refcount-collected, so pausing it is
    purely a speed-up. A collector the caller had disabled stays
    disabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SimulationEngine:
    """Runs one built :class:`SimulatedSystem` to completion."""

    def __init__(self, system: SimulatedSystem) -> None:
        self.system = system
        self.config = system.config
        self.stats = system.stats
        self.now = 0
        self._rng = random.Random(f"engine/{self.config.seed}")
        self._vcpus: List[VCpu] = [
            vcpu for vm in system.vms for vcpu in vm.vcpus
        ]
        system.snoop_filter.clock = lambda: self.now  # used by vsnoop filters
        self._observe_outcome = getattr(system.snoop_filter, "observe_outcome", None)
        # Set by warm(): whether the warm-up could not tell the vSnoop
        # policies apart (see warm()).
        self.warmup_policy_blind = False
        period = self.config.migration_period_cycles
        self._migration_period = period
        self._next_migration = period if period is not None else None
        # Hot-path aliases: every component below is looked up once per
        # access in _run_phase, and none of them changes identity during
        # a run (stats objects are swapped on reset, so they stay on self).
        self._workloads = system.workloads
        self._caches = system.caches
        self._memory = system.hypervisor.memory
        self._mem_translate = self._memory.translate
        self._plan = system.snoop_filter.plan
        self._execute = system.protocol.execute
        # Opt-in coherence sanitizer: when attached, every plan and
        # transaction goes through its checked wrappers (pure observers —
        # latency, traffic and RNG draws are untouched, so stats stay
        # bit-identical to an unsanitized run).
        self._sanitizer = system.sanitizer
        if self._sanitizer is not None:
            self._sanitizer.clock = lambda: self.now
            self._plan = self._sanitizer.wrap_plan(self._plan)
            self._execute = self._sanitizer.wrap_execute(self._execute)
        # Opt-in tracer (repro.obs): wraps the plan seam (to capture each
        # transaction's destination set) and the engine's own transaction
        # entry point (to read exact counter deltas around it). Installed
        # after the sanitizer so traced transactions are the checked
        # ones; like it, a pure observer — stats stay bit-identical.
        self._tracer = system.tracer
        if self._tracer is not None:
            self._tracer.clock = lambda: self.now
            self._plan = self._tracer.wrap_plan(self._plan)
            self._transact = self._tracer.wrap_transact(self._transact)
        # Opt-in metrics recorder: the hot loop compares each popped
        # clock against this boundary; float('inf') keeps the comparison
        # permanently false (one int-vs-inf test per access) when off.
        self._metrics = system.metrics
        self._next_sample = float("inf")
        self._handle_eviction = system.protocol.handle_eviction
        self._write_to_page = system.hypervisor.write_to_page
        layout = system.layout
        self._page_shift = layout.page_bits - layout.block_bits
        # Guest-load translation memo: vm_id -> {guest_page -> (host_page,
        # page_type)}. The memory manager fires the hook whenever any
        # existing translation or page type changes (COW, content sharing,
        # RW-shared marking, page frees), so a memo hit is always current.
        # Inner dicts are pre-built and cleared *in place* so the hot loop
        # can hold direct per-vCPU references to them across invalidations.
        self._xlate_memo: dict = {}
        for vm in system.vms:
            self._xlate_memo[vm.vm_id] = {}
        self._xlate_memo.setdefault(DOM0_VM_ID, {})
        self._xlate_memo.setdefault(HYPERVISOR_SPACE, {})
        self._memory.translation_change_hook = self._clear_xlate_memo
        # Per-vCPU generation closures, built once: a vCPU's VM and
        # stream index never change (only its core does), so neither the
        # steppers nor the trace-replay adapters depend on phase state.
        # Previously the adapter closures were rebuilt inside every
        # _run_phase call; hoisting them here means both engines (and
        # both phases) share the identical closure per vCPU.
        self._steppers = []
        for vcpu in self._vcpus:
            workload = self._workloads[vcpu.vm_id]
            stepper_for = getattr(workload, "stepper_for", None)
            if stepper_for is not None:
                self._steppers.append(stepper_for(vcpu.index))
            else:
                # Trace-replay (or other) workloads expose only the
                # MemoryAccess API; adapt it to the stepper signature.
                self._steppers.append(_step_adapter(workload, vcpu.index))

    def _clear_xlate_memo(self) -> None:
        for memo in self._xlate_memo.values():
            memo.clear()

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(
        self,
        accesses_per_vcpu: Optional[int] = None,
        warmup_accesses_per_vcpu: Optional[int] = None,
    ) -> None:
        """Warm the caches, reset the counters, then measure.

        The warm-up phase fills working sets so cold misses do not drown
        the steady-state behaviour the paper measures. Migrations only
        start with the measured phase.
        """
        self.measure(
            self.warm(warmup_accesses_per_vcpu), accesses_per_vcpu
        )

    def warm(
        self, warmup_accesses_per_vcpu: Optional[int] = None
    ) -> List[int]:
        """Run the warm-up phase and reset counters; returns the clocks.

        After this the system is in exactly the state
        :meth:`restore_warm` reproduces from a snapshot: architectural
        state warm, every measurement counter zeroed.

        Also sets :attr:`warmup_policy_blind`, the witness that lets one
        warm-up stand for every policy of the vSnoop family
        (:func:`repro.sim.runner.snapshot_key`).
        """
        warmup = (
            warmup_accesses_per_vcpu
            if warmup_accesses_per_vcpu is not None
            else self.config.warmup_accesses_per_vcpu
        )
        clocks = [0] * len(self._vcpus)
        self.warmup_policy_blind = True
        if warmup > 0:
            domains = getattr(self.system.snoop_filter, "domains", None)
            version = domains.version if domains is not None else None
            with collector_paused():
                clocks = self._run_phase(clocks, warmup, migrate=False)
            # Read before the reset zeroes the counters: with no retry,
            # no persistent request and no vCPU-map edit, every
            # transaction completed on its plan's first attempt over the
            # placement-time maps, which the vSnoop policies share.
            coherence = self.stats.coherence
            self.warmup_policy_blind = (
                coherence.retries == 0
                and coherence.persistent_requests == 0
                and (domains is None or domains.version == version)
            )
            self._reset_measurements(min(clocks))
        return clocks

    def restore_warm(self, state: dict) -> List[int]:
        """Reach the post-:meth:`warm` state from a snapshot instead.

        Restores the architectural state into the freshly built system,
        then performs the same measurement reset the straight path runs
        at the warm-up boundary, so both paths converge to bit-identical
        pre-measurement state.
        """
        clocks = self.system.restore(state)
        self._reset_measurements(min(clocks))
        return clocks

    def measure(
        self, clocks: List[int], accesses_per_vcpu: Optional[int] = None
    ) -> None:
        """Run the measured phase from post-warm-up ``clocks``."""
        budget = (
            accesses_per_vcpu
            if accesses_per_vcpu is not None
            else self.config.accesses_per_vcpu
        )
        if self._migration_period is not None:
            self._next_migration = max(clocks) + self._migration_period
        start = min(clocks)
        if self._tracer is not None:
            self._tracer.begin_measurement(start)
        if self._metrics is not None:
            self._next_sample = self._metrics.begin(start)
        with collector_paused():
            clocks = self._run_phase(clocks, budget, migrate=True)
        self.stats.execution_cycles = max(clocks) - start
        self._finalise()

    def _run_phase(
        self, clocks: List[int], budget: int, migrate: bool
    ) -> List[int]:
        """Advance every vCPU by ``budget`` accesses; returns final clocks.

        The reference oracle: each access goes through the canonical
        methods — :meth:`PrivateHierarchy.access` for the local lookup,
        :meth:`TokenRegistry.write_hit` for the silent-store check and
        :meth:`_transact` for everything coherence-visible — so the
        batched kernel's inlined copies of those paths are checked
        against the methods themselves, not against a second inlining.
        """
        heap: List[Tuple[int, int, int]] = []
        remaining = []
        for index, local_time in enumerate(clocks):
            heapq.heappush(heap, (local_time, index, index))
            remaining.append(budget)
        final = list(clocks)
        vcpus = self._vcpus
        sequence = len(vcpus)
        think = self.config.think_cycles
        heappush = heapq.heappush
        heappop = heapq.heappop
        migrate = migrate and self._next_migration is not None
        next_migration = self._next_migration if migrate else float("inf")
        # Metrics boundary: inf unless a recorder is active this phase.
        metrics = self._metrics
        next_sample = self._next_sample
        caches = self._caches
        mem_translate = self._mem_translate
        transact = self._transact
        write_hit = self.system.registry.write_hit
        guest_initiator = Initiator.GUEST
        hyp_initiator = Initiator.HYPERVISOR
        ro_shared = PageType.RO_SHARED
        write_to_page = self._write_to_page
        page_shift = self._page_shift
        rw_shared_translate = self._rw_shared_translate
        # Per-heap-index hoists: a vCPU's VM, stream index and memo never
        # change (only its core does), so resolve them once per phase. The
        # stepper closures keep all generator state in cells — the loop
        # calls them with no attribute traffic and no MemoryAccess object.
        steppers = self._steppers
        vm_ids = [v.vm_id for v in vcpus]
        vm_memos = [self._xlate_memo[v.vm_id] for v in vcpus]
        # Core placements change only on migration; refreshed below when
        # one fires.
        cores = [v.core for v in vcpus]
        # self.stats is only swapped between phases, never during one.
        stats = self.stats
        l1_by_page_type = stats.l1_accesses_by_page_type
        while heap:
            local_time, _, index = heappop(heap)
            self.now = local_time
            if local_time >= next_sample:
                next_sample = metrics.sample(local_time)
            if local_time >= next_migration:
                self._maybe_migrate()
                next_migration = self._next_migration
                cores = [v.core for v in vcpus]
            initiator, guest_page, block_index, is_write = steppers[index]()
            vm_id = vm_ids[index]
            if initiator is guest_initiator:
                vm_tag = vm_id
                vm_memo = vm_memos[index]
                entry = vm_memo.get(guest_page)
                if entry is None:
                    # write_to_page equals translate() for non-RO pages and
                    # transparently COWs RO pages (firing the memo-clear
                    # hook); either way the result is the live translation.
                    if is_write:
                        entry = write_to_page(vm_id, guest_page)
                    else:
                        entry = mem_translate(vm_id, guest_page)
                    vm_memo[guest_page] = entry
                    host_page, page_type = entry
                else:
                    host_page, page_type = entry
                    if is_write and page_type is ro_shared:
                        # Store to a content-shared page: COW breaks the
                        # sharing and the hook clears the (now stale) memo.
                        host_page, page_type = write_to_page(vm_id, guest_page)
            else:
                vm_tag = UNTRACKED_VM
                host_page, page_type = rw_shared_translate(
                    HYPERVISOR_SPACE if initiator is hyp_initiator else DOM0_VM_ID,
                    guest_page,
                )
            block = (host_page << page_shift) | block_index
            core = cores[index]

            l1_by_page_type[page_type] += 1

            hierarchy = caches[core]
            result = hierarchy.access(block, vm_tag, is_write)
            latency = result.latency
            if not result.hit:
                latency += transact(
                    core, vm_id, block, is_write, page_type, initiator,
                    vm_tag, hierarchy, False,
                )
            elif is_write and not write_hit(core, block):
                # A store hit without every token: upgrade via a GETM.
                latency += transact(
                    core, vm_id, block, True, page_type, initiator,
                    vm_tag, hierarchy, True,
                )

            remaining[index] -= 1
            next_time = local_time + think + latency
            if remaining[index] > 0:
                sequence += 1
                heappush(heap, (next_time, sequence, index))
            else:
                final[index] = next_time
        # Every loop iteration is exactly one L1 access, so the total is
        # known up front; adding it once replaces a per-access counter
        # bump (the per-page-type breakdown above still runs per access).
        stats.l1_accesses += budget * len(vcpus)
        self._next_sample = next_sample
        return final

    def _maybe_migrate(self) -> None:
        if self._next_migration is None or self.now < self._next_migration:
            return
        while self.now >= self._next_migration:
            self._shuffle_two_vcpus()
            self._next_migration += self._migration_period

    def _shuffle_two_vcpus(self) -> None:
        """Swap the cores of two random vCPUs from different VMs."""
        first = self._rng.choice(self._vcpus)
        others = [v for v in self._vcpus if v.vm_id != first.vm_id]
        if not others:
            return
        second = self._rng.choice(others)
        self.system.hypervisor.swap_vcpus(first, second, cycle=self.now)
        self.stats.migrations += 1

    def _reset_measurements(self, cycle: int = 0) -> None:
        """Zero every measurement counter; architectural state persists.

        ``cycle`` anchors the network's utilisation window at the
        measurement boundary (both the straight warm-up and the
        snapshot-restore path pass ``min(clocks)``, so the two stay
        bit-identical).
        """
        from repro.sim.stats import SimStats

        fresh = SimStats()
        self.system.stats = fresh
        self.system.protocol.stats = fresh.coherence
        self.stats = fresh
        self.system.network.reset(cycle)
        self.system.memory_ctrl.reset()
        for hierarchy in self.system.caches.values():
            hierarchy.l1_hits = 0
            hierarchy.l2_hits = 0
            hierarchy.misses = 0
        domains = getattr(self.system.snoop_filter, "domains", None)
        if domains is not None:
            domains.removal_log.clear()
            domains.removal_log_dropped = 0
        self.system.hypervisor.relocations.clear()

    # ------------------------------------------------------------------
    # One access.
    # ------------------------------------------------------------------

    def _transact(
        self,
        core: int,
        vm_id: int,
        block: int,
        is_write: bool,
        page_type: PageType,
        initiator: Initiator,
        vm_tag: int,
        hierarchy,
        hit: bool,
    ) -> int:
        """Run the coherence transaction for one access; returns its latency.

        Called from `_run_phase` for the minority of accesses that miss
        the private hierarchy or store without exclusive tokens. Split
        into a pure *plan* step (the memoised snoop-filter lookup, which
        mutates nothing) and :meth:`_apply_transact` (everything
        with side effects), so callers that must inspect a plan before
        committing to it — the batched kernel's bulk-miss seam — can run
        the plan step alone and hand the result back here.
        """
        self.stats.transactions_by_initiator[initiator] += 1
        plan = self._plan(core, vm_id, page_type, block)
        return self._apply_transact(
            core, vm_id, block, is_write, plan, vm_tag, hierarchy, hit
        )

    def _apply_transact(
        self,
        core: int,
        vm_id: int,
        block: int,
        is_write: bool,
        plan,
        vm_tag: int,
        hierarchy,
        hit: bool,
    ) -> int:
        """Apply a planned transaction: execute, fill, observe.

        The side-effecting half of :meth:`_transact`; the caller has
        already bumped ``transactions_by_initiator`` and resolved the
        plan.
        """
        outcome = self._execute(
            core, vm_id, block, is_write, plan, cycle=self.now
        )
        if not hit:
            victim = hierarchy.fill(
                block, vm_tag, dirty=is_write or outcome.fill_dirty
            )
            if victim is not None:
                self._handle_eviction(core, victim, cycle=self.now)
        if self._observe_outcome is not None:
            self._observe_outcome(core, block)
        return outcome.latency

    def _rw_shared_translate(self, space: int, page: int) -> Tuple[int, PageType]:
        """Memoised hypervisor/dom0 translation (forced RW-shared)."""
        memo = self._xlate_memo.get(space)
        if memo is None:
            memo = self._xlate_memo[space] = {}
        entry = memo.get(page)
        if entry is not None:
            return entry
        memory = self._memory
        host_page, page_type = memory.translate(space, page)
        if page_type is not PageType.RW_SHARED:
            # First touch: marking fires the memo-clear hook, so re-fetch
            # the (possibly replaced) per-space memo before storing.
            memory.mark_rw_shared(space, page)
            memo = self._xlate_memo.setdefault(space, {})
        entry = (host_page, PageType.RW_SHARED)
        memo[page] = entry
        return entry

    # ------------------------------------------------------------------
    # Wrap-up.
    # ------------------------------------------------------------------

    def _finalise(self) -> None:
        if self._sanitizer is not None:
            # Full-state audit: recompute every invariant from the actual
            # cache lines, proving the incremental shadow never drifted.
            self._sanitizer.audit()
        stats = self.stats
        system = self.system
        stats.network_bytes = system.network.bytes_transferred
        stats.network_messages = system.network.messages
        domains = getattr(system.snoop_filter, "domains", None)
        if domains is not None:
            stats.removal_periods_cycles = [
                record.period for record in domains.removal_log
            ]
            stats.removal_periods_dropped = domains.removal_log_dropped
            stats.snoop_map_sizes = {
                vm.vm_id: domains.domain_size(vm.vm_id) for vm in system.vms
            }
        if self._metrics is not None:
            stats.metrics = self._metrics.finish(self.now)
        if self._tracer is not None:
            self._tracer.close(self.now)


def _step_adapter(workload, index: int):
    """Adapt a ``next_access``-only workload to the stepper signature."""
    next_access = workload.next_access

    def step():
        access = next_access(index)
        return (
            access.initiator,
            access.guest_page,
            access.block_index,
            access.is_write,
        )

    return step


def run_simulation(system: SimulatedSystem) -> "SimulatedSystem":
    """Convenience: run ``system`` to completion and return it.

    Honours ``config.kernel`` — the import is deferred because
    :mod:`repro.sim.kernel` subclasses this module's engine.
    """
    from repro.sim.kernel import engine_for

    engine_for(system).run()
    return system
