"""The benchmark's four workloads: campaigns of ``SimTask`` cells.

Every ``SimConfig`` field a cell relies on is spelled out below rather
than taken from ``SimConfig``'s defaults or presets
(``SimConfig.migration_study``, ``experiments.common.scaled``), so a
change to those cannot silently resize the benchmark.

Each workload also names the events its cells must contain for the
measurement to mean what the workload claims (event floors) and the
paper's ordering between its cells (shape checks); see
:func:`check_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.mem.pagetype import PageType
from repro.sim.config import SimConfig
from repro.sim.runner import SimTask
from repro.sim.stats import SimStats

# Table II of the paper plus the simulator's modelling constants.
_BASE = dict(
    num_cores=16,
    topology="mesh",
    mesh_width=4,
    mesh_height=4,
    num_sockets=1,
    inter_socket_hop_cost=4,
    block_size=64,
    l1_ways=4,
    l1_latency=2,
    l2_ways=8,
    l2_latency=10,
    router_latency=4,
    link_latency=1,
    link_bytes=16,
    memory_latency=80,
    memory_node=0,
    num_vms=4,
    vcpus_per_vm=4,
    host_pages=1 << 20,
    filter_kind="vsnoop",
    counter_threshold=10,
    region_blocks=64,
    think_cycles=2,
    pattern=None,
    sanitize=False,
    sanitize_mode="raise",
    trace=None,
    trace_format="auto",
    metrics_sample_every=None,
    kernel="auto",
)


def _config(**fields) -> SimConfig:
    return SimConfig(**{**_BASE, **fields})


# fig8-migration: the migration-study geometry. The 0.5 ms budget keeps
# at least 8 migrations in every cell with a margin of one or two (radix
# migrates least). 0.1 ms cells migrate 5x as often, but at 8k accesses
# counter-threshold can still tie vsnoop-base; 12k gives its removals
# time to show in the snoop count.
_MIGRATION_BUDGETS = {0.5: 28_000, 0.1: 12_000}


def _fig8_cells(seed: int) -> List[SimTask]:
    return [
        SimTask(
            _config(
                l1_size=4 * 1024,
                l2_size=32 * 1024,
                working_set_scale=0.15,
                cycles_per_ms=84_000,
                snoop_policy=policy,
                content_policy=ContentPolicy.BROADCAST,
                content_sharing_enabled=False,
                hypervisor_activity_enabled=False,
                suite=None,
                migration_period_ms=period,
                accesses_per_vcpu=budget,
                warmup_accesses_per_vcpu=4_000,
                seed=seed,
            ),
            app,
        )
        for app in ("ocean", "radix")
        for policy in (SnoopPolicy.VSNOOP_BASE, SnoopPolicy.VSNOOP_COUNTER_THRESHOLD)
        for period, budget in _MIGRATION_BUDGETS.items()
    ]


def _missheavy_cells(suite: str, accesses: int) -> Callable[[int], List[SimTask]]:
    def cells(seed: int) -> List[SimTask]:
        return [
            SimTask(
                _config(
                    l1_size=4 * 1024,
                    l2_size=16 * 1024,
                    working_set_scale=1.0,
                    cycles_per_ms=100_000,
                    snoop_policy=SnoopPolicy.VSNOOP_BASE,
                    content_policy=ContentPolicy.BROADCAST,
                    content_sharing_enabled=False,
                    hypervisor_activity_enabled=False,
                    suite=suite,
                    migration_period_ms=None,
                    accesses_per_vcpu=accesses,
                    warmup_accesses_per_vcpu=2_000,
                    seed=cell_seed,
                ),
                # Suite configs ignore the app profile's memory
                # behaviour; the name only feeds the task key.
                "fft",
            )
            for cell_seed in (seed, seed + 1)
        ]

    return cells


def _content_cells(seed: int) -> List[SimTask]:
    return [
        SimTask(
            _config(
                l1_size=32 * 1024,
                l2_size=256 * 1024,
                working_set_scale=1.0,
                cycles_per_ms=100_000,
                snoop_policy=SnoopPolicy.VSNOOP_BASE,
                content_policy=content_policy,
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
                suite=None,
                migration_period_ms=None,
                accesses_per_vcpu=6_000,
                warmup_accesses_per_vcpu=3_000,
                seed=seed,
            ),
            app,
        )
        for app in ("specjbb", "fft")
        for content_policy in (ContentPolicy.BROADCAST, ContentPolicy.FRIEND_VM)
    ]


def _min_migrations(task: SimTask, stats: SimStats) -> Optional[str]:
    if stats.migrations < 8:
        return f"only {stats.migrations} migrations (floor 8)"
    return None


def _ro_shared_traffic(task: SimTask, stats: SimStats) -> Optional[str]:
    if stats.coherence.transactions_by_page_type[PageType.RO_SHARED] <= 0:
        return "no transactions on RO-shared pages"
    return None


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign of cells and what must hold.

    Why each workload is in the benchmark is in README.md.
    """

    name: str
    cells: Callable[[int], List[SimTask]]
    floor: Optional[Callable[[SimTask, SimStats], Optional[str]]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig8-migration", _fig8_cells, _min_migrations),
        Workload("missheavy-read", _missheavy_cells("web-farm", 8_000)),
        Workload("missheavy-write", _missheavy_cells("backup-window", 4_000)),
        Workload("content-sharing", _content_cells, _ro_shared_traffic),
    )
}


def snoop_percent(task: SimTask, stats: SimStats) -> float:
    """Snoop lookups as a percentage of broadcast TokenB's."""
    return 100.0 * stats.total_snoops / (
        task.config.num_cores * stats.total_transactions
    )


def cell_label(task: SimTask) -> str:
    config = task.config
    parts = [task.app, config.suite or "", config.snoop_policy.value]
    if config.content_sharing_enabled:
        parts.append(config.content_policy.value)
    if config.migration_period_ms is not None:
        parts.append(f"{config.migration_period_ms}ms")
    parts.append(f"seed{config.seed}")
    return "/".join(p for p in parts if p)


def check_cells(
    workload: Workload, cells: List[Tuple[SimTask, SimStats]]
) -> Dict[int, List[str]]:
    """Per-cell failure reasons (cell index -> reasons) for finished cells.

    Conservation and budget checks apply to every cell; the event floor
    and the paper's policy ordering apply where the workload has them.
    """
    failures: Dict[int, List[str]] = {}

    def fail(index: int, reason: str) -> None:
        failures.setdefault(index, []).append(reason)

    for index, (task, stats) in enumerate(cells):
        config = task.config
        coherence = stats.coherence
        by_type = sum(coherence.transactions_by_page_type.values())
        if by_type != coherence.transactions:
            fail(index, f"transactions by page type sum to {by_type}, "
                        f"not {coherence.transactions}")
        if coherence.transactions <= 0:
            fail(index, "no coherence transactions")
        elif coherence.snoops > config.num_cores * coherence.transactions:
            fail(index, f"{coherence.snoops} snoops exceed num_cores x "
                        f"{coherence.transactions} transactions")
        expected = config.accesses_per_vcpu * config.num_vms * config.vcpus_per_vm
        if stats.l1_accesses != expected:
            fail(index, f"{stats.l1_accesses} L1 accesses, budget is {expected}")
        if workload.floor is not None:
            reason = workload.floor(task, stats)
            if reason is not None:
                fail(index, reason)
        if config.snoop_policy is SnoopPolicy.VSNOOP_COUNTER_THRESHOLD:
            if len(stats.removal_periods_cycles) + stats.removal_periods_dropped == 0:
                fail(index, "counter-threshold removed no core from a vCPU map")

    # Paper shape: each policy against its baseline at the same point.
    def peers(policy_of, candidate, baseline):
        points = {}
        for index, (task, stats) in enumerate(cells):
            c = task.config
            point = (task.app, c.suite, c.migration_period_ms, c.seed)
            points.setdefault(point, {})[policy_of(c)] = index
        for by_policy in points.values():
            if candidate in by_policy and baseline in by_policy:
                yield by_policy[candidate], by_policy[baseline]

    for index, base in peers(
        lambda c: c.snoop_policy,
        SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
        SnoopPolicy.VSNOOP_BASE,
    ):
        mine, theirs = snoop_percent(*cells[index]), snoop_percent(*cells[base])
        if not mine < theirs:
            fail(index, f"counter-threshold snoops {mine:.2f}% not below "
                        f"vsnoop-base {theirs:.2f}%")
    for index, base in peers(
        lambda c: c.content_policy if c.content_sharing_enabled else None,
        ContentPolicy.FRIEND_VM,
        ContentPolicy.BROADCAST,
    ):
        mine, theirs = snoop_percent(*cells[index]), snoop_percent(*cells[base])
        if mine > theirs:
            fail(index, f"friend-vm snoops {mine:.2f}% above "
                        f"broadcast {theirs:.2f}%")
    return failures
