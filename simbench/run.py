"""Campaign benchmark of the Virtual Snooping simulator.

Runs one named workload -- a campaign of ``SimTask`` cells driven
through ``repro.sim.runner.run_matrix_detailed`` with ``jobs=1`` under
the default kernel -- and prints its metrics::

    python3 simbench/run.py --workload fig8-migration --seed 42 --seconds 20 --trace 0

With ``--trace 0`` the campaign is repeated for ``--seconds`` (at least
once); the host-time metrics are read from :class:`hostspeed.HostClock`
in reference seconds and are the medians of the repeats. With
``--trace 1`` the campaign runs once untraced and once traced, and the
per-layer metrics come from the traced run. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
cell runs, and ``metrics``. A fuller record (host fingerprint, stats
digests, per-cell times, spans) goes to ``.simbench/results/``.
See ``simbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostClock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".simbench"
DEFAULT_SEED = 42

END_TO_END = {
    "cpu_s": "s",
    "wall_s": "s",
    "setup_s": "s",
    "measure_us_per_access": "us",
    "peak_rss_mb": "MB",
    "snoop_pct": "%",
    "sim_cycles_per_access": "cycles",
    "net_bytes_per_access": "B",
}

# Spans whose self time is reported, by per-layer metric name.
SPAN_SELF = {
    "runner.overhead_s": "campaign",
    "sim.cell_self_s": "cell",
    "sim.build_system_s": "sim.build_system",
    "sim.engine_init_s": "sim.engine_init",
    "sim.warm_s": "sim.warm",
    "sim.restore_s": "sim.restore",
    "sim.snapshot_s": "sim.snapshot",
    "sim.engine_self_s": "sim.measure",
    "store.load_result_s": "store.load_result",
    "store.save_result_s": "store.save_result",
    "store.load_snapshot_s": "store.load_snapshot",
    "store.save_snapshot_s": "store.save_snapshot",
}
CALL_LAYERS = (
    "workloads.step",
    "workloads.chunk",
    "core.plan",
    "coherence.execute",
    "coherence.evict",
    "interconnect.send",
    "interconnect.multicast",
    "hypervisor.swap",
    "hypervisor.translate",
    "hypervisor.write_to_page",
)
BAIL_REASONS = (
    "page-type",
    "victim-dirty",
    "victim-cross-vm",
    "getm-contended",
    "gets-retry",
    "store-upgrade",
)


def _per_layer_units() -> dict:
    units = {name: "s" for name in SPAN_SELF}
    units.update({"sim.measure_s": "s", "sim.restore_calls": "count"})
    for layer in CALL_LAYERS:
        units[f"{layer}_calls"] = "count"
        units[f"{layer}_s"] = "s"
    units.update(
        {
            "sim.kernel.seam_inline_ratio": "ratio",
            "cache.l1_hit_ratio": "ratio",
            "cache.l2_hit_ratio": "ratio",
            "cache.misses": "count",
            "core.map_removals": "count",
            "coherence.retries": "count",
            "coherence.persistent": "count",
            "store.snapshot_hit_ratio": "ratio",
            "trace.campaign_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    for reason in BAIL_REASONS:
        units[f"sim.kernel.bails.{reason}"] = "count"
    return units


PER_LAYER = _per_layer_units()


def scrub_environment() -> None:
    """Drop inherited settings that change what or how the simulator runs.

    Covers ``REPRO_KERNEL``, ``REPRO_FAST``, ``REPRO_JOBS``,
    ``REPRO_CAMPAIGN_DIR``, ``REPRO_SNAPSHOTS`` and every other
    ``REPRO_*`` knob. The store stays off except while a campaign points
    it at its own fresh directory.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_") or name == "PATTERN_SMOKE":
            del os.environ[name]
    os.environ["REPRO_STORE"] = "off"


def host_fingerprint() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
    }


def stats_digest(stats) -> str:
    text = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Campaign:
    """One run of a workload's cells: results, timings, store counters.

    ``cpu_s`` and ``wall_s`` are read from ``clock`` (a
    :class:`hostspeed.HostClock`) when one is given, else from the
    process's CPU clock and the wall clock. ``raw_cpu_s`` and
    ``raw_wall_s`` are always the host's own readings.
    """

    def __init__(self, workload, seed: int, probe, clock=None) -> None:
        from repro.sim.runner import run_matrix_detailed
        from repro.store import get_store

        tasks = workload.cells(seed)
        self.probe = probe
        OUT.mkdir(exist_ok=True)
        # Start every repeat from the heap a fresh process would have:
        # the engine pauses the collector while it runs, so an earlier
        # repeat's cyclic garbage would otherwise still be around.
        gc.collect()
        cpu = clock.cpu if clock else time.process_time
        wall = clock.wall if clock else time.perf_counter
        raw0 = time.thread_time(), time.perf_counter()
        cpu0, wall0 = cpu(), wall()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT)
        try:
            os.environ["REPRO_STORE"] = store_dir
            store = get_store()
            with probe.installed(store, workload.name):
                self.results = run_matrix_detailed(
                    tasks, jobs=1, task_fn=probe.task_fn()
                )
            self.store = store.counters()
        finally:
            os.environ["REPRO_STORE"] = "off"
            shutil.rmtree(store_dir, ignore_errors=True)
        self.cpu_s = cpu() - cpu0
        self.wall_s = wall() - wall0
        self.raw_cpu_s = time.thread_time() - raw0[0]
        self.raw_wall_s = time.perf_counter() - raw0[1]
        self.digests = [
            stats_digest(r.stats) if r.ok else None for r in self.results
        ]

    def records(self):
        return [self.probe.record_for(r.task) for r in self.results]

    @property
    def setup_cpu(self) -> float:
        return sum(rec.setup_cpu for rec in self.records())

    def cells(self, label) -> list:
        from cells import snoop_percent
        from repro.mem.pagetype import PageType

        out = []
        for result, record, digest in zip(self.results, self.records(), self.digests):
            cell = {
                "cell": label(result.task),
                "ok": result.ok,
                "wall_s": result.wall_seconds,
                "digest": digest,
                "diagnostics": result.diagnostics,
            }
            if result.ok:
                stats = result.stats
                cell.update(
                    snoop_pct=snoop_percent(result.task, stats),
                    migrations=stats.migrations,
                    map_removals=len(stats.removal_periods_cycles)
                    + stats.removal_periods_dropped,
                    ro_shared_transactions=stats.coherence.transactions_by_page_type[
                        PageType.RO_SHARED
                    ],
                )
            if record is not None and record.measure_end_cpu is not None:
                cell.update(
                    engine=record.engine,
                    setup_cpu_s=record.setup_cpu,
                    measure_cpu_s=record.measure_cpu,
                )
            out.append(cell)
        return out


def check(workload, campaign: Campaign, reference=None) -> dict:
    """Failure reasons per cell index; ``reference`` is a campaign of
    the same cells whose digests and engines this one must match."""
    from cells import check_cells

    failures: dict = {}
    done = []
    for index, result in enumerate(campaign.results):
        if not result.ok:
            last_line = (result.error or "error").strip().splitlines()[-1]
            failures[index] = [f"raised: {last_line}"]
        elif result.from_store or result.from_checkpoint:
            failures[index] = ["replayed from the store or a checkpoint"]
        else:
            done.append(index)
    found = check_cells(workload, [
        (campaign.results[i].task, campaign.results[i].stats) for i in done
    ])
    for position, reasons in found.items():
        failures.setdefault(done[position], []).extend(reasons)
    if reference is not None:
        mine, theirs = campaign.records(), reference.records()
        for index in done:
            if campaign.digests[index] != reference.digests[index]:
                failures.setdefault(index, []).append(
                    "stats digest differs from the first untraced campaign"
                )
            if mine[index].engine != theirs[index].engine:
                failures.setdefault(index, []).append(
                    f"measured by {mine[index].engine}, "
                    f"untraced by {theirs[index].engine}"
                )
    if campaign.store["hits"]:
        for index in range(len(campaign.results)):
            failures.setdefault(index, []).append(
                f"store served {campaign.store['hits']} result hits"
            )
    return failures


def simulated_metrics(campaign: Campaign) -> dict:
    from cells import snoop_percent

    snoop, cycles, net = [], [], []
    for result in campaign.results:
        task, stats = result.task, result.stats
        snoop.append(snoop_percent(task, stats))
        cycles.append(stats.execution_cycles / task.config.accesses_per_vcpu)
        net.append(stats.network_bytes / stats.l1_accesses)
    return {
        "snoop_pct": statistics.fmean(snoop),
        "sim_cycles_per_access": statistics.fmean(cycles),
        "net_bytes_per_access": statistics.fmean(net),
    }


def end_to_end_metrics(campaigns, import_cpu: float) -> dict:
    """Host metrics as medians of the repeats, simulated ones as measured.

    Host times are in reference seconds (see ``hostspeed.py``); each
    cell's µs per access is its median over the repeats. Every repeat's
    times, raw and in reference seconds, are kept in the results file.
    """
    per_cell_us = [
        statistics.median(
            1e6 * c.records()[i].measure_cpu / c.results[i].stats.l1_accesses
            for c in campaigns
        )
        for i in range(len(campaigns[0].results))
    ]
    metrics = {
        "cpu_s": statistics.median(c.cpu_s for c in campaigns),
        "wall_s": statistics.median(c.wall_s for c in campaigns),
        "setup_s": import_cpu + statistics.median(c.setup_cpu for c in campaigns),
        "measure_us_per_access": statistics.median(per_cell_us),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(simulated_metrics(campaigns[0]))
    return metrics


def per_layer_metrics(traced: Campaign, untraced: Campaign) -> dict:
    spans = traced.probe.spans
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        for layer, agg in span["calls"].items():
            metrics[f"{layer}_calls"] += agg["count"]
            metrics[f"{layer}_s"] += agg["self"]
    for metric, name in SPAN_SELF.items():
        metrics[metric] = sum(s["self"] for s in by_name.get(name, ()))
    measures = by_name.get("sim.measure", ())
    metrics["sim.measure_s"] = sum(s["end"] - s["start"] for s in measures)
    metrics["sim.restore_calls"] = len(by_name.get("sim.restore", ()))
    campaign_span = by_name["campaign"][0]
    metrics["trace.campaign_s"] = campaign_span["end"] - campaign_span["start"]
    metrics["trace.overhead_ratio"] = traced.cpu_s / untraced.cpu_s

    inline = bails = 0
    for result in traced.results:
        diagnostics = result.diagnostics or {}
        inline += diagnostics.get("bulk_transacts", 0)
        for reason, count in diagnostics.get("bailouts", {}).items():
            bails += count
            key = f"sim.kernel.bails.{reason}"
            metrics[key] = metrics.get(key, 0) + count
    metrics["sim.kernel.seam_inline_ratio"] = inline / max(inline + bails, 1)

    l1 = l2 = misses = 0
    for record in traced.records():
        l1 += record.l1_hits
        l2 += record.l2_hits
        misses += record.misses
    metrics["cache.l1_hit_ratio"] = l1 / max(l1 + l2 + misses, 1)
    metrics["cache.l2_hit_ratio"] = l2 / max(l2 + misses, 1)
    metrics["cache.misses"] = misses
    for result in traced.results:
        stats = result.stats
        metrics["core.map_removals"] += (
            len(stats.removal_periods_cycles) + stats.removal_periods_dropped
        )
        metrics["coherence.retries"] += stats.coherence.retries
        metrics["coherence.persistent"] += stats.coherence.persistent_requests
    store = traced.store
    lookups = store["snapshot_hits"] + store["snapshot_misses"]
    metrics["store.snapshot_hit_ratio"] = store["snapshot_hits"] / max(lookups, 1)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Untraced runs time everything, the import too, on the host clock.
    # Traced runs do not install it, so that no probe lands in a span.
    clock = None if args.trace else HostClock().start()
    try:
        return run(args, clock)
    finally:
        if clock is not None:
            clock.stop()


def run(args, clock) -> int:
    scrub_environment()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401  (the kernel's word path needs it)
        import repro.sim.runner
        from cells import WORKLOADS, cell_label
        from probes import CellClock, SpanTracer
    except ImportError as exc:
        print(f"simbench: cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.sim.runner.__file__).resolve().parents:
        print(f"simbench: imported repro from {repro.sim.runner.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_cpu = clock.cpu() if clock else time.process_time()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"simbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    start = time.perf_counter()
    cell_clock = clock.cpu if clock else time.process_time
    campaigns = [Campaign(workload, args.seed, CellClock(cell_clock), clock)]
    traced = None
    if args.trace:
        traced = Campaign(workload, args.seed, SpanTracer(cell_label))
    else:
        while (
            time.perf_counter() - start + campaigns[-1].raw_wall_s <= args.seconds
            and len(campaigns) < 100
        ):
            campaigns.append(
                Campaign(workload, args.seed, CellClock(cell_clock), clock)
            )
        clock.stop()

    failures = {}  # (campaign position, cell index) -> reasons
    for position, campaign in enumerate(campaigns):
        reference = campaigns[0] if position else None
        for index, reasons in check(workload, campaign, reference).items():
            failures[(position, index)] = reasons
    if traced is not None:
        for index, reasons in check(workload, traced, campaigns[0]).items():
            failures[("traced", index)] = reasons
    runs = campaigns + ([traced] if traced is not None else [])
    attempted = sum(len(c.results) for c in runs)
    for (position, index), reasons in sorted(failures.items(), key=str):
        label = cell_label(campaigns[0].results[index].task)
        print(f"simbench: FAILED cell {label} (campaign {position}): "
              + "; ".join(reasons), file=sys.stderr)

    metrics = None
    if all(r.ok for c in runs for r in c.results):
        if traced is None:
            values, units = end_to_end_metrics(campaigns, import_cpu), END_TO_END
        else:
            values, units = per_layer_metrics(traced, campaigns[0]), PER_LAYER
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "import_cpu_s": import_cpu,
        "host_clock": clock.summary() if clock else None,
        "digest": hashlib.sha256(
            "".join(d or "-" for d in campaigns[0].digests).encode()
        ).hexdigest(),
        "failed_cells": len(failures),
        "failures": {str(k): v for k, v in failures.items()},
        "campaigns": [
            {
                "traced": c is traced,
                "cpu_s": c.cpu_s,
                "wall_s": c.wall_s,
                "raw_cpu_s": c.raw_cpu_s,
                "raw_wall_s": c.raw_wall_s,
                "store": c.store,
                "cells": c.cells(cell_label),
            }
            for c in runs
        ],
        "metrics": metrics,
    }
    if traced is not None:
        record["spans"] = traced.probe.spans
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"simbench: {workload.name} seed={args.seed} "
          f"campaigns={len(campaigns)}{' +1 traced' if traced else ''} "
          f"digest={record['digest'][:16]} record={path.relative_to(ROOT)}")
    for name, metric in (metrics or {}).items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_cells':34s} {len(failures):14d} of {attempted} cell runs")
    print(json.dumps({
        "correct": not failures and metrics is not None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics or {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
