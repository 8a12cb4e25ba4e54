"""Parallel experiment fan-out across processes.

Every experiment in this repository is a *matrix* of independent
simulations: one (config, app) cell per paper data point, each fully
determined by its :class:`~repro.sim.config.SimConfig` (including its
seed). That independence makes the fan-out embarrassingly parallel —
and, more importantly, makes the parallel results **bit-identical** to
serial ones: a worker process builds its system from the pickled config
exactly as the serial path would, so every RNG stream and statistic is
reproduced exactly. Only wall-clock time changes.

Job-count resolution, in priority order:

1. an explicit ``jobs=N`` argument,
2. :func:`set_default_jobs` (the ``repro-sim --jobs N`` CLI flag),
3. the ``REPRO_JOBS`` environment variable (``auto`` or ``0`` means
   one job per CPU),
4. serial (``jobs=1``).

``jobs=1`` never spawns processes: the same worker function runs inline,
so the serial path *is* the parallel path minus the pool, and there is
no separate code path to drift.

Fault tolerance and campaigns
-----------------------------

:func:`run_matrix_detailed` is the fault-tolerant executor underneath
:func:`run_matrix`. Each cell runs in its own worker process with its
exceptions captured (a crash in one cell never discards the others),
optional per-cell retries and a wall-clock timeout, and the whole matrix
survives Ctrl-C: workers are terminated and the completed cells are
returned via :class:`CampaignInterrupted`.

With ``checkpoint_dir`` set, the directory is a
:class:`~repro.store.ResultStore` root scoped to the campaign: every
completed cell is saved under ``results/<task_key>.json`` in the store's
format (version stamp, key and identity checks included), so re-running
the same matrix skips the already-done cells — and, because the JSON
round trip through :meth:`SimStats.to_dict` is lossless, a resumed
matrix is bit-identical to an uninterrupted serial run. A
``manifest-*.json`` per matrix records what ran: tasks, seeds, job
count, git revision, per-cell wall-clock and µs/access, and failures.
The campaign directory defaults to the ``REPRO_CAMPAIGN_DIR``
environment variable, or to the :func:`set_campaign` settings installed
by ``repro-sim experiment --out/--resume/--retries/--task-timeout``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import traceback
from collections import deque
from enum import Enum
from functools import partial
from multiprocessing import connection
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.sim.config import SimConfig
from repro.sim.engine import collector_paused
from repro.sim.stats import SimStats
from repro.sim.system import SnapshotMismatch, build_system
from repro.sim.kernel import engine_for
from repro.store import ResultStore, get_store, snapshots_enabled
from repro.workloads import get_profile

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV_VAR = "REPRO_JOBS"
CAMPAIGN_ENV_VAR = "REPRO_CAMPAIGN_DIR"
MANIFEST_FORMAT = 1

_default_jobs: Optional[int] = None


class SimTask(NamedTuple):
    """One cell of an experiment matrix: run ``app`` under ``config``."""

    config: SimConfig
    app: str


# Engine diagnostics of the most recent run_simulation_task call in this
# process — a side channel because SimStats is byte-identical across
# kernels by contract and cannot carry kernel-specific counters. The
# executors pop it (consume_diagnostics) right after the task function
# returns, in the same process that ran the cell.
_last_diagnostics: Optional[dict] = None


def consume_diagnostics() -> Optional[dict]:
    """Pop the diagnostics left behind by the last cell run here."""
    global _last_diagnostics
    diagnostics = _last_diagnostics
    _last_diagnostics = None
    return diagnostics


def run_simulation_task(task: SimTask) -> SimStats:
    """Build, run and return the statistics of one task.

    Module-level (and argument-picklable) so a multiprocessing pool can
    ship it to workers; also the serial path's worker, so both paths run
    byte-for-byte the same code.

    Reuse, when a :mod:`repro.store` is configured (the default):

    * a stored **result** for this exact cell is returned directly;
    * otherwise a stored **warm-state snapshot** for the cell's warmup
      fingerprint replaces the warm-up phase (and a fresh warm-up is
      snapshotted for the next cell sharing the fingerprint).

    Both substitutions are bit-identical by construction — the result
    round-trips losslessly through ``SimStats.to_dict``, and the
    snapshot-differential tests prove restored ≡ straight for every
    policy. Sanitized runs never *consume* snapshots (the sanitizer's
    shadow state is built by observing the warm-up, which a restore
    skips) but still produce them — the architectural state is
    unaffected by the pure-observer sanitizer.
    """
    # Safe under parallel_map: the side channel is written and consumed
    # in the same process — _detailed_child pops it before the worker
    # sends its result over the pipe, and the serial path pops it right
    # after task_fn returns — and it is reset here at cell entry, so
    # nothing leaks across cells on either path.
    global _last_diagnostics  # repro-lint: disable=RPL130; same-process side channel, popped per cell
    _last_diagnostics = None
    store = get_store()
    if store is not None:
        stats = store.load_result(
            task_key(task), task.app, config_to_dict(task.config)
        )
        if stats is not None:
            return stats
    # The collector stays paused for the whole computed cell (build,
    # warm-up or restore, snapshot capture and its store I/O, measure). The
    # cell's system is held together by reference cycles, so it is only
    # dropped once _measure_cell has returned; nothing was collected
    # during the pause, so the whole dead system is still in the young
    # generation and one young pass frees it before the collector
    # resumes (resuming first would promote it to the old generation).
    with collector_paused():
        stats, _last_diagnostics = _measure_cell(task)
        gc.collect(0)
    if store is not None:
        store.save_result(
            task_key(task), task.app, config_to_dict(task.config), stats
        )
    return stats


def _measure_cell(task: SimTask) -> Tuple[SimStats, Optional[dict]]:
    """Prepare and measure ``task``; returns ``(stats, diagnostics)``.

    Returns nothing that keeps the system alive, so the system, engine
    and snapshot payload become unreachable when this frame ends.
    """
    system, engine, clocks = prepare_task(task)
    engine.measure(clocks)
    summary_fn = getattr(engine, "bulk_summary", None)
    return system.stats, summary_fn() if summary_fn is not None else None


def prepare_task(task: SimTask):
    """Build a system and bring it to the measurement boundary.

    Returns ``(system, engine, clocks)`` with the warm-up done — served
    from a stored warm-state snapshot when one matches the task's warmup
    fingerprint, run (and snapshotted for the next sharer) otherwise.
    Callers that need the live system (tracing, sanitizing, profiling)
    use this directly and then run ``engine.measure(clocks)``;
    :func:`run_simulation_task` adds the result-store layer on top.
    """
    store = get_store()
    system = build_system(task.config, get_profile(task.app))
    engine = engine_for(system)
    clocks = None
    fingerprint_key = fingerprint = None
    if (
        store is not None
        and snapshots_enabled()
        and task.config.warmup_accesses_per_vcpu > 0
    ):
        fingerprint_key, fingerprint = warmup_fingerprint(task)
        if not task.config.sanitize:
            state = store.load_snapshot(fingerprint_key, task.app, fingerprint)
            if state is not None:
                try:
                    clocks = engine.restore_warm(state)
                except SnapshotMismatch as exc:
                    # Raised before any mutation: warming this system is
                    # still safe. Convert the hit to a loud skip.
                    store.snapshot_hits -= 1
                    store.snapshot_skipped += 1
                    print(
                        f"[repro.store] skipping snapshot {fingerprint_key}: {exc}",
                        file=sys.stderr,
                    )
                except Exception as exc:
                    # Mutation-phase failure (malformed plain data): the
                    # system may be half-restored, so rebuild it.
                    store.snapshot_hits -= 1
                    store.snapshot_skipped += 1
                    print(
                        f"[repro.store] skipping snapshot {fingerprint_key}: "
                        f"restore failed ({exc.__class__.__name__}: {exc})",
                        file=sys.stderr,
                    )
                    system = build_system(task.config, get_profile(task.app))
                    engine = engine_for(system)
                    clocks = None
    if clocks is None:
        clocks = engine.warm()
        if fingerprint_key is not None:
            store.save_snapshot(
                fingerprint_key, task.app, fingerprint, system.snapshot(clocks)
            )
    return system, engine, clocks


def parse_jobs(value: Optional[str]) -> int:
    """Interpret a ``--jobs`` / ``REPRO_JOBS`` value.

    ``None``/empty means serial; ``auto`` or ``0`` means one job per
    available CPU; anything else must be a positive integer.
    """
    if value is None or value == "":
        return 1
    text = str(value).strip().lower()
    if text in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {value!r}") from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {value!r}")
    return jobs


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default job count (``None`` restores env/serial)."""
    global _default_jobs
    _default_jobs = jobs


def default_jobs() -> int:
    """The job count used when a call site passes ``jobs=None``."""
    if _default_jobs is not None:
        return _default_jobs
    return parse_jobs(os.environ.get(JOBS_ENV_VAR))


# ----------------------------------------------------------------------
# Campaign settings (checkpoint directory, retries, timeout).
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CampaignSettings:
    """Process-wide defaults applied when a matrix call omits them."""

    checkpoint_dir: Optional[str] = None
    retries: int = 0
    task_timeout: Optional[float] = None
    progress: bool = False


_campaign: Optional[CampaignSettings] = None


def set_campaign(settings: Optional[CampaignSettings]) -> None:
    """Install campaign defaults (``None`` restores env-derived defaults)."""
    global _campaign
    _campaign = settings


def campaign_settings() -> CampaignSettings:
    """The campaign defaults in effect for ``run_matrix*`` calls."""
    if _campaign is not None:
        return _campaign
    env_dir = os.environ.get(CAMPAIGN_ENV_VAR) or None
    return CampaignSettings(checkpoint_dir=env_dir)


# ----------------------------------------------------------------------
# Errors and per-task results.
# ----------------------------------------------------------------------


class WorkerError(RuntimeError):
    """A :func:`parallel_map` item failed; identifies which one.

    ``index`` is the position in the input iterable, ``item`` the input
    itself; the original exception is chained as ``__cause__`` when it
    survived pickling back from the worker.
    """

    def __init__(self, index: int, item: object, message: str) -> None:
        super().__init__(message)
        self.index = index
        self.item = item


class TaskError(RuntimeError):
    """A :func:`run_matrix` cell failed; carries the failing TaskResult."""

    def __init__(self, result: "TaskResult") -> None:
        task = result.task
        super().__init__(
            f"simulation task {result.index} (app={task.app!r}, "
            f"policy={task.config.snoop_policy.value}, "
            f"seed={task.config.seed}) failed after "
            f"{result.attempts} attempt(s):\n{result.error}"
        )
        self.result = result
        self.task = task
        self.index = result.index


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a matrix; ``results`` holds the partial outcome.

    Subclasses :class:`KeyboardInterrupt` so existing ``except
    KeyboardInterrupt`` handlers (and the default traceback-and-exit)
    still apply; cells not finished carry an ``interrupted`` error.
    """

    def __init__(self, results: List["TaskResult"]) -> None:
        done = sum(1 for r in results if r.ok)
        super().__init__(f"campaign interrupted with {done}/{len(results)} cells done")
        self.results = results


class TaskResult(NamedTuple):
    """Outcome of one matrix cell, successful or not."""

    index: int
    task: SimTask
    stats: Optional[SimStats]
    error: Optional[str]  # traceback / reason text; None on success
    attempts: int
    wall_seconds: float
    from_checkpoint: bool
    # Served by the cross-run result store (repro.store) without running.
    from_store: bool = False
    # Engine-side diagnostics that must never live on SimStats (results
    # stay byte-identical across kernels by contract): currently the
    # batched kernel's bulk-miss seam summary. None when the cell was
    # replayed from checkpoint/store or ran on the reference engine.
    diagnostics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.stats is not None


# ----------------------------------------------------------------------
# Stable task identity (checkpoint keys).
# ----------------------------------------------------------------------


def config_to_dict(config: SimConfig) -> dict:
    """A JSON-serializable dict of every config field (enums by value)."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        out[field.name] = value.value if isinstance(value, Enum) else value
    return out


def task_key(task: SimTask) -> str:
    """Stable content hash of one (config, app) cell.

    The key depends only on field values — not on object identity or
    field declaration order — so the same logical cell maps to the same
    checkpoint file across processes, sessions and matrices.
    """
    payload = {"app": task.app, "config": config_to_dict(task.config)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


WARMUP_INERT_FIELDS = frozenset(
    {
        # Migrations are disabled during warm-up; the measured-phase
        # schedule is recomputed from the post-warm-up clocks.
        "migration_period_ms",
        # Measured-phase budget only (the workload coverage cap uses the
        # *warm-up* budget, which stays in the fingerprint).
        "accesses_per_vcpu",
        # Observability begins at the measurement boundary and its
        # observers never perturb architectural state or RNG draws.
        "trace",
        "trace_format",
        "metrics_sample_every",
        # The sanitizer is a pure observer too; sanitized runs are
        # instead barred from *consuming* snapshots (their shadow state
        # must observe the warm-up), see run_simulation_task.
        "sanitize",
        "sanitize_mode",
        # Kernel choice is bit-identical by construction (the batched
        # kernel's whole contract), so warm snapshots are interchangeable
        # across kernels — a differential run warms once and forks.
        "kernel",
    }
)
"""Config fields provably inert before measurement begins.

Everything else — policies, thresholds, cache geometry, seeds, VM
shapes, the warm-up budget itself — changes the post-warm-up state and
stays in the fingerprint. Per-field rationale lives in DESIGN.md's
reuse-layer section; when in doubt, leave a field in the fingerprint
(a too-wide fingerprint only costs redundant warm-ups, a too-narrow one
serves wrong state).
"""


def warmup_fingerprint(task: SimTask) -> tuple:
    """(key, payload) identifying the post-warm-up state of a cell.

    Two cells differing only in :data:`WARMUP_INERT_FIELDS` share a
    fingerprint, so a period sweep (or an observability re-run) warms
    once and forks. Hashed exactly like :func:`task_key`.
    """
    fingerprint = {
        name: value
        for name, value in config_to_dict(task.config).items()
        if name not in WARMUP_INERT_FIELDS
    }
    payload = {"app": task.app, "warmup_config": fingerprint}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], fingerprint


# ----------------------------------------------------------------------
# parallel_map — generic order-preserving fan-out.
# ----------------------------------------------------------------------


class _WorkerFailure(NamedTuple):
    """In-band failure marker returned by a worker instead of a result."""

    index: int
    error: Optional[BaseException]
    traceback_text: str


def _call_indexed(fn, pair):
    """Run ``fn`` on one (index, item) pair, capturing any exception.

    The failure travels back as a value so the parent learns *which*
    task failed instead of an opaque remote traceback; the exception
    object rides along when it pickles, for ``raise ... from`` chaining.
    """
    index, item = pair
    try:
        return fn(item)
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = None
        return _WorkerFailure(index, exc, text)


def _raise_first_failure(results: Sequence[object], items: Sequence[object]) -> None:
    for res in results:
        if isinstance(res, _WorkerFailure):
            item_text = repr(items[res.index])
            if len(item_text) > 200:
                item_text = item_text[:200] + "..."
            raise WorkerError(
                res.index,
                items[res.index],
                f"parallel task {res.index} ({item_text}) failed:\n"
                f"{res.traceback_text}",
            ) from res.error


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], jobs: Optional[int] = None
) -> List[R]:
    """Apply ``fn`` to every item, preserving input order in the result.

    ``fn`` and the items must be picklable when ``jobs > 1`` (``fn`` at
    module level, items built from plain data). Work is distributed over
    a process pool; results come back in input order regardless of
    completion order, so callers can zip them against their task lists.

    A failing item raises :class:`WorkerError` naming its index and item
    (identically at any job count, the serial path included), with the
    worker's exception chained. Ctrl-C terminates the pool instead of
    leaving workers joining indefinitely.
    """
    items = list(items)
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(items))) if items else 1
    wrapped = partial(_call_indexed, fn)
    if jobs == 1:
        results = [wrapped(pair) for pair in enumerate(items)]
        _raise_first_failure(results, items)
        return results
    pool = multiprocessing.get_context().Pool(processes=jobs)
    try:
        results = pool.map(wrapped, list(enumerate(items)))
    except KeyboardInterrupt:
        pool.terminate()
        pool.join()
        raise
    else:
        pool.close()
        pool.join()
    _raise_first_failure(results, items)
    return results


# ----------------------------------------------------------------------
# Run manifest.
# ----------------------------------------------------------------------


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _manifest_entry(result: TaskResult, key: str) -> dict:
    task = result.task
    us_per_access = None
    reused = result.from_checkpoint or result.from_store
    if result.stats is not None and result.stats.l1_accesses and not reused:
        us_per_access = round(1e6 * result.wall_seconds / result.stats.l1_accesses, 3)
    entry = {
        "key": key,
        "index": result.index,
        "app": task.app,
        "policy": task.config.snoop_policy.value,
        "content_policy": task.config.content_policy.value,
        "filter": task.config.filter_kind,
        "topology": task.config.topology,
        "num_cores": task.config.num_cores,
        "num_vms": task.config.num_vms,
        "migration_period_ms": task.config.migration_period_ms,
        "seed": task.config.seed,
        "ok": result.ok,
        "from_checkpoint": result.from_checkpoint,
        "from_store": result.from_store,
        "attempts": result.attempts,
        "wall_seconds": round(result.wall_seconds, 3),
        "us_per_access": us_per_access,
        "error": result.error,
    }
    if result.stats is not None:
        stats = result.stats
        # Consolidation-study scaling columns: how big the snoop maps
        # grew and what fraction of the broadcast snoops the filter
        # saved, per cell.
        if stats.snoop_map_sizes:
            sizes = stats.snoop_map_sizes.values()
            entry["snoop_map_avg_size"] = round(sum(sizes) / len(sizes), 3)
        if stats.coherence.transactions:
            # Same baseline convention as normalized_snoops_percent: a
            # broadcast protocol snoops every core on every transaction.
            broadcast_snoops = task.config.num_cores * stats.coherence.transactions
            entry["filtered_snoop_fraction"] = round(
                1.0 - stats.coherence.snoops / broadcast_snoops, 6
            )
    # Cells that ran on the batched kernel carry its bulk-miss seam
    # summary (inline transactions + per-reason bail-out histogram) —
    # engine diagnostics that by contract never appear in SimStats.
    if result.diagnostics:
        entry["kernel_bulk"] = result.diagnostics
    # Cells run with a metrics recorder carry their time-series into the
    # manifest, so a campaign's temporal behaviour (Figures 7-9) is
    # inspectable without re-running anything.
    if result.stats is not None and result.stats.metrics is not None:
        entry["metrics"] = result.stats.metrics.to_dict()
    return entry


def _write_manifest(
    checkpoint_dir: Path,
    label: Optional[str],
    results: Sequence[TaskResult],
    keys: Sequence[str],
    jobs: int,
    interrupted: bool,
) -> Path:
    """Persist what this matrix ran; named by label or matrix digest."""
    if label is None:
        digest = hashlib.sha256("".join(keys).encode("utf-8")).hexdigest()[:8]
        name = f"manifest-{digest}.json"
    else:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
        name = f"manifest-{safe}.json"
    entries = [_manifest_entry(res, key) for res, key in zip(results, keys)]
    store = get_store()
    payload = {
        "format": MANIFEST_FORMAT,
        "label": label,
        "written": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": _git_revision(),
        "jobs": jobs,
        "interrupted": interrupted,
        "totals": {
            "tasks": len(entries),
            "ok": sum(1 for e in entries if e["ok"]),
            "failed": sum(1 for e in entries if not e["ok"]),
            "from_checkpoint": sum(1 for e in entries if e["from_checkpoint"]),
            "from_store": sum(1 for e in entries if e["from_store"]),
            "wall_seconds": round(sum(e["wall_seconds"] for e in entries), 3),
        },
        # Parent-process store traffic (worker-side hits happen in their
        # own processes and are not aggregated here).
        "store": store.counters() if store is not None else None,
        "failures": [e["key"] for e in entries if not e["ok"]],
        "tasks": entries,
    }
    path = checkpoint_dir / name
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Heartbeat progress.
# ----------------------------------------------------------------------


class _Progress:
    """Rate-limited done/total + ETA lines on stderr."""

    def __init__(
        self,
        total: int,
        resumed: int,
        enabled: bool,
        label: Optional[str],
        min_interval: float = 2.0,
    ) -> None:
        self.total = total
        self.done = resumed
        self.resumed = resumed
        self.failed = 0
        self.enabled = enabled
        self.prefix = f"[campaign:{label}]" if label else "[campaign]"
        self.min_interval = min_interval
        self.start = time.monotonic()  # repro-lint: disable=RPL004; progress ETA only
        self.last_emit = 0.0
        if enabled and resumed:
            print(
                f"{self.prefix} resumed {resumed}/{total} cells from checkpoints",
                file=sys.stderr,
            )

    def completed(self, result: TaskResult) -> None:
        self.done += 1
        if not result.ok:
            self.failed += 1
        if not self.enabled:
            return
        now = time.monotonic()  # repro-lint: disable=RPL004; progress ETA only
        if self.done < self.total and now - self.last_emit < self.min_interval:
            return
        self.last_emit = now
        elapsed = now - self.start
        fresh = self.done - self.resumed
        if fresh > 0 and self.done < self.total:
            eta = f", eta {elapsed / fresh * (self.total - self.done):.0f}s"
        else:
            eta = ""
        failed = f", {self.failed} failed" if self.failed else ""
        print(
            f"{self.prefix} {self.done}/{self.total} done{failed}, "
            f"{elapsed:.0f}s elapsed{eta}",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# The fault-tolerant executor.
# ----------------------------------------------------------------------


def _attempt(task_fn, task, retries):
    """Run one cell, retrying failures in place.

    Returns ``(stats, error, attempts, wall, diagnostics)``; ``stats`` and
    ``diagnostics`` are None and ``error`` holds the last traceback when
    every attempt failed. ``KeyboardInterrupt`` is not an ``Exception``,
    so it propagates.
    """
    start = time.perf_counter()  # repro-lint: disable=RPL004; cell runtime metric
    for attempt in range(1, max(retries, 0) + 2):
        try:
            stats = task_fn(task)
        except Exception:
            error = traceback.format_exc()
        else:
            wall = time.perf_counter() - start  # repro-lint: disable=RPL004; cell runtime metric
            return stats, None, attempt, wall, consume_diagnostics()
    wall = time.perf_counter() - start  # repro-lint: disable=RPL004; cell runtime metric
    return None, error, attempt, wall, None


def _detailed_child(conn, task_fn, index, task, retries):
    """Child-process body: run one cell with retries, report over the pipe."""
    conn.send((index, *_attempt(task_fn, task, retries)))
    conn.close()


def _run_serial(tasks, indices, task_fn, retries, on_complete):
    """Inline execution; identical capture semantics, no processes.

    ``KeyboardInterrupt`` propagates to the caller after the completed
    cells have been reported (and therefore persisted).
    """
    for i in indices:
        stats, error, attempts, wall, diagnostics = _attempt(task_fn, tasks[i], retries)
        on_complete(
            TaskResult(
                i, tasks[i], stats, error, attempts, wall, False,
                diagnostics=diagnostics,
            )
        )


def _run_parallel(tasks, indices, jobs, task_fn, retries, task_timeout, on_complete):
    """One worker process per cell, at most ``jobs`` alive at a time.

    Process-per-task (rather than a shared pool) is what makes the
    guarantees enforceable: a cell that exceeds ``task_timeout`` is
    terminated without disturbing its siblings, a worker that dies
    abruptly is detected through pipe EOF + exit code, and Ctrl-C
    terminates exactly the processes still running.
    """
    ctx = multiprocessing.get_context()
    queue = deque(indices)
    running = {}  # index -> (process, parent_conn, monotonic start)
    try:
        while queue or running:
            while queue and len(running) < jobs:
                i = queue.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_detailed_child,
                    args=(child_conn, task_fn, i, tasks[i], retries),
                )
                proc.start()
                child_conn.close()
                running[i] = (proc, parent_conn, time.monotonic())  # repro-lint: disable=RPL004; stall watchdog
            by_conn = {conn: i for i, (_, conn, _) in running.items()}
            ready = connection.wait(list(by_conn), timeout=0.25)
            now = time.monotonic()  # repro-lint: disable=RPL004; stall watchdog
            for conn in ready:
                i = by_conn[conn]
                proc, _, started = running.pop(i)
                try:
                    _, stats, error, attempts, wall, diagnostics = conn.recv()
                except EOFError:
                    proc.join()
                    on_complete(
                        TaskResult(
                            i,
                            tasks[i],
                            None,
                            "worker died before reporting a result "
                            f"(exit code {proc.exitcode})",
                            1,
                            now - started,
                            False,
                        )
                    )
                else:
                    proc.join()
                    on_complete(
                        TaskResult(
                            i, tasks[i], stats, error, attempts, wall, False,
                            diagnostics=diagnostics,
                        )
                    )
                finally:
                    conn.close()
            if task_timeout is not None:
                for i, (proc, conn, started) in list(running.items()):
                    if now - started >= task_timeout:
                        proc.terminate()
                        proc.join()
                        conn.close()
                        del running[i]
                        on_complete(
                            TaskResult(
                                i,
                                tasks[i],
                                None,
                                f"timed out after {task_timeout:g}s",
                                1,
                                now - started,
                                False,
                            )
                        )
    except BaseException:
        for proc, _, _ in running.values():
            proc.terminate()
        for proc, conn, _ in running.values():
            proc.join()
            conn.close()
        raise


def run_matrix_detailed(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
    *,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    label: Optional[str] = None,
    task_fn: Callable[[SimTask], SimStats] = run_simulation_task,
    progress: Optional[bool] = None,
) -> List[TaskResult]:
    """Run a matrix with per-cell fault isolation; never loses a cell.

    Returns one :class:`TaskResult` per task, index-aligned. A cell that
    raises (or whose worker dies, or exceeds ``task_timeout``) yields a
    result with ``error`` set while every other cell completes normally.
    ``retries`` reruns a failing cell in place before recording it.

    With ``checkpoint_dir``, completed cells are saved to a campaign
    :class:`~repro.store.ResultStore` rooted there and skipped on the
    next run (``from_checkpoint=True``), and a manifest
    is written when the matrix finishes — or is interrupted, in which
    case :class:`CampaignInterrupted` carries the partial results.

    ``task_timeout`` needs worker processes to enforce, so it is ignored
    on the inline ``jobs=1`` path.
    """
    tasks = list(tasks)
    settings = campaign_settings()
    if checkpoint_dir is None:
        checkpoint_dir = settings.checkpoint_dir
    if retries is None:
        retries = settings.retries
    if task_timeout is None:
        task_timeout = settings.task_timeout
    if progress is None:
        progress = settings.progress
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(tasks))) if tasks else 1

    keys = [task_key(task) for task in tasks]
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    ckpt = Path(checkpoint_dir) if checkpoint_dir else None
    if ckpt is not None:
        ckpt.mkdir(parents=True, exist_ok=True)
    campaign = ResultStore(ckpt) if ckpt is not None else None
    # The shared store holds run_simulation_task results; a custom
    # task_fn computes something else under the same keys, so never
    # serve it shared entries (the campaign store is the caller's to
    # scope).
    shared = get_store() if task_fn is run_simulation_task else None
    stores = [store for store in (campaign, shared) if store is not None]

    def publish(i: int, stats: SimStats, source: Optional[ResultStore]) -> None:
        # Save the cell to every store that did not serve it and lacks a
        # servable copy. The campaign store is consulted first, so unless
        # it is the source it missed (its file, if any, is unservable and
        # is replaced); the shared store is skipped when it already holds
        # the cell, e.g. saved there by run_simulation_task.
        for store in stores:
            if store is not source and (
                store is campaign or not store.has_result(keys[i])
            ):
                store.save_result(
                    keys[i], tasks[i].app, config_to_dict(tasks[i].config), stats
                )

    to_run: List[int] = []
    for i, task in enumerate(tasks):
        for store in stores:
            stats = store.load_result(keys[i], task.app, config_to_dict(task.config))
            if stats is not None:
                publish(i, stats, store)
                results[i] = TaskResult(
                    i, task, stats, None, 0, 0.0, store is campaign, store is shared
                )
                break
        else:
            to_run.append(i)

    reporter = _Progress(
        total=len(tasks),
        resumed=len(tasks) - len(to_run),
        enabled=bool(progress),
        label=label,
    )

    def on_complete(result: TaskResult) -> None:
        if result.ok:
            publish(result.index, result.stats, None)
        results[result.index] = result
        reporter.completed(result)

    try:
        if jobs == 1:
            _run_serial(tasks, to_run, task_fn, retries, on_complete)
        else:
            _run_parallel(tasks, to_run, jobs, task_fn, retries, task_timeout, on_complete)
    except KeyboardInterrupt:
        partial = [
            res
            if res is not None
            else TaskResult(i, tasks[i], None, "interrupted before completion", 0, 0.0, False)
            for i, res in enumerate(results)
        ]
        if ckpt is not None:
            _write_manifest(ckpt, label, partial, keys, jobs, interrupted=True)
        raise CampaignInterrupted(partial) from None

    final = [res for res in results if res is not None]
    assert len(final) == len(tasks), "executor lost a cell"
    if ckpt is not None:
        _write_manifest(ckpt, label, final, keys, jobs, interrupted=False)
    return final


def run_matrix(
    tasks: Sequence[SimTask],
    jobs: Optional[int] = None,
    *,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    label: Optional[str] = None,
) -> List[SimStats]:
    """Run an experiment matrix; results align index-for-index with tasks.

    Built on :func:`run_matrix_detailed`, so checkpointing, retries and
    interrupt handling apply; a cell that still fails raises
    :class:`TaskError` identifying the task (after every other cell has
    completed — and, with a checkpoint directory, been persisted).
    """
    detailed = run_matrix_detailed(
        tasks,
        jobs=jobs,
        retries=retries,
        task_timeout=task_timeout,
        checkpoint_dir=checkpoint_dir,
        label=label,
    )
    for result in detailed:
        if not result.ok:
            raise TaskError(result)
    return [result.stats for result in detailed]
