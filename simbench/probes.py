"""Instrumentation the benchmark installs from outside the simulator.

Nothing here edits ``repro``. Both probes replace the two names
``repro.sim.runner.prepare_task`` looks up at call time,
``build_system`` and ``engine_for``, for the duration of one campaign,
and wrap methods on the *instances* those return.

:class:`CellClock` (untraced runs) records, per cell, the process CPU
time at three boundaries — ``build_system`` entry, measured phase start
and end — plus the engine class and the measured-phase cache counters.
Its cost is a handful of calls per cell.

:class:`SpanTracer` (traced runs) adds spans. Coarse boundaries (cell,
build, engine construction, warm-up, restore, snapshot capture, the
measured phase and store calls) are kept as spans. Per-access calls —
the filter plan, protocol transactions and evictions, network sends,
hypervisor calls and workload generation — are aggregated into count,
total and self time on the innermost open coarse span. The engine binds
those methods once at construction, so the wrappers go onto the built
system between ``build_system`` and ``engine_for``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.sim import runner


class CellRecord:
    """Timings and counters of one cell, filled in as it runs."""

    def __init__(self) -> None:
        self.build_cpu: Optional[float] = None
        self.measure_start_cpu: Optional[float] = None
        self.measure_end_cpu: Optional[float] = None
        self.engine: Optional[str] = None
        self.l1_hits = self.l2_hits = self.misses = 0

    @property
    def setup_cpu(self) -> float:
        return self.measure_start_cpu - self.build_cpu

    @property
    def measure_cpu(self) -> float:
        return self.measure_end_cpu - self.measure_start_cpu


class CellClock:
    """Per-cell CPU boundaries for an untraced campaign, read from ``clock``."""

    def __init__(self, clock=time.process_time) -> None:
        self._cpu = clock
        # (config, app) -> record; a cell rebuilt after a failed
        # snapshot restore keeps its first build time.
        self.records: Dict[tuple, CellRecord] = {}
        self._record: Optional[CellRecord] = None

    def record_for(self, task) -> Optional[CellRecord]:
        return self.records.get((task.config, task.app))

    @contextmanager
    def installed(self, store, campaign: str):
        """Hook ``store`` and the runner for one campaign named ``campaign``."""
        real_build, real_engine_for = runner.build_system, runner.engine_for

        def build_system(config, profile):
            start = self._cpu()
            record = self.records.setdefault((config, profile.name), CellRecord())
            if record.build_cpu is None:
                record.build_cpu = start
            self._record = record
            system = self._build(real_build, config, profile)
            self.on_system(system)
            return system

        def engine_for(system):
            engine = self._engine(real_engine_for, system)
            self._watch_measure(engine, system, self._record)
            return engine

        runner.build_system, runner.engine_for = build_system, engine_for
        self.on_store(store)
        try:
            yield
        finally:
            runner.build_system, runner.engine_for = real_build, real_engine_for

    def task_fn(self):
        """The executor's ``task_fn``: untraced runs keep its default."""
        return runner.run_simulation_task

    # Hooks the traced probe extends.
    def _build(self, real_build, config, profile):
        return real_build(config, profile)

    def _engine(self, real_engine_for, system):
        return real_engine_for(system)

    def on_system(self, system) -> None:
        pass

    def on_store(self, store) -> None:
        pass

    def _watch_measure(self, engine, system, record: CellRecord) -> None:
        record.engine = type(engine).__name__
        real_measure = engine.measure

        def measure(*args, **kwargs):
            record.measure_start_cpu = self._cpu()
            try:
                return real_measure(*args, **kwargs)
            finally:
                record.measure_end_cpu = self._cpu()
                for hierarchy in system.caches.values():
                    record.l1_hits += hierarchy.l1_hits
                    record.l2_hits += hierarchy.l2_hits
                    record.misses += hierarchy.misses

        engine.measure = measure


class SpanTracer(CellClock):
    """Spans at layer boundaries, written out when the run ends.

    The open-span stack holds one list per open span, coarse or
    aggregated alike; element 0 accumulates the time its children took,
    which is what turns durations into self times. Coarse frames also
    carry ``[name, cell, start, parent, calls, id]``.
    """

    # Per-access methods wrapped on each built system: (metric prefix,
    # owner attribute path, method name).
    CALLS = (
        ("core.plan", ("snoop_filter",), "plan"),
        ("coherence.execute", ("protocol",), "execute"),
        ("coherence.evict", ("protocol",), "handle_eviction"),
        ("interconnect.send", ("network",), "send"),
        ("interconnect.multicast", ("network",), "multicast"),
        ("hypervisor.swap", ("hypervisor",), "swap_vcpus"),
        ("hypervisor.translate", ("hypervisor", "memory"), "translate"),
        ("hypervisor.write_to_page", ("hypervisor",), "write_to_page"),
    )
    STORE_CALLS = ("load_result", "save_result", "load_snapshot", "save_snapshot")

    def __init__(self, label) -> None:
        super().__init__()
        self._label = label  # task -> the cell identifier spans share
        self.spans: List[dict] = []
        self._clock = time.perf_counter
        self._stack: List[list] = [[0.0]]
        self._coarse: List[list] = []

    # ------------------------------------------------------------------
    # Span primitives.

    def _open(self, name: str, cell: Optional[str]) -> list:
        parent = self._coarse[-1] if self._coarse else None
        if cell is None and parent is not None:
            cell = parent[2]
        frame = [0.0, name, cell, 0.0, parent[6] if parent else None, {}, len(self.spans)]
        self.spans.append(None)  # reserve the id; filled on close
        self._stack.append(frame)
        self._coarse.append(frame)
        frame[3] = self._clock()
        return frame

    def _close(self, frame: list) -> None:
        end = self._clock()
        duration = end - frame[3]
        self._stack.pop()
        self._coarse.pop()
        self._stack[-1][0] += duration
        self.spans[frame[6]] = {
            "id": frame[6],
            "name": frame[1],
            "cell": frame[2],
            "parent": frame[4],
            "start": frame[3],
            "end": end,
            "self": duration - frame[0],
            "calls": {
                name: {"count": c, "total": t, "self": s}
                for name, (c, t, s) in sorted(frame[5].items())
            },
        }

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        frame = self._open(name, cell)
        try:
            yield
        finally:
            self._close(frame)

    def wrap_span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def wrap_calls(self, name: str, fn):
        stack, coarse, clock = self._stack, self._coarse, self._clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls = coarse[-1][5]
                agg = calls.get(name)
                if agg is None:
                    agg = calls[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]

        return wrapper

    # ------------------------------------------------------------------
    # Installation.

    @contextmanager
    def installed(self, store, campaign: str):
        with super().installed(store, campaign), self.span("campaign", campaign):
            yield

    def task_fn(self):
        run_task = runner.run_simulation_task

        def run_cell(task):
            with self.span("cell", self._label(task)):
                return run_task(task)

        return run_cell

    def _build(self, real_build, config, profile):
        return self.wrap_span("sim.build_system", real_build)(config, profile)

    def _engine(self, real_engine_for, system):
        engine = self.wrap_span("sim.engine_init", real_engine_for)(system)
        engine.warm = self.wrap_span("sim.warm", engine.warm)
        engine.restore_warm = self.wrap_span("sim.restore", engine.restore_warm)
        return engine

    def _watch_measure(self, engine, system, record: CellRecord) -> None:
        super()._watch_measure(engine, system, record)
        engine.measure = self.wrap_span("sim.measure", engine.measure)

    def on_system(self, system) -> None:
        system.snapshot = self.wrap_span("sim.snapshot", system.snapshot)
        for name, path, method in self.CALLS:
            owner = system
            for attribute in path:
                owner = getattr(owner, attribute)
            setattr(owner, method, self.wrap_calls(name, getattr(owner, method)))
        for workload in system.workloads.values():
            self._wrap_workload(workload)

    def _wrap_workload(self, workload) -> None:
        real_stepper_for = workload.stepper_for
        wrapped: Dict[int, object] = {}

        def stepper_for(vcpu_index):
            step = wrapped.get(vcpu_index)
            if step is None:
                step = wrapped[vcpu_index] = self.wrap_calls(
                    "workloads.step", real_stepper_for(vcpu_index)
                )
            return step

        workload.stepper_for = stepper_for
        chunk = getattr(workload, "stream_chunk", None)
        if chunk is not None:
            workload.stream_chunk = self.wrap_calls("workloads.chunk", chunk)

    def on_store(self, store) -> None:
        for method in self.STORE_CALLS:
            setattr(store, method, self.wrap_span(f"store.{method}", getattr(store, method)))
