"""The campaign cell's cyclic-collector discipline.

``run_simulation_task`` keeps the collector paused for the whole
computed cell — build, warm-up or snapshot restore, snapshot capture,
store I/O and the measured phase — and frees the cell's system before
the collector resumes. These tests pin the three observable halves of
that contract on a two-period sweep with the store on, so the first
cell captures a warm-state snapshot and the second restores it:

* the collector is left in the state the caller had it in, also when
  the cell raises;
* no collection starts between ``build_system`` entry and the end of
  the measured phase;
* the cell's ``SimulatedSystem`` is already gone when the task returns,
  without the caller collecting anything.
"""

import gc
import weakref

import pytest

from repro.sim import SimConfig, SimTask, runner
from repro.store import get_store


def sweep():
    """Two cells sharing one warmup fingerprint (only the period differs)."""
    return [
        SimTask(
            SimConfig(
                accesses_per_vcpu=300,
                warmup_accesses_per_vcpu=150,
                migration_period_ms=period,
            ),
            "fft",
        )
        for period in (0.1, 0.2)
    ]


@pytest.fixture(params=["store", "no-store"])
def store_mode(request, tmp_path, monkeypatch):
    if request.param == "store":
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    else:
        monkeypatch.setenv("REPRO_STORE", "off")
    return request.param


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    return get_store()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Put the collector in the parametrised state; restore it after."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


@pytest.fixture()
def built_systems(monkeypatch):
    """Weak references to every system the runner builds."""
    refs = []
    real_build = runner.build_system

    def build_system(config, profile):
        system = real_build(config, profile)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(runner, "build_system", build_system)
    return refs


class TestCellState:
    def test_cell_leaves_collector_as_found(self, fresh_store, collector):
        for task in sweep():
            runner.run_simulation_task(task)
            assert gc.isenabled() == collector
        counters = fresh_store.counters()
        assert counters["snapshot_misses"] == 1
        assert counters["snapshot_hits"] == 1

    def test_raising_cell_leaves_collector_as_found(
        self, fresh_store, collector, monkeypatch
    ):
        def build_system(config, profile):
            assert not gc.isenabled()
            raise RuntimeError("build failed")

        monkeypatch.setattr(runner, "build_system", build_system)
        with pytest.raises(RuntimeError, match="build failed"):
            runner.run_simulation_task(sweep()[0])
        assert gc.isenabled() == collector


class TestNoCollectionInCell:
    def test_build_to_measure_end_collects_nothing(
        self, fresh_store, monkeypatch
    ):
        armed = []
        started = []

        def on_gc(phase, info):
            if phase == "start" and armed:
                started.append(info["generation"])

        real_build, real_engine_for = runner.build_system, runner.engine_for

        def build_system(config, profile):
            armed.append(True)
            return real_build(config, profile)

        def engine_for(system):
            engine = real_engine_for(system)
            real_measure = engine.measure

            def measure(*args, **kwargs):
                try:
                    return real_measure(*args, **kwargs)
                finally:
                    armed.clear()

            engine.measure = measure
            return engine

        monkeypatch.setattr(runner, "build_system", build_system)
        monkeypatch.setattr(runner, "engine_for", engine_for)
        gc.callbacks.append(on_gc)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            for task in sweep():
                runner.run_simulation_task(task)
                assert not armed
        finally:
            gc.callbacks.remove(on_gc)
            if not was_enabled:
                gc.disable()
        assert started == []
        counters = fresh_store.counters()
        assert counters["snapshot_misses"] == 1
        assert counters["snapshot_hits"] == 1


class TestSystemFreedAtCellEnd:
    def test_system_dead_on_return(self, store_mode, collector, built_systems):
        for task in sweep():
            before = len(built_systems)
            runner.run_simulation_task(task)
            assert len(built_systems) == before + 1
            assert built_systems[-1]() is None
        if store_mode == "store":
            counters = get_store().counters()
            assert counters["snapshot_misses"] == 1
            assert counters["snapshot_hits"] == 1
