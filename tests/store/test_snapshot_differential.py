"""Warm-state snapshot restore must be provably invisible.

The reuse layer's correctness claim is absolute: measuring from a
restored snapshot produces **bit-identical** statistics to measuring
after a straight warm-up — for every snoop policy, for the RegionScout
baseline, and for the golden-corpus configurations, through a full
pickle round trip (what the on-disk store actually does). Any diff here
means the snapshot misses mutable state or the restore rebuilds it
wrong, and the store would silently corrupt every campaign it serves.
The same holds across the vSnoop policy family: one policy's warm-up,
restored under another family member, measures exactly like that
member's own straight run.
"""

import dataclasses
import json
import pickle

import pytest

from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.sim import SimConfig, SimTask, SimulationEngine, build_system
from repro.sim.runner import VSNOOP_POLICY_FAMILY, run_simulation_task
from repro.workloads import get_profile

from tests.golden.cases import GOLDEN_CASES


def _straight(task: SimTask) -> dict:
    system = build_system(task.config, get_profile(task.app))
    SimulationEngine(system).run()
    return system.stats.to_dict()


def _via_snapshot(task: SimTask) -> dict:
    producer = build_system(task.config, get_profile(task.app))
    clocks = SimulationEngine(producer).warm()
    state = pickle.loads(
        pickle.dumps(producer.snapshot(clocks), protocol=pickle.HIGHEST_PROTOCOL)
    )
    consumer = build_system(task.config, get_profile(task.app))
    engine = SimulationEngine(consumer)
    engine.measure(engine.restore_warm(state))
    return consumer.stats.to_dict()


def _assert_bit_identical(task: SimTask) -> None:
    straight = _straight(task)
    restored = _via_snapshot(task)
    assert json.dumps(restored, sort_keys=True) == json.dumps(
        straight, sort_keys=True
    )


# One case per snoop policy plus the RegionScout baseline, sized small
# enough that the whole matrix stays in tier-1 time.
_POLICY_CASES = {
    "broadcast": SimConfig(
        snoop_policy=SnoopPolicy.BROADCAST,
        accesses_per_vcpu=800,
        warmup_accesses_per_vcpu=400,
    ),
    "vsnoop-base": SimConfig(
        snoop_policy=SnoopPolicy.VSNOOP_BASE,
        accesses_per_vcpu=800,
        warmup_accesses_per_vcpu=400,
    ),
    "counter": SimConfig(
        snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
        accesses_per_vcpu=800,
        warmup_accesses_per_vcpu=400,
        migration_period_ms=0.05,
    ),
    "counter-threshold": SimConfig(
        snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
        content_policy=ContentPolicy.INTRA_VM,
        content_sharing_enabled=True,
        accesses_per_vcpu=800,
        warmup_accesses_per_vcpu=400,
    ),
    "regionscout": SimConfig(
        filter_kind="regionscout",
        migration_period_ms=0.5,
        accesses_per_vcpu=800,
        warmup_accesses_per_vcpu=400,
    ),
}


class TestEveryPolicyRestoresBitIdentically:
    @pytest.mark.parametrize("name", sorted(_POLICY_CASES))
    def test_policy(self, name):
        _assert_bit_identical(SimTask(_POLICY_CASES[name], "fft"))

    def test_hypervisor_activity(self):
        _assert_bit_identical(
            SimTask(
                SimConfig(
                    snoop_policy=SnoopPolicy.VSNOOP_BASE,
                    hypervisor_activity_enabled=True,
                    accesses_per_vcpu=800,
                    warmup_accesses_per_vcpu=400,
                ),
                "ocean",
            )
        )


def _warm_once_restore_into_the_family(config: SimConfig, app: str) -> None:
    """Warm under ``config``'s policy, restore into each other member.

    The runner keys a vSnoop snapshot by policy family (``snapshot_key``)
    only when the warm-up was policy-blind; here that witness must hold,
    and every other family member measured from the restored state must
    match its own straight run bit-for-bit.
    """
    producer = build_system(config, get_profile(app))
    engine = SimulationEngine(producer)
    clocks = engine.warm()
    assert engine.warmup_policy_blind
    blob = pickle.dumps(producer.snapshot(clocks), protocol=pickle.HIGHEST_PROTOCOL)
    others = VSNOOP_POLICY_FAMILY - {config.snoop_policy}
    for policy in sorted(others, key=lambda p: p.value):
        member = dataclasses.replace(config, snoop_policy=policy)
        consumer = build_system(member, get_profile(app))
        engine = SimulationEngine(consumer)
        engine.measure(engine.restore_warm(pickle.loads(blob)))
        restored = json.dumps(consumer.stats.to_dict(), sort_keys=True)
        straight = json.dumps(_straight(SimTask(member, app)), sort_keys=True)
        assert restored == straight, policy


_FAMILY_CASES = {
    **{
        name: SimTask(config, "fft")
        for name, config in _POLICY_CASES.items()
        if config.filter_kind == "vsnoop"
        and config.snoop_policy in VSNOOP_POLICY_FAMILY
    },
    "migration-heavy-ocean": GOLDEN_CASES["migration-heavy-ocean"],
    "content-intra-vm-blackscholes": GOLDEN_CASES["content-intra-vm-blackscholes"],
}


class TestOneWarmupServesThePolicyFamily:
    @pytest.mark.parametrize("name", sorted(_FAMILY_CASES))
    def test_case(self, name):
        task = _FAMILY_CASES[name]
        _warm_once_restore_into_the_family(task.config, task.app)


class TestGoldenConfigsRestoreBitIdentically:
    """The frozen golden configs through the snapshot path.

    These are the corpus cases the byte-exact regression suite pins, so
    a pass here proves the reuse layer cannot shift any number the
    golden suite guards.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_case(self, name):
        _assert_bit_identical(GOLDEN_CASES[name])


class TestStorePathEndToEnd:
    def test_second_cell_with_shared_fingerprint_restores(
        self, tmp_path, monkeypatch
    ):
        """Through run_simulation_task: cell B consumes cell A's warm-up
        and still matches its own store-off reference bit-for-bit."""
        config = SimConfig(accesses_per_vcpu=600, warmup_accesses_per_vcpu=300)
        sibling = dataclasses.replace(config, accesses_per_vcpu=601)

        monkeypatch.setenv("REPRO_STORE", "off")
        reference = run_simulation_task(SimTask(sibling, "fft")).to_dict()

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        from repro.store import get_store

        store = get_store()
        run_simulation_task(SimTask(config, "fft"))  # produces the snapshot
        assert store.counters()["snapshot_misses"] == 1
        served = run_simulation_task(SimTask(sibling, "fft")).to_dict()
        assert store.counters()["snapshot_hits"] == 1
        assert json.dumps(served, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_snapshot_skipped_when_no_warmup(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        from repro.store import get_store

        store = get_store()
        run_simulation_task(
            SimTask(
                SimConfig(accesses_per_vcpu=300, warmup_accesses_per_vcpu=0), "fft"
            )
        )
        counters = store.counters()
        assert counters["snapshot_hits"] == counters["snapshot_misses"] == 0
        assert not store.snapshots_dir.exists()
