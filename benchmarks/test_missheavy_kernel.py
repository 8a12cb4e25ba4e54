"""Benchmark (infrastructure): the miss-heavy cell for the bulk-miss seam.

Not a paper figure. The miss-heavy benchmark cell — a 16 KiB L2 / 4 KiB
L1 under the read-heavy ``web-farm`` zipfian suite — is where the
batched kernel's bulk-miss seam earns its keep: nearly every access
misses and nearly every miss is a same-VM private miss, so the seam
applies the vast majority of coherence transactions inline. The
write-heavy ``backup-window`` counterpart runs alongside: its ~95%-store
backup VMs keep L2 victims dirty, and the seam writes them back inline
too, so the only misses left on the reference transact path are
contended GETMs and GETS retries.

The kernel differential suite (``tests/sim/test_kernel.py``,
``tests/sim/test_kernel_bulk.py``) owns the correctness claim; this
file owns the performance claim: the batched kernel's measured phase
must not be slower than the reference loop's on either cell, at least
half of the miss-heavy cell's seam-visible transactions must commit
inline, and at least 90% of the write-heavy cell's.
"""

import os
import time

from conftest import emit

from repro.sim.config import SimConfig
from repro.sim.kernel import engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES

_FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")

_MEASURE = 8_000 if _FAST else 60_000
_WARMUP = 1_000 if _FAST else 5_000


def _cell(suite: str, kernel: str) -> SimConfig:
    return SimConfig(
        l1_size=4 * 1024,
        l2_size=16 * 1024,
        suite=suite,
        accesses_per_vcpu=_MEASURE,
        warmup_accesses_per_vcpu=_WARMUP,
        kernel=kernel,
    )


def _measure(suite: str, kernel: str):
    """(measured-phase seconds, accesses, bulk summary) for one arm.

    Builds and warms outside the timed region — the claim under test is
    the per-access rate of the measured phase, unprofiled.
    """
    system = build_system(_cell(suite, kernel), PROFILES["fft"])
    engine = engine_for(system)
    clocks = engine.warm()
    start = time.perf_counter()
    engine.measure(clocks)
    elapsed = time.perf_counter() - start
    summary_fn = getattr(engine, "bulk_summary", None)
    summary = summary_fn() if summary_fn is not None else None
    return elapsed, system.stats.l1_accesses, summary


def test_missheavy_bulk_seam(benchmark):
    rows = []
    results = {}
    for suite in ("web-farm", "backup-window"):
        for kernel in ("reference", "batched"):
            if suite == "web-farm" and kernel == "batched":
                elapsed, accesses, summary = benchmark.pedantic(
                    _measure, args=(suite, kernel), rounds=1, iterations=1
                )
            else:
                elapsed, accesses, summary = _measure(suite, kernel)
            results[(suite, kernel)] = (elapsed, summary)
            rate = 1e6 * elapsed / accesses
            row = f"  {suite:14s} {kernel:10s} {elapsed:7.2f}s  {rate:6.2f} us/access"
            if summary is not None:
                bulk = summary["bulk_transacts"]
                bailed = sum(summary["bailouts"].values())
                seen = bulk + bailed
                if seen:
                    row += f"  inline {bulk}/{seen} ({100 * bulk / seen:.1f}%)"
            rows.append(row)
    emit(
        "miss-heavy kernel cell (16K L2 / 4K L1, "
        f"measure {_MEASURE}/vcpu):\n" + "\n".join(rows)
    )

    # Seam coverage: on the miss-heavy cell, at least half of the
    # seam-visible transactions commit inline (>90% in practice).
    _, summary = results[("web-farm", "batched")]
    bulk = summary["bulk_transacts"]
    bailed = sum(summary["bailouts"].values())
    assert bulk > 0
    assert bulk / (bulk + bailed) >= 0.5, summary

    # Wall-time floor: batched must not lose to the reference loop on
    # either cell. The margin absorbs CI timer jitter; the measured
    # gap is ~1.6x on both.
    for suite in ("web-farm", "backup-window"):
        reference_s, _ = results[(suite, "reference")]
        batched_s, _ = results[(suite, "batched")]
        assert batched_s <= reference_s * 1.05, (
            f"{suite}: batched {batched_s:.2f}s vs "
            f"reference {reference_s:.2f}s"
        )

    # The write-heavy cell commits its dirty victims inline: no victim
    # ever sends a miss back to the reference path.
    _, backup_summary = results[("backup-window", "batched")]
    bulk = backup_summary["bulk_transacts"]
    bailed = sum(backup_summary["bailouts"].values())
    assert bulk / (bulk + bailed) >= 0.9, backup_summary
    assert not any(
        reason.startswith("victim-") for reason in backup_summary["bailouts"]
    ), backup_summary
