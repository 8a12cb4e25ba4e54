"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, prints
it, and asserts the shape claims the paper makes. Benchmarks run once
(``rounds=1``) — they measure full experiment campaigns, not
microseconds.

At session end the harness writes ``benchmarks/results/BENCH_<rev>.json``
with per-test wall-clock durations, the campaigns' headline metrics,
the result-store traffic, the peak RSS of the session and of its worker
processes, and the host it ran on — a regression guard: diff two
revisions' files to see whether a change moved runtimes or, worse,
results. If a previous revision's file exists, the total-duration
ratio is printed as a quick signal and any individual test that slowed
past ``_WALL_TIME_RATIO_FLAG`` is named. Wall-time comparisons only run
between files recorded in the same mode (fast vs full), under the same
kernel and on the same host (CPU model, CPU count, Python version; a
file without a host block is never a baseline), and per-test flags only
between cold-store runs — a warm store makes every campaign replay from
disk, which would flag the *next* cold run as a regression.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# Make the sibling `_shared` module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))

RESULTS_DIR = Path(__file__).parent / "results"

# A test this much slower than the previous same-mode revision is named
# in the bench-guard line. Generous: shared CI machines jitter, and a
# benchmark here is a whole campaign, not a microbenchmark.
_WALL_TIME_RATIO_FLAG = 1.5
# Ignore sub-second tests: their ratios are all noise.
_WALL_TIME_MIN_SECONDS = 1.0

_durations = {}


def emit(text: str) -> None:
    """Print a regenerated table/figure so `pytest -s` shows it."""
    print()
    print(text)


def _current_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _peak_rss_mb(who: int) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)


def pytest_runtest_logreport(report):
    if report.when == "call":
        _durations[report.nodeid] = round(report.duration, 3)


def pytest_sessionfinish(session, exitstatus):
    if not _durations:
        return
    import _shared
    from repro.sim import default_jobs
    from repro.store import get_store, store_root

    rev = _current_rev()
    store = get_store()
    # Which simulation kernel the campaigns ran under. Results are
    # bit-identical either way (the differential CI lane proves it), so
    # the kernel only matters for wall-time bookkeeping: runs are
    # compared like-for-like and forced-kernel runs get their own file.
    kernel = os.environ.get("REPRO_KERNEL") or "auto"
    payload = {
        "rev": rev,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fast_mode": os.environ.get("REPRO_FAST", "") not in ("", "0"),
        "kernel": kernel,
        "jobs": default_jobs(),
        "total_duration_s": round(sum(_durations.values()), 3),
        "durations_s": dict(sorted(_durations.items())),
        "headlines": _shared.headline_metrics(),
        # Children: the largest single worker process, not their sum.
        "peak_rss_mb": {
            "self": _peak_rss_mb(resource.RUSAGE_SELF),
            "children": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        },
        "host": {
            "cpu_model": _cpu_model(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        # Parent-process traffic only: parallel campaigns hit the store
        # inside worker processes, whose counters die with the workers.
        "store": {
            "root": str(store_root()) if store is not None else None,
            **(store.counters() if store is not None else {}),
        },
    }
    # When the campaigns checkpoint (REPRO_CAMPAIGN_DIR, e.g. in CI),
    # record where and what so the bench guard links to the manifests.
    campaign_dir = os.environ.get("REPRO_CAMPAIGN_DIR")
    # Manifests sit at the top level; cells in the campaign store's
    # results/ directory.
    if campaign_dir and Path(campaign_dir).is_dir():
        root = Path(campaign_dir)
        payload["campaign"] = {
            "dir": campaign_dir,
            "manifests": sorted(p.name for p in root.glob("manifest*.json")),
            "cells": sum(1 for _ in (root / "results").glob("*.json")),
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "" if kernel == "auto" else f"-{kernel}"
    out_path = RESULTS_DIR / f"BENCH_{rev}{suffix}.json"
    out_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    previous = [
        p for p in sorted(RESULTS_DIR.glob("BENCH_*.json"), key=lambda p: p.stat().st_mtime)
        if p != out_path
    ]
    line = f"bench guard: wrote {out_path}"
    slow = []
    # Compare against the most recent file recorded like-for-like: same
    # mode, same kernel (a batched run against a reference run would
    # report the kernels' speed difference as a "regression") and same
    # host (another machine's speed is not a regression either).
    for prior_path in reversed(previous):
        try:
            prior = json.loads(prior_path.read_text())
        except (ValueError, OSError):
            continue
        if (
            prior.get("fast_mode") != payload["fast_mode"]
            or prior.get("kernel", "auto") != kernel
            or prior.get("host") != payload["host"]
        ):
            continue
        prior_total = prior.get("total_duration_s") or 0.0
        if prior_total:
            ratio = payload["total_duration_s"] / prior_total
            line += (
                f" (total {payload['total_duration_s']}s, "
                f"{ratio:.2f}x of {prior.get('rev')})"
            )
            slow = _wall_time_regressions(prior, payload)
        break
    else:
        line += " (no same-host baseline)"
    print()
    print(line)
    for nodeid, before, after in slow:
        print(
            f"bench guard: WALL-TIME REGRESSION {nodeid}: "
            f"{before}s -> {after}s ({after / before:.2f}x)"
        )


def _is_cold(payload) -> bool:
    """Whether the run recomputed its campaigns rather than replaying
    them from a warm result store (older files predate the counter)."""
    store = payload.get("store")
    return not (isinstance(store, dict) and store.get("hits"))


def _wall_time_regressions(prior, payload):
    """Per-test slowdowns beyond the flag ratio, cold runs only."""
    if not (_is_cold(prior) and _is_cold(payload)):
        return []
    flagged = []
    before_all = prior.get("durations_s") or {}
    for nodeid, after in payload["durations_s"].items():
        before = before_all.get(nodeid)
        if (
            before
            and before >= _WALL_TIME_MIN_SECONDS
            and after / before > _WALL_TIME_RATIO_FLAG
        ):
            flagged.append((nodeid, before, after))
    flagged.sort(key=lambda item: item[2] / item[1], reverse=True)
    return flagged
