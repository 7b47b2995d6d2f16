"""Wall-clock performance regression harness (``repro bench``).

The simulator's *simulated* results are pinned by the determinism tests;
this module pins its *cost*: how fast the simulator itself runs on the
host, in committed instructions per wall-clock second, plus the process
peak RSS.  The canonical cases cover the code paths whose inner loops
dominate real usage:

* ``single_core`` — ITS on one core: the paper's default fast path.
* ``smp_4core`` — ITS on four cores: per-core clocks, work stealing,
  shootdown drains.
* ``tail_bimodal`` — ITS under the bimodal fault-injection profile:
  the retry/fallback machinery and tail sampling.
* ``adaptive`` — the adaptive controller: per-fault estimation and
  mode dispatch.
* ``hot_loop`` — Sync on a fault-light shape (DRAM sized to the
  footprint), where the windowed commit path rather than the fault
  machinery dominates.

Each case is timed ``repeats`` times and the *minimum* wall time is
kept (minimum, not mean: the lower envelope is the least noisy
estimator of intrinsic cost on a shared host).  Results are written to
``BENCH_<stamp>.json`` at the repo root and compared against the
committed baseline (``benchmarks/baseline_bench.json``) with two
thresholds: a *warn* threshold (default 1.5x slower) and a *hard-fail*
threshold (2.0x) — CI treats warnings as advisory (hosts vary) but a
2x regression as a real one.  Peak RSS is reported but never failed
on: ``ru_maxrss`` is a high-water mark for the whole process, so later
cases inherit earlier cases' peaks.

Run locally with::

    PYTHONPATH=src python -m repro bench --check

and refresh the baseline (on the reference host) with::

    PYTHONPATH=src python -m repro bench --update-baseline
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.common.config import MachineConfig
from repro.common.errors import ReproError
from repro.faults.profiles import with_fault_profile

BASELINE_PATH = Path("benchmarks") / "baseline_bench.json"
"""Committed reference numbers, relative to the repo root."""

WARN_THRESHOLD = 1.5
"""Slowdown ratio above which a case is flagged (advisory)."""

HARD_THRESHOLD = 2.0
"""Slowdown ratio above which ``--check`` exits non-zero."""


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark configuration.

    ``scale``, when set, pins the trace scale regardless of the
    suite-wide ``--scale`` (the hot loop needs enough records for its
    wall time to be stable).  ``dram_frames`` overrides the DRAM pool
    so fault-light shapes can be pinned.
    """

    name: str
    policy: str
    batch: str = "2_Data_Intensive"
    seed: int = 3
    cores: Optional[int] = None
    fault_profile: Optional[str] = None
    dram_frames: Optional[int] = None
    scale: Optional[float] = None

    def config(self) -> MachineConfig:
        """The machine configuration this case pins."""
        import dataclasses

        config = MachineConfig()
        if self.fault_profile is not None:
            config = with_fault_profile(config, self.fault_profile)
        if self.dram_frames is not None:
            config = dataclasses.replace(
                config,
                memory=dataclasses.replace(
                    config.memory, dram_frames=self.dram_frames
                ),
            )
        return config


BENCH_CASES: tuple[BenchCase, ...] = (
    BenchCase("single_core", "ITS"),
    BenchCase("smp_4core", "ITS", cores=4),
    BenchCase("tail_bimodal", "ITS", fault_profile="tail_bimodal"),
    BenchCase("adaptive", "Adaptive"),
    BenchCase(
        "hot_loop",
        "Sync",
        batch="No_Data_Intensive",
        dram_frames=8192,
        scale=3.0,
    ),
)


def _peak_rss_bytes() -> int:
    """Process peak RSS.  ``ru_maxrss`` is KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak
    return peak * 1024


def run_case(
    case: BenchCase, *, repeats: int = 3, scale: float = 0.1
) -> dict:
    """Time one case and return its record (best-of-*repeats*).

    The timed region is the simulator — construction plus the full run.
    Workload synthesis happens once, outside the timer: traces are an
    *input* to the simulator, their generation cost is identical for
    every policy, and folding it in would dilute exactly the costs this
    harness exists to track.
    """
    from repro.analysis.experiments import POLICY_FACTORIES
    from repro.common.config import with_cores
    from repro.sim.batch import build_batch
    from repro.sim.simulator import Simulation

    config = case.config()
    if case.cores is not None:
        config = with_cores(config, case.cores)
    if case.scale is not None:
        scale = case.scale
    factory = POLICY_FACTORIES.get(case.policy)
    if factory is None:
        raise ReproError(
            f"unknown bench policy {case.policy!r}; "
            f"known: {', '.join(POLICY_FACTORIES)}"
        )
    workloads = build_batch(case.batch, seed=case.seed, scale=scale, config=config)
    best_s = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = Simulation(
            config, workloads, factory(), batch_name=case.batch
        ).run()
        best_s = min(best_s, time.perf_counter() - start)
    return {
        "name": case.name,
        "policy": case.policy,
        "batch": case.batch,
        "seed": case.seed,
        "scale": scale,
        "cores": case.cores,
        "fault_profile": case.fault_profile,
        "dram_frames": case.dram_frames,
        "wall_s": round(best_s, 6),
        "instructions_committed": result.instructions_committed,
        "records_per_s": round(result.instructions_committed / best_s)
        if best_s > 0
        else 0,
        "makespan_ns": result.makespan_ns,
        "sim_ns_per_wall_s": round(result.makespan_ns / best_s)
        if best_s > 0
        else 0,
    }


def run_bench(
    *,
    repeats: int = 3,
    scale: float = 0.1,
    cases: Optional[tuple[BenchCase, ...]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the full suite and return the report dict."""
    if cases is None:
        cases = BENCH_CASES  # resolved at call time (tests patch it)
    records = []
    for case in cases:
        if progress is not None:
            progress(f"bench {case.name}: {case.policy} x{repeats} ...")
        records.append(run_case(case, repeats=repeats, scale=scale))
    return {
        "schema": 1,
        "repeats": repeats,
        "scale": scale,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "peak_rss_bytes": _peak_rss_bytes(),
        "cases": records,
    }


def write_bench_json(report: dict, out_dir: Path, *, stamp: str) -> Path:
    """Write ``BENCH_<stamp>.json`` into *out_dir* and return the path."""
    path = out_dir / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Path) -> dict:
    """Read a committed bench baseline, with friendly errors."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(
            f"no bench baseline at {path}; create one with "
            "`repro bench --update-baseline`"
        )
    except json.JSONDecodeError as exc:
        raise ReproError(f"corrupt bench baseline {path}: {exc}")


@dataclass
class CaseComparison:
    """Current-vs-baseline verdict for one case."""

    name: str
    status: str  # "ok" | "warn" | "fail" | "new" | "missing"
    ratio: Optional[float] = None  # current wall / baseline wall
    current_wall_s: float = 0.0
    baseline_wall_s: Optional[float] = None
    detail: str = ""


@dataclass
class BenchComparison:
    """The full regression verdict.

    The comparison is keyed per case, in both directions: a current
    case with no baseline entry (``new``) and a baseline entry with no
    current case (``missing``) both fail a ``--check`` run — otherwise
    adding or dropping suite cases would silently pass until someone
    remembered to refresh the baseline.
    """

    cases: list[CaseComparison] = field(default_factory=list)

    @property
    def worst_ratio(self) -> float:
        ratios = [c.ratio for c in self.cases if c.ratio is not None]
        return max(ratios) if ratios else 0.0

    @property
    def failed(self) -> bool:
        return any(c.status in ("fail", "new", "missing") for c in self.cases)

    @property
    def warned(self) -> bool:
        return any(c.status == "warn" for c in self.cases)

    @property
    def failed_names(self) -> list[str]:
        """Names of the cases that make :attr:`failed` true."""
        return [c.name for c in self.cases if c.status in ("fail", "new", "missing")]


def compare_bench(
    current: dict,
    baseline: dict,
    *,
    warn_threshold: float = WARN_THRESHOLD,
    hard_threshold: float = HARD_THRESHOLD,
) -> BenchComparison:
    """Compare a fresh report against the baseline, case by case.

    Only wall time is gated: simulated outputs are covered by the
    determinism tests, and RSS is a whole-process high-water mark.
    """
    by_name = {c["name"]: c for c in baseline.get("cases", ())}
    comparison = BenchComparison()
    current_names = set()
    for record in current["cases"]:
        current_names.add(record["name"])
        base = by_name.get(record["name"])
        if base is None:
            comparison.cases.append(
                CaseComparison(
                    name=record["name"],
                    status="new",
                    current_wall_s=record["wall_s"],
                    detail="no baseline entry; refresh with --update-baseline",
                )
            )
            continue
        ratio = (
            record["wall_s"] / base["wall_s"] if base["wall_s"] > 0 else 1.0
        )
        if ratio >= hard_threshold:
            status = "fail"
            detail = f">= {hard_threshold:.1f}x slower than baseline"
        elif ratio >= warn_threshold:
            status = "warn"
            detail = f">= {warn_threshold:.1f}x slower than baseline"
        else:
            status = "ok"
            detail = ""
        comparison.cases.append(
            CaseComparison(
                name=record["name"],
                status=status,
                ratio=ratio,
                current_wall_s=record["wall_s"],
                baseline_wall_s=base["wall_s"],
                detail=detail,
            )
        )
    for name, base in by_name.items():
        if name not in current_names:
            comparison.cases.append(
                CaseComparison(
                    name=name,
                    status="missing",
                    baseline_wall_s=base["wall_s"],
                    detail="baseline case absent from this run; "
                    "refresh with --update-baseline",
                )
            )
    return comparison


def render_bench_report(report: dict, comparison: Optional[BenchComparison]) -> str:
    """Human-readable bench table, with verdicts when a baseline exists."""
    verdicts = (
        {c.name: c for c in comparison.cases} if comparison is not None else {}
    )
    lines = [
        f"bench: repeats={report['repeats']} scale={report['scale']} "
        f"peak_rss={report['peak_rss_bytes'] / (1 << 20):.1f} MiB",
        f"{'case':<16} {'wall_s':>9} {'records/s':>12} "
        f"{'sim ns/wall s':>14}  verdict",
    ]
    for record in report["cases"]:
        verdict = verdicts.get(record["name"])
        if verdict is None:
            note = "-"
        elif verdict.status == "ok":
            note = f"ok ({verdict.ratio:.2f}x)"
        elif verdict.status == "new":
            note = f"NEW: {verdict.detail}"
        else:
            note = f"{verdict.status.upper()} ({verdict.ratio:.2f}x): {verdict.detail}"
        lines.append(
            f"{record['name']:<16} {record['wall_s']:>9.3f} "
            f"{record['records_per_s']:>12,} "
            f"{record['sim_ns_per_wall_s']:>14,}  {note}"
        )
    if comparison is not None:
        for case in comparison.cases:
            if case.status == "missing":
                lines.append(
                    f"{case.name:<16} {'-':>9} {'-':>12} {'-':>14}  "
                    f"MISSING: {case.detail}"
                )
    return "\n".join(lines)
