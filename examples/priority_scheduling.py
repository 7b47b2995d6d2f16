#!/usr/bin/env python3
"""Inside the ITS threads: who improves, who sacrifices.

Builds a hand-crafted batch with chosen priorities so the division of
labour is visible: a high-priority latency-critical service and two
low-priority background crunchers.  Runs Sync vs ITS and reports, per
process, how the self-improving thread (prefetch + pre-execution) and
the self-sacrificing thread (async demotion) changed its fate.

Run:  python examples/priority_scheduling.py
"""

from repro import ITSPolicy, MachineConfig, Simulation, SyncIOPolicy, WorkloadInstance
from repro.common.rng import DeterministicRNG
from repro.common.units import format_time_ns
from repro.trace.workloads import build_workload


def make_batch():
    rng = DeterministicRNG(21)
    service = build_workload("deepsjeng", rng.fork(1))      # hot working set
    cruncher1 = build_workload("random_walk", rng.fork(2))  # fault monster
    cruncher2 = build_workload("community", rng.fork(3))    # skewed graph
    return [
        WorkloadInstance("service", service.trace, priority=35,
                         mapped_vpns=service.mapped_vpns),
        WorkloadInstance("cruncher1", cruncher1.trace, priority=8,
                         data_intensive=True, mapped_vpns=cruncher1.mapped_vpns),
        WorkloadInstance("cruncher2", cruncher2.trace, priority=4,
                         mapped_vpns=cruncher2.mapped_vpns),
    ]


def main() -> None:
    config = MachineConfig()
    its_policy = ITSPolicy()
    sims = {
        policy.name: Simulation(config, make_batch(), policy, batch_name="priorities")
        for policy in (SyncIOPolicy(), its_policy)
    }
    results = {name: sim.run() for name, sim in sims.items()}
    stolen_ns = sims["ITS"].machine.ledger.by_category()["stolen_run"]

    print(f"{'process':10s} {'prio':>4s} {'Sync finish':>12s} {'ITS finish':>12s} {'change':>8s}")
    for sync_p, its_p in zip(
        results["Sync"].finish_times_by_priority(),
        results["ITS"].finish_times_by_priority(),
    ):
        change = its_p.finish_time_ns / sync_p.finish_time_ns - 1
        print(
            f"{sync_p.name:10s} {sync_p.priority:4d} "
            f"{format_time_ns(sync_p.finish_time_ns):>12s} "
            f"{format_time_ns(its_p.finish_time_ns):>12s} {change:+8.1%}"
        )

    print()
    selection = its_policy.selection
    print(
        f"thread selection: {selection.high_selections} faults ran the "
        f"self-improving thread, {selection.low_selections} were demoted "
        "by the self-sacrificing thread"
    )
    improving = its_policy.improving
    print(
        f"self-improving: {improving.windows_stolen} busy-wait windows "
        f"stolen ({format_time_ns(stolen_ns)} of idle time put to work)"
    )
    if improving.prefetcher is not None:
        stats = improving.prefetcher.stats
        print(
            f"page-prefetch policy: {stats.candidates_found} candidates from "
            f"{stats.entries_scanned} PT entries walked"
        )
    print(
        f"state recovery: {its_policy.recovery.checkpoints} checkpoints, "
        f"{its_policy.recovery.restores} restores (always balanced)"
    )


if __name__ == "__main__":
    main()
