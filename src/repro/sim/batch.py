"""The four synthesis process batches of Section 4.1.

All four batches comprise Wrf, Blender and community detection, plus
three more processes chosen so that the batch contains 0, 1, 2 or 3
data-intensive workloads.  Priorities are assigned randomly (distinct,
drawn from the scheduler's priority levels), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.sim.simulator import Simulation, WorkloadInstance
from repro.trace.workloads import WORKLOADS, build_workload


@dataclass(frozen=True)
class BatchSpec:
    """One named batch: six workload names."""

    name: str
    workloads: tuple[str, str, str, str, str, str]

    @property
    def data_intensive_count(self) -> int:
        """How many members are data-intensive."""
        return sum(1 for w in self.workloads if WORKLOADS[w].data_intensive)


_COMMON = ("wrf", "blender", "community")

PAPER_BATCHES: dict[str, BatchSpec] = {
    spec.name: spec
    for spec in (
        BatchSpec("No_Data_Intensive", (*_COMMON, "caffe", "deepsjeng", "xz")),
        BatchSpec("1_Data_Intensive", (*_COMMON, "caffe", "deepsjeng", "random_walk")),
        BatchSpec("2_Data_Intensive", (*_COMMON, "deepsjeng", "random_walk", "graph500")),
        BatchSpec("3_Data_Intensive", (*_COMMON, "random_walk", "graph500", "pagerank")),
    )
}
"""The four evaluation batches, keyed by name."""


def batch_names() -> list[str]:
    """Batch names in paper order (0 to 3 data-intensive processes)."""
    return list(PAPER_BATCHES)


def build_batch(
    name: str,
    *,
    seed: int = 42,
    scale: float = 1.0,
    config: MachineConfig | None = None,
) -> list[WorkloadInstance]:
    """Instantiate a paper batch: traces built, priorities assigned.

    The same *seed* yields the same traces and the same priority
    assignment regardless of the policy simulated, so policy comparisons
    are paired.
    """
    spec = PAPER_BATCHES.get(name)
    if spec is None:
        raise ConfigError(f"unknown batch {name!r}; known: {', '.join(PAPER_BATCHES)}")
    config = config or MachineConfig()
    rng = DeterministicRNG(seed)
    levels = config.scheduler.priority_levels
    priorities = rng.sample(range(levels), len(spec.workloads))
    instances = []
    for index, workload_name in enumerate(spec.workloads):
        build = build_workload(workload_name, rng.fork(index + 1), scale)
        instances.append(
            WorkloadInstance(
                name=workload_name,
                trace=build.trace,
                priority=priorities[index],
                data_intensive=WORKLOADS[workload_name].data_intensive,
                mapped_vpns=build.mapped_vpns,
            )
        )
    return instances


def run_batch_instrumented(
    name: str,
    policy,
    *,
    seed: int = 42,
    scale: float = 1.0,
    config: MachineConfig | None = None,
    cores: int | None = None,
    telemetry=None,
):
    """Build a paper batch, run it fully instrumented, return
    ``(result, telemetry)``.

    Convenience hook for trace capture: constructs a fresh
    :class:`~repro.telemetry.Telemetry` when none is passed, so
    ``result, t = run_batch_instrumented("1_Data_Intensive", ITSPolicy())``
    followed by :func:`~repro.telemetry.export_chrome_trace` is the
    shortest path from batch name to a Perfetto-loadable trace.
    *policy* is an :class:`~repro.baselines.base.IOPolicy` instance (not
    a name — name lookup lives in :mod:`repro.analysis.experiments`).
    ``cores``, when given, overrides the config's SMP core count
    (serialisation equality means ``cores=1`` over a default block still
    hashes and runs bit-identically to a config with no block at all).
    """
    import dataclasses

    from repro.telemetry import Telemetry

    config = config or MachineConfig()
    if cores is not None:
        config = dataclasses.replace(
            config, cores=dataclasses.replace(config.cores, count=cores)
        )
    if telemetry is None:
        telemetry = Telemetry()
    workloads = build_batch(name, seed=seed, scale=scale, config=config)
    result = Simulation(
        config, workloads, policy, batch_name=name, telemetry=telemetry
    ).run()
    return result, telemetry
