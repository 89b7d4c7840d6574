"""The benchmark's workloads and the seeded runs that make them up.

A workload is a fixed world shape (network generator preset + world
config) run over a list of seeded simulations.  One seeded simulation is
one operation: it builds a network with ``NetworkGenerator``, builds the
world, and runs it to its end through ``world.run()``, which steps the
world's ``TimeStepEngine`` in a closed loop (each step starts when the
previous one returns).  Every step is timed from outside the simulator.

Nothing here switches an engine: the worlds run their default production
paths (incremental topology, batch agents, delta-aware connectivity),
with observability off.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Union

from repro.experiments.config import PAPER, QUICK
from repro.mapping.world import MappingWorld, MappingWorldConfig
from repro.net.channel import ChannelConfig
from repro.net.generator import GeneratorConfig, NetworkGenerator
from repro.rng import derive_seed
from repro.routing.world import RoutingWorld, RoutingWorldConfig
from repro.traffic.plane import TrafficConfig

from hostclock import HostClock, ref_loop_ms
from tracer import Tracer

__all__ = [
    "MIN_STEPS",
    "SCALES",
    "WORKLOAD_NAMES",
    "Pass",
    "SeedRun",
    "Shape",
    "Tracer",
    "digest_of",
    "ref_loop_ms",
    "run_pass",
    "run_seed",
    "seed_count",
    "shape_for",
]

#: every pass times at least this many steps, so at least ten lie
#: beyond the p90.
MIN_STEPS = 100

WORKLOAD_NAMES = ("routing_paper", "mapping_team", "arena_3k", "routing_checked")

#: ``full`` is the benchmark; ``tiny`` is the same four shapes shrunk for
#: the benchmark's own smoke tests.
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Shape:
    """One workload's world shape and how many seeded runs it makes."""

    name: str
    generator: GeneratorConfig
    world: Union[RoutingWorldConfig, MappingWorldConfig]
    #: seeded runs per 10 s of ``--seconds``; sized so the timed phase
    #: lasts about ``--seconds`` on a 2-core box.
    runs_per_10s: float
    #: world builds per seeded run; ``setup_s`` takes their median, so a
    #: workload of few, large runs still times several builds.
    setup_repeats: int = 1
    #: step times are divided by the host factor raised to this power (see
    #: :mod:`hostclock`).  1 where the step is interpreter-bound and slows
    #: like the reference kernel; 0.5 where it is mostly dense numpy over
    #: large arrays, which slows about half as much (in log terms).
    #: Set-up (network generation) is interpreter-bound everywhere and is
    #: always divided by the whole factor.
    step_exponent: float = 1.0

    @property
    def mapping(self) -> bool:
        return isinstance(self.world, MappingWorldConfig)

    @property
    def steps_per_run(self) -> Optional[int]:
        """Fixed steps per seeded run (``None``: runs to perfect knowledge)."""
        return None if self.mapping else self.world.total_steps


def _routing(scale, population, steps, check_invariants=False, **extra) -> RoutingWorldConfig:
    return RoutingWorldConfig(
        agent_kind="oldest-node",
        population=population,
        history_size=scale.default_history,
        total_steps=steps,
        converged_after=steps // 2,
        check_invariants=check_invariants,
        **extra,
    )


def _shapes(scale_name: str) -> Dict[str, Shape]:
    full = scale_name == "full"
    scale = PAPER if full else QUICK
    manet = scale.routing_generator_config()
    steps = scale.routing_steps if full else 100
    population = scale.routing_population
    arena = replace(
        manet,
        node_count=3000 if full else 400,
        gateway_count=20 if full else 6,
    )
    arena_world = _routing(scale, 120 if full else 30, 100, visiting=True)
    checked_world = _routing(
        scale,
        population,
        steps,
        channel=ChannelConfig(loss=0.1),
        traffic=TrafficConfig(),
        check_invariants=True,
    )
    mapping_world = MappingWorldConfig(
        agent_kind="conscientious",
        population=scale.team_population,
        stigmergic=True,
        max_steps=scale.mapping_max_steps,
        check_invariants=False,
    )
    return {
        "routing_paper": Shape(
            "routing_paper", manet, _routing(scale, population, steps), 16 if full else 10
        ),
        "mapping_team": Shape(
            "mapping_team", scale.mapping_generator_config(), mapping_world, 20 if full else 10
        ),
        "arena_3k": Shape(
            "arena_3k", arena, arena_world, 1.9 if full else 10,
            setup_repeats=3, step_exponent=0.5,
        ),
        "routing_checked": Shape(
            "routing_checked", manet, checked_world, 4 if full else 10, setup_repeats=3
        ),
    }


def shape_for(workload: str, scale: str = "full") -> Shape:
    """The named workload's shape at ``scale``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    shapes = _shapes(scale)
    if workload not in shapes:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOAD_NAMES}")
    return shapes[workload]


def seed_count(shape: Shape, seconds: float) -> int:
    """Seeded runs in one benchmark run of ``seconds`` (at least one)."""
    return max(1, round(shape.runs_per_10s * seconds / 10.0))


# ----------------------------------------------------------------------
# One seeded run
# ----------------------------------------------------------------------


@dataclass
class SeedRun:
    """What one seeded simulation produced.

    Times come in pairs: wall seconds and reference-host seconds (see
    :mod:`hostclock`); the latter are filled in when the host clock's
    segment closes, so read them only after the pass has finished.
    """

    index: int
    build_s: List[float] = field(default_factory=list)
    build_ref_s: List[float] = field(default_factory=list)
    step_s: List[float] = field(default_factory=list)
    step_ref_s: List[float] = field(default_factory=list)
    digest: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


def _build(shape: Shape, net_seed: int, world_seed: int):
    generator = NetworkGenerator(shape.generator, net_seed)
    if shape.mapping:
        return MappingWorld(generator.generate_static(), shape.world, world_seed)
    return RoutingWorld(generator.generate_manet(), shape.world, world_seed)


def _outputs(shape: Shape, world: Any, result: Any) -> Dict[str, Any]:
    """The deterministic outputs one seeded run is checked on."""
    if shape.mapping:
        payload: Dict[str, Any] = {
            "finishing_time": result.finishing_time,
            "steps": result.steps_simulated,
            "final_average_knowledge": result.average_knowledge[-1],
            "meetings": result.meetings,
            "overhead": result.overhead,
        }
    else:
        payload = {
            "connectivity": result.connectivity,
            "mean_connectivity": result.mean_connectivity,
            "meetings": result.meetings,
            "guard_rejections": result.guard_rejections,
            "overhead": result.overhead,
        }
    traffic = result.traffic
    if traffic is not None:
        payload["traffic"] = {
            key: getattr(traffic, key)
            for key in ("generated", "delivered", "expired", "dropped", "in_flight", "buffered")
        }
    if world.invariants is not None:
        payload["invariants"] = {
            "checks": world.invariants.checks,
            "violations": len(world.invariants.violations),
        }
    return payload


def digest_of(payload: Dict[str, Any]) -> str:
    """A short stable hash of a run's outputs (floats kept exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _problems(shape: Shape, payload: Dict[str, Any], steps: int) -> List[str]:
    """Checks every seed's outputs must pass, recorded digest or not."""
    problems = []
    if shape.mapping:
        if payload["finishing_time"] is None:
            problems.append("mapping team never reached perfect knowledge")
    else:
        if len(payload["connectivity"]) != shape.steps_per_run:
            problems.append(f"recorded {len(payload['connectivity'])} connectivity samples")
        if not all(0.0 <= value <= 1.0 for value in payload["connectivity"]):
            problems.append("connectivity fraction outside [0, 1]")
    traffic = payload.get("traffic")
    if traffic is not None:
        accounted = sum(traffic[key] for key in traffic if key != "generated")
        if accounted != traffic["generated"]:
            problems.append(f"payload conservation broken: {traffic}")
    invariants = payload.get("invariants")
    if invariants is not None and (
        invariants["violations"] or invariants["checks"] != steps
    ):
        problems.append(f"invariant checker state {invariants} after {steps} steps")
    return problems


def _counters(world: Any, result: Any, tracer: Optional[Tracer], topo0) -> Dict[str, float]:
    """Per-run layer counters, read from public state after the run."""
    stats = world.topology.stats
    counters = {
        "dirty_nodes": stats.dirty_nodes - topo0[0],
        "edges_changed": stats.edges_added + stats.edges_removed - topo0[1],
        "channel_attempts": world.channel.stats.attempts,
        "channel_losses": world.channel.stats.losses,
        "meetings": result.meetings,
    }
    tables = getattr(world, "tables", None)
    if tables is not None:
        counters["table_entries"] = tables.total_entries()
    if result.traffic is not None:
        counters["traffic_generated"] = result.traffic.generated
        counters["traffic_delivered"] = result.traffic.delivered
    if tracer is not None:
        connectivity = tracer.last_self.get("routing.connectivity.connected")
        if connectivity is not None and connectivity.tables is tables:
            counters["connectivity_hits"] = connectivity.stats.hits
            counters["connectivity_walks"] = connectivity.stats.walks
    return counters


def run_seed(
    shape: Shape,
    master_seed: int,
    run: SeedRun,
    clock: HostClock,
    tracer: Optional[Tracer] = None,
) -> None:
    """Build, run and check seeded simulation ``run.index`` of a workload.

    Results are written into ``run`` as they are taken, so a run that
    raises keeps the intervals the host clock is about to normalise.
    """
    net_seed = derive_seed(master_seed, f"{shape.name}:net:{run.index}")
    world_seed = derive_seed(master_seed, f"{shape.name}:world:{run.index}")
    for __ in range(shape.setup_repeats):
        world = None
        gc.collect()
        started = perf_counter()
        world = _build(shape, net_seed, world_seed)
        clock.add(run.build_s, run.build_ref_s, perf_counter() - started)
    stats = world.topology.stats
    topo0 = (stats.dirty_nodes, stats.edges_added + stats.edges_removed)
    engine_step = world.engine.step

    def timed_step():
        started = perf_counter()
        try:
            return engine_step()
        finally:
            clock.add(run.step_s, run.step_ref_s, perf_counter() - started, shape.step_exponent)

    world.engine.step = timed_step
    gc.collect()
    result = world.run()
    run.payload = _outputs(shape, world, result)
    run.digest = digest_of(run.payload)
    run.problems = _problems(shape, run.payload, len(run.step_s))
    run.counters = _counters(world, result, tracer, topo0)


# ----------------------------------------------------------------------
# One pass over a workload's seeds
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """Every seeded run of one pass, traced or not."""

    runs: List[SeedRun]
    clock: HostClock
    tracer: Optional[Tracer] = None

    @property
    def ok_runs(self) -> List[SeedRun]:
        return [run for run in self.runs if run.error is None]

    @property
    def steps(self) -> int:
        return sum(len(run.step_s) for run in self.ok_runs)

    def step_times(self, reference: bool) -> List[float]:
        """Every timed step, in reference-host or wall seconds."""
        return [
            value
            for run in self.ok_runs
            for value in (run.step_ref_s if reference else run.step_s)
        ]

    def setup_time(self, reference: bool) -> float:
        """Set-up summed over seeded runs, each the median of its builds."""
        return sum(
            statistics.median(run.build_ref_s if reference else run.build_s)
            for run in self.ok_runs
        )


def run_pass(
    shape: Shape,
    master_seed: int,
    count: int,
    tracer: Optional[Tracer] = None,
    min_steps: int = MIN_STEPS,
) -> Pass:
    """Run seeded simulations ``0..count-1``, and more while fewer than
    ``min_steps`` steps were timed; failures are recorded, not raised."""
    runs: List[SeedRun] = []
    steps = 0
    clock = HostClock()
    if tracer is not None:
        tracer.install()
    try:
        while len(runs) < count or (steps < min_steps and runs[-1].error is None):
            run = SeedRun(len(runs))
            runs.append(run)
            try:
                run_seed(shape, master_seed, run, clock, tracer)
            except Exception as error:  # noqa: BLE001 - one failed operation
                run.error = f"{type(error).__name__}: {error}"
            steps += len(run.step_s)
            if tracer is not None:
                tracer.last_self.clear()
    finally:
        if tracer is not None:
            tracer.restore()
    clock.finish()
    return Pass(runs, clock, tracer)
