#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the routing and mapping worlds.

Run from the repository root::

    python3 perfbench/run.py --workload routing_paper --seed 2010 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

``--trace 0`` prints the end-to-end metrics (``steps_per_s``,
``step_ms_p90``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs the
same seeds untraced and then traced, checks that both give the same
output digests, and prints the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

A seeded simulation fails when it raises, breaks a sanity check, or (for
the recorded master seed) its output digest differs from
``digests.json``.  Any failure makes the exit code 1.  See README.md for
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
#: the master seed whose per-run output digests are recorded.
DEFAULT_SEED = 2010

#: timed steps per block; ``steps_per_s`` and ``step_ms_p90`` are the
#: median over a run's blocks, so a host slowdown that covers a minority
#: of the run does not set them.  100 leaves ten samples beyond each p90.
BLOCK_STEPS = 100

#: end-to-end metric -> unit.
END_TO_END = {
    "steps_per_s": "1/s",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: spans reported as per-layer self-time metrics (ms per timed step);
#: the first is the root every other one nests in.
SELF_TIME_SPANS = (
    "sim.engine.step",
    "net.topology.advance",
    "net.topology.recompute",
    "net.topology.consistency_problems",
    "sim.invariants.check_now",
    "core.batch.step_agents",
    "routing.connectivity.connected",
    "routing.table.expire_all",
    "traffic.plane.step",
    "core.mapping_agents.observe",
    "core.mapping_agents.choose_next",
    "core.comms.exchange_mapping_knowledge",
    "core.knowledge.absorb",
    "core.migration.attempt_hop",
    "mapping.metrics.record",
)

#: per-layer metric -> unit, in the order they are printed.
PER_LAYER = {
    **{f"{span}.self_ms_per_step": "ms" for span in SELF_TIME_SPANS},
    "net.topology.dirty_nodes_per_step": "count",
    "net.topology.edges_changed_per_step": "count",
    "routing.connectivity.walks_per_step": "count",
    "routing.connectivity.hit_ratio": "ratio",
    "routing.table.entries": "count",
    "traffic.delivery_ratio": "ratio",
    "net.channel.loss_rate": "ratio",
    "net.channel.attempts_per_step": "count",
    "core.comms.meetings_per_step": "count",
    "net.generator.generate_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.ref_loop_ms": "ms",
}


def _import_workloads():
    """Import the benchmark modules against this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources at {SRC / 'repro'}; run from a full checkout")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def p90(samples: Sequence[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def blocks(samples: Sequence[float], size: int = BLOCK_STEPS) -> List[Sequence[float]]:
    """Consecutive blocks of ``size`` samples; a shorter tail joins the last."""
    count = max(1, len(samples) // size)
    return [samples[i * size : (i + 1) * size if i < count - 1 else None] for i in range(count)]


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def expected_digests(table: Dict[str, Any], scale: str, workload: str, seed: int) -> Dict[int, str]:
    """Recorded digest per seed index (empty for an unrecorded master seed)."""
    recorded = table.get(scale, {}).get(workload, {}).get(str(seed), [])
    return dict(enumerate(recorded))


def check_pass(pass_, expected: Dict[int, str]) -> List[str]:
    """One message per failed seeded run of a pass."""
    failures = []
    for run in pass_.runs:
        if run.error is not None:
            failures.append(f"run {run.index}: raised {run.error}")
        elif run.problems:
            failures.append(f"run {run.index}: " + "; ".join(run.problems))
        elif run.index in expected and expected[run.index] != run.digest:
            failures.append(
                f"run {run.index}: digest {run.digest} != expected {expected[run.index]}"
            )
    return failures


def timings(pass_, reference: bool) -> Dict[str, float]:
    """The timed end-to-end metrics, in reference-host or wall seconds."""
    parts = blocks(pass_.step_times(reference))
    return {
        "steps_per_s": statistics.median(len(part) / sum(part) for part in parts),
        "step_ms_p90": statistics.median(p90(part) for part in parts) * 1000.0,
        "setup_s": pass_.setup_time(reference),
    }


def end_to_end(pass_) -> Dict[str, float]:
    metrics = timings(pass_, reference=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(shape, traced, untraced, ref_ms: float) -> Dict[str, float]:
    tracer = traced.tracer
    steps = traced.steps
    # Spans carry wall time; scale them like the end-to-end times, by the
    # traced pass's median host factor (to the step exponent for steps).
    speed = statistics.median(traced.clock.factors)
    step_speed = speed**shape.step_exponent
    metrics = {
        f"{span}.self_ms_per_step": tracer.self_s.get(span, 0.0) * 1000.0 / steps / step_speed
        for span in SELF_TIME_SPANS
    }

    def total(key: str) -> float:
        return sum(run.counters.get(key, 0) for run in traced.ok_runs)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits, walks = total("connectivity_hits"), total("connectivity_walks")
    metrics.update(
        {
            "net.topology.dirty_nodes_per_step": total("dirty_nodes") / steps,
            "net.topology.edges_changed_per_step": total("edges_changed") / steps,
            "routing.connectivity.walks_per_step": walks / steps,
            "routing.connectivity.hit_ratio": ratio(hits, hits + walks),
            "routing.table.entries": total("table_entries") / len(traced.ok_runs),
            "traffic.delivery_ratio": ratio(
                total("traffic_delivered"), total("traffic_generated")
            ),
            "net.channel.loss_rate": ratio(total("channel_losses"), total("channel_attempts")),
            "net.channel.attempts_per_step": total("channel_attempts") / steps,
            "core.comms.meetings_per_step": total("meetings") / steps,
            # per seeded run, like ``setup_s``: the mean over its repeated builds
            "net.generator.generate_s": sum(
                tracer.total_s.get(span, 0.0)
                for span in ("net.generator.generate_manet", "net.generator.generate_static")
            )
            / shape.setup_repeats
            / speed,
            "trace.overhead_ratio": sum(traced.step_times(True))
            / sum(untraced.step_times(True)),
            "host.ref_loop_ms": ref_ms,
        }
    )
    return metrics


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    expected: Optional[Dict[int, str]] = None,
) -> Dict[str, Any]:
    """Run one workload in this process; returns the result and details.

    ``expected`` maps seed index to recorded digest; by default it is
    read from ``digests.json`` for ``(scale, workload, seed)``.
    """
    wl = _import_workloads()
    shape = wl.shape_for(workload, scale)
    if expected is None:
        expected = expected_digests(load_digests(), scale, workload, seed)
    count = wl.seed_count(shape, seconds)
    if trace:
        # Two passes over half the seeds keep a traced run as long as
        # an untraced one.
        count = max(1, count // 2)
    ref_before = wl.ref_loop_ms()
    untraced = wl.run_pass(shape, seed, count)
    failures = check_pass(untraced, expected)
    attempted = len(untraced.runs)
    traced = None
    if trace:
        traced = wl.run_pass(shape, seed, len(untraced.runs), wl.Tracer(), min_steps=0)
        attempted += len(traced.runs)
        # Tracing must not change the program: each traced run is held
        # to its untraced twin's digest.
        failures += check_pass(traced, {run.index: run.digest for run in untraced.ok_runs})
    ref_after = wl.ref_loop_ms()
    ref_ms = (ref_before + ref_after) / 2.0
    result: Dict[str, Any] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {},
    }
    if untraced.ok_runs and (traced is None or traced.ok_runs):
        if trace:
            values, units = per_layer(shape, traced, untraced, ref_ms), PER_LAYER
        else:
            values, units = end_to_end(untraced), END_TO_END
        result["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        }
    detail = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "seeded_runs": len(untraced.runs),
        "step_samples": untraced.steps,
        "step_blocks": len(blocks(untraced.step_times(False))),
        "digests": [run.digest for run in untraced.runs],
        "recorded": len(expected) > 0,
        "host.ref_loop_ms": [ref_before, ref_after],
        "host_factors": untraced.clock.factors,
        "step_exponent": shape.step_exponent,
        "failures": failures,
    }
    if untraced.ok_runs:
        detail["wall"] = timings(untraced, reference=False)
    if traced is not None:
        detail["absent_spans"] = sorted(traced.tracer.absent)
        detail["traced_step_total_ms"] = traced.tracer.total_s.get(SELF_TIME_SPANS[0], 0.0) * 1e3
        detail["traced_self_sum_ms"] = sum(traced.tracer.self_s.values()) * 1e3
    return {"result": result, "detail": detail, "untraced": untraced, "traced": traced}


def record_digests(workload: str, seed: int, seconds: float, scale: str) -> List[str]:
    """Rewrite ``digests.json``'s entry for one workload from a fresh run."""
    wl = _import_workloads()
    shape = wl.shape_for(workload, scale)
    pass_ = wl.run_pass(shape, seed, wl.seed_count(shape, seconds))
    errors = [f"run {run.index}: {run.error or run.problems}" for run in pass_.runs
              if run.error is not None or run.problems]
    if errors:
        raise SystemExit("error: not recording failed runs: " + "; ".join(errors))
    table = load_digests() if DIGESTS.exists() else {}
    table.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = [
        run.digest for run in pass_.runs
    ]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [run.digest for run in pass_.runs]


def _print_summary(workload: str, result: Dict[str, Any], detail: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:16s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{workload:16s} {'step samples':48s} {detail['step_samples']:14d}")
    print(f"{workload:16s} {'step blocks':48s} {detail['step_blocks']:14d}")
    for failure in detail["failures"]:
        print(f"{workload:16s} FAILED {failure}")


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    wl = _import_workloads()
    status = 0
    for workload in wl.WORKLOAD_NAMES:
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        if child.returncode != 0:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    parser.add_argument("--seconds", type=float, default=16.0, help="nominal run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"), help="'tiny' is for smoke tests"
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="rewrite this workload's recorded digests for --seed instead of benchmarking",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if args.record:
        digests = record_digests(args.workload, args.seed, args.seconds, args.scale)
        print(f"recorded {len(digests)} digests for {args.scale}/{args.workload}/{args.seed}")
        return 0
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    result, detail = outcome["result"], outcome["detail"]
    _print_summary(args.workload, result, detail)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
