"""Run every experiment and render the paper-style report.

Usage::

    python -m repro.experiments.runner [--small] [--trace DIR]

Prints every table and figure to stdout; ``--small`` runs on the reduced
world used by tests, ``--trace DIR`` records an observability trace and
writes ``run-<id>.json`` (plus a JSONL event stream) into DIR, and
``--profile`` prints per-span-path function tables after the report.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TextIO

from repro import obs
from repro.experiments import (
    baselines,
    config,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    igreedy_compare,
    load_balance,
    longitudinal,
    methodology,
    probe_sweep,
    resilience,
    sec52_tails,
    sec54,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.base import experiment_name, run_instrumented
from repro.experiments.world import World, get_world
from repro.explain import provenance
from repro.obs.manifest import tracing
from repro.par.obsbuf import (
    WorkerPayload,
    finish_capture,
    merge_payload,
    start_capture,
)
from repro.par.pool import (
    capture_blocks_parallel,
    map_deterministic,
    pool_context,
    worker_count,
)

#: (module, description) in paper order.
ALL_EXPERIMENTS = (
    (fig1, "Fig. 1 catchment-inefficiency micro-case"),
    (table5, "Table 5 / §4.1-4.2 CDN survey"),
    (fig2, "Fig. 2 client and site partitions"),
    (fig3, "Fig. 3 p-hop geolocation techniques"),
    (table1, "Table 1 sites per area"),
    (table2, "Table 2 DNS mapping efficiency"),
    (fig4, "Fig. 4 latency / distance CDFs"),
    (table3, "Table 3 tail latency IM-6 vs IM-NS"),
    (fig5, "Fig. 5 regional-global deltas"),
    (table4, "Table 4 dRTT x site-relation"),
    (fig8, "Fig. 8 same-site validation"),
    (sec54, "§5.4 case attribution"),
    (sec52_tails, "§5.2 100+ms tail categorisation"),
    (fig6, "Fig. 6 ReOpt on Tangled"),
    (fig7, "Fig. 7 peering-type micro-case"),
    (table6, "Table 6 hostname generalisation"),
    (igreedy_compare, "§7 iGreedy vs p-hop enumeration"),
    (resilience, "§4.5 robustness: site-withdrawal failover"),
    (longitudinal, "§4.4 longitudinal partition stability"),
    (load_balance, "load distribution: global vs regional catchments"),
    (methodology, "§3.1 estimator methodology comparison"),
    (probe_sweep, "vantage-point sufficiency for site enumeration"),
    (baselines, "§2.2 baselines comparison (DailyCatch / AnyOpt / ReOpt)"),
)

#: Short name -> (module, description); the addressing scheme experiment
#: workers use (modules themselves never cross the process boundary).
EXPERIMENTS_BY_NAME = {
    experiment_name(module): (module, description)
    for module, description in ALL_EXPERIMENTS
}

_WORKER_WORLD: World | None = None

#: Parent-side staging slot for ``fork`` pools: children inherit the
#: world copy-on-write instead of unpickling it (see repro.par.routing).
_FORK_WORLD: World | None = None


def _init_experiment_worker(world: World | None) -> None:
    """Receive the world; runs once per experiment-worker process."""
    global _WORKER_WORLD
    obs.install(None)
    provenance.install(None)
    if world is None:
        world = _FORK_WORLD
    if world is None:
        raise RuntimeError("experiment worker started without a world")
    # An experiment worker must never fork its own nested fleet pool,
    # and a pool inherited across fork would be unusable anyway.
    world._fleet_pool = None
    world._fleet_checked = True
    _WORKER_WORLD = world


def _experiment_task(
    task: tuple[str, bool, int],
) -> tuple[object, float, WorkerPayload | None]:
    """Worker-side: run one experiment, capturing its spans/counters."""
    name, record, chunk_index = task
    module, description = EXPERIMENTS_BY_NAME[name]
    world = _WORKER_WORLD
    if world is None:
        raise RuntimeError("experiment worker used before initialization")
    recorder = start_capture(record, chunk_index=chunk_index)
    try:
        result, span_record = run_instrumented(module, description, world)
    finally:
        payload = finish_capture(recorder)
    wall_ms = span_record.wall_ms if span_record is not None else 0.0
    return result, wall_ms, payload


def run_selected_parallel(
    world: World,
    selected: list[tuple[object, str]],
    workers: int | None = None,
) -> list[tuple[object, float]]:
    """Run experiments across worker processes; results in input order.

    Each worker gets its own copy of the world, so per-world measurement
    caches are not shared between experiments the way they are serially —
    the classic space-for-time trade of process parallelism.  Results
    and their renders are nevertheless identical to serial runs: every
    measurement is content-deterministic.

    Returns ``(result, wall_ms)`` pairs; worker span/counter buffers are
    merged into the live recorder in experiment order, and the results
    are recorded on the parent's ``world.results``, as a serial run
    records them.
    """
    global _FORK_WORLD
    if (worker_count(workers) <= 1 or len(selected) <= 1
            or capture_blocks_parallel()):
        # Serial fallback in-process: map_deterministic's serial path
        # would not run the worker initializer.
        pairs: list[tuple[object, float]] = []
        for module, description in selected:
            result, span_record = run_instrumented(module, description, world)
            pairs.append((
                result,
                span_record.wall_ms if span_record is not None else 0.0,
            ))
        return pairs
    record = obs.active() is not None
    with obs.span("par.stage", items=len(selected)):
        tasks = [
            (experiment_name(module), record, index)
            for index, (module, _) in enumerate(selected)
        ]
        forked = pool_context().get_start_method() == "fork"
        initargs: tuple[World | None] = (None,) if forked else (world,)
        if forked:
            _FORK_WORLD = world
    try:
        outcomes = map_deterministic(
            _experiment_task,
            tasks,
            workers=workers,
            chunk_size=1,
            initializer=_init_experiment_worker,
            initargs=initargs,
        )
    finally:
        _FORK_WORLD = None
    merged: list[tuple[object, float]] = []
    with obs.span("par.merge", payloads=len(outcomes)):
        for (name, _record, _index), (result, wall_ms, payload) in zip(
            tasks, outcomes
        ):
            merge_payload(payload)
            world.results[name] = result
            merged.append((result, wall_ms))
    return merged


def run_all(
    world: World,
    stream: TextIO | None = None,
    *,
    parallel: bool = False,
    workers: int | None = None,
) -> tuple[list[object], obs.Recorder]:
    """Run every experiment against one world.

    Returns ``(results, recording)``: the result list in paper order and
    the recorder whose span tree timed every experiment.  When a recorder
    is already installed (``repro run --trace``) it is reused; otherwise
    a private one is created for the duration, so callers can always
    assert on ``recording.root``.

    With ``parallel=True`` and an effective worker count above 1,
    independent experiments run across worker processes (results stay in
    paper order and render identically); provenance capture forces the
    serial path, as selection trails are process-local.
    """
    out = stream or sys.stdout
    recorder = obs.active()
    owned = recorder is None
    if owned:
        recorder = obs.Recorder("experiments")
        obs.install(recorder)
    use_parallel = (
        parallel
        and worker_count(workers) > 1
        and not capture_blocks_parallel()
    )
    results: list[object] = []
    try:
        with obs.span("experiments.run_all", experiments=len(ALL_EXPERIMENTS)):
            if use_parallel:
                outcomes = run_selected_parallel(
                    world, list(ALL_EXPERIMENTS), workers=workers
                )
                for (module, description), (result, wall_ms) in zip(
                    ALL_EXPERIMENTS, outcomes
                ):
                    results.append(result)
                    print(result.render(), file=out)
                    print(f"[{description}: {wall_ms / 1000.0:.2f}s]\n",
                          file=out)
            else:
                for module, description in ALL_EXPERIMENTS:
                    result, record = run_instrumented(module, description,
                                                      world)
                    results.append(result)
                    print(result.render(), file=out)
                    elapsed_s = (record.wall_ms / 1000.0
                                 if record is not None else 0.0)
                    print(f"[{description}: {elapsed_s:.2f}s]\n", file=out)
    finally:
        if owned:
            obs.uninstall()
    assert recorder is not None
    return results, recorder


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run every experiment and print the paper-style report.",
    )
    parser.add_argument("--small", action="store_true",
                        help="run on the reduced test-scale world")
    parser.add_argument("--trace", metavar="DIR",
                        help="record an obs trace; writes run-<id>.json "
                             "and events-<id>.jsonl into DIR")
    parser.add_argument("--profile", action="store_true",
                        help="attribute wall time to functions per span "
                             "path and print the tables after the report")
    parser.add_argument("--parallel", action="store_true",
                        help="run independent experiments across worker "
                             "processes (worker count from REPRO_WORKERS)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config.SMALL if args.small else config.DEFAULT
    cli_argv = list(sys.argv[1:] if argv is None else argv)
    profiler = None
    if args.profile:
        from repro.obs.prof import SpanProfiler

        profiler = SpanProfiler("runner")
    with tracing(args.trace, label="runner", config=cfg, argv=cli_argv,
                 profiler=profiler) as recorder:
        start = time.perf_counter()
        world = get_world(cfg)
        print(f"[world '{cfg.name}' built in {time.perf_counter() - start:.2f}s: "
              f"{world.topology.num_nodes} nodes, {world.topology.num_links} links, "
              f"{len(world.usable_probes)} usable probes, {len(world.groups)} groups]\n")
        run_all(world, parallel=args.parallel)
        if recorder is not None:
            from repro.obs.health import record_health

            record_health(world)
    if profiler is not None:
        from repro.obs.prof import render_profile

        print(render_profile(profiler.snapshot()))
    if recorder is not None and recorder.manifest_path is not None:
        print(f"[obs] manifest written to {recorder.manifest_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
