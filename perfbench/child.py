"""One measured process of the benchmark.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload small-suite --seed 0 --mode run

``--mode setup`` times only the world build; ``--mode run`` builds the
world and runs the workload body once.  ``--trace 1`` wraps the layers
(see ``layertrace.py``) and reports per-layer numbers instead of timing
the run for the end-to-end metrics.  The last stdout line is one JSON
object; :mod:`run` starts this script once per measured process so every
sample is cold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

#: Workload name -> world preset it builds.
PRESETS = {
    "small-suite": "small",
    "small-traced": "small",
    "large-campaign": "large",
}

#: Where the benchmark writes inside the checkout.
OUT_DIR = Path(".perfbench-out")

#: Preset fields the workload seed is added to.  The topology, probe and
#: deployment seeds stay the preset's: varying them moved the SMALL suite's
#: forwarding work by +-6% between seeds (236k-265k walks), more than a
#: run-to-run bound can absorb, while these fields change every measured
#: output and leave the amount of work nearly constant.
SEEDED_FIELDS = ("geodb_seed", "rdns_seed", "resolver_seed",
                 "measurement_seed", "survey_seed")


def seeded_config(preset: str, seed: int) -> Any:
    """The named preset with ``seed`` added to each of SEEDED_FIELDS.

    Seed 0 is the preset itself, so its outputs match ``repro run
    --small`` and ``repro world --config large`` exactly.
    """
    from repro.experiments.config import by_name

    config = by_name(preset)
    return replace(config, **{
        name: getattr(config, name) + seed for name in SEEDED_FIELDS
    })


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_experiments(world: Any, ops: dict[str, str]) -> None:
    """The 23 experiments in paper order, as ``repro run`` runs them.

    Each experiment is one operation; its digest hashes the rendered
    report (``repro run`` prints the timing line separately).
    """
    from repro.experiments.base import experiment_name, run_instrumented
    from repro.experiments.runner import ALL_EXPERIMENTS

    for module, description in ALL_EXPERIMENTS:
        name = f"experiment.{experiment_name(module)}"
        try:
            result, _record = run_instrumented(module, description, world)
            ops[name] = digest(result.render())
        except Exception:
            traceback.print_exc()
            ops[name] = "error"


def small_suite(config: Any, setup_only: bool, timer: "Timer") -> dict[str, str]:
    from repro.experiments.world import World

    ops: dict[str, str] = {}
    world = timer.setup(lambda: World(config))
    if not setup_only:
        timer.run(lambda: run_experiments(world, ops))
    return ops


def small_traced(config: Any, setup_only: bool, timer: "Timer") -> dict[str, str]:
    """``repro run --small --trace DIR``: recorder, events, health, manifest."""
    from repro import obs
    from repro.experiments import claims
    from repro.experiments.runner import ALL_EXPERIMENTS
    from repro.experiments.world import World
    from repro.obs import health
    from repro.obs.manifest import tracing

    ops: dict[str, str] = {}
    scorecards: list[str] = []
    verify_claims = claims.verify_claims

    def capture_scorecard(*args: Any, **kwargs: Any) -> Any:
        # The verdicts, not the detail lines: the details restate numbers
        # the experiment digests already cover, and claims re-run on a
        # world the suite has already used (fig6's ReOpt detail reads
        # 8.5% there and 9.5% on a fresh world).
        outcomes = verify_claims(*args, **kwargs)
        scorecards.append("\n".join(
            f"{o.claim_id} {'PASS' if o.passed else 'FAIL'}" for o in outcomes))
        return outcomes

    obs_dir = OUT_DIR / f"obs-{config.name}"
    shutil.rmtree(obs_dir, ignore_errors=True)
    claims.verify_claims = capture_scorecard
    argv = ["run", "--config", config.name, "--trace", str(obs_dir)]
    try:
        def body() -> None:
            with obs.span("experiments.run_all", experiments=len(ALL_EXPERIMENTS)):
                run_experiments(world, ops)
            health.record_health(world, include_claims=True)

        with tracing(obs_dir, label="repro-run", config=config, argv=argv):
            world = timer.setup(lambda: World(config))
            if not setup_only:
                timer.run(body, stop=False)
        if not setup_only:
            timer.stop()
            ops["claims.scorecard"] = (
                digest(scorecards[-1]) if len(scorecards) == 1 else "error"
            )
            timer.extra["obs.events_bytes"] = sum(
                p.stat().st_size for p in obs_dir.glob("events-*.jsonl"))
            timer.extra["obs.manifest_bytes"] = sum(
                p.stat().st_size for p in obs_dir.glob("run-*.json"))
    finally:
        claims.verify_claims = verify_claims
        shutil.rmtree(obs_dir, ignore_errors=True)
    return ops


def large_campaign(config: Any, setup_only: bool, timer: "Timer") -> dict[str, str]:
    """One ping from every usable probe to every registered service address."""
    from repro.experiments.world import World
    from repro.par.cache import tables_digest

    world = timer.setup(lambda: World(config))
    if setup_only:
        return {}
    addresses = [a.prefix.address(1) for a in world.registry.announcements()]
    campaign: dict[Any, dict[int, Any] | None] = {}

    def body() -> None:
        # Each address's pings are one operation; one that raises fails
        # alone and the campaign goes on.
        for addr in addresses:
            try:
                campaign[addr] = world.ping_all(addr)
            except Exception:
                traceback.print_exc()
                campaign[addr] = None

    timer.run(body)
    ops: dict[str, str] = {}
    try:
        ops["routing.tables_digest"] = tables_digest(
            world.engine.routing.compute_many(world.registry.announcements()))
    except Exception:
        traceback.print_exc()
        ops["routing.tables_digest"] = "error"
    for addr, pings in campaign.items():
        ops[f"ping.{addr}"] = "error" if pings is None else digest("\n".join(
            f"{pid} {r.rtt_ms!r} {r.catchment!r}"
            for pid, r in sorted(pings.items())
        ))
    return ops


WORKLOADS: dict[str, Callable[[Any, bool, "Timer"], dict[str, str]]] = {
    "small-suite": small_suite,
    "small-traced": small_traced,
    "large-campaign": large_campaign,
}


class Timer:
    """Times the world build and the workload body; owns the tracer.

    Untraced, ``setup_s`` and ``run_s`` are speed-normalised seconds from
    :class:`speed.SpeedSampler`, with the wall times beside them; traced,
    they are wall times and no sampler runs, so no kernel time lands in a
    layer's span.
    """

    def __init__(self, tracer: Any, sampler: Any) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.setup_s = self.setup_wall_s = 0.0
        self.run_s = self.run_wall_s = 0.0
        self.peak_rss_mib = 0.0
        #: Per-layer numbers measured outside the tracer (obs output size).
        self.extra: dict[str, float] = {
            "obs.events_bytes": 0, "obs.manifest_bytes": 0}
        self._run_start: Any = None

    def _clock(self) -> Any:
        return self.sampler.sample() if self.sampler else time.perf_counter()

    def _elapsed(self, start: Any) -> tuple[float, float]:
        """``(normalised_s, wall_s)`` since ``start``, a :meth:`_clock`."""
        if self.sampler is None:
            wall = time.perf_counter() - start
            return wall, wall
        wall, norm = self.sampler.between(start, self.sampler.sample())
        return norm, wall

    def setup(self, build: Callable[[], Any]) -> Any:
        if self.tracer is not None:
            self.tracer.start()
        start = self._clock()
        world = build()
        self.setup_s, self.setup_wall_s = self._elapsed(start)
        return world

    def run(self, body: Callable[[], None], stop: bool = True) -> None:
        """Time ``body``; with ``stop=False`` the clock runs on until
        :meth:`stop`, so work after the body (a manifest write) counts."""
        self._run_start = self._clock()
        body()
        if stop:
            self.stop()

    def stop(self) -> None:
        self.run_s, self.run_wall_s = self._elapsed(self._run_start)
        if self.tracer is not None:
            self.tracer.stop()
            self.tracer.uninstall()
        self.peak_rss_mib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = seeded_config(PRESETS[args.workload], args.seed)
    tracer = sampler = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from speed import SpeedSampler

        sampler = SpeedSampler()
        sampler.start()
    timer = Timer(tracer, sampler)
    try:
        ops = WORKLOADS[args.workload](config, args.mode == "setup", timer)
    finally:
        if sampler is not None:
            sampler.stop()
    report: dict[str, Any] = {"setup_s": timer.setup_s,
                              "setup_wall_s": timer.setup_wall_s}
    if args.mode == "run":
        report.update(run_s=timer.run_s, run_wall_s=timer.run_wall_s,
                      peak_rss_mib=timer.peak_rss_mib,
                      ops=ops)
        if tracer is not None:
            layers, counts = tracer.layer_metrics()
            layers.update(timer.extra)
            report.update(layers=layers, counts=counts)
            tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
