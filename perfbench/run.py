"""The repository's benchmark of record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-suite --seed 0 --seconds 10 --trace 0

Each measured process is started fresh from ``perfbench/child.py`` with
every ``REPRO_*`` variable cleared, so serial, uncached, cold execution
is the only code path.  ``--trace 0`` reports the end-to-end metrics:
the median of several cold world builds (``setup_s``), one timed pass
of the workload body (``run_s``), both in speed-normalised seconds (see
``speed.py``; the wall times are printed beside them), and that
process's peak resident memory.  ``--trace 1`` runs one separate traced
pass and reports the per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.

Every experiment report, routing table set, ping campaign and claim
scorecard is one operation, checked against the digest recorded for the
seed: committed under ``perfbench/refs`` for seed 0, recorded under
``.perfbench-out/refs`` by the first run of any other seed.  A traced
run adds one operation: its exact counts must equal those of earlier
traced runs of the same code (same fingerprint of ``src/`` and
``perfbench/``) on the same workload and seed, so nondeterminism shows.
Counts are never compared across different code, so a change that does
less work is not a failure.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from child import PRESETS

HERE = Path(__file__).resolve().parent
COMMITTED_REFS = HERE / "refs"
LOCAL_REFS = Path(".perfbench-out") / "refs"
#: Cold world builds per run, at least, for the ``setup_s`` median.
MIN_SETUPS = 3
#: Wall budget of one benchmark run, in seconds.
BUDGET_S = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    return env


def run_child(args: argparse.Namespace, mode: str, trace: int,
              deadline: float) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--trace", str(trace)]
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_json(path: Path) -> dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def check_ops(args: argparse.Namespace, report: dict[str, Any]) -> tuple[int, int]:
    """Compare every operation's digest with the seed's reference, and a
    traced run's counts with those of the same code.

    Returns ``(attempted, failed)``; references missing so far are
    recorded locally, so later runs of the same seed compare to them.
    """
    ref_name = f"{PRESETS[args.workload]}-seed{args.seed}.json"
    committed = load_json(COMMITTED_REFS / ref_name)
    local_path = LOCAL_REFS / ref_name
    local = load_json(local_path)
    refs = {**local.get("digests", {}), **committed.get("digests", {})}
    observed = dict(report["ops"])
    counts = report.get("counts")
    if counts is not None:
        key = f"{args.workload}@{code_fingerprint()}"
        expected = local.get("counts", {}).get(key)
        if expected is None:
            local.setdefault("counts", {})[key] = counts
        observed["counts"] = "ok" if expected in (None, counts) else "mismatch"
        for name in sorted(set(counts) | set(expected or {})):
            if expected is not None and expected.get(name) != counts.get(name):
                print(f"count {name}: {counts.get(name)} != reference "
                      f"{expected.get(name)}", file=sys.stderr)
    failed = 0
    for op, value in sorted(observed.items()):
        if op == "counts":
            failed += value != "ok"
            continue
        expected = refs.get(op)
        if value == "error" or (expected is not None and expected != value):
            print(f"operation {op} failed: {value} != reference {expected}",
                  file=sys.stderr)
            failed += 1
        elif expected is None:
            local.setdefault("digests", {})[op] = value
    if local != load_json(local_path):
        local_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = local_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(local, indent=1, sort_keys=True) + "\n")
        tmp.replace(local_path)
    return len(observed), failed


def code_fingerprint() -> str:
    """Hash of every file under ``src/`` and ``perfbench/``, bytecode aside.

    Exact counts are compared only between runs whose fingerprints match.
    """
    sha = hashlib.sha256()
    for label, root in (("src", Path("src")), ("perfbench", HERE)):
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                name = f"{label}/{path.relative_to(root).as_posix()}"
                sha.update(name.encode() + b"\0")
                sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PRESETS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (Path("src/repro/__init__.py").is_file()
            and Path("BENCHMARK.json").is_file()):
        print("run from the root of a repro checkout (src/repro and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    deadline = start + BUDGET_S
    report = run_child(args, "run", args.trace, deadline)
    if args.trace:
        values = report["layers"]
    else:
        # More cold builds until the run has measured for --seconds.
        setups = [report]
        while len(setups) < MIN_SETUPS or time.perf_counter() - start < args.seconds:
            longest = max(s["setup_wall_s"] for s in setups)
            if time.perf_counter() + 2 * longest > deadline:
                break
            setups.append(run_child(args, "setup", 0, deadline))
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": report["run_s"],
            "peak_rss_mib": report["peak_rss_mib"],
        }
        print("# setup_s samples (normalised/wall s): " + ", ".join(
            f"{s['setup_s']:.4f}/{s['setup_wall_s']:.4f}" for s in setups))
        print(f"# run_s = {report['run_s']} normalised s, "
              f"{report['run_wall_s']} wall s")
    attempted, failed = check_ops(args, report)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "code": code_fingerprint(),
    }
    print(f"# stamp: {json.dumps(stamp, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
