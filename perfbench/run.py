"""Benchmark for the pathpoly CLI: seeded workloads, output checks, per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload element --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one process each

The benchmark drives ``pathpoly.cli.main`` in-process as one closed-loop
client, one workload per process.  It prints a report of every metric with
its unit, then, as the last line, one JSON object holding the metrics that
BENCHMARK.json lists.  It exits 1 when an output is wrong and 2, without a
result, when pathpoly cannot be imported from src/.  See perfbench/README.md
for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTERS, Tracer, install, layer_metrics  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Round  # noqa: E402

# Per-call deadline, far above the slowest call seen to complete (see README).
DEADLINE_S = 30.0
# Rounds generated per set-up; a run that gets through all of them starts over.
POOL_ROUNDS = {"element": 800, "matrix": 300, "deep_compile": 1200}
SMOKE_ROUNDS = 40
# Rounds the traced run replays; fixed, so its counters depend on the seed only.
TRACE_ROUNDS = {"element": 100, "matrix": 30, "deep_compile": 100}
SETUP_REPEATS = 3
# Fewer samples than this and the tail percentile is omitted.
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10
# ops_per_s is the median over blocks of this many consecutive operations.
RATE_BLOCK = 10
PATHPOLY_MODULES = ("cli", "amplitudes", "circuit", "groebner", "oracle")


class DeadlineMissed(BaseException):
    """Raised by the interval timer; a BaseException so cli.main cannot catch it."""


def _on_alarm(signum: int, frame: object) -> None:
    raise DeadlineMissed


# ---------------------------------------------------------------------------
# set-up


def import_pathpoly() -> dict:
    """Import pathpoly from the checkout's src/, fresh each time."""
    for name in [m for m in sys.modules if m == "pathpoly" or m.startswith("pathpoly.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    pp = {m: importlib.import_module(f"pathpoly.{m}") for m in PATHPOLY_MODULES}
    if not Path(pp["cli"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pathpoly was found at {pp['cli'].__file__}, outside this checkout")
    return pp


def setup(workload: str, seed: int, sizes, rounds: int) -> tuple[dict, list[Round]]:
    """Import pathpoly and generate the seed's rounds: the timed set-up."""
    pp = import_pathpoly()
    make_round = WORKLOADS[workload][0]
    rng = random.Random(seed)
    return pp, [make_round(rng, i, sizes) for i in range(rounds)]


def write_inputs(pool: list[Round], workdir: Path) -> None:
    """Write one circuit file per distinct circuit and point the calls at it."""
    workdir.mkdir(parents=True)
    paths: dict[int, str] = {}
    for r, rnd in enumerate(pool):
        for j, call in enumerate(rnd.calls):
            key = id(call.circuit)
            if key not in paths:
                paths[key] = str(workdir / f"r{r}_{j}.qc")
                Path(paths[key]).write_text(call.circuit.text(), encoding="utf-8")
            call.path = paths[key]


# ---------------------------------------------------------------------------
# the closed loop


def run_call(main, argv: list[str]) -> tuple[float, "int | None", str]:
    """One CLI call under the deadline: (seconds, exit code or None, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except DeadlineMissed:
        return DEADLINE_S, None, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, code, out.getvalue()


def run_rounds(main, pool: list[Round], seconds: "float | None", count: "int | None" = None) -> list:
    """Issue rounds back to back until `seconds` pass, or `count` rounds are done.

    Returns [(pool index, [(kind, seconds, exit code, stdout) per call])].
    """
    done = []
    start = time.perf_counter()
    while (count is None or len(done) < count) and (
        seconds is None or not done or time.perf_counter() - start < seconds
    ):
        idx = len(done) % len(pool)
        done.append((idx, [(call.kind, *run_call(main, call.argv())) for call in pool[idx].calls]))
    return done


def busy_seconds(done: list) -> float:
    return sum(r[1] for _, results in done for r in results)


def verify(workload: str, pool: list[Round], done: list, pp: dict) -> tuple[int, list[str]]:
    """Check every completed call; returns (failed calls, problems).

    A round's outputs are checked once; a repeat of the same round must print
    the same text.
    """
    check = WORKLOADS[workload][1]
    first: dict[int, list[str]] = {}
    failed, problems = 0, []
    for idx, results in done:
        codes = [code for _, _, code, _ in results]
        outputs = [out for _, _, _, out in results]
        if None in codes:  # missed the deadline: failed, but not wrong
            failed += codes.count(None)
            continue
        bad = [f"exit code {c}" for c in codes if c != 0]
        if not bad and idx not in first:
            bad = check(pool[idx], outputs, pp)
            first[idx] = outputs
        elif not bad and first[idx] != outputs:
            bad = ["output changed between repeats of one input"]
        if bad:
            failed += len(results)
            problems += [f"round {idx}: {p}" for p in bad]
    return failed, problems


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> "tuple[float, float] | None":
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def block_rate(latencies: list[float]) -> float:
    """Median over blocks of RATE_BLOCK consecutive operations of operations per busy second."""
    blocks = [latencies[i : i + RATE_BLOCK] for i in range(0, len(latencies), RATE_BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < RATE_BLOCK:
        blocks.pop()
    return statistics.median(len(b) / sum(b) for b in blocks)


def latency_metrics(prefix: str, latencies: list[float]) -> list[tuple[str, float, str, str]]:
    """ops_per_s, p50_ms and tail_ms of one group of operations."""
    rows = [
        (f"{prefix}ops_per_s", block_rate(latencies), "1/s", f"n={len(latencies)}"),
        (f"{prefix}p50_ms", 1000 * statistics.median(latencies), "ms", ""),
    ]
    t = tail(latencies)
    if t is not None:
        rows.append((f"{prefix}tail_ms", 1000 * t[0], "ms", f"p{t[1]:.1f}, n={len(latencies)}"))
    return rows


def end_to_end(done: list, failed: int, setup_s: float, peak_rss_mb: float) -> list:
    calls = [r for _, results in done for r in results]
    rows = latency_metrics("round.", [sum(r[1] for r in results) for _, results in done])
    for kind in ("brute", "gb", "compile"):
        lat = [r[1] for r in calls if r[0] == kind]
        if lat:
            rows += latency_metrics(f"{kind}.", lat)
    slowest = max(calls, key=lambda r: r[1])
    rows.append(("slowest_call_ms", 1000 * slowest[1], "ms", slowest[0]))
    rows.append(("failed_share", failed / len(calls), "share", f"{failed} of {len(calls)} calls"))
    rows.append(("setup_s", setup_s, "s", "median of the set-ups"))
    rows.append(("peak_rss_mb", peak_rss_mb, "MB", ""))
    return rows


# ---------------------------------------------------------------------------
# modes


def untraced(workload: str, pool: list[Round], pp: dict, seconds: float, setup_s: float, spec: dict) -> dict:
    done = run_rounds(pp["cli"].main, pool, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = verify(workload, pool, done, pp)
    rows = end_to_end(done, failed, setup_s, peak_rss_mb)
    for p in problems:
        print(f"WRONG {p}")
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>12.4f} {unit:<5} {note}")
    gated = {m["name"] for m in spec["end_to_end"]}
    return {
        "correct": not problems,
        "attempted": sum(len(results) for _, results in done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name in gated},
    }


def traced(workload: str, pool: list[Round], pp: dict, spec: dict) -> dict:
    """Replay a fixed prefix of the rounds twice, each time untraced and then traced.

    Tracing overhead is traced over untraced busy time on the same rounds.
    The two traced passes must give identical exact counters.
    """
    count = min(TRACE_ROUNDS[workload], len(pool))
    main = pp["cli"].main
    plain_s = traced_s = 0.0
    passes, problems = [], []
    for _ in range(2):
        plain_s += busy_seconds(run_rounds(main, pool, None, count))
        with Tracer() as tracer:
            install(tracer, pp)
            done = run_rounds(lambda argv: tracer.call("cli", main, argv), pool, None, count)
            failed, wrong = verify(workload, pool, done, pp)
        problems += wrong
        traced_s += busy_seconds(done)
        passes.append(layer_metrics(tracer, traced_s / plain_s - 1))
    for name in EXACT_COUNTERS:
        if passes[0][name] != passes[1][name]:
            problems.append(f"counter {name} differs between traced passes: {passes[0][name]} vs {passes[1][name]}")
    for p in problems:
        print(f"WRONG {p}")
    for name in tracer.missing:
        print(f"  absent: {name} no longer exists")
    metrics = {}
    for m in spec["per_layer"]:
        value = passes[1].get(m["name"])
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<40} {shown:>14} {m['unit']}")
        metrics[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    return {
        "correct": not problems,
        "attempted": sum(len(results) for _, results in done),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in a child process of its own and relay the reports."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one set-up")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sizes = SMOKE if args.smoke else FULL
    rounds = SMOKE_ROUNDS if args.smoke else POOL_ROUNDS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        times = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            pp = pool = None
            gc.collect()
            start = time.perf_counter()
            pp, pool = setup(args.workload, args.seed, sizes, rounds)
            times.append(time.perf_counter() - start)
        write_inputs(pool, work)
        # keep the generated rounds out of the collector's full passes
        gc.collect()
        gc.freeze()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            result = traced(args.workload, pool, pp, spec)
        else:
            result = untraced(args.workload, pool, pp, args.seconds, statistics.median(times), spec)
    except ImportError as exc:
        print(f"error: cannot import pathpoly from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
