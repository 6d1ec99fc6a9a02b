"""Run one workload in this process and print its result as one JSON line.

    python3 benchmark/child.py --workload NAME --seed N --seconds S --trace 0|1
                               [--tiny] [--plant]

``run.py`` starts this with ``src`` on ``PYTHONPATH``. The process first caps
its own address space, so a memo blow-up raises MemoryError inside the
engine and counts as a failed instance instead of reaching the machine's OOM
killer.

Each instance is one in-process ``aft.cli.main([frontend, "-", ...,
"--format", "json"])`` request with stdin fed from memory; a
``program_to_adf`` image is built from the program text first, inside the
timed region. Only the request is timed. Decoding the output and checking it
against the references happens after the clock stops.

Requests are timed with this process's CPU clock. The engine is single
threaded and does no I/O, so on an idle machine that is its time to verdict;
unlike the wall clock it leaves out the time the hypervisor hands this vCPU
to other guests, which here comes in bursts of up to a fifth of a second per
second. Wall times are kept in the result file.

Untraced (``--trace 0``) the loop is closed with one client: instances run
back to back, the prologue and then as many whole rounds as take about
``--seconds`` at nominal speed (``workloads.Mix.rounds``). Traced
(``--trace 1``) a fixed list (the prologue and one round) runs once untraced
and once traced, so counts repeat exactly; the two passes' wall times give
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import workloads
from reference import check, decode

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Address-space ceiling of this process. The 165-layer chain of large-wf
# peaks near 720 MB under it; 180 layers still fit with no headroom and 190
# layers raise MemoryError.
MEMORY_MB = 1024

# The highest of these percentiles with at least TAIL_BEYOND samples above it
# is reported as the tail. The ladder stops at p99: on the battery p99.9 has
# only about a dozen samples beyond it, and they are scheduler and collector
# pauses; it spread 63% between seeds on a 2-core x86_64 machine.
TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_BEYOND = 10


def request(inst) -> list[str]:
    argv = [inst.frontend, "-"]
    if inst.semantics != workloads.ALL:
        argv += ["--semantics", ",".join(inst.semantics)]
    return argv + ["--format", "json"]


def run_one(inst, aft):
    """Time one request: (CPU seconds, wall seconds, output, error or None)."""
    argv = request(inst)
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        text = inst.text
        if inst.image_of is not None:
            text = aft.adf.program_to_adf(aft.lp.parse_program(text)).to_text()
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = aft.cli.main(argv)
        error = None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"
    except Exception as exc:  # noqa: BLE001 - any engine failure is a failed instance
        error = f"{type(exc).__name__}: {exc}"
    finally:
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        sys.stdin = saved_stdin
    return cpu, wall, out.getvalue(), error


def verify(inst, output: str, error, plant: bool) -> list[str]:
    if error is not None:
        return [error]
    try:
        got = decode(json.loads(output))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    if plant:
        lower, upper = got["wf"]
        got["wf"] = (lower | {"planted"}, upper)
    return check(inst, got)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that has at
    least TAIL_BEYOND samples beyond it; nearest-rank."""
    xs = sorted(latencies)
    n = len(xs)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    rank = max(1, math.ceil(best / 100 * n))
    return best, xs[rank - 1]


class Run:
    """Outcome of a sequence of instances."""

    def __init__(self):
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.wall_s = 0.0
        self.attempted = 0
        self.failures: list[dict] = []
        self.outputs: list[str] = []
        self.output_bytes = 0

    def record(self, index, inst, timing, output, problems, keep_output):
        cpu, wall = timing
        self.attempted += 1
        self.timed_s += cpu
        self.wall_s += wall
        self.output_bytes += len(output)
        if keep_output:
            self.outputs.append(output)
        if problems:
            self.failures.append(
                {"index": index, "family": inst.family, "size": inst.size, "problems": problems[:5]}
            )
        else:
            self.latencies.append(cpu)


def run_timed(items, aft, plant) -> Run:
    run = Run()
    for index, inst in enumerate(items):
        cpu, wall, output, error = run_one(inst, aft)
        run.record(index, inst, (cpu, wall), output, verify(inst, output, error, plant and index == 0), False)
    return run


def run_list(items, aft, plant, reference_outputs=None, tracer=None) -> Run:
    """Run a fixed list. With ``reference_outputs`` (the untraced pass) the
    outputs must repeat them byte for byte; otherwise they are checked."""
    run = Run()
    for index, inst in enumerate(items):
        if tracer is not None:
            tracer.instance = index
        cpu, wall, output, error = run_one(inst, aft)
        if reference_outputs is None:
            problems = verify(inst, output, error, plant and index == 0)
        elif error is not None:
            problems = [error]
        else:
            problems = [] if output == reference_outputs[index] else ["traced output differs from untraced"]
        run.record(index, inst, (cpu, wall), output, problems, reference_outputs is None)
    return run


def end_to_end(run: Run) -> tuple[dict, dict]:
    verified = len(run.latencies)
    p, value = tail(run.latencies) if run.latencies else (TAIL_LADDER[0], math.nan)
    metrics = {
        "instances_per_s": (verified / run.timed_s, "1/s"),
        "latency_ms_p50": (statistics.median(run.latencies) * 1e3 if run.latencies else math.nan, "ms"),
        "latency_ms_tail": (value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "tail_percentile": p,
        "latency_samples": verified,
        "timed_cpu_s": run.timed_s,
        "timed_wall_s": run.wall_s,
        "latencies_ms": [round(x * 1e3, 3) for x in run.latencies],
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--plant", action="store_true", help="corrupt the first result before checking")
    args = parser.parse_args(argv)

    limit = MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import aft.adf
    import aft.cli
    import aft.lp

    sizes = workloads.TINY if args.tiny else workloads.FULL
    batches = workloads.batches(args.workload, args.seed, sizes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "memory_mb": MEMORY_MB,
    }

    if not args.trace:
        rounds = sizes[args.workload].rounds(args.seconds)
        run = run_timed(itertools.chain.from_iterable(itertools.islice(batches, 1 + rounds)), aft, args.plant)
        metrics, extra = end_to_end(run)
        info.update(extra)
    else:
        from tracer import Tracer

        items = next(batches) + next(batches)
        plain = run_list(items, aft, args.plant)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_list(items, aft, False, plain.outputs, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(traced.wall_s, plain.wall_s, traced.output_bytes)
        layers = sum(tracer.layer_self_s().values())
        if layers > traced.wall_s:
            traced.failures.append({"problems": [f"layer self times {layers} exceed wall {traced.wall_s}"]})
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        info["spans"] = len(tracer.spans)
        run = plain
        run.failures += traced.failures
        run.attempted += traced.attempted

    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
