"""The aft benchmark: one workload per call, checked against references.

    python3 benchmark/run.py --workload {large-wf,scan-exhaustive,battery}
                             --seed N --seconds S --trace 0|1 [--tiny] [--plant]

Run from the root of a checkout; the engine is imported from ``src``. The
command first measures ``setup_s``: the median CPU time (user plus system) of
several fresh interpreters running ``import aft.cli``, what every CLI call
pays before it parses. With ``--trace 1`` the same interpreters run under
``-X importtime`` and give ``cli.import_s`` and ``lp.import_s``. Then the
workload runs in one child process (``child.py``), sequentially, with one
client and no threads. Like the requests there, set-up is timed on the CPU
clock so that time the hypervisor gives to other guests does not count.

It prints every metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics traced. ``fail_ratio`` is
``failed / attempted``. Any instance that raised or disagreed with a
reference makes the exit code 1. Outside a checkout it exits with 2 and
prints no result.

``BENCHMARK.json`` at the repository root lists the workloads and metrics;
``predictions.json`` beside this file says which layer metric should move
which end-to-end metric on which workload. Result files and span files go to
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 11
SETUP_RUNS_TINY = 3
# Whole-command limit; the child gets what set-up leaves of it.
DEADLINE_S = 175


def checkout_root():
    """The checkout this command runs in, or None outside one."""
    root = os.getcwd()
    if os.path.isfile(os.path.join(root, "src", "aft", "cli.py")):
        return root
    return None


def engine_env(root, seed=None):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if seed is not None:
        env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        try:
            out[name.strip()] = int(cumulative) / 1e6
        except ValueError:
            continue  # the header line
    return out


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(root, importtime: bool, runs: int):
    """Median CPU time of fresh ``import aft.cli`` interpreters; with
    ``importtime`` also the median cumulative import times of ``aft`` plus
    ``aft.cli`` and of ``aft.lp``."""
    env = engine_env(root)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import aft.cli"]
    # One unmeasured run writes the bytecode caches, which users have warm.
    subprocess.run(cmd, env=env, cwd=root, stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60)
    setup, cli, lp = [], [], []
    for _ in range(runs):
        start = children_cpu_s()
        done = subprocess.run(
            cmd, env=env, cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True, timeout=60
        )
        setup.append(children_cpu_s() - start)
        if importtime:
            times = import_times(done.stderr)
            cli.append(times.get("aft", 0.0) + times.get("aft.cli", 0.0))
            lp.append(times.get("aft.lp", 0.0))
    layers = {}
    if importtime:
        layers = {"cli.import_s": (statistics.median(cli), "s"), "lp.import_s": (statistics.median(lp), "s")}
    return statistics.median(setup), layers


def run_child(root, args, budget_s):
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    cmd += ["--tiny"] * args.tiny + ["--plant"] * args.plant
    done = subprocess.run(
        cmd, env=engine_env(root, args.seed), cwd=root, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=budget_s,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"workload process failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, in milliseconds")
    parser.add_argument("--plant", action="store_true", help="plant a wrong answer; the check must fail")
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so a running subprocess is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = time.perf_counter()
    root = checkout_root()
    if root is None:
        print("error: run from the root of an aft checkout (no src/aft/cli.py here)", file=sys.stderr)
        return 2

    runs = SETUP_RUNS_TINY if args.tiny else SETUP_RUNS
    setup_s, import_layers = measure_setup(root, bool(args.trace), runs)
    child = run_child(root, args, DEADLINE_S - (time.perf_counter() - started))

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    metrics.update((name, (m["value"], m["unit"])) for name, m in child["metrics"].items())
    metrics.update(import_layers)

    attempted, failed = child["attempted"], child["failed"]
    info = dict(child["info"], fail_ratio=failed / attempted, failures=child["failures"])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump({"info": info, "metrics": metrics}, handle, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':28s} {failed / attempted:14.6g} ratio  ({failed} of {attempted})")
    if "tail_percentile" in info:
        print(f"latency_ms_tail is p{info['tail_percentile']} of {info['latency_samples']} samples")
    for failure in child["failures"]:
        print(f"FAILED: {json.dumps(failure)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
