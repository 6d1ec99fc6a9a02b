"""Self-test of the benchmark at tiny sizes: every workload runs and is
correct, a planted wrong answer is caught, traced counts repeat exactly, and
the command refuses to run outside a checkout. Also pins the references to
textbook answers, without the engine.

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = ("_calls", "_steps", "_candidates", "_found", "_elems", "_applies", "_distinct")


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0.5", "--tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_complete(workload, trace):
    code, result = bench("--workload", workload, "--seed", "5", "--trace", trace)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace == "1" else END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_is_flagged(workload):
    code, result = bench("--workload", workload, "--seed", "5", "--trace", "0", "--plant")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_traced_counts_repeat_exactly():
    runs = [bench("--workload", "scan-exhaustive", "--seed", "9", "--trace", "1")[1] for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)} for r in runs
    ]
    assert counts[0] and counts[0] == counts[1]


def test_layer_self_times_fit_in_wall_time():
    _, result = bench("--workload", "battery", "--seed", "5", "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0 < layers <= m["trace.wall_s"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "benchmark/run.py", "--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode not in (0, None) and not done.stdout.strip()


def test_same_seed_same_inputs():
    def texts(seed):
        return [inst.text for inst in next(workloads.batches("scan-exhaustive", seed))]

    assert texts(3) == texts(3) and texts(3) != texts(4)


TWO_CYCLE = (("p", (), ("q",)), ("q", (), ("p",)))
CHAIN = workloads.negation_chain(2)


def test_program_reference_textbook_answers():
    ref = reference.ProgramRef(TWO_CYCLE)
    both = frozenset("pq")
    assert ref.kk() == (frozenset(), both) and ref.wf() == (frozenset(), both)
    assert ref.stable() == ref.supported() == {frozenset("p"), frozenset("q")}
    assert ref.partial_stable() == {(frozenset(), both), (frozenset("p"),) * 2, (frozenset("q"),) * 2}
    chain = reference.ProgramRef(CHAIN)
    true = frozenset(h for h, pos, neg in CHAIN if pos or not neg)  # a0 and the a{i} heads
    assert chain.wf()[0] == chain.wf()[1] == chain.kk()[0] and len(chain.wf()[0]) == 3 and true <= chain.wf()[0]


def test_adf_reference_matches_program_reference_on_images():
    program = (("p", ("q",), ()), ("p", (), ("q",)), ("q", ("q",), ()))
    lp, adf = reference.ProgramRef(program), reference.AdfRef(workloads.program_image(program))
    assert lp.kk() == adf.kk() == (frozenset(), frozenset("pq"))
    assert lp.wf() == adf.wf() == (frozenset("p"), frozenset("p"))
    assert lp.supported() == adf.supported() and lp.stable() == adf.stable() == {frozenset("p")}
    assert lp.partial_stable() == adf.partial_stable()
