"""The benchmark's own checks: seeded inputs are reproducible, deterministic
counts repeat, wrong answers are counted, and a checkout without sources
yields no result."""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

IN_PROCESS = ("subtype", "protocol", "explore")
COUNTS = ("subtyping.calls", "subtyping.leq_ratio",
          "subtyping.derivation_nodes",
          "global_types.projection_defined_ratio", "runtime.states_explored",
          "runtime.trace_steps", "syntax.input_nodes")


def _env(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _text_digest(workload, seed, hash_seed):
    """Digest of the first items' text, computed in a fresh interpreter."""
    code = (
        "import hashlib, sys, itertools\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import workloads\n"
        f"wl = workloads.WORKLOADS[{workload!r}]({ROOT!r})\n"
        f"items = itertools.islice(wl.stream({seed}), 6)\n"
        "print(hashlib.sha256(repr(list(items)).encode()).hexdigest())\n")
    done = subprocess.run([sys.executable, "-c", code], env=_env(hash_seed),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.strip()


def test_generated_text_is_byte_identical_for_a_seed():
    for name in IN_PROCESS:
        first = _text_digest(name, 7, 1)
        assert _text_digest(name, 7, 2) == first, name
        wl = workloads.WORKLOADS[name](ROOT)
        other = list(islice(wl.stream(8), 6))
        here = list(islice(wl.stream(7), 6))
        assert hashlib.sha256(repr(here).encode()).hexdigest() == first
        assert other != here, name


def test_generated_text_does_not_depend_on_mpst():
    code = (f"import sys\nsys.path.insert(0, {HERE!r})\n"
            "import generate, explore_pool\n"
            "explore_pool.read_pool()\n"
            "assert not any(m.startswith('mpst') for m in sys.modules)\n")
    subprocess.run([sys.executable, "-c", code], env=_env(0), check=True,
                   timeout=60)


def _traced_counts(workload, hash_seed):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, env=_env(hash_seed), capture_output=True, text=True,
        timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def test_deterministic_counts_repeat_across_runs():
    for name in IN_PROCESS:
        counts = _traced_counts(name, 1)
        assert counts == _traced_counts(name, 2), name
        assert counts["syntax.input_nodes"] > 0, name
        if name == "explore":
            assert counts["runtime.states_explored"] > 0


def test_wrong_answers_and_crashes_are_counted_and_do_not_stop_the_run():
    subtype = workloads.Subtype(ROOT)
    items = [
        ("p!l1(nat).end", "q!l1(nat).end", "leq"),  # refuted, claimed leq
        ("p!(", "end", None),                       # parse error
        ("p?l1(int).end", "p?l1(nat).end", "leq"),  # a real subtype pair
    ]
    phase = run.run_phase(subtype, iter(items), NullTracer(), math.inf)
    assert len(phase.latencies) == 3
    assert len(phase.errors) == 2
    assert phase.errors[0].startswith("WrongAnswer")

    explore = workloads.Explore(ROOT)
    stuck = ("safe", "@p q!l1(5).0 || @q q2?l2(x).0 || @q2 0")
    phase = run.run_phase(explore, iter([stuck]), NullTracer(), math.inf)
    assert len(phase.errors) == 1
    assert phase.errors[0].startswith("WrongAnswer")


def test_a_checkout_without_sources_gives_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "subtype", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
