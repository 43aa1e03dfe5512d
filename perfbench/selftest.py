"""Harness self-test: tiny runs of every workload.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that each workload, traced and untraced, emits every metric
``BENCHMARK.json`` declares with its unit and a well-formed name; that
the traced run reports self time for each layer the workload runs; that
a corrupted reference answer fails the run; and that the benchmark
refuses to run without the program's source.  Exits 0 when all pass.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Layers whose self time must be positive in each workload's traced run:
#: those whose public calls the workload's requests make.  A warm
#: ``evaluate`` does its plan-cache lookup and page reads inside the
#: engine's span, so ``paper-hot`` charges only the engine.
LAYERS_RUN = {
    "paper-hot": ("engine",),
    "oneshot-cold": ("compiler", "engine", "storage"),
    "served-mix": ("engine", "collection", "server"),
}


def bench(root, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = []
    for workload in LAYERS_RUN:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(ROOT, workload, trace)
            result = last_json(done.stdout) if done.returncode == 0 else None
            if result is None or not result.get("correct"):
                problems.append(f"{workload} trace={trace}: exit "
                                f"{done.returncode} {done.stderr[-500:]}")
                continue
            if (set(result) != {"correct", "attempted", "failed", "metrics"}
                    or result["attempted"] < 1 or result["failed"]):
                problems.append(f"{workload} trace={trace}: bad result keys "
                                f"or counts")
            metrics = result["metrics"]
            for metric in declared[kind]:
                got = metrics.get(metric["name"])
                if (got is None or got.get("unit") != metric["unit"]
                        or not isinstance(got.get("value"), float)
                        or not math.isfinite(got["value"])):
                    problems.append(f"{workload}: {metric['name']} missing "
                                    f"or malformed: {got}")
            for name in metrics:
                if not NAME.fullmatch(name) or len(name) > 64:
                    problems.append(f"{workload}: bad metric name {name!r}")
            if trace:
                for layer in LAYERS_RUN[workload]:
                    if metrics.get(f"self.{layer}_ms", {}).get("value", 0) <= 0:
                        problems.append(f"{workload}: no self time for "
                                        f"{layer}")
        done = bench(ROOT, workload, 0, "--corrupt-reference")
        result = last_json(done.stdout) if done.stdout.strip() else None
        if done.returncode == 0 or (result and result.get("correct")):
            problems.append(f"{workload}: corrupted reference not detected")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "oneshot-cold", 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("ran without the program source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
