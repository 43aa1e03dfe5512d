"""Layer-attributed benchmark of the XPath engine.

Run from the repository root::

    python3 perfbench/run.py --workload paper-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A wrong answer or a broken counter identity prints ``"correct": false``
and exits with code 1.  The program is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

WORKLOADS = ("paper-hot", "oneshot-cold", "served-mix")

HASH_SEED = "0"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt one reference answer (self-test)")
    arguments = parser.parse_args(argv)
    # A terminated run still unwinds, so the server it started stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # One fixed string-hash layout for every run, and for the server
        # process, which inherits the environment.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    sys.path.insert(0, SOURCE)
    import harness  # noqa: E402 - needs the program on sys.path

    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{arguments.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    run = harness.Run(arguments.seed, arguments.seconds,
                      bool(arguments.trace), arguments.size, workdir,
                      arguments.corrupt_reference)
    try:
        metrics, attempted, failed = _workload(arguments.workload)(run)
    except (harness.WrongAnswer, harness.BrokenIdentity) as error:
        print(f"error: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.checked, 1),
                          "failed": 0, "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    kind = "per_layer" if arguments.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}
    unknown = set(metrics) - set(units)
    if unknown:
        print(f"error: undeclared metrics {sorted(unknown)}", file=sys.stderr)
        return 3
    # A traced run reports 0 for a layer the workload does not run.
    result_metrics = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"provenance": provenance(arguments),
                      "calibration": run.calibration_summary(),
                      "checked_answers": run.checked}))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def _workload(name):
    if name == "served-mix":
        from served import served_mix
        return served_mix
    import inprocess
    return {"paper-hot": inprocess.paper_hot,
            "oneshot-cold": inprocess.oneshot_cold}[name]


def provenance(arguments):
    """Seed, host and program version recorded with every result."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SOURCE, "repro")
    for directory, subdirs, files in sorted(os.walk(package)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SOURCE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "size": arguments.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


if __name__ == "__main__":
    sys.exit(main())
