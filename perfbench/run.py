#!/usr/bin/env python3
"""mrparse benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload short --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload.  ``--trace 1``
runs the workload twice in one process, untraced and then with every layer
boundary wrapped, and prints the per-layer metrics plus the tracing overhead
(traced minus untraced time of the same work).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment.  The full report, and in traced runs every span, is written
under ``.perfbench_out/``.

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import sys

# One BLAS thread: the workloads are closed-loop and single-client, and the
# matrices are small enough that more threads only add noise.  Must be set
# before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
# The rules workload measures rule solving, not the solution cache.
os.environ.pop("MRPARSE_CACHE_DIR", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_package():
    """Import mrparse from this checkout's src/ or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "mrparse", "__init__.py")):
        sys.exit(f"perfbench: no mrparse package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mrparse
    if os.path.dirname(os.path.dirname(os.path.abspath(mrparse.__file__))) != SRC:
        sys.exit(f"perfbench: imported mrparse from {mrparse.__file__}, not {SRC}")


def _git_revision() -> str | None:
    """HEAD of the checkout read from .git, without starting a process."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_digest() -> str:
    """sha256 over src/mrparse/*.py, naming the measured code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "mrparse")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment() -> dict:
    from importlib import metadata

    import numpy
    from mrparse import kernels

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "assignment_lane": "numba" if kernels.HAS_NUMBA else "numpy",
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("short", "long", "rules"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    import layers
    import workloads
    from tracer import Tracer

    run = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if not args.trace:
            outcome = run(args.seed, args.seconds, contextlib.nullcontext, workdir)
            outcome.finish()
            units = workloads.END_TO_END_UNITS
            values = outcome.metrics
        else:
            untraced = run(args.seed, args.seconds, contextlib.nullcontext, workdir,
                           overhead_only=True)
            tracer = Tracer(op_roots=layers.OP_ROOTS)

            @contextlib.contextmanager
            def traced():
                tracer.install(layers.boundaries())
                try:
                    yield
                finally:
                    tracer.uninstall()

            outcome = run(args.seed, args.seconds, traced, workdir)
            outcome.finish()
            overhead_s = outcome.basis_s - untraced.basis_s
            calls = tracer.calls()
            silent = [name for name in workloads.EXPECTED_BOUNDARIES[args.workload]
                      if calls.get(name, 0) == 0]
            outcome.check(not silent, f"boundaries never entered: {silent}")
            units = layers.per_layer_metric_units()
            values = layers.per_layer_values(tracer, overhead_s,
                                             overhead_s / untraced.basis_s)
            outcome.notes["end_to_end_traced"] = dict(outcome.metrics)
            outcome.notes["untraced_basis_s"] = untraced.basis_s
            tracer.dump(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": outcome.problems,
              "figures": outcome.figures, "notes": outcome.notes, "result": result}
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=float)
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "figures": outcome.figures}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
