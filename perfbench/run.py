"""Run one benchmark workload once and print its result.

    python3 perfbench/run.py --workload nar_image_32x32 --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root; it imports the package from `src/`.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.  The line before it
records the host.  Exit code 0 means the run completed and its outputs
passed every check.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

# One BLAS thread and one CLI worker, fixed before numpy loads: a score
# matmul on a 2-CPU host moved 100x between BLAS thread settings.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NAR_THREADS": "1"}


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f
                if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": threads,
            "pinned_env": PINNED_ENV}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    if not (SRC / "neighborgen" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import neighborgen
    if Path(neighborgen.__file__).resolve().parent != SRC / "neighborgen":
        print(f"imported neighborgen from {neighborgen.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from checks import CheckError
    from tracing import Tracer
    from workloads import WORKLOADS, run

    args = parse_args(argv, WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-s{args.seed}-t{args.trace}-", dir=WORK))
    tracer = Tracer() if args.trace else None
    report = {"attempted": 0, "failed": 0, "metrics": {}}
    correct = True
    try:
        run(args.workload, args.seed, args.seconds, tracer, work, T_START,
            report)
    except CheckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = report.pop("layers", {}) if args.trace else report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if correct and missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        correct = False
    info = {k: v for k, v in report.items() if k != "metrics"}
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                samples_per_s=report["metrics"].get("samples_per_s"),
                total_s=time.perf_counter() - T_START)
    print(json.dumps({"host": host_facts(), "run": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
