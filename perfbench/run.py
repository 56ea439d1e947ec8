"""Run one masktab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a masktab source tree; the library is imported from
./src, never from an installed copy. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics in BENCHMARK.json; with
--trace 1 they are the per-layer metrics of one traced run. The lines before
it give the machine record and a readable table.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# One BLAS thread: the network's matrices are small enough that a second
# thread does not help (60 baseline epochs: 0.78 s on one thread, 0.90 s on
# two, 2-core Xeon), and a single busy core leaves the run less exposed to
# whatever else the machine is doing.
BLAS_THREADS = 1


def pin_environment() -> int:
    """Fix the BLAS thread count and drop MASKTAB_SEED.

    Must run before numpy is imported. MASKTAB_SEED would silently replace
    every seed the benchmark passes to the CLI.
    """
    if os.environ.pop("MASKTAB_SEED", None) is not None:
        print("perfbench: cleared MASKTAB_SEED, which would override the workload seed",
              file=sys.stderr)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def machine_record(threads: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
    }


def import_library():
    """Put ./src first on the path and check masktab comes from there."""
    src = ROOT / "src"
    if not (src / "masktab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no masktab sources under {src}; run from a masktab checkout")
    sys.path.insert(0, str(src))
    import masktab

    if Path(masktab.__file__).resolve().parent != (src / "masktab").resolve():
        sys.exit(f"perfbench: imported masktab from {masktab.__file__}, not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result(outcome, units: dict[str, str], trace: int) -> dict:
    """The result object printed as the last line."""
    values = outcome.layers if trace else outcome.metrics
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def print_table(workload: str, outcome, res: dict, table_units: dict[str, str]) -> None:
    for problem in outcome.problems:
        print("check failed:", problem)
    rows = [(name, m["value"], m["unit"]) for name, m in res["metrics"].items()]
    rows += [(name, v, table_units[name]) for name, v in outcome.table.items()]
    rows.append(("failed_frac", outcome.failed / outcome.attempted, "1"))
    for name, value, unit in rows:
        print(f"{workload:22s} {name:38s} {value:14.6g} {unit}")
    print(f"{workload:22s} {outcome.failed} of {outcome.attempted} operations failed a check")


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_environment()
    import_library()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    units = metric_units(args.trace)
    print("machine:", json.dumps(machine_record(threads), sort_keys=True))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = workloads.WORKLOADS[args.workload]
        outcome = run(args.seed, args.seconds, work, ROOT,
                      tracer=Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = result(outcome, units, args.trace)
    print_table(args.workload, outcome, res, workloads.TABLE_UNITS)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
