"""Record the pipeline's accuracy for some seeds into reference.json.

    python3 perfbench/record_reference.py 0 1 2 ...

For each seed, runs the pipeline-default workload's pipeline once and stores
the winning model's test-row R2 and AUC. Benchmark runs at a recorded seed
then check their own values against it. Rerun it only when a change is meant
to alter what the pipeline computes, and say so in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main(seeds: list[int]) -> int:
    run.pin_environment()
    run.import_library()
    import workloads

    ref = workloads.load_reference()
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            cfg = workloads._write_json(Path(d) / "pipeline.json",
                                        workloads.pipeline_config(seed, workloads.FULL))
            rc = workloads._call_cli(["pipeline", "--config", str(cfg), "--out", f"{d}/out"])
            if rc != 0:
                sys.exit(f"pipeline at seed {seed} exited with {rc}")
            ref["seeds"][str(seed)] = workloads.winner_averages(Path(d) / "out")
        print(seed, ref["seeds"][str(seed)], flush=True)
    ref["seeds"] = dict(sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))
