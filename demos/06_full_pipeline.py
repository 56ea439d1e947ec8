"""The whole workflow as one reproducible pipeline run.

generate -> preprocess -> train (three models) -> evaluate -> winner ranking
-> permutation importance for the winner -> comparison report. Every stage
seed derives from the global seed, every artifact is content-hashed into the
manifest, and rerunning with the same config is a no-op.

Equivalent CLI: masktab pipeline --config pipeline.json --out artifacts/
"""

import json
import tempfile
from pathlib import Path

from masktab.cli import run_pipeline

config = {
    "seed": 42,
    "synth": {"n_samples": 140, "n_sites": 40, "n_responses": 6, "weather_lag_days": 12},
    "train": {
        "hidden_dims": [64, 32], "max_epochs": 120, "patience": 15,
        "ae": {"encoder_dims": [96, 48], "max_epochs": 40, "patience": 8},
    },
    "models": ["baseline", "pretrained-frozen", "pretrained-unfrozen"],
    "importance": {"mode": "grouped", "repeats": 10},
}

with tempfile.TemporaryDirectory(prefix="masktab_demo_") as tmp:
    out = Path(tmp) / "artifacts"
    run_pipeline(config, out)

    manifest = json.loads((out / "manifest.json").read_text())
    print(f"artifacts in {out}")
    print("stages completed:", ", ".join(manifest["completed"]))
    print("stage seeds derived from the global seed:")
    for stage, seed in manifest["stage_seeds"].items():
        print(f"  {stage:24} {seed}")
    print()

    print((out / "report_summary.txt").read_text())

    winners = json.loads((out / "winners.json").read_text())
    best = max(winners["win_percentages"], key=winners["win_percentages"].get)
    print(f"importance.json was computed for the overall winner: {best}")

    before = (out / "manifest.json").read_bytes()
    run_pipeline(config, out)  # second run: every stage is current, nothing recomputed
    print("rerun with unchanged config: manifest byte-identical =",
          (out / "manifest.json").read_bytes() == before)
