"""Command-line entry points and the end-to-end pipeline.

Stages read and write plain files, every numeric artifact is serialised
deterministically, and a manifest records the seeds and content hashes of
everything a pipeline run produced. Stage seeds are derived from the global
seed by hashing "<seed>:<stage label>" with SHA-256 and taking the first
8 bytes, so no two stages ever share a random stream.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
The environment variable MASKTAB_SEED overrides any configured seed. Every
command, and run_pipeline, holds numpy's BLAS to one thread while it runs
(blas.one_thread), so its bytes do not depend on the thread count.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, blas, jsonio, nn_core, trainer, vimp
from .data_model import (
    DATASET_FILES,
    RAW_FILES,
    RawTable,
    SplitAssignment,
    csv_rows,
    first_violation,
    load_dataset,
    load_raw_table,
    save_dataset,
    save_raw_table,
    validate,
    write_csv,
)
from .jsonio import SettingError, derive_seed, setting
from .metrics import METRIC_NAMES, EvalReport, evaluate_predictions, winner_ranking
from .preprocess import PreprocessConfig, preprocess_raw
from .synthgen import SynthConfig, generate
from .trainer import MODEL_KINDS, TrainConfig, TrainHistory, train_model
from .vimp import IMPORTANCE_MODES, importance_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PIPELINE_STAGES = ("generate", "preprocess", "train", "evaluate", "importance", "report")


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def resolve_seed(configured: int) -> int:
    """The configured seed, unless MASKTAB_SEED overrides it."""
    env = os.environ.get("MASKTAB_SEED")
    return configured if env is None else _settings("MASKTAB_SEED", int, env)


def _load_json(path, what: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    try:
        return jsonio.load(p)
    except Exception as exc:
        raise ConfigError(f"could not parse {what} {p}: {exc}") from exc


def _require(path, what: str, hint: str, exists=Path.is_file) -> Path:
    p = Path(path)
    if not exists(p):
        raise DataError(f"{what} not found: {p} ({hint})")
    return p


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _settings(what: str | None, build, *args, **kwargs):
    """build(*args, **kwargs), with a setting it rejects reported as a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}" if what else str(exc)) from exc


def _load_settings(cls, path, what: str):
    """The ``cls`` document at ``path`` (or defaults), with any MASKTAB_SEED as its seed."""
    doc = _settings(what, cls.from_dict, _load_json(path, what) if path else {})
    return _settings(f"{what} with MASKTAB_SEED", dataclasses.replace, doc,
                     seed=resolve_seed(doc.seed))


@dataclass
class ImportanceConfig(jsonio.Document):
    """Permutation-importance settings: the pipeline's ``importance`` section."""

    VERSION = None

    mode: str = setting(IMPORTANCE_MODES, "grouped")
    repeats: int = setting("[1, inf)", 30)


@dataclass
class PipelineConfig(jsonio.Document):
    """Every setting of ``masktab pipeline``; stage seeds replace the synth and train seeds."""

    VERSION = None

    seed: int = setting("(-inf, inf)", 0)  # only ever hashed into the stage seeds
    synth: SynthConfig = field(default_factory=SynthConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    models: tuple[str, ...] = setting(MODEL_KINDS, MODEL_KINDS)
    importance: ImportanceConfig = field(default_factory=ImportanceConfig)
    threshold: float = setting("[0, 1]", 0.5)

    def check(self):
        if not self.models:
            raise SettingError("models", "must name at least one model")


# ---------------------------------------------------------------------------
# Stage bodies, shared by the commands and the pipeline
# ---------------------------------------------------------------------------

def _generate_and_save(cfg: SynthConfig, out) -> RawTable:
    raw = _settings(None, generate, cfg)  # e.g. a missingness target the blocks cannot reach
    save_raw_table(raw, out)
    return raw


# what reading a malformed or missing input file raises
_UNREADABLE = (IndexError, KeyError, OSError, StopIteration, TypeError, ValueError, csv.Error)


def _preprocess_and_save(raw_dir, out, pre: PreprocessConfig, seed: int):
    try:
        raw = load_raw_table(raw_dir)
    except _UNREADABLE as exc:
        raise DataError(f"unreadable raw table {raw_dir}: {exc}") from exc
    try:
        ds, split, report = preprocess_raw(
            raw, test_fraction=pre.test_fraction, val_fraction_of_train=pre.val_fraction_of_train,
            seed=seed,
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    out = Path(out)
    save_dataset(ds, out)
    split.save(out / "split.json")
    report.save(out / "preprocess_report.json")
    return ds, split


def _load_dataset_and_split(dataset_dir, split_path):
    ds_dir = _require(dataset_dir, "dataset directory", "run `masktab preprocess` first",
                      Path.is_dir)
    split_file = _require(split_path, "split file", "run `masktab preprocess` first")
    try:
        ds, split = load_dataset(ds_dir), SplitAssignment.load(split_file)
    except _UNREADABLE as exc:
        raise DataError(f"unreadable dataset {ds_dir} or split {split_file}: {exc}") from exc
    bad = validate(ds)
    if bad:
        raise DataError(f"invalid dataset {ds_dir}: {first_violation(bad)}")
    bad = split.violations(ds.blocks)
    if bad:
        raise DataError(f"invalid split for dataset: {first_violation(bad)}")
    return ds, split


def _history_path(ckpt: Path) -> Path:
    return ckpt.parent / f"{ckpt.stem}_history.json"


def _train_and_save(ds, split, cfg: TrainConfig, model: str, out, encoder=None) -> TrainHistory:
    try:  # e.g. a split preprocessed with --val-fraction 0 has no validation rows
        params, history = train_model(ds, split, cfg, model, encoder=encoder)
    except ValueError as exc:
        raise DataError(f"cannot train {model} on this split: {exc}") from exc
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nn_core.save_checkpoint(params, out, extra={"model": model, "seed": cfg.seed})
    history.save(_history_path(out))
    return history


def _load_checkpoint(ckpt, ds) -> nn_core.NetworkParams:
    """The checkpoint's network, which must read the dataset's columns and
    predict its responses with a ``cont`` and a ``bin`` head."""
    try:
        params, _ = nn_core.load_checkpoint(ckpt)
    except (TypeError, ValueError) as exc:  # TypeError: a required key left out
        raise DataError(f"unreadable checkpoint {ckpt}: {exc}") from exc
    for head in ("cont", "bin"):
        if head not in params.heads:
            raise DataError(f"checkpoint {ckpt} has no {head} head")
        width = params.heads[head][-1].spec.out_dim
        if width != ds.n_responses:
            raise DataError(f"checkpoint {ckpt} head {head!r} predicts {width} responses, "
                            f"the dataset has {ds.n_responses}")
    if params.input_dim != ds.n_features:
        raise DataError(f"checkpoint {ckpt} reads {params.input_dim} input columns, "
                        f"the dataset has {ds.n_features}")
    return params


def _evaluate_and_save(ds, split, ckpt, threshold: float, out) -> EvalReport:
    params = _load_checkpoint(ckpt, ds)
    rows = split.test_rows
    if rows.size == 0:
        raise DataError("cannot evaluate on the split's test rows: empty row set")
    cont_hat, bin_prob = trainer.predict(params, ds.X[rows])
    report = evaluate_predictions(
        ds.Y_cont[rows], ds.Y_bin[rows], ds.M[rows], cont_hat, bin_prob,
        ds.response_names, threshold=threshold,
    )
    report.save(out)
    return report


def _importance_and_save(ds, split, ckpt, imp: ImportanceConfig, seed: int, out):
    params = _load_checkpoint(ckpt, ds)
    try:
        report = importance_report(
            params, ds, split.test_rows, mode=imp.mode, n_repeats=imp.repeats, seed=seed,
        )
    except ValueError as exc:
        raise DataError(f"cannot compute importance on the split's test rows: {exc}") from exc
    report.save(out)
    return report


# ---------------------------------------------------------------------------
# Individual commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load_settings(SynthConfig, args.config, "synthesis config")
    raw = _generate_and_save(cfg, args.out)
    print(f"generate: wrote raw table ({raw.n_samples} samples) to {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    pre = _settings(None, PreprocessConfig, args.test_fraction, args.val_fraction)
    seed = resolve_seed(args.seed)
    if seed < 0:  # the split seed seeds PCG64, which takes no negative seed
        flag = "MASKTAB_SEED" if "MASKTAB_SEED" in os.environ else "--seed"
        raise ConfigError(f"{flag}: seed must lie in [0, inf), got {seed}")
    raw_dir = _require(args.inp, "raw table directory", "run `masktab generate` first",
                       Path.is_dir)
    ds, split = _preprocess_and_save(raw_dir, args.out, pre, seed)
    print(
        f"preprocess: {ds.n_samples} rows, {ds.n_features} encoded columns, "
        f"{len(split.test_rows)} test rows -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_settings(TrainConfig, args.config, "train config")
    ds, split = _load_dataset_and_split(args.dataset, args.split)
    history = _train_and_save(ds, split, cfg, args.model, args.out)
    print(
        f"train[{args.model}]: stopped at epoch {history.stopped_epoch}, "
        f"best epoch {history.best_epoch}, best val loss "
        f"{history.best_val_loss:.6f} -> {args.out}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    threshold = _settings(None, PipelineConfig, threshold=args.threshold).threshold
    ds, split = _load_dataset_and_split(args.dataset, args.split)
    ckpt = _require(args.ckpt, "checkpoint", "run `masktab train` first")
    report = _evaluate_and_save(ds, split, ckpt, threshold, args.out)
    avg = report.averages()
    shown = ", ".join(
        f"{k}={avg[k]:.4f}" if avg[k] is not None else f"{k}=n/a" for k in METRIC_NAMES
    )
    print(f"evaluate: {shown} -> {args.out}")
    return EXIT_OK


def cmd_importance(args) -> int:
    imp = _settings(None, ImportanceConfig, args.mode, args.repeats)
    seed = resolve_seed(args.seed)
    ds, split = _load_dataset_and_split(args.dataset, args.split)
    ckpt = _require(args.ckpt, "checkpoint", "run `masktab train` first")
    report = _importance_and_save(ds, split, ckpt, imp, seed, args.out)
    ranking = vimp.rank_importance(report)
    top = ranking["regression"][:3]
    shown = ", ".join(f"{e['group']} (+{e['importance_pct']:.1f}%)" for e in top)
    print(f"importance[{imp.mode}]: top regression groups: {shown} -> {args.out}")
    return EXIT_OK


def _written_report_files(out_dir: Path) -> dict[str, Path]:
    return {
        "json": out_dir / "report.json",
        "csv": out_dir / "report.csv",
        "txt": out_dir / "report_summary.txt",
    }


def build_report(artifact_dir) -> tuple[dict, str]:
    """Aggregate evaluation artifacts into the model-comparison report."""
    art = Path(artifact_dir)
    eval_files = sorted(art.glob("eval_*.json"))
    if not eval_files:
        raise DataError(f"no eval_*.json artifacts in {art} (run `masktab evaluate` first)")
    reports = {}
    for p in eval_files:
        try:
            reports[p.stem[len("eval_"):]] = EvalReport.load(p)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"unreadable evaluation artifact {p}: {exc}") from exc
    try:
        ranking = winner_ranking(reports)
    except ValueError as exc:
        raise DataError(f"cannot rank the evaluation artifacts in {art}: {exc}") from exc
    rows = []
    for name in sorted(reports):
        avg = reports[name].averages()
        rows.append({"model": name, **{m: avg[m] for m in METRIC_NAMES}})

    width = max(len(r["model"]) for r in rows)
    lines = [
        f"{'model'.ljust(width)}  " + "  ".join(f"{m.upper():>8}" for m in METRIC_NAMES)
    ]
    for r in rows:
        cells = "  ".join(
            f"{r[m]:8.4f}" if r[m] is not None else f"{'n/a':>8}" for m in METRIC_NAMES
        )
        lines.append(f"{r['model'].ljust(width)}  {cells}")
    lines.append("")
    lines.append("win percentages:")
    for name, pct in sorted(ranking["win_percentages"].items()):
        lines.append(f"  {name.ljust(width)}  {pct:6.1f}%")
    text = "\n".join(lines) + "\n"
    aggregate = {"version": 1, "models": rows, "ranking": ranking}
    return aggregate, text


def write_report(artifact_dir) -> tuple[dict, str]:
    """Build the comparison report and write its JSON/CSV/text variants."""
    aggregate, text = build_report(artifact_dir)
    files = _written_report_files(Path(artifact_dir))
    jsonio.dump(aggregate, files["json"])
    win_pct = aggregate["ranking"]["win_percentages"]
    models = aggregate["models"]
    write_csv(files["csv"], ["model", *METRIC_NAMES, "win_pct"], csv_rows(
        [[r[k] for r in models] for k in ("model", *METRIC_NAMES)]
        + [[win_pct[r["model"]] for r in models]]))
    with jsonio.atomic_write(files["txt"]) as fh:
        fh.write(text)
    return aggregate, text


def cmd_report(args) -> int:
    _, text = write_report(args.artifacts)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass
class StageRecord(jsonio.Document):
    """A completed stage: its config fingerprint and the sha256 of each output,
    keyed by its path under the artifact directory."""

    VERSION = None

    config: str
    outputs: dict[str, str]


@dataclass
class Manifest(jsonio.Document):
    """``manifest.json``: the seeds of a pipeline run and its completed stages."""

    package_version: str
    global_seed: int
    stage_seeds: dict[str, int]
    stages: dict[str, StageRecord] = field(default_factory=dict)
    completed: tuple[str, ...] = ()


def _open_manifest(path: Path, fresh: Manifest) -> Manifest:
    """The manifest at ``path`` when it was written with ``fresh``'s version
    and seeds, else ``fresh``; one stderr line when it cannot be read."""
    if not path.exists():
        return fresh
    try:
        old = Manifest.load(path)
    except (TypeError, ValueError):  # not JSON, not UTF-8, or not a manifest
        print(f"masktab: manifest {path} is unreadable; every stage reruns", file=sys.stderr)
        return fresh
    return old if dataclasses.replace(old, stages={}, completed=()) == fresh else fresh


def _fingerprint(obj) -> str:
    return hashlib.sha256(jsonio.dumps(obj).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _stage_scope(name: str):
    """Re-raise stage failures with the failing stage named."""
    try:
        yield
    except (ConfigError, DataError, FloatingPointError) as exc:
        raise type(exc)(f"stage '{name}' failed: {exc}") from exc
    except Exception as exc:
        raise DataError(f"stage '{name}' failed: {exc}") from exc


def _run_stage(manifest: Manifest, root: Path, force: bool, name: str, config_fp: str,
               outputs: list[Path], run) -> None:
    """Run a pipeline stage unless its config and every one of its outputs
    are as recorded, then record it."""
    files = {str(p.relative_to(root)): p for p in outputs}
    rec = manifest.stages.get(name)
    if (not force and rec is not None and rec.config == config_fp
            and rec.outputs.keys() == files.keys()
            and all(p.is_file() and sha256_file(p) == rec.outputs[k] for k, p in files.items())):
        return
    with _stage_scope(name):
        run()
    manifest.stages[name] = StageRecord(config_fp, {k: sha256_file(p) for k, p in files.items()})
    manifest.completed = tuple(s for s in PIPELINE_STAGES if s in manifest.stages)
    manifest.save(root / "manifest.json")


@blas.one_thread()
def run_pipeline(config: dict, out_dir, force: bool = False) -> Path:
    """Run generate -> preprocess -> train -> evaluate -> importance -> report.

    ``config`` holds PipelineConfig's keys; every setting is checked before
    the first stage runs. Completed stages with unchanged config and intact
    outputs are skipped unless force is set. Returns the artifact directory.
    """
    cfg = _settings("pipeline config", PipelineConfig.from_dict, config)
    global_seed = resolve_seed(cfg.seed)
    stage_seeds = {
        "generate": derive_seed(global_seed, "generate"),
        "preprocess": derive_seed(global_seed, "preprocess"),
        **{f"train:{m}": derive_seed(global_seed, f"train:{m}") for m in cfg.models},
        "importance": derive_seed(global_seed, "importance"),
    }
    synth_cfg = dataclasses.replace(cfg.synth, seed=stage_seeds["generate"])
    train_cfgs = {m: dataclasses.replace(cfg.train, seed=stage_seeds[f"train:{m}"])
                  for m in cfg.models}
    # the pretrained kinds fine-tune one encoder, pre-trained with the train
    # config of the last of them in MODEL_KINDS order: pretrained-unfrozen's
    # when requested, so that model stays what `masktab train` gives
    pretrained = [m for m in MODEL_KINDS if m != "baseline" and m in cfg.models]

    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = _open_manifest(root / "manifest.json",
                              Manifest(__version__, global_seed, stage_seeds))
    raw_dir = root / "raw"
    ds_dir = root / "dataset"
    ckpts = {m: root / f"ckpt_{m}.json" for m in cfg.models}

    # the stages that run share one parse of the dataset
    load = functools.cache(lambda: _load_dataset_and_split(ds_dir, ds_dir / "split.json"))

    gen_fp = _fingerprint(synth_cfg.to_dict())
    _run_stage(
        manifest, root, force, "generate", gen_fp,
        [raw_dir / n for n in RAW_FILES],
        lambda: _generate_and_save(synth_cfg, raw_dir),
    )

    pre_fp = _fingerprint(
        {"pre": cfg.preprocess.to_dict(), "seed": stage_seeds["preprocess"], "raw": gen_fp}
    )
    _run_stage(
        manifest, root, force, "preprocess", pre_fp,
        [ds_dir / n for n in (*DATASET_FILES, "split.json", "preprocess_report.json")],
        lambda: _preprocess_and_save(raw_dir, ds_dir, cfg.preprocess, stage_seeds["preprocess"]),
    )

    # all requested models train under one stage
    pretrain_history = root / "pretrain_history.json"

    def train_all():
        ds, split = load()
        encoder = None
        if pretrained:
            encoder, history = trainer.pretrain_encoder(ds, split, train_cfgs[pretrained[-1]])
            history.save(pretrain_history)
        for m in cfg.models:
            _train_and_save(ds, split, train_cfgs[m], m, ckpts[m], encoder=encoder)

    train_fp = _fingerprint({
        m: _fingerprint({"train": train_cfgs[m].to_dict(), "dataset": pre_fp, "model": m})
        for m in cfg.models
    })
    _run_stage(
        manifest, root, force, "train", train_fp,
        [p for m in cfg.models for p in (ckpts[m], _history_path(ckpts[m]))]
        + ([pretrain_history] if pretrained else []),
        train_all,
    )

    def evaluate_all():
        ds, split = load()
        reports = {
            m: _evaluate_and_save(ds, split, ckpts[m], cfg.threshold, root / f"eval_{m}.json")
            for m in cfg.models
        }
        jsonio.dump(winner_ranking(reports), root / "winners.json")

    eval_fp = _fingerprint({"train": train_fp, "threshold": cfg.threshold})
    _run_stage(
        manifest, root, force, "evaluate", eval_fp,
        [root / f"eval_{m}.json" for m in cfg.models] + [root / "winners.json"],
        evaluate_all,
    )

    # importance for the winning model
    ranking = jsonio.load(root / "winners.json")
    best = max(sorted(ranking["win_percentages"]), key=lambda m: ranking["win_percentages"][m])
    imp_fp = _fingerprint(
        {"imp": cfg.importance.to_dict(), "seed": stage_seeds["importance"], "eval": eval_fp,
         "best": best}
    )
    _run_stage(
        manifest, root, force, "importance", imp_fp, [root / "importance.json"],
        lambda: _importance_and_save(
            *load(), ckpts[best], cfg.importance, stage_seeds["importance"],
            root / "importance.json",
        ),
    )

    rep_fp = _fingerprint({"eval": eval_fp, "imp": imp_fp})
    _run_stage(
        manifest, root, force, "report", rep_fp, list(_written_report_files(root).values()),
        lambda: write_report(root),
    )
    return root


def cmd_pipeline(args) -> int:
    run_pipeline(_load_json(args.config, "pipeline config") if args.config else {}, args.out,
                 force=args.force)
    print(f"pipeline: all stages complete -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masktab",
        description="Masked multi-task learning on partially observed tabular responses.",
    )
    parser.add_argument("--version", action="version", version=f"masktab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic raw table")
    p.add_argument("--config", help="synthesis config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output raw-table directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="encode a raw table and split it")
    p.add_argument("--in", dest="inp", required=True, help="raw-table directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=PreprocessConfig.test_fraction)
    p.add_argument("--val-fraction", type=float, default=PreprocessConfig.val_fraction_of_train,
                   help="fraction of training rows held out for validation")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--split", required=True, help="split JSON file")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--config", help="train config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test rows")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--threshold", type=float, default=PipelineConfig.threshold)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="permutation variable importance")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--mode", choices=IMPORTANCE_MODES, default=ImportanceConfig.mode)
    p.add_argument("--repeats", type=int, default=ImportanceConfig.repeats)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("report", help="summarise evaluation artifacts")
    p.add_argument("artifacts", help="artifact directory holding eval_*.json")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", help="pipeline config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--force", action="store_true", help="rerun stages even if current")
    p.set_defaults(func=cmd_pipeline)
    return parser


@blas.one_thread()
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"masktab {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"masktab {args.command}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"masktab {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
