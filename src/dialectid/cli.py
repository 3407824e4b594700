"""Command-line entry point wiring the pipeline end to end.

Subcommands: synth-corpus, extract, train, evaluate, grid-search, report,
importance.  Exit codes: 0 success, 1 runtime or data failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import evaluation, features, forest, synth
from .config import PipelineConfig, load_config
from .audio import MAX_RATE, MIN_RATE
from .errors import (DialectIdError, EmptyMatrix, MalformedAliasTable, SplitRecordError,
                     decode_utf8)
from .textgrid import parse_alias_table


def _load_pipeline_config(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _forest_params(cfg: PipelineConfig, args) -> forest.ForestParams:
    given = {"n_estimators": args.n_estimators, "max_features": args.max_features,
             "seed": args.seed, "bootstrap": False if args.no_bootstrap else None}
    return dataclasses.replace(cfg.forest, **{k: v for k, v in given.items() if v is not None})


def _read_dataset(path: str) -> features.Dataset:
    with open(path, "rb") as fh:
        return features.read_features_csv(fh.read())


def _project_for_model(dataset: features.Dataset,
                       model: forest.RandomForestModel) -> features.Dataset:
    if model.class_names != dataset.class_names:
        raise forest.DimensionMismatch(
            f"model classes {', '.join(model.class_names)} differ from the features "
            f"file's {', '.join(dataset.class_names)}")
    for group, idx in features.GROUP_INDICES.items():
        names = tuple(features.FEATURE_NAMES[i] for i in idx)
        if names == model.feature_names:
            return features.select_group(dataset, group)
    raise forest.DimensionMismatch(
        "model feature names do not match any feature group of the CSV")


def cmd_synth_corpus(args) -> int:
    specs = synth.dialect_profile(args.profile)
    manifest = synth.generate_corpus(
        specs, args.speakers, args.vowels_per_speaker, args.seed, args.out,
        sample_rate=args.sample_rate)
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    cfg = _load_pipeline_config(args)
    tier = args.tier or cfg.tier_name
    aliases = None
    alias_path = args.alias_table or cfg.alias_table
    if alias_path:
        with open(alias_path, "rb") as fh:
            aliases = parse_alias_table(decode_utf8(fh.read(), MalformedAliasTable,
                                                f"alias table {alias_path}"))
    dataset, failures = features.build_dataset(args.manifest, tier, aliases, cfg.acoustics)
    for message in failures:
        print(f"failed: {message}", file=sys.stderr)
    print(f"extracted {len(dataset)} vowels, {len(failures)} failures",
          file=sys.stderr)
    if len(dataset) == 0:
        print("error: no feature rows extracted", file=sys.stderr)
        return 1
    with open(args.out, "wb") as fh:
        fh.write(features.write_features_csv(dataset))
    print(args.out)
    return 0


def _split_record_path(model_path: str) -> str:
    return model_path + ".split.json"


def _held_out_rows(path: str, n_rows: int) -> list[int]:
    """A split record's test_indices: a non-empty list of distinct row
    indices in [0, n_rows)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        rows = json.loads(raw)["test_indices"]
        if isinstance(rows, list) and rows and all(
                type(i) is int and 0 <= i < n_rows for i in rows) \
                and len(set(rows)) == len(rows):
            return rows
    except (ValueError, KeyError, TypeError):  # not UTF-8 JSON, or not a JSON object
        pass
    raise SplitRecordError(f"split record {path}: test_indices must be a non-empty list "
                           f"of distinct row indices in [0, {n_rows}) of the features file")


def cmd_train(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = _read_dataset(args.features)
    grouped = features.select_group(dataset, args.group)
    split_seed = args.split_seed if args.split_seed is not None else cfg.split_seed
    split = evaluation.stratified_split(grouped, cfg.test_fraction, split_seed)
    train_set = features.Dataset(
        tuple(grouped.rows[i] for i in split.train_indices),
        grouped.feature_names, grouped.class_names)
    params = _forest_params(cfg, args)
    model = forest.train_forest(train_set, params)
    with open(args.out, "wb") as fh:
        fh.write(forest.save_model(model))
    record = {
        "features_file": os.path.basename(args.features),
        "group": args.group,
        "test_fraction": cfg.test_fraction,
        "split_seed": split_seed,
        "train_indices": list(split.train_indices),
        "test_indices": list(split.test_indices),
    }
    with open(_split_record_path(args.out), "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")
    print(args.out)
    return 0


def cmd_evaluate(args) -> int:
    with open(args.model, "rb") as fh:
        model = forest.load_model(fh.read())
    dataset = _read_dataset(args.features)
    grouped = _project_for_model(dataset, model)
    split_path = args.split or _split_record_path(args.model)
    if args.split or os.path.exists(split_path):  # an explicit record must exist
        rows = _held_out_rows(split_path, len(grouped))
        print(f"evaluating {len(rows)} held-out rows", file=sys.stderr)
    else:
        rows = list(range(len(grouped)))
        print("warning: no split record found, evaluating all rows "
              "(training rows included)", file=sys.stderr)
    if not rows:
        raise EmptyMatrix(f"features file {args.features} has no rows to evaluate")
    x = grouped.matrix()[rows]
    y = grouped.labels()[rows]
    pred = forest.forest_predict_many(model, x)
    matrix = evaluation.confusion_matrix(y, pred, grouped.class_names)
    sys.stdout.write(evaluation.format_report(matrix))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(evaluation.confusion_csv(matrix))
    return 0


def cmd_grid_search(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = _read_dataset(args.features)
    grouped = features.select_group(dataset, args.group)
    grid = {"n_estimators": args.n_estimators, "max_features": args.max_features}
    seed = args.seed if args.seed is not None else cfg.forest.seed
    base = dataclasses.replace(cfg.forest, seed=seed)
    best, table = forest.grid_search(grouped, grid, args.folds, seed, base)
    print(f"{'n_estimators':>13} {'max_features':>13} {'mean_acc':>9}  per-fold")
    for cell in table:
        folds = " ".join(f"{a:.4f}" for a in cell.fold_accuracies)
        print(f"{cell.params.n_estimators:>13} {cell.params.max_features:>13} "
              f"{cell.mean_accuracy:>9.4f}  {folds}")
    print(f"best: n_estimators={best.n_estimators} max_features={best.max_features}")
    if args.out:
        model = forest.train_forest(grouped, best)
        with open(args.out, "wb") as fh:
            fh.write(forest.save_model(model))
        print(args.out)
    return 0


def cmd_report(args) -> int:
    dataset = _read_dataset(args.features)
    if len(dataset) == 0:
        print("error: empty dataset", file=sys.stderr)
        return 1
    dist = features.vowel_distribution(dataset)
    print("vowel distribution (count, percent):")
    for dialect in dataset.class_names:
        if dialect not in dist:
            continue
        parts = [f"{v}={n} ({pct:.1f}%)" for v, (n, pct) in dist[dialect].items()]
        print(f"  {dialect}: " + ", ".join(parts))
    print()
    print("dataset summary:")
    for dialect in dataset.class_names:
        rows = [r for r in dataset.rows if r.label == dialect]
        speakers = sorted({r.speaker_id for r in rows})
        print(f"  {dialect}: {len(rows)} rows, {len(speakers)} speakers")
    if args.out:
        space = features.vowel_space(dataset)
        lines = ["dialect,vowel,mean_f2,mean_f1"]
        for (dialect, vowel), (f2, f1) in space.items():
            lines.append(f"{dialect},{vowel},{f2:.6g},{f1:.6g}")
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print(args.out)
    return 0


def cmd_importance(args) -> int:
    with open(args.model, "rb") as fh:
        model = forest.load_model(fh.read())
    imp = forest.feature_importances(model)
    order = np.argsort(-imp, kind="stable")
    for i in order:
        print(f"{model.feature_names[i]:>14} {imp[i]:.6f}")
    print(f"{'sum':>14} {imp.sum():.6f}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_int_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def _sample_rate(text: str) -> int:
    value = int(text)
    if not MIN_RATE <= value <= MAX_RATE:
        raise argparse.ArgumentTypeError(f"must be in [{MIN_RATE}, {MAX_RATE}], got {value}")
    return value


def _fold_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialectid",
        description="Vowel-based dialect identification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate a synthetic labelled corpus")
    p.add_argument("--profile", choices=sorted(synth.PROFILES), required=True)
    p.add_argument("--speakers", type=_positive_int, required=True,
                   help="speakers per dialect")
    p.add_argument("--vowels-per-speaker", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate", type=_sample_rate, default=16000)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("extract", help="extract features from a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tier", default="", help="annotation tier holding phonemes")
    p.add_argument("--alias-table", default="")
    p.add_argument("--config", default="")
    p.add_argument("--out", required=True, help="features CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a forest on a stratified 80:20 split")
    p.add_argument("--features", required=True)
    p.add_argument("--group", choices=sorted(features.GROUP_INDICES), default="all")
    p.add_argument("--n-estimators", type=_positive_int, default=None)
    p.add_argument("--max-features", type=_positive_int, default=None)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="forest seed")
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--config", default="")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on held-out rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", default="",
                   help="split record (default: <model>.split.json)")
    p.add_argument("--out", default="", help="confusion matrix CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-search", help="stratified k-fold CV over a grid")
    p.add_argument("--features", required=True)
    p.add_argument("--group", choices=sorted(features.GROUP_INDICES), default="all")
    p.add_argument("--n-estimators", type=_positive_int_list, default="100,200,400")
    p.add_argument("--max-features", type=_positive_int_list, default="4,6,12")
    p.add_argument("--folds", type=_fold_count, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default="")
    p.add_argument("--out", default="", help="optionally save the winning model")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("report", help="vowel distribution and vowel-space tables")
    p.add_argument("--features", required=True)
    p.add_argument("--out", default="", help="vowel-space CSV path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("importance", help="print feature importances of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DialectIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
