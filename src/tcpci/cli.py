"""Command-line surface wiring the pipeline end to end.

Subcommands: ingest, extract, train, prioritize, evaluate, decay, synth.
Exit codes: 0 success, 2 input/schema error, 3 insufficient history,
4 internal invariant violation.  stdout carries primary payloads only;
diagnostics go to stderr as ``error: ...`` lines.

Each command takes only the options it reads.  A value option is
declared once, by its key in the tables of :data:`_OPTIONS`: its flag is
``--`` plus the key with ``-`` for ``_`` (``--max-builds`` for
``max_builds``), and ``--config`` names a JSON object whose keys set the
same options.  Each key must name a value option of the command, or it
exits 2.  :func:`main` resolves flags and keys into one ``opts`` dict,
where an explicit flag wins and a null key sets nothing, and each handler
passes it on as keyword arguments.
``--build``, ``--until``, ``--model``, ``--out`` and ``--keep-outliers``
have no key; ``synth``'s keys are the generator settings and ``seed``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from .errors import (
    InputError,
    InsufficientHistoryError,
    InvalidConfigError,
    NoFailedBuildsError,
    TcpciError,
    check_option,
)
from .evaluation import (
    PipelineEvaluator,
    decay_experiment,
    remove_frequent_failers,
    run_pipeline_eval,
)
from .features import FeatureExtractor
from .ingest import DatasetLayout, ingest_exec_records, write_dataset
from .ranker import Hyperparams, RankModel, rank_tests
from .synth import SynthConfig, load_sources, write_synthetic_dataset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HISTORY = 3
EXIT_INTERNAL = 4

#: Value options by group, each key to its type.
_EXTRACTOR = {"impact_depth": int, "recent_window": int}
_SEED = {"seed": int}
_HYPERPARAMS = {"bags": int, "trees_per_bag": int, "max_leaves": int, "shrinkage": float,
                "sample_rate": float, "feature_rate": float}
_TRAINING = {**_SEED, **_HYPERPARAMS}
_REPLAY = {**_EXTRACTOR, **_TRAINING, "max_builds": int}
#: The value options of each command that takes any.  A model file records
#: no extractor option, so ``train`` and ``prioritize`` take none.
_OPTIONS = {
    "extract": _EXTRACTOR,
    "train": _TRAINING,
    "evaluate": {**_REPLAY, "heuristic": str},
    "decay": {**_REPLAY, "max_rw": int},
    "synth": _SEED,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcpci")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a dataset")
    p.add_argument("source", type=Path, help="dataset directory (optionally a git repo)")
    p.add_argument("dest", type=Path, help="output dataset directory")

    p = sub.add_parser("extract", help="write features/build_<id>.csv")
    p.add_argument("dataset", type=Path)
    p.add_argument("--build", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("train", help="train on failed builds before --until")
    p.add_argument("dataset", type=Path)
    p.add_argument("--until", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("prioritize", help="print ranked test paths for a build")
    p.add_argument("dataset", type=Path)
    p.add_argument("--build", type=int, required=True)
    p.add_argument("--model", type=Path, required=True)

    for name, what, out in (
        ("evaluate", "train-on-prior evaluation; emits apfdc.csv, timing.csv and report.json",
         "output directory (default: DATASET/reports)"),
        ("decay", "retraining-window decay experiment; emits decay.csv",
         "output CSV file (default: DATASET/reports/decay.csv)"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("dataset", type=Path)
        p.add_argument("--out", type=Path, default=None, help=out)
        p.add_argument("--keep-outliers", action="store_true",
                       help="keep the tests whose count of failed builds exceeds the "
                            "mean count plus 3 standard deviations (dropped by default)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)

    for command, options in _OPTIONS.items():
        p = sub.choices[command]
        what = "JSON generator config" if command == "synth" else "JSON config file"
        p.add_argument("--config", type=Path, default=None, help=what)
        for key, kind in options.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=None)
    return parser


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; a ``what`` that cannot be
    read is an input error."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    text = _read_text(path, "config file")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InvalidConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise InvalidConfigError(f"{path}: config must be a JSON object")
    return cfg


def _check_out(args) -> None:
    """Reject an ``--out`` that exists as the wrong kind of entry: a file
    where ``evaluate`` and ``synth`` write a directory, or a directory."""
    out = getattr(args, "out", None)
    wants_dir = args.command in ("evaluate", "synth")
    if out is not None and out.exists() and out.is_dir() != wants_dir:
        raise InputError(f"--out {out} is {'not ' if wants_dir else ''}a directory")


def _take(opts: dict, keys) -> dict:
    """Remove ``keys`` from ``opts``; those it held, with their values."""
    return {k: opts.pop(k) for k in keys if k in opts}


def _take_hyperparams(opts: dict) -> Hyperparams:
    """Take the training keys out of ``opts`` (``bags`` fills ``n_bags``)."""
    given = _take(opts, _HYPERPARAMS)
    return Hyperparams(**{("n_bags" if k == "bags" else k): v for k, v in given.items()})


def _load(dataset: Path, filter_outliers: bool = False):
    layout = DatasetLayout(dataset)
    history = ingest_exec_records(layout)
    if filter_outliers:
        history, removed = remove_frequent_failers(history)
        if removed:
            print(f"removed {len(removed)} frequently-failing tests", file=sys.stderr)
    return layout, history


def _cmd_ingest(args, opts: dict) -> int:
    layout = DatasetLayout(args.source, repo=args.source)
    history = ingest_exec_records(layout)
    write_dataset(history, args.dest)
    src = layout.src_dir
    if src is not None and src != args.dest / "src":
        shutil.copytree(src, args.dest / "src", dirs_exist_ok=True)
    print(f"{len(history.builds)} builds, {len(history.commits)} commits")
    return EXIT_OK


def _cmd_extract(args, opts: dict) -> int:
    layout, history = _load(args.dataset)
    if args.build not in history:
        raise InputError(f"build {args.build} not in dataset")
    matrix = FeatureExtractor(history, load_sources(layout), **opts).matrix(args.build)
    out = args.out or args.dataset / "features" / f"build_{args.build}.csv"
    matrix.write_csv(out)
    print(out)
    return EXIT_OK


def _cmd_train(args, opts: dict) -> int:
    layout, history = _load(args.dataset)
    hyperparams = _take_hyperparams(opts)
    evaluator = PipelineEvaluator(history, load_sources(layout), hyperparams, **opts)
    model = evaluator.model_for(args.until)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(model.to_json(), encoding="utf-8")
    print(args.out)
    return EXIT_OK


def _cmd_prioritize(args, opts: dict) -> int:
    layout, history = _load(args.dataset)
    if args.build not in history:
        raise InputError(f"build {args.build} not in dataset")
    model = RankModel.from_json(_read_text(args.model, "model file"))
    extractor = FeatureExtractor(history, load_sources(layout))
    for test in rank_tests(model, extractor.matrix(args.build)):
        print(test)
    return EXIT_OK


def _cmd_evaluate(args, opts: dict) -> int:
    layout, history = _load(args.dataset, filter_outliers=not args.keep_outliers)
    hyperparams = _take_hyperparams(opts)
    report = run_pipeline_eval(history, load_sources(layout), hyperparams, **opts)
    out = args.out or args.dataset / "reports"
    report.write(out)
    for strategy, (mean, sd) in report.summary().items():
        print(f"{strategy}: mean APFD_C {mean:.4f} (sd {sd:.4f})")
    return EXIT_OK


def _cmd_decay(args, opts: dict) -> int:
    layout, history = _load(args.dataset, filter_outliers=not args.keep_outliers)
    hyperparams = _take_hyperparams(opts)
    curve = decay_experiment(history, load_sources(layout), hyperparams, **opts)
    out = args.out or args.dataset / "reports" / "decay.csv"
    curve.write(out)
    print(f"slope over RW: {curve.slope():+.6f}")
    return EXIT_OK


def _cmd_synth(args, opts: dict) -> int:
    config = SynthConfig(**_take(opts, SynthConfig.__dataclass_fields__))
    print(write_synthetic_dataset(args.out, config, **opts).root)
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "extract": _cmd_extract,
    "train": _cmd_train,
    "prioritize": _cmd_prioritize,
    "evaluate": _cmd_evaluate,
    "decay": _cmd_decay,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(getattr(args, "config", None))
        flags = _OPTIONS.get(args.command, {})
        generator = SynthConfig.__dataclass_fields__ if args.command == "synth" else {}
        unknown = sorted(cfg.keys() - flags.keys() - generator.keys())
        if unknown:
            raise InvalidConfigError(f"config keys {unknown} set no option of {args.command}")
        # a flag wins over its key, and an option set by neither (or by a
        # null key) is left out, so the library's default applies
        opts = {k: v for k, v in cfg.items() if k in generator and v is not None}
        for key in flags:
            value = cfg.get(key) if getattr(args, key) is None else getattr(args, key)
            if value is not None:
                opts[key] = value
        check_option("seed", opts.get("seed", 0), int, 0)
        _check_out(args)
        return _COMMANDS[args.command](args, opts)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InsufficientHistoryError, NoFailedBuildsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HISTORY
    except TcpciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
