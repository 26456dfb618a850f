"""Command-line surface wiring the pipeline end to end.

Subcommands: ingest, extract, train, prioritize, evaluate, decay, synth.
Exit codes: 0 success, 2 input/schema error, 3 insufficient history,
4 internal invariant violation.  stdout carries primary payloads only;
diagnostics go to stderr as ``error: ...`` lines.

Every flag has a JSON config-file equivalent (``--config``); explicit
flags win over config values.
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
)
from .evaluation import decay_experiment, remove_frequent_failers, run_pipeline_eval
from .features import FeatureExtractor, RecWindow
from .ingest import DatasetLayout, ingest_exec_records, write_dataset
from .matrix import stack_matrices
from .ranker import Hyperparams, RankModel, rank_tests, train_ranker
from .synth import SynthConfig, load_sources, write_synthetic_dataset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HISTORY = 3
EXIT_INTERNAL = 4


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--impact-depth", type=int, default=None)
    p.add_argument("--recent-window", type=int, default=None)


def _add_hyperparams(p: argparse.ArgumentParser):
    p.add_argument("--bags", type=int, default=None)
    p.add_argument("--trees-per-bag", type=int, default=None)
    p.add_argument("--max-leaves", type=int, default=None)
    p.add_argument("--shrinkage", type=float, default=None)
    p.add_argument("--sample-rate", type=float, default=None)
    p.add_argument("--feature-rate", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcpci")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a dataset")
    p.add_argument("source", type=Path, help="dataset directory (optionally a git repo)")
    p.add_argument("dest", type=Path, help="output dataset directory")
    _add_common(p)

    p = sub.add_parser("extract", help="write features/build_<id>.csv")
    p.add_argument("dataset", type=Path)
    p.add_argument("--build", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    _add_common(p)

    p = sub.add_parser("train", help="train on failed builds before --until")
    p.add_argument("dataset", type=Path)
    p.add_argument("--until", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_common(p)
    _add_hyperparams(p)

    p = sub.add_parser("prioritize", help="print ranked test paths for a build")
    p.add_argument("dataset", type=Path)
    p.add_argument("--build", type=int, required=True)
    p.add_argument("--model", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("evaluate", help="train-on-prior evaluation; emits apfdc.csv/timing.csv")
    p.add_argument("dataset", type=Path)
    p.add_argument("--heuristic", type=str, default=None)
    p.add_argument("--max-builds", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--keep-outliers", action="store_true")
    _add_common(p)
    _add_hyperparams(p)

    p = sub.add_parser("decay", help="retraining-window decay experiment; emits decay.csv")
    p.add_argument("dataset", type=Path)
    p.add_argument("--max-rw", type=int, default=None)
    p.add_argument("--max-builds", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--keep-outliers", action="store_true")
    _add_common(p)
    _add_hyperparams(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None, help="JSON generator config")
    p.add_argument("--seed", type=int, default=None)
    return parser


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except FileNotFoundError as exc:
        raise InvalidConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise InvalidConfigError(f"{path}: config must be a JSON object")
    return cfg


def _given(args, cfg: dict, *names: str, **renamed: str) -> dict:
    """Keyword arguments for the options a flag or the config sets.

    A flag wins over the config value; an option set by neither is left
    out, so the library's own default applies.  ``renamed`` maps an
    option to the parameter it fills.
    """
    out = {}
    for name, param in {**{n: n for n in names}, **renamed}.items():
        value = getattr(args, name, None)
        if value is None:
            value = cfg.get(name)
        if value is not None:
            out[param] = value
    return out


def _check_seed(args, cfg: dict) -> None:
    seed = _given(args, cfg, "seed").get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InvalidConfigError(f"seed must be an integer >= 0, got {seed!r}")


def _construct(cls, kwargs: dict):
    """``cls(**kwargs)``, with rejected values reported as bad configuration."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{cls.__name__}: {exc}") from exc


def _hyperparams(args, cfg: dict) -> Hyperparams:
    return _construct(
        Hyperparams,
        _given(
            args, cfg, "trees_per_bag", "max_leaves", "shrinkage", "sample_rate",
            "feature_rate", bags="n_bags",
        ),
    )


def _load(dataset: Path, filter_outliers: bool = False):
    layout = DatasetLayout(dataset)
    history = ingest_exec_records(layout)
    if filter_outliers:
        history, removed = remove_frequent_failers(history)
        if removed:
            print(f"removed {len(removed)} frequently-failing tests", file=sys.stderr)
    return layout, history


def _extractor_kwargs(args, cfg: dict) -> dict:
    kwargs = _given(args, cfg, "impact_depth")
    window = _given(args, cfg, recent_window="recent_size")
    if window:
        kwargs["rec_window"] = _construct(RecWindow, window)
    return kwargs


def _cmd_ingest(args, cfg: dict) -> int:
    layout = DatasetLayout(args.source, repo=args.source)
    history = ingest_exec_records(layout)
    write_dataset(history, args.dest)
    src = layout.src_dir
    if src is not None and src != args.dest / "src":
        shutil.copytree(src, args.dest / "src", dirs_exist_ok=True)
    print(f"{len(history.builds)} builds, {len(history.commits)} commits")
    return EXIT_OK


def _cmd_extract(args, cfg: dict) -> int:
    layout, history = _load(args.dataset)
    if args.build not in history:
        raise InputError(f"build {args.build} not in dataset")
    extractor = FeatureExtractor(history, load_sources(layout), **_extractor_kwargs(args, cfg))
    matrix = extractor.matrix(args.build)
    out = args.out or args.dataset / "features" / f"build_{args.build}.csv"
    matrix.write_csv(out)
    print(out)
    return EXIT_OK


def _cmd_train(args, cfg: dict) -> int:
    layout, history = _load(args.dataset)
    train_builds = [b for b in history.failed_builds if b.id < args.until]
    if not train_builds:
        raise NoFailedBuildsError(f"no failed builds before {args.until}")
    extractor = FeatureExtractor(history, load_sources(layout), **_extractor_kwargs(args, cfg))
    X, y = stack_matrices([extractor.matrix(b.id) for b in train_builds])
    model = train_ranker(X, y, _hyperparams(args, cfg), **_given(args, cfg, "seed"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(model.to_json(), encoding="utf-8")
    print(args.out)
    return EXIT_OK


def _cmd_prioritize(args, cfg: dict) -> int:
    layout, history = _load(args.dataset)
    if args.build not in history:
        raise InputError(f"build {args.build} not in dataset")
    try:
        model = RankModel.from_json(args.model.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise InputError(f"model file not found: {args.model}") from exc
    extractor = FeatureExtractor(history, load_sources(layout), **_extractor_kwargs(args, cfg))
    for test in rank_tests(model, extractor.matrix(args.build)):
        print(test)
    return EXIT_OK


def _cmd_evaluate(args, cfg: dict) -> int:
    layout, history = _load(args.dataset, filter_outliers=not args.keep_outliers)
    report = run_pipeline_eval(
        history,
        load_sources(layout),
        _hyperparams(args, cfg),
        **_given(args, cfg, "seed", "max_builds", "heuristic"),
        **_extractor_kwargs(args, cfg),
    )
    out = args.out or args.dataset / "reports"
    report.write(out)
    for strategy, (mean, sd) in report.summary().items():
        print(f"{strategy}: mean APFD_C {mean:.4f} (sd {sd:.4f})")
    return EXIT_OK


def _cmd_decay(args, cfg: dict) -> int:
    layout, history = _load(args.dataset, filter_outliers=not args.keep_outliers)
    curve = decay_experiment(
        history,
        load_sources(layout),
        _hyperparams(args, cfg),
        **_given(args, cfg, "seed", "max_builds", "max_rw"),
        **_extractor_kwargs(args, cfg),
    )
    out = args.out or args.dataset / "reports" / "decay.csv"
    curve.write(out)
    print(f"slope over RW: {curve.slope():+.6f}")
    return EXIT_OK


def _cmd_synth(args, cfg: dict) -> int:
    generator = {k: v for k, v in cfg.items() if k != "seed"}
    unknown = set(generator) - set(SynthConfig.__dataclass_fields__)
    if unknown:
        raise InvalidConfigError(f"unknown generator config keys: {sorted(unknown)}")
    layout, _ = write_synthetic_dataset(
        args.out, _construct(SynthConfig, generator), **_given(args, cfg, "seed")
    )
    print(layout.root)
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
        cfg = _load_config(args.config)
        _check_seed(args, cfg)
        return _COMMANDS[args.command](args, cfg)
    except InputError as exc:
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
