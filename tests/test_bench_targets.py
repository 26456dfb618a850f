"""The names the benchmark wraps and reads must exist and be called.

``perfbench/spans.py`` rebinds the callables its ``TARGETS`` name, and the
observers in ``perfbench/layers.py`` read attributes of what they return.
``perfbench/workloads.py:probes`` rebinds names of ``tcpci.evaluation`` to
time training and scoring, and its workloads run ``tcpci.cli.main`` with
fixed flags.  A rename or a removed option in ``src/tcpci`` would break
only the benchmark, which the suite under ``tests/`` does not run; these
checks catch it here.
"""

import argparse
import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from tcpci import cli, evaluation
from tcpci.evaluation import apfdc_of_build, decay_experiment, run_pipeline_eval
from tcpci.ingest import ingest_exec_records
from tcpci.ranker import Hyperparams, train_ranker
from tcpci.synth import SynthConfig, generate_synthetic_history, write_synthetic_dataset
from tcpci.trees import Grower, RegressionTree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for layer, attrs in targets.items():
        home = importlib.import_module(f"tcpci.{layer}")
        for attr in attrs:
            cls_name, _, name = attr.rpartition(".")
            owner = getattr(home, cls_name) if cls_name else home
            # spans.py wraps a class's own attribute, not an inherited one
            assert name in vars(owner) and callable(getattr(owner, name)), f"tcpci.{layer}.{attr}"


def test_traced_results_expose_what_the_observers_read(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.random((30, 150))
    y = (X[:, 0] > 0.5).astype(float)
    model = train_ranker(X, y, Hyperparams(n_bags=2, trees_per_bag=2, max_leaves=4))
    # layers.py counts ``ranker.nodes`` from a trained model
    assert sum(len(t.feature) for bag in model.bags for t in bag.trees) > 4
    # and ``trees.leaves_total`` and the leaf budget from a fit, whose fourth
    # positional argument (after ``cls``) is ``max_leaves``
    tree = RegressionTree.fit(Grower(X), rng.normal(size=len(y)), 4, np.empty(len(y)))
    assert tree.n_leaves == 4
    fit = inspect.signature(vars(RegressionTree)["fit"].__func__)
    assert list(fit.parameters)[3] == "max_leaves"

    # layers.py counts ``ingest.records`` over an ingested history's builds,
    # and workloads.py reads its failed builds, their tests and APFD_C
    config = SynthConfig(n_files=40, n_tests=20, n_builds=16, files_per_build=5)
    layout = write_synthetic_dataset(tmp_path / "ds", config, seed=3)
    history = ingest_exec_records(layout)
    with open(layout.exec_records_csv, encoding="utf-8") as f:
        n_rows = sum(1 for _ in f) - 1
    assert sum(len(b.records) for b in history.builds) == n_rows
    failed = history.failed_builds
    assert failed and all(b.failed for b in failed)
    assert not any(b.failed for b in history.builds if b not in failed)
    build = failed[-1]
    assert sorted(build.tests) == sorted(r.test for r in build.records)
    assert 0.0 <= apfdc_of_build(build, sorted(build.tests)) <= 1.0


def probed_names() -> set[str]:
    """The keys of the ``wrappers`` dict in ``workloads.py:probes``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    probes = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "probes"
    )
    wrappers = next(
        n.value for n in ast.walk(probes)
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["wrappers"]
    )
    return {key.value for key in wrappers.keys}


def test_evaluation_calls_the_names_the_probes_rebind(monkeypatch):
    # a probe on a name that evaluation no longer calls would measure nothing
    names = probed_names()
    assert names == {"train_ranker", "rank_tests", "heuristic_rank", "apfdc_of_build"}
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _call=getattr(evaluation, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    config = SynthConfig(n_files=30, n_tests=15, n_builds=20, files_per_build=4)
    history, sources = generate_synthetic_history(config, seed=11)
    hp = Hyperparams(n_bags=2, trees_per_bag=1, max_leaves=4)
    run_pipeline_eval(history, sources, hp, max_builds=2)
    assert all(calls.values()), calls
    calls = dict.fromkeys(names, 0)
    decay_experiment(history, sources, hp, max_builds=2, max_rw=1)
    # the decay run ranks only by the learned model
    assert [n for n, c in calls.items() if not c] == ["heuristic_rank"], calls


def workload_flags() -> dict[str, set[str]]:
    """The ``--`` flags of each ``argv`` list in ``workloads.py``, by its
    subcommand; a ``*_hp_flags(...)`` item adds the flags ``_hp_flags`` returns."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))

    def flags(node):
        return {n.value for n in ast.walk(node)
                if isinstance(n, ast.Constant) and str(n.value).startswith("--")}

    hp_flags = flags(next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_hp_flags"
    ))
    found: dict[str, set[str]] = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["argv"]:
            items = n.value.elts
            calls = {getattr(i.value.func, "id", None) for i in items if isinstance(i, ast.Starred)}
            used = flags(n.value) | (hp_flags if "_hp_flags" in calls else set())
            found.setdefault(items[0].value, set()).update(used)
    return found


def test_workloads_pass_only_flags_of_their_subcommands():
    # an option removed from a command would fail only the benchmark run
    found = workload_flags()
    assert set(found) == {"evaluate", "prioritize", "decay"}
    assert {"--bags", "--max-rw"} <= found["decay"] and "--model" in found["prioritize"]
    commands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for command, flags in found.items():
        known = commands[command]._option_string_actions
        assert flags <= known.keys(), (command, sorted(flags - known.keys()))
