import json
import shutil

import pytest

from tcpci.cli import main
from tcpci.ingest import DatasetLayout, ingest_exec_records

SYNTH_CFG = {
    "n_files": 30,
    "n_tests": 15,
    "n_builds": 15,
    "files_per_build": 4,
}

HP_FLAGS = ["--bags", "6", "--trees-per-bag", "2", "--max-leaves", "16"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    cfg = tmp_path_factory.mktemp("cli-cfg") / "synth.json"
    cfg.write_text(json.dumps(SYNTH_CFG))
    assert main(["synth", "--out", str(root), "--config", str(cfg), "--seed", "7"]) == 0
    return root


def history_of(dataset):
    return ingest_exec_records(DatasetLayout(dataset))


def test_synth_writes_expected_layout(dataset):
    assert (dataset / "builds.csv").is_file()
    assert (dataset / "exec_records.csv").is_file()
    assert (dataset / "commits.jsonl").is_file()
    assert (dataset / "src").is_dir()
    history = history_of(dataset)
    assert len(history.builds) == SYNTH_CFG["n_builds"]
    assert len(history.failed_builds) >= 3  # needed by the tests below


def test_extract_row_count(dataset, tmp_path, capsys):
    history = history_of(dataset)
    build = history.builds[-1]
    out = tmp_path / "m.csv"
    assert main(["extract", str(dataset), "--build", str(build.id), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(build.records)
    assert capsys.readouterr().out.strip() == str(out)


def test_unknown_build_exits_2(dataset, capsys):
    assert main(["extract", str(dataset), "--build", "9999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_train_then_prioritize(dataset, tmp_path, capsys):
    history = history_of(dataset)
    target = history.failed_builds[-1]
    model = tmp_path / "model.json"
    rc = main(
        ["train", str(dataset), "--until", str(target.id), "--out", str(model), *HP_FLAGS]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        ["prioritize", str(dataset), "--build", str(target.id), "--model", str(model)]
    )
    assert rc == 0
    ranked = capsys.readouterr().out.splitlines()
    assert sorted(ranked) == sorted(target.tests)


def test_train_without_prior_failures_exits_3(dataset, capsys):
    history = history_of(dataset)
    first_failed = history.failed_builds[0]
    rc = main(
        ["train", str(dataset), "--until", str(first_failed.id), "--out", "/tmp/x.json"]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:")


def test_missing_model_exits_2(dataset, capsys):
    history = history_of(dataset)
    rc = main(
        [
            "prioritize",
            str(dataset),
            "--build",
            str(history.builds[-1].id),
            "--model",
            "/nonexistent/model.json",
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_deterministic(dataset, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["evaluate", str(dataset), "--max-builds", "3", "--seed", "5", *HP_FLAGS]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "apfdc.csv").read_text() == (out2 / "apfdc.csv").read_text()
    out = capsys.readouterr().out
    assert "full: mean APFD_C" in out


def test_decay_writes_curve(dataset, tmp_path, capsys):
    out = tmp_path / "decay.csv"
    rc = main(
        [
            "decay",
            str(dataset),
            "--max-builds",
            "2",
            "--max-rw",
            "3",
            "--out",
            str(out),
            *HP_FLAGS,
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rw,mean_apfdc,n_pairs"
    assert len(lines) >= 2
    assert "slope over RW" in capsys.readouterr().out


def test_flag_overrides_config(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_builds": 1, "seed": 5}))
    base = [
        "evaluate", str(dataset), "--config", str(cfg), *HP_FLAGS,
    ]
    out1 = tmp_path / "from-config"
    assert main(base + ["--out", str(out1)]) == 0
    report = json.loads((out1 / "report.json").read_text())
    assert len(report["builds_evaluated"]) == 1
    assert report["config"]["max_builds"] == 1

    out2 = tmp_path / "from-flag"
    assert main(base + ["--max-builds", "2", "--out", str(out2)]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert len(report["builds_evaluated"]) == 2
    assert report["config"]["max_builds"] == 2
    capsys.readouterr()


def test_corrupt_exec_records_exits_2(dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(dataset, broken)
    path = broken / "exec_records.csv"
    lines = path.read_text().splitlines()
    lines[1] = "not-an-int,job,foo.java,0,1.0"
    path.write_text("\n".join(lines) + "\n")
    assert main(["extract", str(broken), "--build", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_config_exits_2(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evaluate", str(dataset), "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_synth_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_tests": 5, "bogus_knob": 1}))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    assert "bogus_knob" in capsys.readouterr().err



@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--max-builds", "0"],
        ["evaluate", "--max-builds", "-1"],
        ["decay", "--max-rw", "-1"],
        ["evaluate", "--bags", "0"],
        ["evaluate", "--recent-window", "0"],
        ["evaluate", "--config", '@{"bags": "many"}'],
        ["prioritize", "--build", "1", "--model", '@{"version": 1}'],
        ["prioritize", "--build", "1", "--model", "@{not json"],
        ["prioritize", "--build", "1", "--model", '@{"version": 2}'],
        ["prioritize", "--build", "1", "--model", '@{"version": 1, "hyperparams": {"n_bags": "x"}}'],
        [
            "prioritize", "--build", "1", "--model",
            '@{"version": 1, "hyperparams": {}, "bags": [], "seed": 0, "catalog_fingerprint": ""}',
        ],
        ["evaluate", "--impact-depth", "-1"],
        ["evaluate", "--config", '@{"impact_depth": "x"}'],
    ],
    ids=[
        "max-builds-0", "max-builds-negative", "max-rw-negative", "bags-0",
        "recent-window-0", "config-wrong-type", "model-missing-keys", "model-bad-json",
        "model-version-2", "model-wrong-type", "model-bag-count", "impact-depth-negative",
        "impact-depth-wrong-type",
    ],
)
def test_invalid_option_or_file_exits_2(dataset, tmp_path, capsys, argv):
    # an "@text" argument is written to a file and replaced by its path
    args = [argv[0], str(dataset)]
    for i, arg in enumerate(argv[1:]):
        if arg.startswith("@"):
            path = tmp_path / f"arg{i}.json"
            path.write_text(arg[1:])
            arg = str(path)
        args.append(arg)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["evaluate", "synth"])
def test_jobs_flag_is_rejected(dataset, tmp_path, capsys, command):
    # training is serial; a --jobs flag would promise a bound nothing reads
    if command == "evaluate":
        args = [command, str(dataset)]
    else:
        args = [command, "--out", str(tmp_path / "d")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --jobs 2" in capsys.readouterr().err
