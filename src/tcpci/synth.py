"""Synthetic coverage-driven CI histories for experiments and tests.

The generator fabricates a small Java repository (source files plus test
files that import the files they exercise), a commit stream whose
co-changes link tests to the files they cover, and per-build execution
records where a test's failure probability grows with the overlap between
its *true* coverage and the build's changed files.  Because the causal
mechanism is coverage, a learner with coverage features has signal to find.

The drift variant gives each test a fixed candidate pool of imports but
rotates which subset is truly covered every ``drift_period`` builds: the
static dependency edges stay valid while the co-change association that
weights them goes stale, which is exactly what the retraining-decay
experiment needs.

With ``risky_count`` set, only a rotating subset of files is dangerous:
a test fails when a changed *risky* file is covered, and commits touching
risky files carry defect-fix messages.  Fault-history features then track
which files matter right now — and mislead once their snapshot is stale.

:func:`load_sources` reads the source snapshot of any dataset, synthetic
or not, with each file's row from the source table ``derived/sources.bin``
that it keeps (see :mod:`tcpci.ingest`).
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import struct
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import code_analysis
from .catalog import COMPLEXITY_METRICS
from .code_analysis import SourceRow, Sources, source_row
from .errors import InvalidConfigError, check_fields
from .ingest import DatasetLayout, write_dataset
from .model import Build, BuildHistory, Commit, FileChange

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthConfig:
    n_files: int = 200
    n_tests: int = 100
    n_builds: int = 60
    coverage_size: int = 5  # truly covered files per test
    pool_size: int = 5  # imported candidate files per test (>= coverage_size)
    files_per_build: int = 8
    commits_per_build: int = 2
    base_failure: float = 0.02
    failure_weight: float = 0.9  # failure prob added per full coverage overlap
    co_change_prob: float = 0.3  # test file joins a commit touching a covered file
    flaky_count: int = 5
    flaky_prob: float = 0.05
    duration_mu: float = 4.0  # lognormal parameters for per-test duration (ms)
    duration_sigma: float = 0.5
    fix_message_prob: float = 0.3
    drift_period: int = 0  # 0 = static true coverage
    risky_count: int = 0  # 0 = every covered change is equally dangerous
    risky_fix_prob: float = 0.9  # commit touching a risky file gets a fix message

    def __post_init__(self):
        sizes = {"pool_size": (self.coverage_size, self.n_files),
                 "files_per_build": (0, self.n_files)}
        check_fields(self, {**_RANGES, **sizes})


#: Range of each :class:`SynthConfig` field whose range is not [0, inf) or
#: set by other fields (``check_option``'s ``low`` and ``high``).
_RANGES = {
    **dict.fromkeys(("n_files", "n_tests", "n_builds", "commits_per_build"), (1,)),
    "duration_mu": (-math.inf,),
    **dict.fromkeys(
        ("base_failure", "co_change_prob", "flaky_prob", "fix_message_prob", "risky_fix_prob"),
        (0, 1),
    ),
}


def _file_path(i: int) -> str:
    return f"src/app/F{i}.java"


def _test_path(i: int) -> str:
    return f"src/test/T{i}Test.java"


def _sut_source(i: int) -> str:
    """A small class; branch count varies so complexity metrics spread."""
    branches = 1 + i % 4
    body = "\n".join(
        f"        if (x > {j}) {{ total += {j}; }}" for j in range(branches)
    )
    return (
        "package app;\n\n"
        f"public class F{i} {{\n"
        "    private int total = 0;\n\n"
        "    public int work(int x) {\n"
        f"{body}\n"
        "        return total;\n"
        "    }\n"
        "}\n"
    )


def _test_source(i: int, pool: tuple[str, ...]) -> str:
    imports = "\n".join(
        f"import app.{Path(p).stem};" for p in pool
    )
    calls = "\n".join(
        f"        new {Path(p).stem}().work({j});" for j, p in enumerate(pool)
    )
    return (
        f"{imports}\n\n"
        f"public class T{i}Test {{\n"
        "    public void run() {\n"
        f"{calls}\n"
        "    }\n"
        "}\n"
    )


def _commit_hash(seed: int, build: int, j: int) -> str:
    return hashlib.sha1(f"{seed}/{build}/{j}".encode()).hexdigest()


def _rotation(items: tuple[str, ...] | list[str], epoch: int, size: int) -> frozenset[str]:
    """The ``size`` items from ``epoch * size`` on, wrapping round."""
    return frozenset(items[(epoch * size + j) % len(items)] for j in range(size))


def generate_synthetic_history(
    config: SynthConfig = SynthConfig(), seed: int = 0
) -> tuple[BuildHistory, dict[str, str]]:
    """Returns (history, sources); deterministic per seed."""
    rng = np.random.default_rng(seed)
    cfg = config
    files = [_file_path(i) for i in range(cfg.n_files)]
    tests = [_test_path(i) for i in range(cfg.n_tests)]

    pools = {
        tests[i]: tuple(
            files[j]
            for j in sorted(rng.choice(cfg.n_files, size=cfg.pool_size, replace=False))
        )
        for i in range(cfg.n_tests)
    }
    flaky = frozenset(
        tests[i]
        for i in rng.choice(cfg.n_tests, size=min(cfg.flaky_count, cfg.n_tests), replace=False)
    )

    sources = {p: _sut_source(i) for i, p in enumerate(files)}
    for i, t in enumerate(tests):
        sources[t] = _test_source(i, pools[t])

    with np.errstate(over="ignore"):
        base_duration = {
            t: float(np.exp(rng.normal(cfg.duration_mu, cfg.duration_sigma)))
            for t in tests
        }
    if not all(map(math.isfinite, base_duration.values())):
        raise InvalidConfigError(
            f"duration_mu {cfg.duration_mu} and duration_sigma {cfg.duration_sigma} "
            "draw a duration too large for a float"
        )
    # every build runs every test: one test column, one duration column,
    # and each test's slot in them
    test_column = tuple(sorted(tests))
    durations = np.array([base_duration[t] for t in test_column], dtype=np.float64)
    slot = {t: j for j, t in enumerate(test_column)}

    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    builds = []
    commit_store: dict[str, Commit] = {}
    fix_words = ["fix", "bug", "patch", "repair"]
    other_words = ["add", "refactor", "update", "cleanup"]

    epoch = None
    for k in range(1, cfg.n_builds + 1):
        # true coverage and the risky files rotate once per drift epoch
        new_epoch = (k - 1) // cfg.drift_period if cfg.drift_period > 0 else 0
        if new_epoch != epoch:
            epoch = new_epoch
            cov_now = {t: _rotation(pools[t], epoch, cfg.coverage_size) for t in tests}
            risky = _rotation(files, epoch, cfg.risky_count) if cfg.risky_count > 0 else None
        changed_sut = [
            files[j]
            for j in sorted(rng.choice(cfg.n_files, size=cfg.files_per_build, replace=False))
        ]
        # distribute changed files over this build's commits; tests that
        # truly cover a changed file sometimes co-change with it
        commit_ids = []
        assignment = rng.integers(0, cfg.commits_per_build, size=len(changed_sut))
        for j in range(cfg.commits_per_build):
            commit_files = [f for f, a in zip(changed_sut, assignment) if a == j]
            if not commit_files:
                continue
            co_changed = {t for f in commit_files for t in tests
                          if f in cov_now[t] and rng.random() < cfg.co_change_prob}
            all_paths = commit_files + sorted(co_changed)
            changes = tuple(
                FileChange(
                    path=p,
                    lines_added=int(rng.integers(1, 30)),
                    lines_deleted=int(rng.integers(0, 10)),
                    added_chunks=(int(rng.integers(1, 40)),),
                )
                for p in all_paths
            )
            touches_risky = risky is not None and not risky.isdisjoint(commit_files)
            is_fix = rng.random() < (cfg.risky_fix_prob if touches_risky else cfg.fix_message_prob)
            word = fix_words[k % 4] if is_fix else other_words[k % 4]
            cid = _commit_hash(seed, k, j)
            commit_store[cid] = Commit(
                id=cid,
                timestamp=t0 + timedelta(hours=k, minutes=j),
                author=f"dev{int(rng.integers(0, 5))}",
                message=f"{word} module {k}-{j}",
                file_changes=changes,
            )
            commit_ids.append(cid)

        changed_all = frozenset(p for cid in commit_ids for p in commit_store[cid].changed_files)
        dangerous = changed_all if risky is None else changed_all & risky
        verdicts = np.zeros(len(test_column), dtype=np.int8)
        for t in tests:
            cov = cov_now[t]
            overlap = len(cov & dangerous) / max(len(cov), 1)
            p_fail = min(cfg.base_failure + cfg.failure_weight * overlap, 0.95)
            # a failure, or a flaky test's chance one, is an assertion (1) or an exception (2)
            if rng.random() < p_fail or (t in flaky and rng.random() < cfg.flaky_prob):
                verdicts[slot[t]] = rng.choice([1, 2])
        builds.append(
            Build(
                id=k,
                commits=tuple(commit_ids),
                tests=test_column,
                verdicts=verdicts,
                durations=durations,
                wall_clock=t0 + timedelta(hours=k),
            )
        )

    return BuildHistory(builds, commit_store), sources


def write_synthetic_dataset(
    root: Path, config: SynthConfig = SynthConfig(), seed: int = 0
) -> DatasetLayout:
    """Generate and persist a dataset (CSVs, commits.jsonl, src tree)."""
    history, sources = generate_synthetic_history(config, seed)
    layout = write_dataset(history, root)
    for folder in {os.path.dirname(path) for path in sources}:
        (root / folder).mkdir(parents=True, exist_ok=True)
    for path, text in sources.items():
        (root / path).write_text(text, encoding="utf-8")
    return layout


def load_sources(layout: DatasetLayout) -> Sources:
    """Read the dataset's source snapshot into a {path: text} mapping that
    holds each text's row.

    Each ``.java`` file under ``src/`` (or a symlink to one) is keyed by its
    path from the dataset root, in the order of a pre-order walk, and read
    as UTF-8 with undecodable bytes replaced and universal newlines.  A
    symlinked directory inside the snapshot is not entered, and a broken
    symlink is skipped.

    A row comes from the source table when it holds one for the sha256 of
    the file's bytes.  The row of each other distinct content is computed
    once, and then the table is written anew with the rows of the
    snapshot's contents only.
    A table that cannot be read or written is left aside: it never changes
    the result.
    """
    src = layout.src_dir
    if src is None:
        return Sources({})
    top = str(src)
    data = {}
    for dirpath, _, names in os.walk(top):
        prefix = src.name + dirpath[len(top):]
        for name in names:
            path = os.path.join(dirpath, name)
            if name.endswith(".java") and os.path.isfile(path):
                with open(path, "rb") as f:
                    data[os.path.join(prefix, name)] = f.read()
    texts = {path: _decode(raw) for path, raw in data.items()}
    keys = {path: hashlib.sha256(raw).digest() for path, raw in data.items()}
    rules = _rules_digest()
    table = _read_source_table(layout.source_table, rules) if rules else {}
    missing = {key: path for path, key in keys.items() if key not in table}
    for key, path in missing.items():
        table[key] = source_row(texts[path])
    if missing and rules:
        kept = {key: table[key] for key in keys.values()}
        _write_source_table(layout.source_table, _source_table(kept, rules))
    return Sources(texts, {path: table[key] for path, key in keys.items()})


def _decode(raw: bytes) -> str:
    """The text ``open`` reads from ``raw`` with UTF-8, ``errors="replace"``
    and universal newlines."""
    return raw.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


# --- the source table -----------------------------------------------------
#
# derived/sources.bin, all numbers little-endian:
#   magic, rules digest, payload sha256, then the payload: the row count
#   (u64); per row the sha256 of a source file's bytes, ascending; per row
#   its COMPLEXITY_METRICS (f64); and one UTF-8 line per row that holds its
#   imports, a tab, and its type names.  Items are parted by a space, and
#   an import is written as two flags, "s" or "-" for static and "*" or "-"
#   for a wildcard, before its dotted name.
# The rules digest is the sha256 of code_analysis.py and the metric names,
# so a table is only read under the rules that wrote it.  A change to
# _decode changes the text of a file's bytes, so it must change the magic.

_SOURCE_MAGIC = b"tcpci source table 1\n"
_DIGEST = hashlib.sha256().digest_size
_ROW_COUNT = struct.Struct("<Q")
#: No complexity metric reaches this; a table value that does is damage.
_METRIC_LIMIT = 2.0**53


def _rules_digest() -> bytes | None:
    """The sha256 of the rules a row follows; None when
    ``code_analysis.py`` cannot be read."""
    try:
        code = Path(code_analysis.__file__).read_bytes()
    except (OSError, TypeError):
        return None
    return hashlib.sha256(code + "\n".join(COMPLEXITY_METRICS).encode()).digest()


def _source_table(rows: dict[bytes, SourceRow], rules: bytes) -> bytes:
    """The table of ``rows``, each keyed by the sha256 of its file's bytes."""
    keys = sorted(rows)
    metrics = np.array([rows[k].metrics for k in keys], "<f8")
    lines = (
        " ".join(("s" if static else "-") + ("*" if star else "-") + name
                 for static, name, star in rows[k].imports)
        + "\t" + " ".join(rows[k].types) + "\n"
        for k in keys
    )
    payload = b"".join(
        [_ROW_COUNT.pack(len(keys)), *keys, metrics.tobytes(), "".join(lines).encode()]
    )
    return _SOURCE_MAGIC + rules + hashlib.sha256(payload).digest() + payload


def _read_source_table(path: Path, rules: bytes) -> dict[bytes, SourceRow]:
    """The rows of the table at ``path`` by key; none when the table is
    missing, unreadable, written under other rules, or damaged."""
    try:
        data = path.read_bytes()
    except OSError:
        return {}
    head = len(_SOURCE_MAGIC) + 2 * _DIGEST
    payload = memoryview(data)[head:]
    if (
        data[: len(_SOURCE_MAGIC)] != _SOURCE_MAGIC
        or data[len(_SOURCE_MAGIC) : len(_SOURCE_MAGIC) + _DIGEST] != rules
        or data[head - _DIGEST : head] != hashlib.sha256(payload).digest()
    ):
        return {}
    width = len(COMPLEXITY_METRICS)
    try:
        (n,) = _ROW_COUNT.unpack_from(payload)
        at = _ROW_COUNT.size + n * _DIGEST
        keys = bytes(payload[_ROW_COUNT.size : at])
        metrics = np.frombuffer(payload, "<f8", n * width, at).reshape(n, width)
        lines = str(payload[at + metrics.nbytes :], "utf-8").split("\n")
    except (ValueError, OverflowError, struct.error):
        return {}
    if lines.pop() or len(lines) != n or not ((metrics >= 0) & (metrics < _METRIC_LIMIT)).all():
        return {}
    metrics = metrics.astype(np.float64)
    rows = {}
    for i, line in enumerate(lines):
        imports, _, types = line.partition("\t")
        items = filter(None, imports.split(" "))
        rows[keys[i * _DIGEST : (i + 1) * _DIGEST]] = SourceRow(
            tuple((item[:1] == "s", item[2:], item[1:2] == "*") for item in items),
            tuple(filter(None, types.split(" "))),
            metrics[i],
        )
    return rows


def _write_source_table(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file beside it; a
    failure only logs a line."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(exist_ok=True)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        log.info("source table %s not written: %s", path, exc)
