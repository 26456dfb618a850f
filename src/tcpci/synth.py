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
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import derived, source_rows
from .catalog import COMPLEXITY_METRICS
from .code_analysis import Sources
from .errors import InvalidConfigError, check_fields
from .ingest import DatasetLayout, write_dataset
from .model import Build, BuildHistory, Commit, FileChange
from .source_rows import SourceRow, source_row


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
    path from the dataset root, in the order of a pre-order walk.  Its bytes
    are read with one ``os.open`` and an ``os.read`` loop, and decoded as
    ``open`` reads text: UTF-8 with undecodable bytes replaced and universal
    newlines.  A symlinked directory inside the snapshot is not entered, and
    a broken symlink is skipped.

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
    data: dict[str, bytes] = {}
    _read_java_files(str(src), src.name, data)
    texts = {path: _decode(raw) for path, raw in data.items()}
    keys = {path: hashlib.sha256(raw).digest() for path, raw in data.items()}
    rules = _rules_digest()
    table = _read_source_table(layout.source_table, rules) if rules else {}
    missing = {key: path for path, key in keys.items() if key not in table}
    for key, path in missing.items():
        table[key] = source_row(texts[path])
    if missing and rules:
        payload = _source_payload({key: table[key] for key in keys.values()})
        derived.write(layout.source_table, derived.pack(_SOURCE_MAGIC, rules, payload))
    return Sources(texts, {path: table[key] for path, key in keys.items()})


def _read_java_files(top: str, prefix: str, data: dict[str, bytes]) -> None:
    """Add the bytes of each ``.java`` file (or symlink to one) under the
    directory ``top`` to ``data``, keyed by its path below ``prefix``.

    The order is that of ``os.walk``: a directory's files, then each of its
    subdirectories in turn, both as the directory lists them.  A symlinked
    directory is not entered, a directory that cannot be listed is skipped,
    and an entry whose type cannot be read (a symlink loop) is no file.
    The listing gives each entry's type, so only a symlink costs a ``stat``.
    """
    try:
        with os.scandir(top) as listing:
            entries = list(listing)
    except OSError:
        return
    subdirs = []
    for entry in entries:
        try:
            java = entry.name.endswith(".java") and entry.is_file()
            subdir = not java and entry.is_dir(follow_symlinks=False)
        except OSError:
            continue
        if java:
            data[os.path.join(prefix, entry.name)] = _read_bytes(entry.path)
        elif subdir:
            subdirs.append(entry)
    for entry in subdirs:
        _read_java_files(entry.path, os.path.join(prefix, entry.name), data)


#: Bytes asked of each ``os.read``: more than most source files hold.
_READ_SIZE = 1 << 16
#: The flags ``open(path, "rb")`` opens with (O_BINARY: no newline
#: translation on Windows); ``os.open`` adds close-on-exec itself.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``, read with one ``os.open`` and a
    loop of ``os.read`` that ends at the first empty read; no buffered file
    object is made, so a file smaller than ``_READ_SIZE`` costs an open,
    two reads and a close."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _decode(raw: bytes) -> str:
    """The text ``open`` reads from ``raw`` with UTF-8, ``errors="replace"``
    and universal newlines."""
    return raw.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


# --- the source table -----------------------------------------------------
#
# derived/sources.bin is keyed by the rules digest: the sha256 of
# source_rows.py, which holds every rule a row follows, and the metric
# names, so a table is only read under the rules that wrote it.  A change to
# _decode changes the text of a file's bytes, so it must change the magic.
# Its columns: the rows' keys, the sha256 of each source file's bytes,
# ascending, as one byte column; their COMPLEXITY_METRICS, row by row; per
# row its import count, then per import its dotted name and its static and
# wildcard flags; per row its type-name count, then the type names.

_SOURCE_MAGIC = b"tcpci source table 2\n"
_SOURCE_COLUMNS = ("u1", "<f8", "<i8", str, "u1", "u1", "<i8", str)
_DIGEST = hashlib.sha256().digest_size
#: No complexity metric reaches this; a table value that does is damage.
_METRIC_LIMIT = 2.0**53


def _rules_digest() -> bytes | None:
    """The sha256 of the rules a row follows; None when
    ``source_rows.py`` cannot be read."""
    try:
        code = Path(source_rows.__file__).read_bytes()
    except (OSError, TypeError):
        return None
    return hashlib.sha256(code + "\n".join(COMPLEXITY_METRICS).encode()).digest()


def _source_payload(rows: dict[bytes, SourceRow]) -> bytes:
    """The payload of the table of ``rows``, each keyed by the sha256 of its
    file's bytes."""
    keys = sorted(rows)
    imports = [item for k in keys for item in rows[k].imports]
    return derived.encode([
        np.frombuffer(b"".join(keys), "u1"),
        np.array([rows[k].metrics for k in keys], "<f8").ravel(),
        np.array([len(rows[k].imports) for k in keys], "<i8"),
        [name for _, name, _ in imports],
        np.array([static for static, _, _ in imports], "u1"),
        np.array([star for _, _, star in imports], "u1"),
        np.array([len(rows[k].types) for k in keys], "<i8"),
        [name for k in keys for name in rows[k].types],
    ])


def _read_source_table(path: Path, rules: bytes) -> dict[bytes, SourceRow]:
    """The rows of the table at ``path`` by key; none when the table is
    missing, unreadable, written under other rules, or damaged."""
    payload = derived.read(path, _SOURCE_MAGIC, rules)
    if payload is None or (columns := derived.decode(payload, _SOURCE_COLUMNS)) is None:
        return {}
    keys, metrics, n_imports, names, static, star, n_types, types = columns
    n, width = len(n_imports), len(COMPLEXITY_METRICS)
    if not (
        len(keys) == n * _DIGEST and len(metrics) == n * width and len(n_types) == n
        and len(names) == len(static) == len(star)
        and ((n_imports >= 0) & (n_imports <= len(names))).all() and n_imports.sum() == len(names)
        and ((n_types >= 0) & (n_types <= len(types))).all() and n_types.sum() == len(types)
        and ((metrics >= 0) & (metrics < _METRIC_LIMIT)).all()
    ):
        return {}
    keys, metrics = keys.tobytes(), metrics.reshape(n, width).astype(np.float64)
    imports = list(zip(static.astype(bool).tolist(), names, star.astype(bool).tolist()))
    import_ends, type_ends = np.cumsum(n_imports).tolist(), np.cumsum(n_types).tolist()
    bounds = zip([0, *import_ends], import_ends, [0, *type_ends], type_ends)
    return {
        keys[i * _DIGEST : (i + 1) * _DIGEST]: SourceRow(
            tuple(imports[lo:hi]), tuple(types[start:end]), metrics[i]
        )
        for i, (lo, hi, start, end) in enumerate(bounds)
    }
