"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Because the
absolute numbers come from the calibrated emulator rather than the original
clusters, each benchmark prints a paper-style text table (and writes it under
``benchmarks/results/``) so the shape can be compared against the published
values side by side.

Benchmarks that track a cross-PR perf trajectory pass their result ``record``
(and the trajectory file) to :func:`emit` as well: the text report and the
JSON record are then written from the **same in-memory object** — the
``record:`` footer of every ``results/*.txt`` is the exact JSON appended to
the trajectory file, so the two can never drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.persistence import atomic_write

RESULTS_DIR = Path(__file__).parent / "results"


def append_bench_record(bench_json: Path, record: dict) -> None:
    """Append one result record to a cross-PR perf trajectory file.

    The file is rewritten atomically.  A trajectory that does not parse as a
    JSON list raises instead of being replaced, so a damaged history keeps
    its bytes for inspection rather than silently restarting from empty.
    """
    history = []
    if bench_json.exists():
        try:
            history = json.loads(bench_json.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{bench_json} is not valid JSON ({exc}); refusing to "
                "overwrite the trajectory") from exc
        if not isinstance(history, list):
            raise ValueError(f"{bench_json} does not hold a JSON list of "
                             "records; refusing to overwrite it")
    history.append(record)
    with atomic_write(bench_json) as handle:
        handle.write(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Print a report block and persist it to benchmarks/results/<name>.txt.

    When ``record`` is given, its JSON is appended to the text report as a
    ``record:`` footer; when ``bench_json`` is given too, the same object is
    appended to that trajectory file.
    """

    def _emit(name: str, text: str, record: dict | None = None,
              bench_json: Path | None = None) -> None:
        if record is not None:
            text = text + "\n\nrecord: " + json.dumps(record, sort_keys=True)
        banner = "=" * 78
        print(f"\n{banner}\n{name}\n{banner}\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        if record is not None and bench_json is not None:
            append_bench_record(bench_json, record)

    return _emit
