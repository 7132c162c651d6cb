"""Result files are written atomically and fail loudly on corruption.

Covers :func:`repro.campaign.persistence.atomic_write` (the mkstemp +
``os.replace`` helper), the campaign result exports built on it, and the
benchmark harness's trajectory appender, which must refuse to overwrite a
history it cannot parse.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.campaign import CampaignResultStore
from repro.campaign.persistence import atomic_write
from repro.campaign.results import ScenarioResult

BENCH_CONFTEST = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"


def load_append_bench_record():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.append_bench_record


def only_file(directory: Path) -> Path:
    files = list(directory.iterdir())
    assert len(files) == 1, files  # no temporary file left behind
    return files[0]


def make_store() -> CampaignResultStore:
    return CampaignResultStore(campaign="atomic", results=[
        ScenarioResult(axes={"scenario_id": f"s{i}", "kind": "graph"},
                       metrics={"mean_penalty": 1.0 + i, "max_penalty": 2.0,
                                "total_time": 0.5},
                       penalties={"a": 1.0 + i})
        for i in range(3)
    ])


class TestAtomicWrite:
    def test_clean_exit_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as handle:
            handle.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert only_file(tmp_path) == path

    def test_writer_failing_mid_dump_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous bytes\n")
        with pytest.raises(RuntimeError, match="mid-dump"):
            with atomic_write(path) as handle:
                handle.write("half a rec")
                raise RuntimeError("mid-dump")
        assert path.read_bytes() == b"previous bytes\n"
        assert only_file(tmp_path) == path


    def test_interrupt_mid_dump_leaves_no_temporary_file(self, tmp_path):
        """Ctrl-C is not an ``Exception``: the temp file must go anyway."""
        path = tmp_path / "out.txt"
        path.write_bytes(b"previous bytes\n")
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(path) as handle:
                handle.write("half a rec")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"previous bytes\n"
        assert only_file(tmp_path) == path

    def test_missing_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "runs" / "2024" / "out.txt"
        with atomic_write(path) as handle:
            handle.write("first\n")
        assert path.read_text(encoding="utf-8") == "first\n"
        assert only_file(path.parent) == path


class TestCampaignResultExports:
    def test_json_and_csv_round_trip(self, tmp_path):
        store = make_store()
        store.to_json(tmp_path / "results.json")
        store.to_csv(tmp_path / "results.csv")
        loaded = CampaignResultStore.from_json(tmp_path / "results.json")
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in store]
        lines = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(store)

    def test_failing_json_export_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "results.json"
        make_store().to_json(path)
        before = path.read_bytes()
        broken = make_store()
        broken.results[1].metrics["mean_penalty"] = object()  # not JSON
        with pytest.raises(TypeError):
            broken.to_json(path)
        assert path.read_bytes() == before
        assert only_file(tmp_path) == path

    def test_failing_csv_export_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        store = make_store()
        store.to_csv(path)
        before = path.read_bytes()

        def rows_then_fail():
            yield store.results[0].row()
            raise RuntimeError("writer died mid-dump")

        monkeypatch.setattr(store, "rows", rows_then_fail)
        with pytest.raises(RuntimeError, match="mid-dump"):
            store.to_csv(path)
        assert path.read_bytes() == before
        assert only_file(tmp_path) == path


class TestBenchTrajectory:
    def test_appends_to_the_history(self, tmp_path):
        append = load_append_bench_record()
        path = tmp_path / "BENCH_x.json"
        append(path, {"run": 1})
        append(path, {"run": 2})
        assert json.loads(path.read_text(encoding="utf-8")) == [{"run": 1}, {"run": 2}]
        assert only_file(tmp_path) == path

    @pytest.mark.parametrize("payload", [b'[{"run": 1}, {"ru', b'{"run": 1}'],
                             ids=["truncated", "not-a-list"])
    def test_corrupt_history_raises_and_keeps_its_bytes(self, tmp_path, payload):
        append = load_append_bench_record()
        path = tmp_path / "BENCH_x.json"
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="refusing to overwrite"):
            append(path, {"run": 2})
        assert path.read_bytes() == payload
        assert only_file(tmp_path) == path
