"""Tests for the command line interface and the unit helpers."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.units import (
    GBIT,
    MB,
    format_rate,
    format_size,
    format_time,
    parse_size,
)


class TestUnits:
    @pytest.mark.parametrize("text,expected", [
        ("20M", 20 * MB),
        ("4MB", 4 * MB),
        ("512k", 512_000),
        ("1GiB", 1 << 30),
        (1024, 1024),
        ("0", 0),
    ])
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["-5", "12parsecs", "MB", ""])
    def test_parse_size_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_size(text)

    def test_format_size(self):
        assert format_size(20 * MB) == "20 MB"
        assert format_size(512) == "512 B"

    def test_format_time(self):
        assert format_time(1.5).endswith("s")
        assert "ms" in format_time(0.002)
        assert "us" in format_time(2e-6)

    def test_format_rate(self):
        assert "MB/s" in format_rate(93.75e6)
        assert "GB/s" in format_rate(2e9)

    def test_gbit_constant(self):
        assert GBIT == pytest.approx(125_000_000)


class TestCli:
    def test_predict_inline_scheme(self, capsys):
        code = main(["predict", "--network", "ethernet", "--scheme", "0->1 0->2 0->3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.25" in out
        assert "gigabit-ethernet" in out

    def test_predict_explicit_model(self, capsys):
        code = main(["predict", "--network", "myrinet", "--model", "myrinet",
                     "--scheme", "0->1 0->2", "--size", "4M"])
        assert code == 0
        assert "2.0" in capsys.readouterr().out

    def test_measure_scheme_file(self, tmp_path, capsys):
        scheme = tmp_path / "scheme.scm"
        scheme.write_text("scheme demo\nsize 20M\n0 -> 1 : a\n0 -> 2 : b\n")
        code = main(["measure", "--network", "myrinet", "--scheme-file", str(scheme),
                     "--iterations", "1", "--hosts", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "penalty" in out and "demo" in out

    def test_calibrate(self, capsys):
        code = main(["calibrate", "--network", "ethernet", "--iterations", "1",
                     "--hosts", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "beta" in out
        beta_line = next(line for line in out.splitlines() if line.startswith("beta"))
        assert float(beta_line.split(":")[1]) == pytest.approx(0.75, abs=0.01)

    def test_missing_scheme_reports_error(self, capsys):
        code = main(["predict", "--network", "ethernet"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCli:
    def test_simulate_writes_a_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "sim.jsonl"
        code = main(["simulate", "--workload", "broadcast", "--hosts", "4",
                     "--bg-rate", "150", "--bg-max-flows", "3",
                     "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out and str(trace_path) in out
        from repro.trace import read_trace_log

        log = read_trace_log(trace_path)
        assert log.meta()["workload"] == "broadcast"
        assert log.kinds()["task.event"] > 0

    def test_trace_record_summarize_replay_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code = main(["trace", "record", "--workload", "ring-allgather",
                     "--hosts", "4", "--bg-rate", "120", "--bg-size", "1M",
                     "--bg-max-flows", "6", "--out", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace recorded" in out
        assert trace_path.exists()

        code = main(["trace", "summarize", str(trace_path), "--bins", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace timeline" in out
        assert "records:" in out

        code = main(["trace", "replay", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay reproduces the recorded run: yes" in out

    def test_emulated_trace_record_replays(self, tmp_path, capsys):
        trace_path = tmp_path / "emulated.jsonl"
        assert main(["trace", "record", "--workload", "ring-allgather",
                     "--hosts", "4", "--mode", "emulated", "--bg-rate", "120",
                     "--bg-size", "1M", "--bg-max-flows", "8",
                     "--out", str(trace_path)]) == 0
        capsys.readouterr()
        from repro.trace import read_trace_log

        assert read_trace_log(trace_path).meta()["mode"] == "emulated"
        code = main(["trace", "replay", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay reproduces the recorded run: yes" in out

    def test_simulate_emulated_prints_the_clean_and_loaded_rows(self, capsys):
        code = main(["simulate", "--workload", "broadcast", "--hosts", "4",
                     "--mode", "emulated", "--bg-rate", "150",
                     "--bg-max-flows", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(emulated, RRP)" in out
        rows = [line.split() for line in out.splitlines()]
        assert [row[0] for row in rows if row and row[0] in ("clean", "loaded")] \
            == ["clean", "loaded"]
        assert "foreground slowdown" in out

    def test_cli_and_campaign_traces_of_one_scenario_agree(self, tmp_path, capsys):
        """`trace record` and a campaign trace of the same scenario run one
        path: past their run.meta headers the files are byte-identical."""
        import json

        cli_path = tmp_path / "cli.jsonl"
        assert main(["trace", "record", "--workload", "ring-allgather",
                     "--hosts", "4", "--size", "1M", "--bg-rate", "120",
                     "--bg-size", "1M", "--bg-max-flows", "8",
                     "--out", str(cli_path)]) == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "one-ring",
            "workloads": [{"kind": "collective", "name": "ring-allgather",
                           "params": {"size": "1M"}}],
            "host_counts": [4],
            "interference": [{"name": "loaded", "background": {
                "rate": 120, "size": "1M", "max_flows": 8}}],
        }))
        trace_dir = tmp_path / "traces"
        assert main(["campaign", "--spec", str(spec_path),
                     "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        (campaign_path,) = trace_dir.glob("*.jsonl")
        cli_lines = cli_path.read_text().splitlines()
        campaign_lines = campaign_path.read_text().splitlines()
        assert '"run.meta"' in cli_lines[1] and '"run.meta"' in campaign_lines[1]
        assert len(cli_lines) > 10
        assert cli_lines[2:] == campaign_lines[2:]

    def test_trace_replay_with_overrides_is_informational(self, tmp_path, capsys):
        """Cross-scenario replay (override flags) must not claim or fail
        the bit-exactness check."""
        trace_path = tmp_path / "run.jsonl"
        assert main(["trace", "record", "--workload", "broadcast",
                     "--hosts", "4", "--bg-rate", "100", "--bg-max-flows", "3",
                     "--out", str(trace_path)]) == 0
        capsys.readouterr()
        code = main(["trace", "replay", str(trace_path),
                     "--hosts", "6", "--tasks", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "not comparable" in out
        assert "reproduces" not in out

    def test_campaign_trace_is_replayable(self, tmp_path, capsys):
        """Campaign-written traces carry run.meta and feed `trace replay`,
        LINPACK (workload name `hpl`) and non-default arguments included."""
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "replayable",
            "workloads": [
                {"kind": "collective", "name": "broadcast",
                 "params": {"size": "1M", "root": 2}},
                {"kind": "linpack", "name": "hpl",
                 "params": {"problem_size": 1000, "block_size": 250,
                            "num_tasks": 4, "panel_fraction": 0.5}},
            ],
            "host_counts": [4],
            "interference": [
                {"name": "bg",
                 "background": {"rate": 150, "size": "2M", "max_flows": 3}},
            ],
        }))
        trace_dir = tmp_path / "traces"
        assert main(["campaign", "--spec", str(spec_path),
                     "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        trace_files = sorted(trace_dir.glob("*.jsonl"))
        assert len(trace_files) == 2
        for trace_file in trace_files:
            code = main(["trace", "replay", str(trace_file)])
            out = capsys.readouterr().out
            assert code == 0, (trace_file.name, out)
            assert "replay reproduces the recorded run: yes" in out, trace_file.name

    def test_trace_replay_rejects_a_metaless_trace(self, tmp_path, capsys):
        from repro.trace import JsonlTraceSink

        path = tmp_path / "no-meta.jsonl"
        JsonlTraceSink(path).close()
        code = main(["trace", "replay", str(path)])
        assert code == 2
        assert "run.meta" in capsys.readouterr().err

    def test_campaign_trace_dir_prints_the_summary_table(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-trace",
            "workloads": [{"kind": "collective", "name": "broadcast",
                           "params": {"size": "1M"}}],
            "host_counts": [4],
            "interference": [
                "none",
                {"name": "bg",
                 "background": {"rate": 150, "size": "2M", "max_flows": 4}},
            ],
        }))
        trace_dir = tmp_path / "traces"
        code = main(["campaign", "--spec", str(spec_path),
                     "--trace-dir", str(trace_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary: 2 scenario traces" in out
        assert "placement robustness" in out
        assert len(list(trace_dir.glob("*.jsonl"))) == 2


class TestCampaignCli:
    def test_a_failing_scenario_exits_1_and_the_rest_is_written(self, tmp_path,
                                                                capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "graph-fails-on-myrinet",
            "workloads": [{"kind": "synthetic", "name": "complete"}],
            "networks": ["ethernet", "myrinet"],
            "host_counts": [8],
        }))
        out_path = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        code = main(["campaign", "--spec", str(spec_path), "--workers", "2",
                     "--out", str(out_path), "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 of 2 scenarios failed" in out
        assert "001-complete-myrinet-auto-h8-s0" in out
        written = json.loads(out_path.read_text())
        assert [r["axes"]["network"] for r in written["results"]] == ["ethernet"]
        assert [f["axes"]["network"] for f in written["failures"]] == ["myrinet"]
        assert len(csv_path.read_text().splitlines()) == 2  # header + one row

    def test_a_failed_scenarios_partial_trace_is_marked(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "app-fails-on-myrinet",
            "workloads": [{"kind": "collective", "name": "alltoall",
                           "params": {"size": "1M"}}],
            "networks": ["myrinet"],
            "host_counts": [16],
            "interference": [{"name": "loaded", "background": {
                "rate": 400, "size": "4M", "max_flows": 75}}],
        }))
        trace_dir = tmp_path / "traces"
        code = main(["campaign", "--spec", str(spec_path),
                     "--trace-dir", str(trace_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "000-alltoall-myrinet-auto-h16-RRP-s0-loaded (failed)" in out
        assert "1 of 1 scenarios failed" in out


class TestObservabilityCli:
    def record_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main(["trace", "record", "--workload", "broadcast",
                     "--hosts", "4", "--bg-rate", "120", "--bg-max-flows", "3",
                     "--out", str(trace_path)]) == 0
        capsys.readouterr()
        return trace_path

    def test_summarize_json_matches_the_text_view(self, tmp_path, capsys):
        import json

        trace_path = self.record_trace(tmp_path, capsys)
        assert main(["trace", "summarize", str(trace_path), "--json",
                     "--bins", "5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"summary", "bins"}
        assert len(record["bins"]) == 5
        assert main(["trace", "summarize", str(trace_path), "--bins", "5"]) == 0
        text = capsys.readouterr().out
        # both views are rendered from the same in-memory record
        assert f"records: {record['summary']['records']}" in text
        assert "trace timeline" in text

    def test_tail_once_reports_and_summarizes(self, tmp_path, capsys):
        trace_path = self.record_trace(tmp_path, capsys)
        code = main(["trace", "tail", str(trace_path), "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tail: +" in out
        assert "trace tail:" in out  # the final timeline table

    def test_a_reader_closing_stdout_early_gets_no_traceback(self, tmp_path, capsys):
        """``repro trace summarize run.jsonl | head -n 1`` stops quietly with
        the broken-pipe status.  With 3000 timeline bins the report is larger
        than a pipe holds, so the command is still writing when the reader
        closes its end after the first line."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.cli import BROKEN_PIPE_STATUS

        trace_path = self.record_trace(tmp_path, capsys)
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(Path(repro.__file__).parents[1]) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "summarize", str(trace_path),
             "--bins", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == BROKEN_PIPE_STATUS
        assert stderr == b""
        assert first.startswith(b"records:")

    def test_diff_identical_traces_exits_zero(self, tmp_path, capsys):
        trace_path = self.record_trace(tmp_path, capsys)
        code = main(["trace", "diff", str(trace_path), str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "traces identical" in out

    def test_diff_localizes_a_perturbed_record(self, tmp_path, capsys):
        import json

        trace_path = self.record_trace(tmp_path, capsys)
        lines = trace_path.read_text().splitlines()
        record = json.loads(lines[6])  # record 5 (line 7: header + 5 before)
        record["t"] = record.get("t", 0.0) + 123.0
        lines[6] = json.dumps(record)
        perturbed = tmp_path / "perturbed.jsonl"
        perturbed.write_text("\n".join(lines) + "\n")
        code = main(["trace", "diff", str(trace_path), str(perturbed)])
        out = capsys.readouterr().out
        assert code == 1
        assert "first divergence at record 5 (line 7)" in out
        assert "differing fields: t" in out

    def campaign_spec(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-progress",
            "workloads": [{"kind": "collective", "name": "broadcast",
                           "params": {"size": "1M"}}],
            "host_counts": [4],
            "interference": ["none"],
        }))
        return spec_path

    def test_campaign_progress_prints_progress_lines(self, tmp_path, capsys):
        code = main(["campaign", "--spec", str(self.campaign_spec(tmp_path)),
                     "--trace-dir", str(tmp_path / "traces"),
                     "--progress", "--progress-interval", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "progress:" in out
        assert "1/1 scenarios complete" in out

    def test_campaign_progress_on_worker_processes_matches_inline(self, tmp_path,
                                                                capsys):
        """With --progress the pool starts from the campaign's own thread."""
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-pool",
            "workloads": [
                {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
                {"kind": "synthetic", "name": "random-tree"},
            ],
            "networks": ["ethernet", "myrinet"],
            "host_counts": [4],
            "seeds": [0, 1],
        }))
        inline_out = tmp_path / "inline.json"
        pooled_out = tmp_path / "pooled.json"
        assert main(["campaign", "--spec", str(spec_path), "--workers", "1",
                     "--out", str(inline_out)]) == 0
        code = main(["campaign", "--spec", str(spec_path), "--workers", "2",
                     "--trace-dir", str(tmp_path / "traces"),
                     "--progress", "--progress-interval", "0.1",
                     "--out", str(pooled_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "progress:" in out
        assert "4/4 scenarios complete" in out
        inline = json.loads(inline_out.read_text())["results"]
        assert json.loads(pooled_out.read_text())["results"] == inline

    def test_campaign_metrics_every_samples_into_the_trace(self, tmp_path, capsys):
        from repro.trace import read_trace_log

        trace_dir = tmp_path / "traces"
        code = main(["campaign", "--spec", str(self.campaign_spec(tmp_path)),
                     "--trace-dir", str(trace_dir), "--metrics-every", "1"])
        assert code == 0
        capsys.readouterr()
        trace_file = next(iter(trace_dir.glob("*.jsonl")))
        kinds = read_trace_log(trace_file).kinds()
        assert kinds["metrics.sample"] > 0
