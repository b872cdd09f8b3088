"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--model", "gpt99"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.model == "llama3"
        assert args.arch == "cloud"
        assert args.seq == 65536
        assert args.batch == 64
        assert not args.causal


class TestCommands:
    def test_compare_prints_all_executors(self, capsys):
        rc = main([
            "compare", "--model", "t5", "--seq", "2048",
            "--batch", "4", "--arch", "edge",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("unfused", "flat", "fusemax", "fusemax+lf",
                     "transfusion"):
            assert name in out

    def test_compile_prints_plan(self, capsys):
        rc = main([
            "compile", "--model", "bert", "--seq", "4096",
            "--batch", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tiling:" in out
        assert "mha" in out
        assert "per-layer latency" in out

    def test_inspect_renders_gantt(self, capsys):
        rc = main([
            "inspect", "--model", "bert", "--seq", "4096",
            "--batch", "8", "--layer", "mha",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steady-state period" in out
        assert "#" in out or "=" in out

    def test_inspect_unpipelined_layer(self, capsys):
        rc = main([
            "inspect", "--model", "bert", "--seq", "4096",
            "--batch", "8", "--layer", "qkv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "BQK" not in out  # qkv cascade, not attention
        assert "Q" in out

    def test_causal_flag_flows_through(self, capsys):
        rc = main([
            "compare", "--model", "t5", "--seq", "2048",
            "--batch", "4", "--causal",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "causal" in out


class TestStackAndDecodeCommands:
    def test_stack_prints_block_latencies(self, capsys):
        rc = main([
            "stack", "--model", "t5", "--encoder-layers", "2",
            "--decoder-layers", "2", "--src", "2048",
            "--tgt", "1024", "--batch", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "encoder (s)" in out
        assert "transfusion" in out

    def test_decode_prints_per_context_rows(self, capsys):
        rc = main([
            "decode", "--model", "bert", "--batch", "8",
            "--contexts", "1024", "4096",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1024" in out and "4096" in out
        assert "ms/step" in out
def test_compile_out_writes_plan(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "plan.json"
    rc = main([
        "compile", "--model", "t5", "--seq", "2048",
        "--batch", "4", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    import json

    document = json.loads(out.read_text())
    assert document["tiling"]["feasible"]


class TestSweepCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.models == ["llama3"]
        assert args.archs == ["cloud"]
        assert args.jobs is None
        assert not args.no_cache

    def test_warm_start_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["sweep", "--warm-start"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --warm-start" in (
            capsys.readouterr().err
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--models", "gpt99"]
            )

    def test_sweep_prints_grid(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        rc = main([
            "sweep", "--models", "t5", "--seqs", "1024", "2048",
            "--executors", "unfused", "transfusion",
            "--batch", "4", "--jobs", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unfused" in out and "transfusion" in out
        assert "1024" in out and "2048" in out
        assert "cache:" in out

    def test_sweep_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        rc = main([
            "sweep", "--models", "t5", "--seqs", "1024",
            "--executors", "unfused", "--batch", "4", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache:" not in out


class TestValidateCommand:
    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.executor == "transfusion"
        assert not args.out

    def test_validate_passes_and_writes_report(
        self, capsys, tmp_path
    ):
        import json

        out_path = tmp_path / "audit.json"
        rc = main([
            "validate", "--model", "bert", "--seq", "512",
            "--batch", "4", "--arch", "edge",
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        for auditor in ("schedule", "tiling", "conservation",
                        "oracle"):
            assert auditor in out
        assert "OK" in out
        document = json.loads(out_path.read_text())
        assert document["passed"] is True
        assert document["checks"]

    def test_validate_unfused_runs_subset(self, capsys):
        rc = main([
            "validate", "--executor", "unfused", "--model", "t5",
            "--seq", "512", "--batch", "4", "--arch", "edge",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conservation" in out and "oracle" in out
