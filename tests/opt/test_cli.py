"""The command-line interface (subcommands + legacy form) and DOT export."""

import json

import pytest

from repro.analysis import DatapathAnalysis
from repro.cli import build_parser, main, parse_range
from repro.egraph import EGraph
from repro.egraph.dot import to_dot
from repro.intervals import IntervalSet
from repro.ir import gt, mux, var
from repro.rtl import module_to_ir

SOURCE = """
module toy (input [7:0] a, input [7:0] b, output [8:0] y);
  wire [8:0] s = a + b;
  assign y = (s > 9'd510) ? 9'd510 : s;
endmodule
"""


def _chain(length: int, step) -> str:
    """A module whose wire ``w_i`` is ``step("w_{i-1}")``, ``length`` deep."""
    lines = ["module chain (input [7:0] x, output [7:0] y);", "  wire [7:0] w0 = x;"]
    lines += [f"  wire [7:0] w{i} = {step(f'w{i - 1}')};" for i in range(1, length + 1)]
    lines += [f"  assign y = w{length};", "endmodule"]
    return "\n".join(lines) + "\n"


class TestCli:
    def test_parse_range(self):
        name, iset = parse_range("x=128:255")
        assert name == "x" and iset == IntervalSet.of(128, 255)

    def test_parse_range_rejects_junk(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_range("x128")

    def test_legacy_invocation_maps_to_optimize(self, tmp_path, capsys):
        """`python -m repro design.v` (no subcommand) must keep working."""
        src = tmp_path / "toy.v"
        src.write_text(SOURCE)
        out = tmp_path / "opt.v"
        code = main([str(src), "-o", str(out), "--iters", "5"])
        assert code == 0
        text = out.read_text()
        assert "module optimized" in text
        # Round-trips through our own frontend and lost the dead clamp.
        outs = module_to_ir(text)
        assert "y" in outs
        report = capsys.readouterr().err
        assert "delay" in report and "EQUIVALENT" in report

    def test_optimize_subcommand_with_new_flags(self, tmp_path, capsys):
        src = tmp_path / "toy.v"
        src.write_text(SOURCE)
        out = tmp_path / "opt.v"
        code = main(
            [
                "optimize", str(src), "-o", str(out),
                "--iters", "5", "--time-limit", "30",
                "--split-threshold", "2", "--no-verify",
            ]
        )
        assert code == 0
        assert "module optimized" in out.read_text()
        assert "not checked" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "{path}"],
            ["{path}"],  # the bare legacy alias
            ["submit", "unused.sock", "fp_sub", "--source", "{path}"],
        ],
    )
    def test_missing_source_is_a_clean_error(self, tmp_path, argv):
        missing = tmp_path / "missing.v"
        with pytest.raises(SystemExit) as stop:
            main([arg.format(path=missing) for arg in argv])
        assert stop.value.code == (
            f"error: cannot read {missing}: No such file or directory"
        )

    def test_unreadable_source_exits_nonzero_without_traceback(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "conflict",
        [
            ["--warm-start", "a.egraph"],
            ["--objective", "ilp"],
            ["--auto-shard-nodes", "0"],
        ],
    )
    def test_composition_errors_exit_cleanly(self, tmp_path, conflict):
        """``--stitch`` needs a sharded run; each of these makes it
        monolithic, and the schedule check says so before any stage runs."""
        import subprocess
        import sys

        src = tmp_path / "toy.v"
        src.write_text(SOURCE)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "optimize", str(src), "--stitch", *conflict],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: stitch requires a sharded schedule\n"

    def test_save_egraph_on_the_default_path_writes_the_artifact(self, tmp_path):
        """The default ``auto_shard_nodes`` threshold yields to
        ``--save-egraph``: the run stays monolithic and saves its graph
        (sharded, it had no graph to save and wrote nothing)."""
        import subprocess
        import sys

        from repro.egraph.serialize import load_egraph

        src = tmp_path / "toy.v"
        src.write_text(SOURCE)
        saved = tmp_path / "toy.egraph"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "optimize", str(src), "--iters", "2",
             "--no-verify", "--save-egraph", str(saved)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert load_egraph(saved).egraph.node_count > 0

    def test_sharded_save_egraph_without_stitch_exits_cleanly(self, tmp_path):
        """Explicit shards without ``--stitch`` leave no merged graph, so
        saving one is a composition error, reported before any stage runs."""
        import subprocess
        import sys

        src = tmp_path / "toy.v"
        src.write_text(SOURCE)
        saved = tmp_path / "toy.egraph"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "optimize", str(src), "--shards", "2",
             "--save-egraph", str(saved)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: save-egraph on a sharded schedule requires stitch "
            "(unstitched shards leave no e-graph to save)\n"
        )
        assert not saved.exists()

    @pytest.mark.parametrize(
        "source, reason",
        [
            (
                "module m (input signed [3:0] a, output y); endmodule",
                "signed ports are not supported",
            ),
            (
                "module m (input [3:0] a, output y); assign y = b; endmodule",
                "undeclared identifier 'b'",
            ),
            (
                "module m (input [7:0] x, output [7:0] y); assign y = "
                + "(" * 400 + "x" + " + 8'd1)" * 400 + "; endmodule",
                "expression nesting too deep",
            ),
        ],
        ids=["signed", "undeclared", "deep"],
    )
    @pytest.mark.parametrize("command", [["optimize"], []], ids=["optimize", "alias"])
    def test_malformed_verilog_exits_cleanly(self, tmp_path, source, reason, command):
        """Parse and elaboration failures print their reason and exit 1,
        through the subcommand and the bare alias alike."""
        import subprocess
        import sys

        src = tmp_path / "bad.v"
        src.write_text(source)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command, str(src), "--no-verify"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {reason}\n"

    @pytest.mark.parametrize("command", [["optimize"], []], ids=["optimize", "alias"])
    def test_deep_mux_chain_is_optimized(self, tmp_path, command):
        """Each wire of this chain is read three times, so the tree is
        exponential in its 100 wires: hashing and input collection must
        stay linear in the DAG, and nothing may recurse per level."""
        import subprocess
        import sys

        src = tmp_path / "mux_chain.v"
        src.write_text(_chain(100, lambda w: f"({w} > 8'd3) ? {w} - 8'd1 : {w}"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command, str(src), "--no-verify",
             "--iters", "1", "-o", str(tmp_path / "out.v")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("y: delay 900.0 -> ")

    @pytest.mark.parametrize("command", [["optimize"], []], ids=["optimize", "alias"])
    @pytest.mark.parametrize(
        "step",
        [lambda w: f"{w} + 8'd1", lambda w: f"({w} > 8'd3) ? {w} - 8'd1 : {w}"],
        ids=["add", "mux"],
    )
    def test_deep_chains_are_optimized(self, tmp_path, command, step):
        """200-wire chains pass every stage: extraction's tree rebuild and
        the Verilog emitter run on explicit stacks, not one Python frame
        per level."""
        import subprocess
        import sys

        src = tmp_path / "chain.v"
        src.write_text(_chain(200, step))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *command, str(src), "--no-verify",
             "--iters", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("y: delay ")
        assert proc.stdout.startswith("module optimized (")

    def test_too_deep_design_exits_cleanly(self, tmp_path, monkeypatch):
        """A ``RecursionError`` from any pass ends in a one-line error, not
        a traceback."""
        from repro.opt.optimizer import DatapathOptimizer

        def too_deep(self, source):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(DatapathOptimizer, "optimize_verilog", too_deep)
        src = tmp_path / "toy.v"
        src.write_text(SOURCE)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", str(src), "--no-verify"])
        assert str(exc.value) == (
            "error: design too deep to optimize "
            "(maximum recursion depth exceeded)"
        )

    def test_summary_prints_the_dag_area(self, tmp_path, capsys):
        """Each wire of the mux chain is read three times, so its tree area
        is exponential in the chain's length; the summary leads with the
        area of the shared hardware and labels the tree figure."""
        src = tmp_path / "mux_chain.v"
        src.write_text(_chain(100, lambda w: f"({w} > 8'd3) ? {w} - 8'd1 : {w}"))
        assert main(["optimize", str(src), "--no-verify", "--iters", "1",
                     "-o", str(tmp_path / "out.v")]) == 0
        summary = capsys.readouterr().err
        assert summary.startswith(
            "y: delay 900.0 -> 900.0, dag area 6870.0 -> 6570.0, tree area "
        ), summary
        assert "e+49" in summary

    def test_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "optimize", "f.v", "--range", "x=0:3", "--no-verify",
                "--nodes", "100", "--time-limit", "7.5", "--split-threshold", "3",
            ]
        )
        assert args.ranges[0][0] == "x"
        assert args.no_verify and args.nodes == 100
        assert args.time_limit == 7.5 and args.split_threshold == 3


class TestSubcommands:
    def test_bench_writes_records_and_report_reads_them(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        code = main(
            [
                "bench", "--designs", "lzc_example", "--iters", "3",
                "--nodes", "6000", "--records", str(records),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "lzc_example" in table and "Optimized" in table

        saved = json.loads(records.read_text())
        assert len(saved) == 1 and saved[0]["design"] == "lzc_example"

        # A second bench appends rather than overwrites.
        assert main(
            [
                "bench", "--designs", "lzc_example", "--iters", "3",
                "--nodes", "6000", "--records", str(records),
            ]
        ) == 0
        assert len(json.loads(records.read_text())) == 2
        capsys.readouterr()

        assert main(["report", str(records)]) == 0
        assert "lzc_example" in capsys.readouterr().out

    def test_bench_records_preserve_dict_layout_files(self, tmp_path, capsys):
        """Appending into a BENCH_perf.json-style payload must not destroy
        the non-record keys."""
        records = tmp_path / "perf.json"
        records.write_text(json.dumps({"wall_s": 0.2, "records": []}))
        assert main(
            [
                "bench", "--designs", "lzc_example", "--iters", "3",
                "--nodes", "6000", "--records", str(records),
            ]
        ) == 0
        capsys.readouterr()
        saved = json.loads(records.read_text())
        assert saved["wall_s"] == 0.2
        assert len(saved["records"]) == 1

    @pytest.mark.parametrize("workers", ("0", "-2", "two"))
    def test_workers_must_be_a_positive_integer(self, workers, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--workers", workers])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --workers" in err and "Traceback" not in err

    def test_workers_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["bench"]).workers is None  # one per usable CPU
        assert parser.parse_args(["bench", "--workers", "3"]).workers == 3

    def test_bench_runs_in_process_with_one_worker(self, monkeypatch, capsys):
        import repro.pipeline.session as session_mod

        def boom(*args, **kwargs):
            raise AssertionError("--workers 1 must not build a process pool")

        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", boom)
        code = main(
            [
                "bench", "--designs", "lzc_example,float_to_unorm",
                "--iters", "1", "--workers", "1",
            ]
        )
        assert code == 0
        assert "float_to_unorm" in capsys.readouterr().out

    def test_sweep_prints_objective_curve(self, capsys):
        code = main(
            ["sweep", "lzc_example", "--iters", "3", "--area-weights", "0,0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "area_weight" in out
        assert len([line for line in out.splitlines() if line.strip()]) >= 3

    def test_bench_unknown_design_fails_cleanly(self, capsys):
        code = main(["bench", "--designs", "nope", "--iters", "2"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    def test_report_flags_failed_records(self, tmp_path, capsys):
        """`report` uses the same exit contract as `bench`."""
        records = tmp_path / "records.json"
        records.write_text(json.dumps([
            {"job": "bad", "design": "nope", "status": "error", "error": "boom"}
        ]))
        assert main(["report", str(records)]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestDot:
    def test_dot_contains_classes_and_ranges(self):
        g = EGraph([DatapathAnalysis()])
        x = var("x", 4)
        g.add_expr(mux(gt(x, 2), x + 1, x))
        g.rebuild()
        text = to_dot(g)
        assert text.startswith("digraph egraph")
        assert "cluster_" in text
        assert "[0, 15]" in text  # the interval annotation
        assert "->" in text

    def test_dot_respects_limit(self):
        g = EGraph([DatapathAnalysis()])
        for i in range(30):
            g.add_expr(var(f"v{i}", 4) + i)
        text = to_dot(g, max_classes=5)
        assert text.count("subgraph") == 5
