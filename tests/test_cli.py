"""Tests for the command-line interface."""

import pytest

from repro.api.runner import ExperimentRunner
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "trace", "waste", "orchestrate", "mfu", "cost", "goodput", "schedule",
        ):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.func)

    @pytest.mark.parametrize("gpus", ["1027", "0"])
    def test_orchestrate_gpus_must_fill_whole_nodes(self, capsys, gpus):
        # The runner simulates gpus // 4 nodes, so another value would print a
        # cluster size it does not simulate.
        with pytest.raises(SystemExit) as exit_info:
            main(["orchestrate", "--gpus", gpus, "--tp", "4"])
        assert exit_info.value.code == 2
        assert (f"argument --gpus: '{gpus}' is not a positive multiple of the 4 GPUs per node"
                in capsys.readouterr().err)


class TestCommands:
    def test_cost_command(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "InfiniteHBD(K=2)" in out
        assert "NVL-72" in out

    def test_cost_command_with_hpn(self, capsys):
        main(["cost", "--include-hpn"])
        assert "Alibaba-HPN" in capsys.readouterr().out

    def test_mfu_command(self, capsys):
        assert main(["mfu", "--model", "llama", "--gpus", "1024"]) == 0
        out = capsys.readouterr().out
        assert "best: TP=" in out
        assert "mfu=" in out

    def test_mfu_command_with_tp_cap(self, capsys):
        main(["mfu", "--model", "llama", "--gpus", "4096", "--max-tp", "8"])
        out = capsys.readouterr().out
        assert "TP=8" in out or "TP=4" in out or "TP=2" in out

    def test_trace_command(self, capsys, tmp_path):
        output = tmp_path / "trace.csv"
        assert main(["trace", "--days", "30", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "mean_ratio=" in out
        assert output.exists()
        assert output.read_text().startswith("node_id,start_hour,end_hour")

    def test_trace_command_4gpu_conversion(self, capsys):
        main(["trace", "--days", "20", "--gpus-per-node", "4"])
        assert "gpus_per_node=4" in capsys.readouterr().out

    def test_orchestrate_command(self, capsys):
        assert main([
            "orchestrate", "--gpus", "1024", "--fault-ratio", "0.02",
            "--tors-per-domain", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "optimized" in out

    def test_waste_command_small(self, capsys):
        assert main(["waste", "--days", "20", "--nodes", "288"]) == 0
        out = capsys.readouterr().out
        assert "InfiniteHBD(K=3)" in out
        assert "SiP-Ring" in out

    def test_goodput_command_small(self, capsys):
        assert main([
            "goodput", "--days", "20", "--nodes", "288", "--job-gpus", "1024",
        ]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "InfiniteHBD(K=2)" in out

    def test_schedule_command_small(self, capsys):
        assert main([
            "schedule", "--days", "20", "--nodes", "288", "--jobs", "30",
            "--policy", "smallest-first", "--preemptive", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy=smallest-first preemptive=True" in out
        assert "InfiniteHBD(K=3)" in out
        assert "NVL-72" in out


class TestThroughTheRunner:
    """Each computing subcommand formats the rows of one runner run."""

    @pytest.mark.parametrize(
        ("argv", "experiment"),
        [
            (["waste", "--days", "5", "--nodes", "96", "--workers", "1"], "waste"),
            (
                ["goodput", "--days", "5", "--nodes", "96", "--job-gpus", "128",
                 "--workers", "1"],
                "goodput",
            ),
            (
                ["schedule", "--days", "5", "--nodes", "96", "--jobs", "5",
                 "--workers", "1"],
                "schedule",
            ),
            (["orchestrate", "--gpus", "1024", "--tors-per-domain", "16"], "cross_tor"),
            (["mfu", "--gpus", "1024"], "mfu"),
            (["cost"], "cost"),
        ],
        ids=["waste", "goodput", "schedule", "orchestrate", "mfu", "cost"],
    )
    def test_runs_the_runner_once(self, monkeypatch, capsys, argv, experiment):
        runs = []
        run = ExperimentRunner.run
        monkeypatch.setattr(
            ExperimentRunner,
            "run",
            lambda runner: runs.append(runner.spec.experiments) or run(runner),
        )
        assert main(argv) == 0
        assert runs == [(experiment,)]

    @pytest.mark.parametrize(
        ("argv", "stdout"),
        [
            (
                ["orchestrate", "--gpus", "1024", "--fault-ratio", "0.02"],
                "cluster=1024 GPUs  job=864 GPUs (TP-32)  faults=5 nodes (2.0%)\n"
                "greedy     satisfied=True constraints=0 cross_tor_rate=0.0806\n"
                "optimized  satisfied=True constraints=5 cross_tor_rate=0.0065\n",
            ),
            (
                ["mfu", "--model", "llama", "--gpus", "1024"],
                "model=Llama-3.1-405B (MHA) gpus=1024 global_batch=2048\n"
                "best: TP=8 PP=4 DP=32 EP=1\n"
                "mfu=0.5657 iteration_time_s=85.054 bubble=0.045 memory_GiB=63.4\n",
            ),
            (
                ["cost", "--include-hpn"],
                "architecture              $/GPU    W/GPU   $/GBps   W/GBps\n"
                "TPUv4                   1567.20    19.39     5.22    0.065\n"
                "NVL-36                  9563.20    75.95    10.63    0.084\n"
                "NVL-72                  9563.20    75.95    10.63    0.084\n"
                "NVL-36x2               17924.00   152.12    19.92    0.169\n"
                "NVL-576                30417.60   413.45    33.80    0.459\n"
                "Alibaba-HPN             1042.49    90.75    20.85    1.815\n"
                "InfiniteHBD(K=2)        2626.80    48.10     3.28    0.060\n"
                "InfiniteHBD(K=3)        3740.60    72.05     4.68    0.090\n",
            ),
        ],
        ids=["orchestrate", "mfu", "cost"],
    )
    def test_stdout_is_unchanged(self, capsys, argv, stdout):
        assert main(argv) == 0
        assert capsys.readouterr().out == stdout
