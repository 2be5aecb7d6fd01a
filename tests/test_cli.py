"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.telemetry.io import load_dataset


@pytest.fixture(scope="module")
def saved_fleet(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fleet"
    code = main(
        [
            "simulate",
            str(path),
            "--vendor",
            "I=120",
            "--horizon-days",
            "200",
            "--failure-boost",
            "30",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "out"])
        assert args.failure_boost == 20.0
        assert args.horizon_days == 540

    def test_train_defaults_match_paper(self):
        args = build_parser().parse_args(["train", "data"])
        assert args.feature_group == "SFWB"
        assert args.theta == 7

    def test_n_jobs_flag_on_parallel_subcommands(self):
        assert build_parser().parse_args(["train", "d"]).n_jobs == 1
        for command in ("train", "monitor"):
            args = build_parser().parse_args([command, "d", "--n-jobs", "4"])
            assert args.n_jobs == 4
        # chaos only runs the in-RAM monitor, which scores in-process.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "d", "--n-jobs", "4"])

    def test_split_algorithm_flag_on_training_subcommands(self):
        assert build_parser().parse_args(["train", "d"]).split_algorithm == "exact"
        for command in ("train", "monitor", "chaos"):
            args = build_parser().parse_args(
                [command, "d", "--split-algorithm", "hist"]
            )
            assert args.split_algorithm == "hist"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "d", "--split-algorithm", "bogus"])


class TestSimulate:
    def test_writes_loadable_dataset(self, saved_fleet):
        dataset = load_dataset(saved_fleet)
        assert dataset.n_drives == 120
        assert all(m.vendor == "I" for m in dataset.drives.values())

    def test_bad_vendor_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", str(tmp_path / "x"), "--vendor", "Z=10"])
        with pytest.raises(SystemExit):
            main(["simulate", str(tmp_path / "x"), "--vendor", "I=abc"])


class TestTrain:
    def test_prints_metrics(self, saved_fleet, capsys):
        code = main(
            [
                "train",
                str(saved_fleet),
                "--train-end-day",
                "140",
                "--eval-end-day",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TPR" in out
        assert "drive" in out and "record" in out

    def test_train_with_n_jobs_matches_serial(self, saved_fleet, capsys):
        from repro.parallel import fork_available

        if not fork_available():
            pytest.skip("parallel path requires fork")
        main(["train", str(saved_fleet), "--train-end-day", "140",
              "--eval-end-day", "200"])
        serial_out = capsys.readouterr().out
        main(["train", str(saved_fleet), "--train-end-day", "140",
              "--eval-end-day", "200", "--n-jobs", "2"])
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_train_with_hist_split_algorithm(self, saved_fleet, capsys):
        code = main(
            [
                "train",
                str(saved_fleet),
                "--train-end-day",
                "140",
                "--eval-end-day",
                "200",
                "--split-algorithm",
                "hist",
            ]
        )
        assert code == 0
        assert "TPR" in capsys.readouterr().out


class TestSummary:
    def test_prints_table6(self, saved_fleet, capsys):
        assert main(["summary", str(saved_fleet)]) == 0
        out = capsys.readouterr().out
        assert "Sum_RR" in out
        assert "I" in out


class TestMonitor:
    def test_runs_operation(self, saved_fleet, capsys):
        code = main(
            [
                "monitor",
                str(saved_fleet),
                "--start-day",
                "120",
                "--end-day",
                "200",
                "--window-days",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "lead time" in out

    def test_checkpoint_and_resume(self, saved_fleet, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        base = [
            "monitor",
            str(saved_fleet),
            "--start-day",
            "120",
            "--end-day",
            "200",
            "--window-days",
            "40",
            "--checkpoint-dir",
            checkpoint,
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        # resume finds all windows already scored and reports the same run
        assert second == first

    def test_n_jobs_rejected_on_in_ram_dataset(self, saved_fleet):
        with pytest.raises(SystemExit, match="--n-jobs applies to shard stores"):
            main(["monitor", str(saved_fleet), "--start-day", "120",
                  "--end-day", "200", "--n-jobs", "2"])


class TestValidationFlags:
    def test_validate_flag_passes_clean_dataset(self, saved_fleet, capsys):
        assert main(["summary", str(saved_fleet), "--validate"]) == 0

    def test_sanitize_flag_accepted(self, saved_fleet, capsys):
        assert main(["summary", str(saved_fleet), "--sanitize", "--validate"]) == 0


class TestChaos:
    def test_single_fault_table(self, saved_fleet, capsys):
        code = main(
            [
                "chaos",
                str(saved_fleet),
                "--fault",
                "drop_days",
                "--start-day",
                "120",
                "--end-day",
                "200",
                "--window-days",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Chaos degradation" in out
        assert "drop_days" in out
        assert "(clean)" in out

    def test_unknown_fault_rejected(self, saved_fleet):
        with pytest.raises(ValueError, match="unknown fault"):
            main(["chaos", str(saved_fleet), "--fault", "gamma_rays"])
