"""CLI tests (in-process invocation of repro.cli.main)."""

import numpy as np
import pytest

from repro.cli import main, build_parser


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_omega_parsing(self):
        args = build_parser().parse_args(
            ["solve", "--omega", "1,2,3,4"])
        np.testing.assert_array_equal(args.omega, [1, 2, 3, 4])

    def test_omega_wrong_arity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--omega", "1,2"])


class TestInfo:
    def test_info_prints_version(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "SC 2021" in out


class TestSolve:
    def test_direct_solve(self, capsys):
        assert main(["solve", "--resolution", "9"]) == 0
        out = capsys.readouterr().out
        assert "solution range" in out

    def test_gmg_solve(self, capsys):
        assert main(["solve", "--resolution", "33", "--solver", "gmg"]) == 0
        out = capsys.readouterr().out
        assert "GMG" in out

    def test_vti_export(self, tmp_path, capsys):
        out_path = tmp_path / "u.vti"
        assert main(["solve", "--resolution", "9",
                     "--output", str(out_path)]) == 0
        assert out_path.exists()
        from repro.utils.vtk import read_vti

        fields, _ = read_vti(out_path)
        assert "u" in fields and "nu" in fields


class TestScaling:
    @pytest.mark.parametrize("cluster", ["azure", "bridges2"])
    def test_scaling_table(self, capsys, cluster):
        assert main(["scaling", "--cluster", cluster,
                     "--max-workers", "8"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "8" in out


class TestTrainPredict:
    def test_train_then_predict_roundtrip(self, tmp_path, capsys):
        ck = tmp_path / "model.npz"
        assert main(["train", "--resolution", "8", "--samples", "4",
                     "--levels", "1", "--base-filters", "4", "--depth", "1",
                     "--max-epochs", "3", "--batch-size", "4",
                     "--checkpoint", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "trained half_v" in out
        assert ck.exists()

        assert main(["predict", "--checkpoint", str(ck),
                     "--compare-fem"]) == 0
        out = capsys.readouterr().out
        assert "predicted field" in out
        assert "rel_L2" in out

    def test_train_with_validation(self, capsys):
        assert main(["train", "--resolution", "8", "--samples", "4",
                     "--levels", "1", "--base-filters", "4", "--depth", "1",
                     "--max-epochs", "2", "--batch-size", "4",
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "val[" in out

    def test_predict_vti_export(self, tmp_path, capsys):
        ck = tmp_path / "model.npz"
        main(["train", "--resolution", "8", "--samples", "4",
              "--levels", "1", "--base-filters", "4", "--depth", "1",
              "--max-epochs", "1", "--batch-size", "4",
              "--checkpoint", str(ck)])
        capsys.readouterr()
        out_vti = tmp_path / "pred.vti"
        assert main(["predict", "--checkpoint", str(ck),
                     "--output", str(out_vti)]) == 0
        assert out_vti.exists()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    ck = tmp_path_factory.mktemp("serve") / "model.npz"
    assert main(["train", "--resolution", "8", "--samples", "4",
                 "--levels", "1", "--base-filters", "4", "--depth", "1",
                 "--max-epochs", "1", "--batch-size", "4",
                 "--checkpoint", str(ck)]) == 0
    return ck


class TestServe:
    def test_predict_tiled_matches_full(self, trained_checkpoint, capsys):
        assert main(["predict", "--checkpoint",
                     str(trained_checkpoint)]) == 0
        full = capsys.readouterr().out
        assert main(["predict", "--checkpoint", str(trained_checkpoint),
                     "--tile", "4"]) == 0
        tiled = capsys.readouterr().out
        assert full.splitlines()[-1] == tiled.splitlines()[-1]

    def test_predict_bad_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["predict", "--checkpoint",
                     str(tmp_path / "missing.npz")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_synthetic_load(self, trained_checkpoint, capsys):
        assert main(["serve", "--checkpoint",
                     f"demo={trained_checkpoint}",
                     "--requests", "8", "--max-batch", "4",
                     "--workers", "2", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 16 requests" in out
        assert "QPS" in out and "p99" in out
        assert "cache:" in out and "8 hits" in out

    def test_serve_omega_file(self, trained_checkpoint, tmp_path, capsys):
        omega_file = tmp_path / "omegas.csv"
        omega_file.write_text("0.1,0.2,0.3,0.4\n-1.0,2.0,0.0,1.0\n")
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--omega-file", str(omega_file)]) == 0
        assert "served 2 requests" in capsys.readouterr().out

    def test_serve_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["serve", "--checkpoint",
                     str(tmp_path / "nope.npz")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_predict_misaligned_tile_fails_cleanly(self, trained_checkpoint,
                                                   capsys):
        assert main(["predict", "--checkpoint", str(trained_checkpoint),
                     "--tile", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_wrong_arity_omega_file_fails_cleanly(
            self, trained_checkpoint, tmp_path, capsys):
        omega_file = tmp_path / "bad.csv"
        omega_file.write_text("0.1,0.2\n")
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--omega-file", str(omega_file)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.1,nan,0.3,0.4", "inf,0.2,0.3,0.4"],
                             ids=["nan", "inf"])
    def test_serve_non_finite_omega_file_fails_cleanly(
            self, trained_checkpoint, tmp_path, capsys, row):
        omega_file = tmp_path / "bad.csv"
        omega_file.write_text(f"0.1,0.2,0.3,0.4\n{row}\n")
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--omega-file", str(omega_file)]) == 1
        assert "finite omega" in capsys.readouterr().err

    def test_serve_explicit_tile_forces_tiling(self, trained_checkpoint,
                                               capsys):
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "4", "--tile", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 tiled forwards" not in out
        assert "tiled forwards" in out

    def test_serve_bounded_queue_completes_under_backpressure(
            self, trained_checkpoint, capsys):
        # A tiny queue forces rejections; the CLI client backs off and
        # retries, so the run still serves every request.
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "12", "--max-batch", "2",
                     "--max-pending", "2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "served 12 requests" in out
        assert "backpressure rejections" in out

    def test_serve_backoff_policy_never_gives_up_on_its_own(
            self, trained_checkpoint, capsys, monkeypatch):
        # The backoff is one budgeted RetryPolicy shared by every submit
        # of the run; were its budget or attempt cap ever reached, the
        # request would be dropped with nothing on stdout.  A long shed
        # -heavy run pins that only the wall-clock cap can end a submit.
        from repro import cli

        policies = []
        build = cli._backoff_policy
        monkeypatch.setattr(
            cli, "_backoff_policy",
            lambda: policies.append(build()) or policies[-1])
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "500", "--max-batch", "2",
                     "--max-pending", "2", "--workers", "1"]) == 0
        assert "served 500 requests" in capsys.readouterr().out
        [policy] = policies
        assert policy.retries > 0
        assert policy.denied == 0 and policy.exhausted == 0

    def test_serve_default_deadline_reports_expiries(
            self, trained_checkpoint, capsys):
        # An impossible budget expires every non-hit request; the run
        # must finish cleanly and report them instead of crashing.
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "6", "--default-deadline", "0",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "6 expired deadlines" in out

    def test_serve_spill_budget(self, trained_checkpoint, tmp_path,
                                capsys):
        cache_dir = tmp_path / "spill"
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "6", "--cache-dir", str(cache_dir),
                     "--spill-mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "spill writes" in out
        assert cache_dir.exists()


class TestServeFleet:
    def test_serve_sharded_fleet(self, trained_checkpoint, capsys):
        assert main(["serve", "--checkpoint", f"demo={trained_checkpoint}",
                     "--requests", "8", "--max-batch", "4",
                     "--shards", "3", "--replicas", "2",
                     "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "replicas ['shard-" in out       # write fan-out reported
        assert "served 16 of 16 requests" in out
        assert "across 3 shards" in out
        assert "lost: 0" in out                 # conservation law
        assert "interconnect (simulated)" in out
        assert out.count("[up]") == 3

    def test_serve_sharded_fleet_spills_per_shard(
            self, trained_checkpoint, tmp_path, capsys):
        cache_dir = tmp_path / "spill"
        assert main(["serve", "--checkpoint", f"demo={trained_checkpoint}",
                     "--requests", "6", "--shards", "2", "--replicas", "1",
                     "--cache-dir", str(cache_dir), "--spill-mb", "1"]) == 0
        assert "lost: 0" in capsys.readouterr().out
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "shard-00", "shard-01"]
        assert list(cache_dir.glob("shard-*/*.npz"))

    def test_serve_fleet_completes_under_backpressure(
            self, trained_checkpoint, capsys):
        # The same client loop as the single server: a shed submit is
        # re-submitted under the backoff policy, so every request is
        # served and each rejection is a conserved submit of its own.
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "12", "--max-batch", "2",
                     "--max-pending", "2", "--workers", "1",
                     "--shards", "2", "--replicas", "1"]) == 0
        out = capsys.readouterr().out
        assert "served 12 of " in out
        assert "lost: 0" in out

    def test_serve_fleet_omega_file(self, trained_checkpoint, tmp_path,
                                    capsys):
        omega_file = tmp_path / "omegas.csv"
        omega_file.write_text("0.1,0.2,0.3,0.4\n-1.0,2.0,0.0,1.0\n")
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--omega-file", str(omega_file),
                     "--shards", "2", "--replicas", "1"]) == 0
        assert "served 2 of 2 requests" in capsys.readouterr().out

    def test_serve_fleet_non_finite_omega_file_fails_cleanly(
            self, trained_checkpoint, tmp_path, capsys):
        # A request error, not a shard fault: the run stops on it
        # instead of ejecting the replicas that refused it.
        omega_file = tmp_path / "bad.csv"
        omega_file.write_text("0.1,0.2,0.3,0.4\n0.1,nan,0.3,0.4\n")
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--omega-file", str(omega_file),
                     "--shards", "2", "--replicas", "1"]) == 1
        assert "finite omega" in capsys.readouterr().err

    def test_serve_fleet_missing_checkpoint_fails_cleanly(
            self, tmp_path, capsys):
        assert main(["serve", "--checkpoint", str(tmp_path / "nope.npz"),
                     "--shards", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_priority_aging_flag_is_gone(self):
        # Strict priority is the one queue order: there is no rate to set.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--checkpoint", "x.npz",
                                       "--priority-aging", "0.5"])

    def test_zero_shards_or_replicas_rejected_by_parser(self):
        for flag in ("--shards", "--replicas"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--checkpoint", "x.npz",
                                           flag, "0"])

    @pytest.mark.parametrize("flag,value", [
        ("--tenant", "noisy"), ("--tenant-quota", "5:10"),
        ("--autoscale-min", "2"), ("--autoscale-max", "4")])
    def test_deleted_control_flags_rejected_by_parser(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--checkpoint", "x.npz",
                                       "--shards", "2", flag, value])


class TestServeResilience:
    def test_retries_over_fleet(self, trained_checkpoint, capsys):
        assert main(["serve", "--checkpoint", f"demo={trained_checkpoint}",
                     "--requests", "8", "--shards", "3", "--replicas", "2",
                     "--retries", "2", "--retry-budget", "4:8"]) == 0
        out = capsys.readouterr().out
        assert "served 8 of 8 requests" in out
        assert "lost: 0" in out
        [line] = [ln for ln in out.splitlines()
                  if ln.startswith("resilience:")]
        assert line == "resilience: 0 retried"    # a healthy fleet

    def test_no_retry_policy_prints_no_resilience_line(
            self, trained_checkpoint, capsys):
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "4", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 4 of 4 requests" in out
        assert "resilience:" not in out

    @pytest.mark.parametrize("flag,value", [
        ("--hedge", "95"), ("--breaker-after", "3"),
        ("--breaker-reset", "0.5")])
    def test_deleted_resilience_flags_rejected_by_parser(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--checkpoint", "x.npz",
                                       "--shards", "2", flag, value])

    def test_retry_budget_rejected_by_parser(self):
        for bad in ("0:5", "4:0.5", "nope"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--checkpoint", "x.npz",
                                           "--retry-budget", bad])

    @pytest.mark.parametrize("text,expected", [
        ("4", (4.0, 8.0)),          # burst defaults to twice the rate
        ("4:6", (4.0, 6.0)),
        ("0.5:1", (0.5, 1.0))])
    def test_retry_budget_parses_rate_and_burst(self, text, expected):
        args = build_parser().parse_args(["serve", "--checkpoint", "x.npz",
                                          "--retry-budget", text])
        assert args.retry_budget == expected

    def test_predict_stream_reports_tiles_and_the_same_field(
            self, trained_checkpoint, capsys):
        # --stream only selects what is printed: the field is the same
        # fold over the same tile stream.
        assert main(["predict", "--checkpoint", str(trained_checkpoint),
                     "--tile", "4"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["predict", "--checkpoint", str(trained_checkpoint),
                     "--tile", "4", "--stream"]) == 0
        streamed = capsys.readouterr().out.splitlines()
        assert streamed[0].startswith("streamed 4 tiles: first tile in ")
        assert streamed[1:] == plain

    def test_predict_retries_flag(self, trained_checkpoint, capsys):
        assert main(["predict", "--checkpoint", str(trained_checkpoint),
                     "--retries", "2"]) == 0
        assert capsys.readouterr().out
