"""CLI tests (in-process invocation of repro.cli.main)."""

import re

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

    def test_max_workers_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--max-workers", "0"])
        assert exc.value.code == 2
        assert "--max-workers: must be >= 1" in capsys.readouterr().err


class TestTrainPredict:
    @pytest.mark.parametrize("flags,message", [
        (["--levels", "0"], "levels must be >= 1"),
        (["--lr", "-1"], "invalid learning rate"),
        (["--resolution", "12", "--levels", "2"],
         "coarsest level resolution 6 is not a multiple of 4"),
    ], ids=["levels-0", "negative-lr", "coarse-level-indivisible"])
    def test_train_bad_setting_fails_cleanly(self, flags, message, capsys):
        assert main(["train", "--samples", "2", "--max-epochs", "1",
                     "--base-filters", "2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "trained" not in captured.out

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

    @pytest.mark.parametrize("flag,value,field", [
        ("--workers", "0", "workers"), ("--cache-mb", "-5", "cache_bytes"),
        ("--max-pending", "-1", "max_pending")])
    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_serve_bad_server_setting_fails_cleanly(self, tmp_path, capsys,
                                                    flag, value, field,
                                                    shards):
        assert main(["serve", "--checkpoint", str(tmp_path / "nope.npz"),
                     "--shards", shards, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

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

    def test_serve_client_window_stays_inside_the_queue_bound(
            self, trained_checkpoint, capsys):
        # A tiny queue under a long run: the client keeps at most
        # --max-pending requests outstanding, so nothing is shed and
        # every request is served once.
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "500", "--max-batch", "2",
                     "--max-pending", "2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "served 500 requests" in out
        assert "0 backpressure rejections" in out
        assert "/ 500 misses" in out           # no request computed twice

    @pytest.mark.parametrize("shards", ["1", "2"],
                             ids=["one-server", "shards2"])
    @pytest.mark.parametrize("content", [None, "0.1,0.2,0.3,0.4\nabc,1,2,3\n"],
                             ids=["missing", "non-numeric"])
    def test_serve_unreadable_omega_file_fails_cleanly(
            self, trained_checkpoint, tmp_path, capsys, monkeypatch,
            shards, content):
        # An --omega-file that cannot be read or parsed is reported as
        # an error, and the backend that was built is closed.
        from repro.serve import PredictionServer

        closed = []
        close = PredictionServer.close
        monkeypatch.setattr(PredictionServer, "close",
                            lambda self: closed.append(self) or close(self))
        omega_file = tmp_path / "omegas.csv"
        if content is not None:
            omega_file.write_text(content)
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--omega-file", str(omega_file),
                     "--shards", shards]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert len(closed) == int(shards)

    def test_serve_default_deadline_reports_expiries(
            self, trained_checkpoint, capsys):
        # An impossible budget expires every non-hit request; the run
        # must finish cleanly and report them instead of crashing.
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "6", "--default-deadline", "0",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "6 expired deadlines" in out



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
        assert "interconnect" not in out        # no modelled hops
        assert out.count("[up]") == 3

    def test_serve_fleet_client_window_stays_inside_the_queue_bound(
            self, trained_checkpoint, capsys):
        # The same client loop as the single server: with at most
        # --max-pending requests outstanding fleet-wide, no shard queue
        # overflows, so the fleet counts each request once.
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "500", "--max-batch", "2",
                     "--max-pending", "2", "--workers", "1",
                     "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "served 500 of 500 requests" in out
        assert "0 rejections" in out
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


class TestServeFlags:
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_serve_rejects_a_non_positive_shard_timeout(
            self, trained_checkpoint, capsys, budget):
        # Before the check every shard was ejected as hung and the run
        # reported "served 0 of 8 ... 0 healthy".
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--shards", "2", "--shard-timeout", budget,
                     "--requests", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: shard_timeout_s must be > 0")
        assert "served" not in captured.out

    def test_serve_cache_line_reports_the_memory_tier_only(
            self, trained_checkpoint, capsys):
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "6", "--repeat", "2"]) == 0
        [line] = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("cache: ")]
        assert re.fullmatch(r"cache: 6 hits / 6 misses \(50%\), \d+ MiB "
                            r"resident, 0 evictions", line), line


class TestServeResilience:
    @pytest.mark.parametrize("command,flag,value", [
        ("serve", "--hedge", "95"), ("serve", "--breaker-after", "3"),
        ("serve", "--breaker-reset", "0.5"), ("serve", "--retries", "2"),
        ("serve", "--retry-budget", "4:8"), ("predict", "--retries", "2")])
    def test_deleted_resilience_flags_rejected_by_parser(self, command, flag,
                                                         value):
        argv = [command, "--checkpoint", "x.npz", flag, value]
        build_parser().parse_args(argv[:3])     # the rest of argv parses
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

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

    @pytest.mark.parametrize("window", ["1", "3"])
    @pytest.mark.parametrize("shards", ["1", "2"],
                             ids=["one-server", "shards2"])
    def test_serve_client_never_exceeds_its_window(
            self, trained_checkpoint, capsys, monkeypatch, shards, window):
        # At every submit the client holds at most --max-pending - 1
        # unresolved requests: it drained the oldest before this one.
        from repro.serve import PredictionServer

        futures, peaks = [], []
        submit = PredictionServer.submit

        def watched(self, *args, **kwargs):
            peaks.append(sum(not f.done() for f in futures))
            futures.append(submit(self, *args, **kwargs))
            return futures[-1]

        monkeypatch.setattr(PredictionServer, "submit", watched)
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "40", "--max-batch", "2",
                     "--max-pending", window, "--workers", "1",
                     "--shards", shards]) == 0
        assert len(futures) == 40
        assert max(peaks) < int(window)
        out = capsys.readouterr().out
        if shards == "1":
            assert "served 40 requests" in out
            assert "0 backpressure rejections" in out
        else:
            assert "served 40 of 40 requests" in out
            assert "0 rejections" in out

    @pytest.mark.parametrize("shards", ["1", "2"],
                             ids=["one-server", "shards2"])
    def test_serve_counts_a_shed_verdict_once(
            self, trained_checkpoint, capsys, monkeypatch, shards):
        # A ServerOverloaded that still arrives is the request's outcome:
        # the client counts it and moves on, it never re-submits.
        from repro.serve import PredictionServer, ServerOverloaded

        calls = []
        submit = PredictionServer.submit

        def refuse_first(self, model_name, *args, **kwargs):
            calls.append(model_name)
            if len(calls) == 1:
                raise ServerOverloaded(model_name, None, 2, 2)
            return submit(self, model_name, *args, **kwargs)

        monkeypatch.setattr(PredictionServer, "submit", refuse_first)
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "4", "--shards", shards]) == 0
        out = capsys.readouterr().out
        assert len(calls) == 4
        if shards == "1":
            assert "served 3 requests" in out
        else:
            assert "served 3 of 4 requests" in out
            assert "1 rejections" in out
            assert "lost: 0" in out

    def test_predict_failure_surfaces_once(self, trained_checkpoint,
                                           monkeypatch):
        # No call-level retry: a backend failure reaches the caller on
        # the first attempt, and the executor is still closed.
        import repro.serve as serve

        calls, closed = [], []

        def failing(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("tile worker fell over")
            yield  # pragma: no cover - makes this a generator

        make = serve.make_executor

        def tracked(*args, **kwargs):
            executor = make(*args, **kwargs)
            close = executor.close
            executor.close = lambda: closed.append(1) or close()
            return executor

        monkeypatch.setattr(serve, "stream_tiled_predict", failing)
        monkeypatch.setattr(serve, "make_executor", tracked)
        with pytest.raises(RuntimeError, match="fell over"):
            main(["predict", "--checkpoint", str(trained_checkpoint)])
        assert len(calls) == 1
        assert closed == [1]

    def test_serve_fleet_counts_unavailable_verdicts_once(
            self, trained_checkpoint, capsys, monkeypatch):
        # Every shard faults on submit: each request ends FleetUnavailable
        # after one pass over its replicas, is reported, and is not sent
        # again — the run still exits cleanly with nothing lost.
        from repro.serve import PredictionServer, ShardedFleet

        def dead(self, *args, **kwargs):
            raise RuntimeError("shard is down")

        calls = []
        submit = ShardedFleet.submit

        def counted(self, *args, **kwargs):
            calls.append(args)
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(PredictionServer, "submit", dead)
        monkeypatch.setattr(ShardedFleet, "submit", counted)
        assert main(["serve", "--checkpoint", str(trained_checkpoint),
                     "--requests", "4", "--shards", "2",
                     "--replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 0 of 4 requests" in out
        assert "4 unavailable" in out
        assert "lost: 0" in out
        assert len(calls) == 4
