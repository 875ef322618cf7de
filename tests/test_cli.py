import dataclasses
import hashlib
import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import photonstat as ps
from photonstat import cli, counting, trajectories
from photonstat.cli import RunConfig, main
from photonstat.errors import ConfigError


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunConfig:
    def test_round_trip_identity(self):
        cfg = RunConfig.from_dict({"topology": "two", "a": 0.3, "T": 0.2, "N": 5.0,
                                   "method": "moments", "t_grid": [0.1, 0.2]})
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="'pulse_width'"):
            RunConfig.from_dict({"pulse_width": 0.1})

    def test_two_line_requires_ratio(self):
        with pytest.raises(ConfigError, match="coupling ratio"):
            RunConfig.from_dict({"topology": "two"})

    def test_enumerations_validated(self):
        with pytest.raises(ConfigError, match="method"):
            RunConfig.from_dict({"method": "magic"})
        with pytest.raises(ConfigError, match="topology must be one of"):
            RunConfig(topology="three")

    @pytest.mark.parametrize("data, key", [
        ({"seed": True}, "'seed'"),
        ({"threads": 2.0}, "'threads'"),
        ({"compare": 1}, "'compare'"),
    ])
    def test_bool_and_float_rejected_for_other_types(self, data, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(data)

    def test_every_choice_has_one_table_entry(self):
        # the entries of custom's a-grid form aside, the choices that read
        # and build are exactly the allowed values
        for key, entries in cli._READS.items():
            assert tuple(name for name in entries if name != "custom a_grid") == \
                cli._CHOICES[key]

    def test_int_accepted_for_float_field(self):
        assert RunConfig.from_dict({"T": 1, "window": 20}).T == 1


class TestSimulate:
    def test_vacuum_gives_unit_p0(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--N", "0", "--T", "0.1", "--method", "moments",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("p_moment_inversion")] == "1"

    def test_bad_coupling_ratio_exits_2(self, capsys):
        rc = main(["simulate", "--topology", "two", "--a", "1.5", "--T", "0.1",
                   "--N", "1", "--method", "moments"])
        assert rc == 2
        assert "0 < a <= 1" in capsys.readouterr().err

    def test_insufficient_cutoff_exits_3(self, capsys):
        rc = main(["simulate", "--T", "0.1", "--N", "49.35", "--method", "counting",
                   "--k", "1"])
        assert rc == 3
        assert "insufficient" in capsys.readouterr().err

    def test_route_disagreement_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(counting, "DUAL_TOLERANCE", -1.0)
        rc = main(["simulate", "--T", "0.1", "--N", "49.35", "--method", "all",
                   "--n-traj", "100"])
        assert rc == 3
        assert "disagree" in capsys.readouterr().err

    def test_beyond_moment_inversion_exits_3(self, capsys):
        rc = main(["simulate", "--T", "20", "--N", "400", "--method", "moments"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "N_1 = 5.176" in err and "cutoff cap k = 16" in err

    def test_beyond_the_kernel_range_exits_3_without_a_warning(self, capsys):
        # past 2^63 times the top Taylor degree's norm the squarings would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--T", "1e20", "--N", "1", "--method", "moments"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: hierarchy exponential out of range: scaled 1-norm 2.500e+20 "
            "is NaN or exceeds 1.220e+19; the drive is too strong or too long\n")

    @pytest.mark.parametrize("T, mean", [("1e9", "1.000000061"), ("1e12", "1.000007629")])
    def test_mean_count_above_the_photons_sent_exits_3_without_a_warning(self, capsys, T,
                                                                          mean):
        # one photon sent into |g>: the moment route's N_1 cannot exceed 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--T", T, "--N", "1", "--method", "moments"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"numerical failure: mean count N_1 = {mean} exceeds its bound 1 (photons sent "
            f"plus initial excitation) at T={float(T):.6g}; the pulse is beyond the accuracy "
            "of moment inversion\n")

    def test_long_pulse_inside_its_bound_runs(self, tmp_path):
        out = tmp_path / "long.csv"
        assert main(["simulate", "--T", "1e6", "--N", "1", "--method", "moments",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert float(rows[1][header.index("binomial_moment")]) < 1.0

    def test_all_methods_side_by_side(self, tmp_path):
        out = tmp_path / "all.csv"
        rc = main(["simulate", "--T", "0.1", "--N", "49.35", "--method", "all",
                   "--n-traj", "4000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        for col in ("n", "binomial_moment", "p_moment_inversion", "p_jump_counting",
                    "p_trajectory", "p_trajectory_stderr", "tail_bound"):
            assert col in header
        im, ic = header.index("p_moment_inversion"), header.index("p_jump_counting")
        it, ie = header.index("p_trajectory"), header.index("p_trajectory_stderr")
        for row in rows:
            if row[im] and row[ic]:
                assert abs(float(row[im]) - float(row[ic])) < 1e-6
            if row[it] and row[im]:
                band = 3 * float(row[ie]) + 3 / 4000
                assert abs(float(row[it]) - float(row[im])) < band

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.5, "N": 0.0, "method": "moments",
                                   "format": "json"}))
        out = tmp_path / "run.json"
        rc = main(["simulate", "--config", str(cfg), "--T", "0.1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["T"] == 0.1  # flag wins over file
        assert payload["config"]["N"] == 0.0
        assert payload["rows"][0]["p_moment_inversion"] == 1.0

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"widht": 0.5}))
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert "widht" in capsys.readouterr().err

    def test_config_key_simulate_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.1, "N": 1.0, "compare": True}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "simulate does not read config key 'compare'" in capsys.readouterr().err

    def test_non_finite_detuning_exits_2(self, capsys):
        rc = main(["simulate", "--delta", "nan"])
        assert rc == 2
        assert "delta=nan" in capsys.readouterr().err

    @pytest.mark.parametrize("data, key", [
        ({"T": "abc"}, "'T'"),
        ({"n_traj": "5"}, "'n_traj'"),
        ({"k": 2.5}, "'k'"),
        ({"pulse": "sampled", "samples": [[0, 1], [1]]}, "'samples'"),
        ({"k": 0}, "cutoff k must be >= 1, got 0"),
        ({"n_traj": 0}, "n_traj must be >= 1, got 0"),
        ({"threads": 0}, "threads must be >= 1, got 0"),
        ([{"T": 0.1}], "config file must hold a JSON object"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, data, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_sampled_envelope_from_config(self, tmp_path):
        samples = [[0.0, 0.0], [0.5, 40.0], [1.0, 0.0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pulse": "sampled", "samples": samples,
                                   "method": "moments"}))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        pulse = ps.SampledPulse(tuple(t for t, _ in samples), tuple(f for _, f in samples))
        stats = ps.photon_statistics(ps.DriveSpec(pulse), "moment-inversion")
        col = header.index("p_moment_inversion")
        assert [r[col] for r in rows] == [format(p, ".12g") for p in stats.probabilities]

    # a drive input is read by one topology or pulse only; setting it for
    # the other is rejected, from a flag or from the config file alike
    @pytest.mark.parametrize("command, data, flags, message", [
        ("simulate", {}, ["--a", "0.5", "--T", "0.1", "--N", "49.35"],
         "simulate topology 'single' does not read 'a'"),
        ("simulate", {"pulse": "sampled", "samples": [[0, 0], [1, 9]], "T": 0.2}, [],
         "simulate pulse 'sampled' does not read 'T'"),
        ("traj", {"pulse": "sampled", "samples": [[0, 0], [1, 9]]}, ["--N", "3"],
         "traj pulse 'sampled' does not read 'N'"),
        ("simulate", {"pulse": "square", "samples": [[0, 0], [1, 9]]}, [],
         "simulate pulse 'square' does not read 'samples'"),
    ])
    def test_drive_inputs_the_drive_ignores_exit_2(self, tmp_path, capsys, command, data,
                                                   flags, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_stdout_matches_the_out_file(self, tmp_path, capsys):
        args = ["simulate", "--T", "0.2", "--N", "3", "--method", "moments"]
        out = tmp_path / "run.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_excited_initial_state(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["simulate", "--T", "1", "--N", "0", "--window", "20",
                   "--initial", "excited", "--method", "moments", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        col = header.index("p_moment_inversion")
        assert float(rows[0][col]) == pytest.approx(0.5, abs=1e-6)
        assert float(rows[1][col]) == pytest.approx(0.5, abs=1e-6)


class TestSweep:
    def test_fig3_slice(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = main(["sweep", "--preset", "fig3", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["T", "N", "a", "P0", "P1", "P2", "P3", "N1", "N2", "tail_bound"]
        assert len(rows) == 120
        p1 = [float(r[header.index("P1")]) for r in rows]
        assert abs(max(p1) - 0.5) < 0.03

    def test_custom_sweep_deterministic_across_threads(self, tmp_path):
        args = ["sweep", "--preset", "custom", "--T-grid", "0.1,0.2",
                "--N-grid", "0:60:8"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_two_line_sweep_deterministic_across_threads(self, tmp_path):
        args = ["sweep", "--preset", "custom", "--a-grid", "0.05,0.5",
                "--T-grid", "0.1,0.5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_line_endings_and_header(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--preset", "custom", "--T-grid", "0.1", "--N-grid", "1,2",
              "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.startswith(b"T,N,a,")

    def test_fig4_slices(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["sweep", "--preset", "fig4", "--T", "0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 240
        assert {r[header.index("a")] for r in rows} == {"0.01", "0.5"}
        assert {r[header.index("T")] for r in rows} == {"0.5"}

    @pytest.mark.parametrize("preset, sweep", [("fig2", "sweep_single_line"),
                                               ("fig5", "sweep_two_line")])
    def test_preset_runs_its_default_sweep(self, monkeypatch, preset, sweep):
        calls = []
        monkeypatch.setattr(cli, sweep, lambda *args, **kwargs:
                            calls.append((args, kwargs)) or SimpleNamespace(records=()))
        assert main(["sweep", "--preset", preset, "--k", "6", "--delta", "0.5",
                     "--threads", "2"]) == 0
        assert calls == [((), {"k": 6, "delta": 0.5, "workers": 2})]

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig9"}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown preset 'fig9'; use fig2, fig3, fig4, fig5 or custom\n")

    def test_custom_needs_grid(self, capsys):
        rc = main(["sweep", "--preset", "custom"])
        assert rc == 2
        assert "custom sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "3"), ("--topology", "two"), ("--pulse", "sampled"), ("--N", "5"),
        ("--a", "0.5"), ("--window", "20"), ("--initial", "excited"),
    ])
    def test_single_drive_flags_rejected(self, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--preset", "fig3", flag, value])
        assert info.value.code == 2

    @pytest.mark.parametrize("args, key", [
        (["--preset", "fig2", "--T", "0.2"], "T"),
        (["--preset", "fig2", "--T-grid", "0.1,0.2"], "t_grid"),
        (["--preset", "fig3", "--N-grid", "1,2"], "n_grid"),
        (["--preset", "fig3", "--T-grid", "0.7"], "t_grid"),
        (["--preset", "fig4", "--a-grid", "0.3"], "a_grid"),
        (["--preset", "fig5", "--T", "0.2"], "T"),
        (["--preset", "fig5", "--a-grid", "0.3"], "a_grid"),
        (["--preset", "custom", "--T", "0.3", "--T-grid", "0.1", "--N-grid", "1"], "T"),
        (["--preset", "custom", "--a-grid", "0.3", "--T-grid", "0.1", "--N-grid", "1,2"],
         "n_grid"),
        (["--T-grid", "0.1", "--N-grid", "1", "--T", "0.2"], "T"),
    ])
    def test_inputs_the_preset_ignores_exit_2(self, args, key, capsys):
        assert main(["sweep", *args]) == 2
        assert f"does not read {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("grids", [["--a-grid", "0.5", "--T-grid", "0.1,nan"],
                                       ["--T-grid", "nan", "--N-grid", "1"]])
    def test_non_finite_width_exits_2(self, grids, capsys):
        assert main(["sweep", "--preset", "custom", *grids]) == 2
        assert "0 < T < inf, got T=nan" in capsys.readouterr().err

    def test_ignored_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig3", "n_grid": [1.0]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "does not read 'n_grid'" in capsys.readouterr().err

    def test_preset_of_the_wrong_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": ["fig2"]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "config key 'preset' must be str | None" in capsys.readouterr().err

    def test_single_drive_config_keys_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig3", "seed": 3, "N": 5.0, "method": "moments"}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "sweep does not read config key 'seed'" in capsys.readouterr().err

    def test_two_line_grid(self, tmp_path):
        out = tmp_path / "two.csv"
        rc = main(["sweep", "--preset", "custom", "--a-grid", "0.5",
                   "--T-grid", "0.1", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][header.index("a")]) == 0.5
        assert float(rows[0][header.index("P1")]) > 0.6


# Committed outputs (tests/data) of three commands; README says how to
# regenerate them when a change moves printed digits on purpose.
GOLDEN = {
    "sweep_single.csv": ["sweep", "--preset", "custom", "--T-grid", "0.05,0.5,5",
                         "--N-grid", "0:120:13"],
    "sweep_two_line.csv": ["sweep", "--preset", "custom", "--a-grid", "0.01,1",
                           "--T-grid", "0.05,0.5,5"],
    "simulate_all.csv": ["simulate", "--T", "0.1", "--N", "49.35", "--method", "all",
                         "--n-traj", "1000", "--seed", "7"],
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_byte_identical_to_the_committed_file(self, tmp_path, name, threads):
        out = tmp_path / name
        assert main(GOLDEN[name] + ["--threads", threads, "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


# SHA-256 of each figure preset's CSV; square pulses only, so a change to the
# sampled-envelope path must leave every one of them as it is.
PRESET_SHA256 = {
    "fig2": "6f7ce5db5bc1e6231ade766254d1aad03db38750dcf56fe531c07cc22440e5c0",
    "fig3": "ce974cc17ee727fdc85c3a7127df3f1acb9c8ece7e4dd94586c6dfbbd03829de",
    "fig4": "4af6f7877ea01a04de2cf2eaa4b0a33d5e917294466b58edf6a1a21239dc62e2",
    "fig5": "7fd39f36083a6baa01b539a8cc008e681472a4a000c1377dfc238e5cdcf46cb4",
}


class TestPresetPins:
    @pytest.mark.parametrize("preset, threads", [("fig2", "1"), ("fig2", "2"), ("fig3", "1"),
                                                 ("fig4", "1"), ("fig5", "1"), ("fig5", "2")])
    def test_preset_csv_is_pinned(self, tmp_path, preset, threads):
        out = tmp_path / f"{preset}.csv"
        assert main(["sweep", "--preset", preset, "--threads", threads, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_SHA256[preset]


GRADED_TAIL = ps.DriveSpec(ps.SampledPulse((0.0, 0.5, 1.0), (1e-12, 30.0, 2e-3)),
                           ps.SingleLine(delta=2.0))


def work_per_cutoff(kernel_calls):
    """``{k: (kernel calls, slices)}`` of the recorded kernel calls."""
    work = {}
    for stack, k, _ in kernel_calls:
        calls, slices = work.get(k, (0, 0))
        work[k] = calls + 1, slices + len(stack)
    return work


class TestWorkCounts:
    """The work of each preset and of a few single runs, counted without a
    timer: hierarchy-kernel calls and slices per cutoff k, and the trajectory
    sampler's jump rounds and crossing iterations. A change that alters the
    work on purpose updates these counts and says why in CHANGES.md; a count
    that moves without a stated reason is a regression."""

    @pytest.mark.parametrize("args, work", [
        (["sweep", "--preset", "fig2"],
         {4: (58, 4861), 6: (59, 3635), 8: (38, 1888), 10: (21, 912), 12: (10, 307)}),
        (["sweep", "--preset", "fig3"], {4: (2, 124), 6: (2, 18)}),
        (["sweep", "--preset", "fig4"], {4: (4, 252), 6: (3, 118)}),
        (["sweep", "--preset", "fig5"],
         {1: (120, 106101), 4: (38, 1209), 6: (53, 1050), 8: (38, 128)}),
        (["simulate", "--T", "0.1", "--N", "49.35", "--method", "all"], {4: (2, 2)}),
    ], ids=["fig2", "fig3", "fig4", "fig5", "simulate"])
    def test_kernel_work_of_a_command(self, tmp_path, kernel_calls, args, work):
        assert main([*args, "--threads", "1", "--out", str(tmp_path / "out.csv")]) == 0
        assert work_per_cutoff(kernel_calls) == work

    @pytest.mark.parametrize("method, work", [
        ("moment-inversion", {4: (15, 374), 6: (15, 374)}),
        ("jump-counting", {4: (15, 374)}),
    ])
    def test_kernel_work_of_the_graded_tail(self, kernel_calls, method, work):
        ps.photon_statistics(GRADED_TAIL, method=method)
        assert work_per_cutoff(kernel_calls) == work

    def test_trajectory_rounds_and_crossing_iterations(self, tmp_path, monkeypatch):
        # an iteration evaluates the piece propagator once; the ground-state
        # table that a crossing may build first is one evaluation more
        piece, counts = trajectories._Piece, {"evaluations": 0, "rounds": 0, "iterations": 0}
        crossing = piece.crossing

        def evaluating(method):
            def counted(self, s):
                counts["evaluations"] += 1
                return method(self, s)
            return counted

        def counted_crossing(self, *args):
            counts["rounds"] += 1
            before, tabled = counts["evaluations"], "ground_table" in vars(self)
            out = crossing(self, *args)
            built = "ground_table" in vars(self) and not tabled
            counts["iterations"] += counts["evaluations"] - before - built
            return out

        for name in ("column", "matrix"):
            monkeypatch.setattr(piece, name, evaluating(getattr(piece, name)))
        monkeypatch.setattr(piece, "crossing", counted_crossing)
        assert main(["traj", "--T", "0.1", "--N", "49.35", "--threads", "1",
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert (counts["rounds"], counts["iterations"]) == (60, 106)


class TestTraj:
    def test_rerun_byte_identical(self, tmp_path):
        args = ["traj", "--T", "0.1", "--N", "20", "--n-traj", "3000", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_byte_identical(self, tmp_path):
        args = ["traj", "--T", "0.1", "--N", "20", "--n-traj", "3000", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_histogram_schema_and_seed_column(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["traj", "--T", "1", "--N", "0", "--initial", "excited",
              "--window", "20", "--n-traj", "2000", "--seed", "9", "--out", str(out)])
        header, rows = read_csv(out)
        assert header == ["n", "count", "p_hat", "stderr", "seed"]
        assert sum(int(r[1]) for r in rows) == 2000
        assert all(r[-1] == "9" for r in rows)
        assert float(rows[1][2]) == pytest.approx(0.5, abs=0.05)

    def test_compare_appends_reference_and_z(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["traj", "--T", "0.1", "--N", "49.35", "--n-traj", "4000",
                   "--seed", "5", "--compare", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["n", "count", "p_hat", "stderr", "p_counting", "z", "seed"]
        for row in rows[:2]:
            assert abs(float(row[header.index("z")])) < 5.0

    def test_compare_reference_uses_adaptive_cutoff(self, tmp_path):
        # 200 trajectories reach n=5 only, but the distribution needs k=10
        out = tmp_path / "c.csv"
        rc = main(["traj", "--T", "5", "--N", "120", "--n-traj", "200", "--seed", "1",
                   "--compare", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert sum(int(r[1]) for r in rows) == 200

    def test_compare_reference_covers_the_widest_bin(self, tmp_path, monkeypatch):
        # an adaptive reference that stops below the widest observed bin is
        # computed again with the cutoff at that bin. The histogram is fixed,
        # so that its widest bin, 5, is one the jump-counting reference
        # accepts as a cutoff (k = 4 is too short for this drive)
        calls = []

        def short_adaptive(spec, method, k=None, rho0=None):
            calls.append(k)
            stats = counting.photon_statistics(spec, method, k=k, rho0=rho0)
            return stats if k else dataclasses.replace(stats, cutoff_k=1)

        monkeypatch.setattr(cli, "photon_statistics", short_adaptive)
        monkeypatch.setattr(cli, "_run_trajectories",
                            lambda config, spec: np.array([832, 897, 215, 51, 4, 1]))
        out = tmp_path / "c.csv"
        assert main(["traj", "--T", "2", "--N", "20", "--n-traj", "2000",
                     "--seed", "5", "--compare", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert calls == [None, 5] and len(rows) == 6
        spec = ps.DriveSpec(ps.SquarePulse(T=2.0, N=20.0))
        ref = counting.photon_statistics(spec, "jump-counting", k=5)
        col = header.index("p_counting")
        assert [r[col] for r in rows] == [format(p, ".12g") for p in ref.probabilities]

    def test_negative_seed_exits_2(self, capsys):
        rc = main(["traj", "--T", "0.1", "--N", "1", "--n-traj", "10", "--seed", "-3"])
        assert rc == 2
        assert "-3" in capsys.readouterr().err

    def test_non_integer_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.1, "N": 1.0, "n_traj": 10, "seed": 1.5}))
        rc = main(["traj", "--config", str(cfg)])
        assert rc == 2
        assert "1.5" in capsys.readouterr().err

    def test_config_key_traj_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.1, "N": 1.0, "n_traj": 10, "method": "moments"}))
        assert main(["traj", "--config", str(cfg)]) == 2
        assert "traj does not read config key 'method'" in capsys.readouterr().err

    def test_json_carries_config_echo(self, tmp_path):
        out = tmp_path / "t.json"
        main(["traj", "--T", "0.1", "--N", "1", "--n-traj", "500", "--seed", "2",
              "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["config"]["n_traj"] == 500
        assert payload["config"]["seed"] == 2
        assert isinstance(payload["rows"], list)


SAMPLED = {"pulse": "sampled", "samples": [[0.0, 0.0], [0.5, 40.0], [1.0, 0.0]]}


class TestConfigEcho:
    """The JSON config echo reruns, as a ``--config`` file, byte for byte."""

    @pytest.mark.parametrize("args, data, dropped", [
        (["simulate", "--T", "0.3", "--N", "5", "--n-traj", "2000"], {},
         {"a", "samples"}),
        (["simulate", "--topology", "two", "--a", "0.3", "--initial", "excited",
          "--method", "moments"], {}, {"samples"}),
        (["simulate", "--method", "counting"], SAMPLED, {"a", "T", "N"}),
        (["traj", "--T", "0.1", "--N", "49.35", "--n-traj", "500", "--seed", "3",
          "--compare", "--threads", "2"], {}, {"a", "samples"}),
        (["traj", "--topology", "two", "--a", "0.5", "--n-traj", "500"], SAMPLED, {"T", "N"}),
        (["sweep", "--preset", "fig3", "--T", "0.2", "--k", "6"], {},
         {"t_grid", "n_grid", "a_grid"}),
        (["sweep", "--T-grid", "0.1,0.2", "--N-grid", "0:10:3"], {}, {"T", "a_grid"}),
        (["sweep", "--a-grid", "0.3", "--T-grid", "0.1:0.2:2:log"], {}, {"T", "n_grid"}),
    ], ids=["simulate", "simulate-two-line", "simulate-sampled", "traj", "traj-sampled",
            "sweep-fig3", "sweep-custom", "sweep-a-grid"])
    def test_echo_reruns_byte_identically(self, tmp_path, args, data, dropped):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "run.json"
        assert main(args + ["--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
        first = out.read_text()
        echo = json.loads(first)["config"]
        assert not dropped & set(echo)
        # the echo names the same --out, which the rerun overwrites
        cfg.write_text(json.dumps(echo))
        assert main([args[0], "--config", str(cfg)]) == 0
        assert out.read_text() == first

    def test_echo_holds_only_the_command_keys(self, capsys):
        assert main(["simulate", "--T", "0.2", "--N", "3", "--method", "moments",
                     "--format", "json"]) == 0
        echo = json.loads(capsys.readouterr().out)["config"]
        assert set(echo) == {"T", "N", "delta", "topology", "pulse", "window", "initial",
                             "method", "k", "n_traj", "seed", "out", "format", "threads"}


class TestGridFlagParsing:
    def test_linear_spec(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["sweep", "--preset", "custom", "--T-grid", "0.1",
                   "--N-grid", "0:10:3", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [float(r[1]) for r in rows] == [0.0, 5.0, 10.0]

    def test_log_spec(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["sweep", "--preset", "custom", "--a-grid", "0.01:1:3:log",
                   "--T-grid", "0.1", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [float(r[2]) for r in rows] == pytest.approx([0.01, 0.1, 1.0])

    def test_malformed_grid_exits_2(self, capsys):
        rc = main(["sweep", "--preset", "custom", "--N-grid", "0:10", "--T-grid", "0.1"])
        assert rc == 2
        assert "grid spec" in capsys.readouterr().err

    def test_config_file_grid_strings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "custom", "t_grid": "0.1,0.2", "n_grid": [1.0]}))
        out = tmp_path / "g.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0.1, 1.0), (0.2, 1.0)]

    @pytest.mark.parametrize("spec", ["0.1:0.2:2:foo", "0.1:0.2:0"])
    def test_bad_range_spec_exits_2(self, capsys, spec):
        rc = main(["sweep", "--preset", "custom", "--T-grid", spec, "--N-grid", "1"])
        assert rc == 2
        assert "t_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0:1:3:log", "0.1:-1:3:log", "nan:1:3:log"])
    def test_log_spec_with_a_non_positive_end_exits_2(self, capsys, spec):
        rc = main(["sweep", "--preset", "custom", "--T-grid", spec, "--N-grid", "1,2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: t_grid: grid spec {spec!r}: lo:hi:count:log needs lo > 0 and hi > 0\n")

    @pytest.mark.parametrize("spec", ["0.1:inf:3", "nan:1:3", "1:inf:3:log"])
    def test_range_spec_with_a_non_finite_end_exits_2(self, capsys, spec):
        # named before numpy spaces the grid, which would warn and pass on a NaN width
        rc = main(["sweep", "--preset", "custom", "--T-grid", spec, "--N-grid", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: t_grid: grid spec {spec!r}: lo:hi:count needs finite lo and hi\n")

    def test_empty_grid_named_by_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "custom", "t_grid": [], "n_grid": [1.0]}))
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "t_grid must not be empty" in capsys.readouterr().err

    def test_config_file_malformed_grid_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "custom", "t_grid": "0.1;0.2", "n_grid": [1.0]}))
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "t_grid" in capsys.readouterr().err
