import json

import pytest

from photonstat import counting
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

    @pytest.mark.parametrize("data, key", [
        ({"seed": True}, "'seed'"),
        ({"threads": 2.0}, "'threads'"),
        ({"compare": 1}, "'compare'"),
    ])
    def test_bool_and_float_rejected_for_other_types(self, data, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(data)

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
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, data, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        rc = main(["simulate", "--config", str(cfg)])
        assert rc == 2
        assert key in capsys.readouterr().err

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
