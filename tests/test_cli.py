"""Command-line driver: files, determinism, comparison, validation."""
import dataclasses

import numpy as np
import pytest

from thirringsim import checks, cli, model, pauli, qite, thermal
from thirringsim import statevector as sv
from thirringsim.checks import (
    check_commutator_vs_dense,
    check_design_spectrum,
    check_h_action_vs_dense,
    check_multiply_vs_dense,
    check_number_sector_preserved,
    check_transpose_sum_vs_dense,
    check_walsh_coefficients_vs_design,
)

from helpers import random_string


def tiny_config(**overrides):
    base = dict(
        variant=model.EUCLIDEAN,
        g2_start=0.0,
        g2_stop=0.2,
        g2_step=0.1,
        n_steps=2,
        output="",
    )
    base.update(overrides)
    return cli.RunConfig(**base).resolved()


class TestConfig:
    def test_variant_grid_defaults(self):
        cfg = cli.RunConfig(variant=model.MINKOWSKI).resolved()
        assert (cfg.g2_start, cfg.g2_stop, cfg.g2_step) == (0.0, 5.0, 0.2)
        assert len(cli.g2_grid(cfg)) == 26
        cfg = cli.RunConfig(variant=model.EUCLIDEAN).resolved()
        assert len(cli.g2_grid(cfg)) == 31

    def test_default_row_count_arithmetic(self):
        cfg = cli.RunConfig(variant=model.EUCLIDEAN).resolved()
        assert len(cli.g2_grid(cfg)) * cfg.n_steps * 2 == 1240

    def test_grid_avoids_float_drift(self):
        cfg = tiny_config(g2_start=0.0, g2_stop=3.0, g2_step=0.1)
        grid = cli.g2_grid(cfg)
        assert grid[3] == 0.3 and grid[-1] == 3.0

    def test_config_file_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nvariant = minkowski\nseed = 9\nn_steps=5\n")
        args = cli.build_parser().parse_args(
            ["sweep", "--config", str(path), "--seed", "11"]
        )
        cfg = cli.config_from_sources(args)
        assert cfg.variant == model.MINKOWSKI
        assert cfg.seed == 11  # command line wins
        assert cfg.n_steps == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ValueError):
            cli.load_config_file(str(path))

    def test_config_value_that_does_not_parse_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("# comment\nseed = x\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: seed: ")
        assert not out.exists()

    # a valid value for every RunConfig field, other than the default where
    # the field has a second valid value
    FIELD_VALUES = {
        "variant": "minkowski", "n_sites": "6", "am": "0.3", "a_mu": "0.1",
        "g2_start": "0.5", "g2_stop": "1.5", "g2_step": "0.5", "dbeta": "0.1",
        "n_steps": "3", "trotter_steps": "2", "threshold": "0.01", "mode": "shots",
        "shots": "64", "c_mode": "exact-norm", "pool": "odd-y", "seed": "7", "workers": "2",
        "t_grid": "qmetts", "t_start": "0.2", "t_stop": "0.8", "t_points": "5",
        "output": "x.csv", "sidecar": "True",
    }

    def test_every_field_is_a_flag_and_a_config_key_parsed_alike(self, tmp_path, capsys):
        fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
        assert sorted(fields) == sorted(self.FIELD_VALUES)
        parser = cli.build_parser()
        for name in fields:
            raw = self.FIELD_VALUES[name]
            flag = f"--{name.replace('_', '-')}"
            argv = [flag] if raw == "True" else [flag, raw]
            config = tmp_path / f"{name}.cfg"
            config.write_text(f"{name} = {raw}\n")
            for command in ("sweep", "oracle"):
                if command == "sweep" and name.startswith("t_"):
                    with pytest.raises(SystemExit) as einfo:
                        parser.parse_args([command, *argv])
                    assert einfo.value.code == 2
                    capsys.readouterr()
                    continue
                from_flag = cli.config_from_sources(parser.parse_args([command, *argv]))
                from_file = cli.config_from_sources(
                    parser.parse_args([command, "--config", str(config)])
                )
                assert from_flag == from_file
                assert str(getattr(from_flag, name)) == raw

    def test_metadata_round_trip(self):
        cfg = tiny_config(mode="shots", shots=64, seed=3, output="x.csv")
        parsed = cli.parse_metadata(cli.metadata_lines(cfg))
        assert parsed == cfg

    def test_qmetts_temperature_grid(self):
        cfg = tiny_config(t_grid=cli.T_GRID_QMETTS, dbeta=0.25, n_steps=20)
        grid = cli.temperature_grid(cfg)
        assert len(grid) == 20
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(0.1)


class TestSweepCommand:
    def test_row_count_and_rerun_bytes(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = tiny_config(output=str(out))
        assert cli.cmd_sweep(cfg) == 0
        first = out.read_bytes()
        assert cli.cmd_sweep(cfg) == 0
        assert out.read_bytes() == first
        _, rows = cli.read_sweep_csv(str(out))
        assert len(rows) == 3 * 2 * 2  # g2 points x steps x observables

    def test_read_back_matches_written_config(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = tiny_config(output=str(out))
        cli.cmd_sweep(cfg)
        parsed, rows = cli.read_sweep_csv(str(out))
        assert parsed == cfg
        assert {row["observable"] for row in rows} == set(model.default_observables(4))
        assert all(row["mode"] == "exact" and row["stderr"] is None for row in rows)

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        cli.cmd_sweep(tiny_config(output=str(serial)))
        cli.cmd_sweep(tiny_config(output=str(parallel), workers=2))
        a = serial.read_text().splitlines()
        b = parallel.read_text().splitlines()
        # config echoes differ in the workers key; the data rows must not
        assert [l for l in a if not l.startswith("#")] == [l for l in b if not l.startswith("#")]

    def test_shots_mode_writes_stderr(self, tmp_path):
        out = tmp_path / "shots.csv"
        cfg = tiny_config(output=str(out), mode="shots", shots=128, seed=5)
        cli.cmd_sweep(cfg)
        _, rows = cli.read_sweep_csv(str(out))
        assert all(row["stderr"] is not None and row["stderr"] >= 0 for row in rows)

    def test_missing_output_is_usage_error(self):
        assert cli.cmd_sweep(tiny_config()) == 2

    def test_sidecar_written_on_request(self, tmp_path):
        out = tmp_path / "a.csv"
        cli.cmd_sweep(tiny_config(output=str(out), sidecar=True))
        sidecar = tmp_path / "a.csv.meta.json"
        assert sidecar.exists()
        assert "timestamp" in sidecar.read_text()


class TestOracleCommand:
    def test_bounds_and_variant_agreement(self, tmp_path):
        files = {}
        for variant in (model.EUCLIDEAN, model.MINKOWSKI):
            out = tmp_path / f"{variant}.csv"
            cfg = tiny_config(
                variant=variant, g2_start=0.0, g2_stop=0.4, g2_step=0.2,
                t_grid=cli.T_GRID_LINEAR, t_start=0.05, t_stop=1.0, t_points=5,
                output=str(out),
            )
            assert cli.cmd_oracle(cfg) == 0
            _, files[variant] = cli.read_sweep_csv(str(out))
        for rows in files.values():
            for row in rows:
                assert np.isfinite(row["value"])
                if row["observable"] == model.FERMION_NUMBER:
                    assert -1e-9 <= row["value"] <= 4 + 1e-9
        zero_e = [r["value"] for r in files[model.EUCLIDEAN] if r["g2"] == 0.0]
        zero_m = [r["value"] for r in files[model.MINKOWSKI] if r["g2"] == 0.0]
        assert zero_e == zero_m


class TestCompareCommand:
    def _write_pair(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        oracle_out = tmp_path / "oracle.csv"
        common = dict(g2_start=0.0, g2_stop=0.2, g2_step=0.2, dbeta=0.25, n_steps=2)
        cli.cmd_sweep(tiny_config(output=str(sweep_out), **common))
        cli.cmd_oracle(tiny_config(output=str(oracle_out), t_grid=cli.T_GRID_QMETTS, **common))
        return sweep_out, oracle_out

    def test_compare_file_with_itself_passes(self, tmp_path):
        sweep_out, _ = self._write_pair(tmp_path)
        passed, report = cli.compare_files(str(sweep_out), str(sweep_out), tolerance=0.0)
        assert passed
        assert "max deviation 0" in report

    def test_file_with_the_retired_b_scaling_line_still_reads(self, tmp_path):
        # every sweep file written while the 1/sqrt(C) option existed echoes it
        sweep_out, _ = self._write_pair(tmp_path)
        old = tmp_path / "old.csv"
        text = sweep_out.read_text()
        old.write_text(text.replace("# pool=", "# b_scaling=unit\n# pool=", 1))
        assert "# b_scaling=unit\n" in old.read_text()
        assert cli.read_sweep_csv(str(old)) == cli.read_sweep_csv(str(sweep_out))
        passed, report = cli.compare_files(str(old), str(old), tolerance=0.0)
        assert passed, report

    def test_compare_against_oracle(self, tmp_path):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        passed, report = cli.compare_files(str(sweep_out), str(oracle_out), tolerance=0.2)
        assert passed
        assert "result: PASS" in report

    def test_header_only_file_fails(self, tmp_path):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "".join(l for l in sweep_out.read_text().splitlines(True) if l.startswith("#"))
            + ",".join(cli.CSV_COLUMNS) + "\n"
        )
        passed, report = cli.compare_files(str(empty), str(oracle_out))
        assert not passed
        assert "FAIL no points compared" in report
        assert report.splitlines()[-1].startswith("result: FAIL")

    def test_all_nan_file_fails(self, tmp_path, capsys):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        lines = sweep_out.read_text().splitlines(True)
        nan_out = tmp_path / "nan.csv"
        with open(nan_out, "w") as fh:
            for line in lines:
                parts = line.split(",")
                if not line.startswith("#") and parts[0] != "variant":
                    parts[cli.CSV_COLUMNS.index("value")] = "nan"
                fh.write(",".join(parts))
        passed, report = cli.compare_files(str(nan_out), str(oracle_out))
        assert not passed
        assert "non-finite values" in report
        assert cli.main(["compare", str(oracle_out), str(nan_out)]) == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_normal_file_passes_at_default_tolerance(self, tmp_path, capsys):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        assert cli.main(["compare", str(sweep_out), str(oracle_out)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "result: PASS" in out

    def test_duplicate_point_fails_in_either_file(self, tmp_path):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        for name, original in (("sweep", sweep_out), ("oracle", oracle_out)):
            lines = original.read_text().splitlines(True)
            first_row = lines.index(",".join(cli.CSV_COLUMNS) + "\n") + 1
            doubled = tmp_path / f"doubled-{name}.csv"
            doubled.write_text("".join(lines) + lines[first_row])
            pair = (doubled, oracle_out) if name == "sweep" else (sweep_out, doubled)
            passed, report = cli.compare_files(str(pair[0]), str(pair[1]), tolerance=0.2)
            assert not passed
            assert f"1 points of {doubled} appear more than once" in report
            assert report.splitlines()[-1].startswith("result: FAIL")

    def test_failure_count_is_reported(self, tmp_path):
        common = dict(g2_start=0.0, g2_stop=0.4, g2_step=0.2, dbeta=0.25, n_steps=3)
        oracle_out = tmp_path / "oracle.csv"
        cli.cmd_oracle(tiny_config(output=str(oracle_out), t_grid=cli.T_GRID_QMETTS, **common))
        shifted = tmp_path / "shifted.csv"
        with open(shifted, "w") as fh:
            for line in oracle_out.read_text().splitlines(True):
                parts = line.split(",")
                if not line.startswith("#") and parts[0] != "variant":
                    col = cli.CSV_COLUMNS.index("value")
                    parts[col] = repr(float(parts[col]) + 1.0)
                fh.write(",".join(parts))
        passed, report = cli.compare_files(str(shifted), str(oracle_out))
        checked = int(report.splitlines()[0].split()[1])
        assert not passed and checked == 18
        assert f"{checked} of {checked} checked points fail" in report
        assert sum(line.startswith("FAIL (") for line in report.splitlines()) == 10

    def test_reference_points_missing_from_test_file_fail(self, tmp_path, capsys):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        lines = sweep_out.read_text().splitlines(True)
        first_row = lines.index(",".join(cli.CSV_COLUMNS) + "\n") + 1
        cut = tmp_path / "cut.csv"
        cut.write_text("".join(lines[:first_row + 1]))
        passed, report = cli.compare_files(str(cut), str(oracle_out), tolerance=0.2)
        n_ref = len(cli.read_sweep_csv(str(oracle_out))[1])
        assert not passed
        assert f"FAIL {n_ref - 1} of {n_ref} reference points are missing from {cut}" in report
        assert report.splitlines()[-1].startswith("result: FAIL")
        assert cli.main(["compare", str(cut), str(oracle_out), "--tolerance", "0.2"]) == 1
        assert "reference points are missing" in capsys.readouterr().out

    def test_exclusion_window_is_printed_as_an_open_interval(self, tmp_path):
        # the low-temperature fermion number steps between g2 = 0.6 and 0.7, so
        # with the 0.2 margin the rule excludes 0.4 < g2 < 0.9 and checks both ends
        oracle_out = tmp_path / "oracle.csv"
        cli.cmd_oracle(tiny_config(output=str(oracle_out), t_grid=cli.T_GRID_QMETTS,
                                   g2_start=0.4, g2_stop=1.0, g2_step=0.1, dbeta=0.25))
        passed, report = cli.compare_files(str(oracle_out), str(oracle_out))
        assert passed
        assert "exclusion window: variant=euclidean g2 in (0.4, 0.9)" in report
        assert "compared 12 points (16 excluded near plateau steps)" in report

    def test_file_cut_mid_row_is_an_error(self, tmp_path, capsys):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        lines = sweep_out.read_text().splitlines(True)
        cut = tmp_path / "cut.csv"
        cut.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        # an uncaught KeyError would escape main; a reported error returns 1
        assert cli.main(["compare", str(cut), str(oracle_out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cut}:{len(lines)}: ")

    def test_field_that_does_not_parse_names_path_and_line(self, tmp_path, capsys):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        lines = sweep_out.read_text().splitlines(True)
        row = lines.index(",".join(cli.CSV_COLUMNS) + "\n") + 1
        parts = lines[row].split(",")
        parts[cli.CSV_COLUMNS.index("g2")] = "abc"
        lines[row] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        assert cli.main(["compare", str(bad), str(oracle_out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{row + 1}: g2: ") and "'abc'" in err

    def test_metadata_value_that_does_not_parse_names_path_and_line(self, tmp_path, capsys):
        sweep_out, oracle_out = self._write_pair(tmp_path)
        lines = oracle_out.read_text().splitlines(True)
        seed_line = lines.index("# seed=0\n")
        lines[seed_line] = "# seed=x\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        assert cli.main(["compare", str(sweep_out), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{seed_line + 1}: seed: ") and "'x'" in err
        assert "Traceback" not in err

    def test_gross_neveu_chemical_potential_reaches_the_oracle(self, tmp_path, capsys):
        grid = ["--variant", "gross-neveu", "--g2-start", "0", "--g2-stop", "0.2",
                "--g2-step", "0.1"]
        sweep_out, oracle_out, zero_mu = (tmp_path / f for f in ("s.csv", "o.csv", "o0.csv"))
        assert cli.main(["sweep", *grid, "--a-mu", "0.8", "--output", str(sweep_out)]) == 0
        for a_mu, out in (("0.8", oracle_out), ("0", zero_mu)):
            assert cli.main(["oracle", *grid, "--a-mu", a_mu, "--t-grid", "qmetts",
                             "--output", str(out)]) == 0
        _, rows = cli.read_sweep_csv(str(oracle_out))
        _, rows_zero = cli.read_sweep_csv(str(zero_mu))
        assert [r["value"] for r in rows] != [r["value"] for r in rows_zero]
        capsys.readouterr()
        assert cli.main(["compare", str(sweep_out), str(oracle_out), "--tolerance", "0.15"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_grid_mismatch_diagnostic(self, tmp_path):
        sweep_out, _ = self._write_pair(tmp_path)
        other = tmp_path / "other.csv"
        cli.cmd_oracle(
            tiny_config(output=str(other), t_start=0.3, t_stop=0.9, t_points=3,
                        g2_start=0.0, g2_stop=0.2, g2_step=0.2)
        )
        with pytest.raises(ValueError, match="grid mismatch"):
            cli.compare_files(str(sweep_out), str(other))

    def test_shot_deviations_consistent_with_stderr(self, tmp_path):
        # against the same-configuration exact-mode sweep the deviations are
        # pure shot noise, so 3-sigma coverage must reach 95%; the oracle is
        # not the right reference here because early steps report tiny shot
        # errors while carrying the finite-step method bias
        shots_out = tmp_path / "shots.csv"
        exact_out = tmp_path / "exact.csv"
        common = dict(g2_start=0.0, g2_stop=0.1, g2_step=0.1, dbeta=0.25, n_steps=20)
        cli.cmd_sweep(tiny_config(output=str(shots_out), mode="shots", shots=1024,
                                  seed=2, **common))
        cli.cmd_sweep(tiny_config(output=str(exact_out), **common))
        _, report = cli.compare_files(str(shots_out), str(exact_out), tolerance=1.0)
        line = next(l for l in report.splitlines() if l.startswith("stderr consistency"))
        within, total = line.split(":")[1].strip().split()[0].split("/")
        assert int(total) == 80
        assert int(within) / int(total) >= 0.95


class TestValidateCommand:
    def test_checks_pass_on_healthy_build(self):
        assert check_multiply_vs_dense().passed
        assert check_commutator_vs_dense().passed

    def test_validate_exit_code(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_pool_plan_is_caught(self, monkeypatch):
        pool = qite.make_pool(qite.ODD_Y, 4)
        perms, gens = qite._gram_plan(pool)
        assert check_design_spectrum().passed
        flipped = gens.copy()
        flipped[37, 5] *= -1
        monkeypatch.setattr(qite, "_gram_plan", lambda _pool: (perms, flipped))
        result = check_design_spectrum()
        assert not result.passed and "rank [16]" in result.detail
        swapped = perms.copy()
        swapped[37, [3, 4]] = swapped[37, [4, 3]]
        monkeypatch.setattr(qite, "_gram_plan", lambda _pool: (swapped, gens))
        assert not check_design_spectrum().passed

    def test_corrupted_walsh_plan_is_caught(self, monkeypatch, capsys):
        xor, hadamard, cells, signs = qite._walsh_plan(qite.make_pool(qite.ODD_Y, 4))
        assert check_walsh_coefficients_vs_design().passed
        flipped = signs.copy()
        flipped[37] *= -1  # one string's sign sigma_j
        monkeypatch.setattr(qite, "_walsh_plan", lambda _pool: (xor, hadamard, cells, flipped))
        result = check_walsh_coefficients_vs_design()
        assert not result.passed and "largest |a - 2 A^T w" in result.detail
        assert cli.main(["validate"]) == 1
        assert "walsh_coefficients_vs_design  FAIL" in capsys.readouterr().out

    def test_corrupted_table_is_caught(self, monkeypatch):
        bad = pauli.SiteTables(
            m_a=pauli.TABLES.m_a,
            m_b=pauli.TABLES.m_b,
            m_c=pauli.TABLES.m_c.T.copy(),  # transposed sign table flips products
            m_d=pauli.TABLES.m_d,
        )
        monkeypatch.setattr(pauli, "TABLES", bad)
        assert not check_multiply_vs_dense().passed
        assert not check_commutator_vs_dense().passed

    @pytest.mark.parametrize("name, check", [
        ("multiply", check_multiply_vs_dense),
        ("sym_transpose_product", check_transpose_sum_vs_dense),
        ("minus_i_commutator", check_commutator_vs_dense),
    ])
    def test_every_algebra_check_can_fail(self, name, check, monkeypatch):
        assert check().passed
        reduction = getattr(pauli, name)

        def rotated(p1, p2):
            result = reduction(p1, p2)
            if isinstance(result, pauli.PhasedString):
                return pauli.PhasedString(1j * result.phase, result.string)
            return 1j * result

        monkeypatch.setattr(pauli, name, rotated)
        assert not check().passed

    @pytest.mark.parametrize("seed", [11, 13, 14])
    def test_random_pairs_are_the_per_string_draws(self, seed):
        rng = np.random.default_rng(seed)
        want = [(random_string(n, rng), random_string(n, rng))
                for n in (2, 3, 4) for _ in range(70)]
        assert checks._random_pairs(np.random.default_rng(seed)) == want

    @pytest.mark.parametrize("name, check, pairs", [
        ("multiply", check_multiply_vs_dense,
         lambda: [(pauli.PauliString((a,)), pauli.PauliString((b,))) for a in range(4)
                  for b in range(4)] + checks._random_pairs(np.random.default_rng(11))),
        ("sym_transpose_product", check_transpose_sum_vs_dense,
         lambda: checks._random_pairs(np.random.default_rng(13))),
        ("minus_i_commutator", check_commutator_vs_dense,
         lambda: checks._random_pairs(np.random.default_rng(14))),
    ])
    def test_one_corrupted_pair_is_named(self, name, check, pairs, monkeypatch):
        pairs = pairs()
        reduction = getattr(pauli, name)
        # the 100th and 181st pairs, of two site counts and each unique in the list, so only
        # their results are wrong; the first failing pair in list order is named
        targets = [pairs[99], pairs[180]]
        assert all(pairs.count(pair) == 1 for pair in targets)
        assert targets[0][0].n_sites != targets[1][0].n_sites

        def corrupted(p1, p2):
            result = reduction(p1, p2)
            if (p1, p2) not in targets:
                return result
            if isinstance(result, pauli.PhasedString):
                return pauli.PhasedString(-result.phase, result.string)
            return result + pauli.PauliSum(p1.n_sites, {0: 1.0})

        monkeypatch.setattr(pauli, name, corrupted)
        result = check()
        p1, p2 = targets[0]
        assert not result.passed and result.detail == f"mismatch for ({p1}, {p2})"
        targets.pop(0)  # now only the 181st is wrong
        p1, p2 = targets[0]
        assert check().detail == f"mismatch for ({p1}, {p2})"

    def test_corrupted_hamiltonian_plan_is_caught(self, monkeypatch):
        assert check_h_action_vs_dense().passed
        rhs_plan = qite._rhs_plan

        def flipped_plan(pool, ham_key):
            perms, phases = rhs_plan(pool, ham_key)
            phases = phases.copy()
            phases[1] *= -1  # one term's sign
            return perms, phases

        monkeypatch.setattr(qite, "_rhs_plan", flipped_plan)
        result = check_h_action_vs_dense()
        assert not result.passed and "largest |H phi - dense|" in result.detail

    def test_sector_leak_is_caught(self, monkeypatch):
        assert check_number_sector_preserved().passed
        step = qite.step

        def leaky_step(state, *args, **kwargs):
            new, record = step(state, *args, **kwargs)
            amps = new.amplitudes.copy()
            amps[0] += 1e-3  # basis state 0 holds 4 fermions, the checked start state 2
            return sv.QuantumState(new.n_sites, amps).normalized(), record

        monkeypatch.setattr(qite, "step", leaky_step)
        result = check_number_sector_preserved()
        assert not result.passed and "out-of-sector probability" in result.detail


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        # the others are retired: the 1/sqrt(C) option, the full pool, the
        # linear weight and compare's plateau-step settings
        for argv in (
            ["no-such-command"],
            ["sweep", "--b-scaling", "unit"],
            ["sweep", "--pool", "full-minus-identity"],
            ["sweep", "--c-mode", "linear"],
            ["compare", "a.csv", "b.csv", "--step-margin", "0.3"],
        ):
            with pytest.raises(SystemExit) as einfo:
                cli.main(argv)
            assert einfo.value.code == 2
        for argv, wording in (
            (["sweep", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["oracle", "--dbeta", "x"], "argument --dbeta: invalid float value: 'x'"),
            (["sweep", "--variant", "foo"], "argument --variant: invalid choice: 'foo'"),
        ):
            capsys.readouterr()
            with pytest.raises(SystemExit) as einfo:
                cli.main(argv)
            assert einfo.value.code == 2
            assert wording in capsys.readouterr().err

    def test_bad_seed_or_shots_fails_before_any_step(self, tmp_path, monkeypatch, capsys):
        steps = []
        monkeypatch.setattr(thermal, "step_rows", lambda *a, **k: steps.append(a))
        config = tmp_path / "bad.cfg"
        config.write_text("seed = -1\n")
        out = str(tmp_path / "out.csv")
        for flags, key in (
            (["--seed", "-1"], "seed"),
            (["--shots", "0"], "shots"),
            (["--config", str(config)], "seed"),
        ):
            assert cli.main(["sweep", "--mode", "shots", *flags, "--output", out]) == 1
            assert key in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("flags, message", [
        (["--g2-step", "0"], "g2_step must be positive"),
        (["--g2-step", "-0.1"], "g2_step must be positive"),
        (["--g2-start", "1", "--g2-stop", "0"], "g2_stop 0.0 is below g2_start 1.0"),
        (["--g2-stop", "inf"], "g2_stop must be finite"),
        (["--g2-start", "nan"], "g2_start must be finite"),
        (["--dbeta", "0"], "dbeta must be positive and finite, got 0.0"),
        (["--dbeta", "-0.25"], "dbeta must be positive and finite"),
        (["--dbeta", "nan"], "dbeta must be positive and finite"),
    ])
    def test_bad_coupling_grid_fails_before_any_step(
        self, flags, message, tmp_path, monkeypatch, capsys
    ):
        steps = []
        monkeypatch.setattr(thermal, "step_rows", lambda *a, **k: steps.append(a))
        out = tmp_path / "out.csv"
        for command in ("sweep", "oracle"):
            assert cli.main([command, *flags, "--output", str(out)]) == 1
            assert message in capsys.readouterr().err
        assert steps == [] and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--t-start", "0"], "t_start must be positive and finite, got 0.0"),
        # the linear grid from -0.5 to 1.0 passes through T = 0
        (["oracle", "--t-start", "-0.5"], "t_start must be positive and finite"),
        (["oracle", "--t-stop", "inf"], "t_stop must be positive and finite"),
        (["oracle", "--t-grid", "qmetts", "--dbeta", "0"], "dbeta must be positive and finite"),
        (["sweep", "--config", "{config}"], "t_stop must be positive and finite"),
    ])
    def test_bad_temperature_fails_before_any_work(self, argv, message, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("t_stop = -1\n")
        out = tmp_path / "out.csv"
        argv = [a.format(config=config) for a in argv]
        assert cli.main([*argv, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "variant = foo", "mode = sampled", "c_mode = linear", "pool = full", "t_grid = log",
    ])
    def test_config_value_a_flag_would_refuse_is_rejected(self, line, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        key = line.split()[0]
        out = tmp_path / "out.csv"
        assert cli.main(["oracle", "--config", str(config), "--output", str(out)]) == 1
        assert f"{key} must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_failure_exit_code(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        common = dict(g2_start=0.0, g2_stop=0.2, g2_step=0.2, dbeta=0.25, n_steps=2)
        cli.cmd_sweep(tiny_config(output=str(sweep_out), mode="shots", shots=32, **common))
        oracle_out = tmp_path / "oracle.csv"
        cli.cmd_oracle(tiny_config(output=str(oracle_out), t_grid=cli.T_GRID_QMETTS, **common))
        code = cli.main(
            ["compare", str(sweep_out), str(oracle_out), "--tolerance", "1e-9"]
        )
        assert code == 1

    def test_sweep_via_main(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(
            ["sweep", "--g2-start", "0", "--g2-stop", "0.1", "--g2-step", "0.1",
             "--n-steps", "1", "--output", str(out)]
        )
        assert code == 0 and out.exists()

    def test_gross_neveu_sweep_via_main(self, tmp_path):
        out = tmp_path / "gn.csv"
        code = cli.main(
            ["sweep", "--variant", "gross-neveu", "--a-mu", "0.6",
             "--g2-start", "0", "--g2-stop", "0.2", "--g2-step", "0.2",
             "--n-steps", "2", "--output", str(out)]
        )
        assert code == 0
        cfg, rows = cli.read_sweep_csv(str(out))
        assert cfg.a_mu == 0.6
        assert len(rows) == 2 * 2 * 2
        assert all(row["variant"] == "gross-neveu" for row in rows)
