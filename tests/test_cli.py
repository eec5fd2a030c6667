import argparse
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cviqp
from cviqp import cli
from cviqp.cli import _fmt, _write_csv, main

from test_reported_outputs import README_COMMANDS

SQRT_PI = math.sqrt(math.pi)
# error-correct on a small grid, without seed, trials or output
EC_SMALL = ["error-correct", "--delta", "0.25", "--eta", str(SQRT_PI / 4), "--grid-points", "1024", "--extent", "64"]


def read_rows(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    config = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


class TestFourierGadgetCommand:
    def test_single_point(self, tmp_path):
        out = tmp_path / "fg.csv"
        rc = main(
            [
                "fourier-gadget",
                "--sigma",
                "0.1",
                "--eta",
                "0.01",
                "--grid-points",
                "1024",
                "--extent",
                "256",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _config, header, rows = read_rows(out)
        assert len(rows) == 1
        prob = float(rows[0][header.index("success_probability")])
        assert prob == pytest.approx(1.1284e-3, rel=0.05)

    def test_eta_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "fourier-gadget",
                "--sigma",
                "0.2",
                "--eta",
                "0.005,0.01,0.02,0.04",
                "--grid-points",
                "1024",
                "--extent",
                "128",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _config, header, rows = read_rows(out)
        assert len(rows) == 4
        probs = [float(r[header.index("success_probability")]) for r in rows]
        assert probs == sorted(probs)

    def test_below_resolution_exits_2_without_file(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = main(
            [
                "fourier-gadget",
                "--sigma",
                "0.1",
                "--eta",
                "1e-9,0.01",
                "--grid-points",
                "256",
                "--extent",
                "30",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()

    def test_zero_mass_bin_exits_3(self, tmp_path):
        out = tmp_path / "zero.csv"
        rc = main(
            [
                "fourier-gadget",
                "--sigma",
                "1.0",
                "--eta",
                "0.01",
                "--postselect-k",
                "100000",
                "--grid-points",
                "256",
                "--extent",
                "30",
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        assert not out.exists()

    def test_gkp_input_matches_the_gadget(self, tmp_path):
        # the default 4096-point, extent-256 grid
        out = tmp_path / "plus.csv"
        rc = main(["fourier-gadget", "--input", "plus", "--delta", "0.25", "--sigma", "0.1", "--eta", "0.01",
                   "--out", str(out)])
        assert rc == 0
        _config, header, rows = read_rows(out)
        grid = cviqp.make_grid(4096, 256.0)
        psi = cviqp.gkp_plus(cviqp.GkpParams.tied(0.25), grid)
        rep = cviqp.fourier_gadget(psi, 0.1, cviqp.DetectorParams(eta=0.01))
        assert rows[0][header.index("success_probability")] == _fmt(rep.success_probability)

    def test_gkp_input_without_delta_exits_2_without_file(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = main(["fourier-gadget", "--input", "plus", "--sigma", "0.1", "--eta", "0.01", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"sigma": 0.1, "eta": 0.01, "grid_points": 1024, "extent": 256.0}
            )
        )
        out = tmp_path / "cfgrun.csv"
        rc = main(
            ["fourier-gadget", "--config", str(cfg), "--eta", "0.02", "--out", str(out)]
        )
        assert rc == 0
        config, header, rows = read_rows(out)
        assert config["eta"] == "0.02"
        assert float(rows[0][header.index("eta")]) == 0.02


    def test_config_file_run_matches_flag_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.1, "eta": [0.005, 0.01], "grid_points": 1024, "extent": 256.0}))
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["fourier-gadget", "--config", str(cfg), "--out", str(from_file)]) == 0
        flags = ["--sigma", "0.1", "--eta", "0.005,0.01", "--grid-points", "1024", "--extent", "256"]
        assert main(["fourier-gadget", *flags, "--out", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args_a = [
            "error-correct",
            "--delta",
            "0.25",
            "--eta",
            str(SQRT_PI / 4),
            "--u1",
            "0.2",
            "--trials",
            "16",
            "--seed",
            "11",
            "--grid-points",
            "1024",
            "--extent",
            "64",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args_a + ["--out", str(out1)]) == 0
        assert main(args_a + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dv_byte_identical(self, tmp_path):
        args = ["dv", "--mode", "hadamard-gadget", "--trials", "64", "--seed", "7"]
        out1 = tmp_path / "dv1.csv"
        out2 = tmp_path / "dv2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestErrorCorrectCommand:
    def test_trials_and_flags(self, tmp_path):
        out = tmp_path / "ec.csv"
        rc = main(
            [
                "error-correct",
                "--delta",
                "0.25",
                "--eta",
                str(SQRT_PI / 4),
                "--u1",
                "0.2",
                "--trials",
                "8",
                "--seed",
                "3",
                "--grid-points",
                "1024",
                "--extent",
                "64",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _config, header, rows = read_rows(out)
        assert len(rows) == 8
        held = {r[header.index("threshold_held")] for r in rows}
        assert held == {"1"}

    def test_incompatible_eta_exits_2(self, tmp_path):
        out = tmp_path / "bad.csv"
        rc = main(
            [
                "error-correct",
                "--delta",
                "0.25",
                "--eta",
                "0.3",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()

    def test_infinite_eta_exits_2(self, tmp_path):
        out = tmp_path / "inf.csv"
        rc = main(["error-correct", "--delta", "0.25", "--eta", "inf", "--seed", "3", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2**32 - 6, 2**64 - 6], ids=["across-2**32", "across-2**64"])
    def test_outcomes_are_per_seed_samples(self, seed, tmp_path):
        out = tmp_path / "ec.csv"
        assert main([*EC_SMALL, "--trials", "12", "--seed", str(seed), "--out", str(out)]) == 0
        _config, header, rows = read_rows(out)
        params = cviqp.GkpParams.tied(0.25)
        grid = cviqp.make_grid(1024, 64.0)
        data = cviqp.displace_q(cviqp.gkp_plus(params, grid), 0.2)
        dist = cviqp.outcome_distribution(data, cviqp.gkp_zero(params, grid), cviqp.DetectorParams(eta=SQRT_PI / 4))
        assert [r[header.index("seed")] for r in rows] == [str(seed + t) for t in range(12)]
        ks = [int(r[header.index("outcome_k")]) for r in rows]
        assert ks == [cviqp.sample_outcome(dist, seed + t) for t in range(12)]
        assert len(set(ks)) > 1

    @pytest.mark.parametrize("seed, trials", [(2**128 - 1, 2), (2**128, 1)])
    def test_seeds_from_2_128_exit_2_without_file(self, seed, trials, tmp_path, capsys, monkeypatch):
        def no_grid(*_args):
            raise AssertionError("the seed range is checked before any computation")

        monkeypatch.setattr(cli, "make_grid", no_grid)
        out = tmp_path / "ec.csv"
        assert main([*EC_SMALL, "--trials", str(trials), "--seed", str(seed), "--out", str(out)]) == 2
        assert not out.exists()
        assert "2**128" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path):
        rc = main(
            [
                "error-correct",
                "--delta",
                "0.25",
                "--eta",
                str(SQRT_PI / 4),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2


class TestWriteCsv:
    """The column writer's bytes equal a writer that formats one cell at a time."""

    EDGE_FLOATS = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1, -0.0, 1.0]
    COLUMNS = {
        "float64": np.array(EDGE_FLOATS),
        "float32": np.array(EDGE_FLOATS, dtype=np.float32),
        "python-floats": EDGE_FLOATS,
        "int64": np.array([-(2**63), -1, 0, 0, 1, 2**63 - 1, 7, 7, -1, 3, 0]),
        "uint64": np.array([2**64 - 1, 2**63, 0, 1, 2**63, 5, 5, 0, 9, 2**64 - 1, 2], dtype=np.uint64),
        "seeds-near-2**128": range(2**128 - 11, 2**128),
        "big-python-ints": [2**63, 2**64, -(2**70), 2**127, 2**63, 0, -1, 1, True, 1.0, 2**64],
        "bools": [True, False, np.True_, np.False_, 1, 0, 1.0, 0.0, True, np.True_, -0.0],
        "bool-array": np.array([True, False, True, True, False, False, True, False, True, False, True]),
        "numpy-scalars": [
            np.float64(-0.0), np.float64(0.0), np.float32(0.1), np.float16(0.5), np.int64(-7), np.uint8(3),
            np.longdouble(0.1), np.float64(math.nan), np.int32(2**31 - 1), np.uint64(2**64 - 1), np.float64(-0.0),
        ],
        "bit-strings": ["000", "100", "010", "110", "001", "101", "011", "111", "000", "100", "010"],
    }

    @staticmethod
    def reference_body(header, columns) -> str:
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in zip(*columns)]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", list(COLUMNS))
    def test_bytes_equal_a_cell_by_cell_writer(self, name, tmp_path):
        column = self.COLUMNS[name]
        columns = [np.arange(len(column)), column, list(column)[::-1]]
        header = ["trial", name, "reversed"]
        out = tmp_path / "w.csv"
        args = argparse.Namespace(command="x", func=None, config=None, out=str(out), seed=2**128 - 11)
        _write_csv(args, header, columns, solved=0.5)
        first, body = out.read_text(encoding="utf-8").split("\n", 1)
        assert first == "# " + json.dumps({"seed": 2**128 - 11, "solved": 0.5}, sort_keys=True)
        assert body == self.reference_body(header, columns)

    @pytest.mark.parametrize("rows", [1, *(cli._CSV_BLOCK_ROWS + d for d in (-1, 0, 1)), 2 * cli._CSV_BLOCK_ROWS + 3])
    def test_bytes_at_the_block_seams(self, rows, tmp_path):
        floats = np.resize(np.array(self.EDGE_FLOATS), rows)
        texts = [f"{t % 7},x" for t in range(rows)]
        columns = [range(rows), floats, range(2**128 - rows, 2**128), texts, floats.astype(np.float32)]
        header = ["trial", "float", "seed", "text", "float32"]
        out = tmp_path / "w.csv"
        _write_csv(argparse.Namespace(out=str(out)), header, columns)
        assert out.read_text(encoding="utf-8").split("\n", 1)[1] == self.reference_body(header, columns)

    def test_oserror_partway_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "dv.csv"
        cells = cli._column_cells
        written = []

        def full_disk(column):
            written.append(out.exists())
            if len(written) > 3:  # the second block's first column: the first block is in the file
                raise OSError(errno.ENOSPC, "No space left on device")
            return cells(column)

        monkeypatch.setattr(cli, "_column_cells", full_disk)
        trials = str(2 * cli._CSV_BLOCK_ROWS)
        assert main(["dv", "--mode", "hadamard-gadget", "--trials", trials, "--seed", "1", "--out", str(out)]) == 2
        assert written == [True] * 4
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
        assert not out.exists()

    def test_signed_zeros_and_nans_keep_their_cells(self, tmp_path):
        out = tmp_path / "w.csv"
        _write_csv(argparse.Namespace(out=str(out)), ["x"], [np.array([-0.0, 0.0, math.nan, -0.0, 0.0])])
        assert out.read_text(encoding="utf-8").splitlines()[2:] == ["-0", "0", "nan", "-0", "0"]


class TestScalingCommand:
    def test_table_and_solver(self, capsys, tmp_path):
        out = tmp_path / "scaling.csv"
        rc = main(["scaling", "--n", "1,10,100", "--solve-ft-error", "1e-6", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "20.2" in captured or "20.3" in captured
        _config, header, rows = read_rows(out)
        dbs = [float(r[header.index("min_squeezing_db")]) for r in rows]
        assert dbs[0] == pytest.approx(2.094, abs=1e-3)
        assert dbs[2] == pytest.approx(16.562, abs=1e-3)

    def test_composed_column(self, tmp_path):
        out = tmp_path / "comp.csv"
        rc = main(
            ["scaling", "--n", "4", "--l", "2", "--eta", "0.01", "--sigma", "0.1", "--out", str(out)]
        )
        assert rc == 0
        _config, header, rows = read_rows(out)
        idx = header.index("log10_composed_postselection")
        expected = 2 * math.log10(2 * 0.01 * 0.1 / SQRT_PI) - 4 * math.log10(2)
        assert float(rows[0][idx]) == pytest.approx(expected, rel=1e-9)


    @pytest.mark.parametrize(
        "flags, missing",
        [(["--l", "3", "--eta", "0.01"], "--sigma"), (["--sigma", "0.1"], "--l, --eta")],
    )
    def test_partial_composed_set_exits_2(self, flags, missing, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["scaling", "--n", "1,10", *flags, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"missing {missing}" in capsys.readouterr().err

    def test_composed_eta_is_one_value(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = ["scaling", "--n", "1,10", "--l", "3", "--eta", "0.01,0.5", "--sigma", "0.1", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()


class TestDvCommand:
    def test_hadamard_gadget_frequencies(self, tmp_path):
        out = tmp_path / "dv.csv"
        rc = main(
            ["dv", "--mode", "hadamard-gadget", "--trials", "10000", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        _config, header, rows = read_rows(out)
        hs = np.array([int(r[header.index("h")]) for r in rows])
        assert abs(hs.mean() - 0.5) < 0.02
        probs = {r[header.index("probability")] for r in rows}
        assert probs == {"0.5"}

    def test_iqp_mode_from_config(self, tmp_path):
        cfg = tmp_path / "iqp.json"
        cfg.write_text(
            json.dumps(
                {
                    "mode": "iqp",
                    "iqp": {
                        "n_qubits": 2,
                        "gates": [[[0], -math.pi / 4], [[1], -math.pi / 4], [[0, 1], math.pi / 4]],
                        "postselect": [[0, 1]],
                    },
                }
            )
        )
        out = tmp_path / "iqp.csv"
        rc = main(["dv", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _config, header, rows = read_rows(out)
        dist = {r[0]: float(r[1]) for r in rows}
        assert dist["00"] == pytest.approx(0.5, abs=1e-12)
        assert dist["01"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "postselect, seed",
        [(None, 11), ("+", 11), ("-", 11), (None, 2**32 - 150)],
        ids=["None", "+", "-", "seeds-across-2**32"],
    )
    def test_rows_are_per_trial_gadget_runs(self, postselect, seed, tmp_path):
        out = tmp_path / "dv.csv"
        argv = ["dv", "--mode", "hadamard-gadget", "--trials", "300", "--seed", str(seed), "--out", str(out)]
        if postselect is not None:
            argv += ["--postselect", postselect]
        assert main(argv) == 0
        _config, header, rows = read_rows(out)
        assert header == ["trial", "h", "probability"]
        psi = cviqp.qubit_state(1.0, 0.0)
        forced = {None: None, "+": 1, "-": -1}[postselect]
        expected = []
        for trial in range(300):
            _out, h, prob = cviqp.dv_hadamard_gadget(psi, postselect=forced, seed=seed + trial)
            expected.append([str(trial), str(h), format(prob, ".12g")])
        assert rows == expected
        if postselect is None:
            assert {r[1] for r in rows} == {"0", "1"}

    def test_sampling_without_seed_exits_2(self, tmp_path):
        rc = main(["dv", "--mode", "hadamard-gadget", "--trials", "4", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**128 - 2])
    def test_seeds_below_2_128_are_drawn_exactly(self, seed, tmp_path):
        out = tmp_path / "dv.csv"
        assert main(["dv", "--mode", "hadamard-gadget", "--trials", "2", "--seed", str(seed), "--out", str(out)]) == 0
        _config, _header, rows = read_rows(out)
        psi = cviqp.qubit_state(1.0, 0.0)
        assert [r[1] for r in rows] == [str(cviqp.dv_hadamard_gadget(psi, seed=seed + t)[1]) for t in range(2)]

    @pytest.mark.parametrize("seed, trials", [(2**128 - 1, 2), (2**128, 1)])
    def test_seeds_from_2_128_exit_2_without_file(self, seed, trials, tmp_path, capsys):
        out = tmp_path / "dv.csv"
        argv = ["dv", "--mode", "hadamard-gadget", "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "2**128" in capsys.readouterr().err


    def test_iqp_flag_matches_config_entry(self, tmp_path):
        circuit = {"n_qubits": 2, "gates": [[[0, 1], math.pi / 4]], "postselect": [[1, -1]]}
        cfg = tmp_path / "iqp.json"
        cfg.write_text(json.dumps({"mode": "iqp", "iqp": circuit}))
        from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["dv", "--config", str(cfg), "--out", str(from_file)]) == 0
        assert main(["dv", "--mode", "iqp", "--iqp", json.dumps(circuit), "--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()


class TestReadoutCommand:
    def test_sweep_against_bound(self, tmp_path):
        out = tmp_path / "ro.csv"
        rc = main(
            [
                "readout",
                "--delta",
                "0.2,0.25",
                "--eta",
                str(SQRT_PI / 8),
                "--state",
                "minus",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _config, header, rows = read_rows(out)
        for row in rows:
            err = float(row[header.index("p_error")])
            bound = float(row[header.index("pe_bound")])
            assert err < 3 * bound

    def test_incompatible_eta_exits_2(self, tmp_path):
        rc = main(["readout", "--delta", "0.2", "--eta", "0.3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_eta_exits_2(self, tmp_path):
        rc = main(["readout", "--delta", "0.2", "--eta", "inf", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert not (tmp_path / "x.csv").exists()


class TestMalformedInput:
    @pytest.mark.parametrize("case", ["float_list", "int_list", "iqp_without_gates"])
    def test_exits_2_without_file(self, case, tmp_path, capsys):
        out = tmp_path / "x.csv"
        if case == "float_list":
            argv = ["fourier-gadget", "--sigma", "abc", "--eta", "0.01", "--out", str(out)]
            bad = "abc"
        elif case == "int_list":
            argv = ["scaling", "--n", "1,a", "--out", str(out)]
            bad = "1,a"
        else:
            cfg = tmp_path / "iqp.json"
            cfg.write_text(json.dumps({"mode": "iqp", "iqp": {"n_qubits": 2}}))
            argv = ["dv", "--config", str(cfg), "--out", str(out)]
            bad = "gates"
        assert main(argv) == 2
        assert not out.exists()
        assert bad in capsys.readouterr().err

    # one malformed numeric value per command, read from a config file
    CONFIG_CASES = {
        "fg_grid_points": ("fourier-gadget", {"sigma": 0.1, "eta": 0.01, "grid_points": "abc"}, "grid_points"),
        "fg_delta": (
            "fourier-gadget",
            {"sigma": 0.1, "eta": 0.01, "input": "plus", "delta": "0.25", "grid_points": 1024, "extent": 64.0},
            "delta",
        ),
        "ec_seed": (
            "error-correct",
            {"delta": 0.25, "eta": SQRT_PI / 4, "seed": "x", "grid_points": 1024, "extent": 64.0},
            "seed",
        ),
        "dv_trials": ("dv", {"mode": "hadamard-gadget", "trials": "x", "seed": 1}, "trials"),
        "readout_delta_env": (
            "readout",
            {"delta": 0.25, "eta": SQRT_PI / 8, "delta_env": "x", "grid_points": 1024, "extent": 64.0},
            "delta_env",
        ),
        "ec_negative_seed": (
            "error-correct",
            {"delta": 0.25, "eta": SQRT_PI / 4, "seed": -5, "grid_points": 1024, "extent": 64.0},
            "seed",
        ),
        "dv_zero_trials": ("dv", {"mode": "hadamard-gadget", "trials": 0, "seed": 1}, "trials"),
    }

    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_config_value_exits_2_without_file(self, case, tmp_path, capsys):
        command, config, key = self.CONFIG_CASES[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err


    # config entries that name no flag of the command, or a value outside the flag's choices
    CONFIG_REJECTED = {
        "fg_unknown_key": ("fourier-gadget", {"sigma": 0.1, "eta": 0.01, "gridpoints": 1024}, "gridpoints"),
        "dv_postselect_choice": ("dv", {"mode": "hadamard-gadget", "postselect": "x", "trials": 5}, "postselect"),
        "scaling_unused_key": ("scaling", {"n": [1, 10], "grid_points": 77}, "grid_points"),
    }

    @pytest.mark.parametrize("case", sorted(CONFIG_REJECTED))
    def test_config_entry_outside_the_flags_exits_2(self, case, tmp_path, capsys):
        command, config, key = self.CONFIG_REJECTED[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_malformed_file_value_fails_under_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": 0.1, "eta": 0.01, "grid_points": 1024, "extent": 256.0, "delta": "0.25"}))
        out = tmp_path / "x.csv"
        argv = ["fourier-gadget", "--config", str(cfg), "--input", "plus", "--delta", "0.25", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scaling", "--grid-points", "77"],
            ["fourier-gadget", "--sigma", "0.1", "--eta", "0.01", "--grid-points", "1024", "--extent", "256",
             "--seed", "3"],
            ["dv", "--seed", "1", "--extent", "5"],
            ["readout", "--delta", "0.2", "--eta", str(SQRT_PI / 8), "--seed", "3"],
        ],
    )
    def test_unused_flag_exits_2(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            ([*EC_SMALL, "--seed", "-5"], "seed"),
            ([*EC_SMALL, "--seed", "1", "--trials", "0"], "trials"),
            (["dv", "--seed", "-1"], "seed"),
            (["dv", "--seed", "1", "--trials", "-3"], "trials"),
            (["dv", "--seed", "1", "--trials", "0"], "trials"),
        ],
    )
    def test_negative_seed_or_no_trials_exits_2(self, argv, key, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_empty_comma_list_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["scaling", "--n", ",", "--out", str(out)]) == 2
        assert not out.exists()
        assert "n:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fourier-gadget", "--sigma", "0.1", "--eta", "0.01", "--grid-points", "1024", "--extent", "256"],
            [*EC_SMALL, "--seed", "1", "--trials", "1"],
            ["scaling", "--n", "1,10"],
            ["dv", "--mode", "hadamard-gadget", "--trials", "2", "--seed", "1"],
            ["readout", "--delta", "0.25", "--eta", str(SQRT_PI / 8), "--grid-points", "1024", "--extent", "64"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_exits_2_without_traceback(self, argv, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {out}")
        assert "Traceback" not in err
        assert not (tmp_path / "no").exists()

    def test_usage_errors_and_help_return_their_status(self, capsys):
        assert main(["scaling", "--bogus"]) == 2
        assert "--bogus" in capsys.readouterr().err
        assert main(["dv", "--help"]) == 0
        assert "--mode" in capsys.readouterr().out

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_help_is_the_full_parsers(self, command, capsys, monkeypatch):
        # main builds only the named subcommand's parser; its help is the full parser's
        (commands,) = (action.choices for action in cli.build_parser()._actions if action.dest == "command")
        built, full = [], cli.build_parser

        def build(names):
            built.append(list(names))
            return full(names)

        monkeypatch.setattr(cli, "build_parser", build)
        assert main([command, "--help"]) == 0
        assert built == [[command]]
        assert capsys.readouterr().out == commands[command].format_help()

    @pytest.mark.parametrize(
        "argv, code",
        [([], 2), (["--help"], 0), (["bogus"], 2), (["error-correct", "--bogus"], 2), (["scaling", "--bogus"], 2)],
        ids=["none", "help", "unknown_command", "missing_flags", "unknown_flag"],
    )
    def test_usage_text_is_the_full_parsers(self, argv, code, capsys, monkeypatch):
        assert main(argv) == code
        text = capsys.readouterr()
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda commands: full())
        assert main(argv) == code
        assert capsys.readouterr() == text


class TestFaultToleranceRoot:
    @pytest.mark.parametrize("target", ["-1", "0", "1", "1.5", "nan"])
    def test_target_outside_unit_interval_exits_2_before_any_output(self, target, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["scaling", "--n", "1,10", "--solve-ft-error", target, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solve_ft_error" in captured.err
        assert not out.exists()

    def test_target_from_config_is_checked_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solve_ft_error": -1}))
        out = tmp_path / "x.csv"
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_unreachable_target_exits_3_without_file(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["scaling", "--n", "1", "--solve-ft-error", "0.9", "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_runs_without_scipy(self, tmp_path):
        # a fresh interpreter, so modules imported by the test suite do not count; the README
        # error-correct conditions on fixed outcomes without noise, so it sets up no generator
        error_correct = [*README_COMMANDS["readme_error_correct.csv"], "--out", str(tmp_path / "ec.csv")]
        code = (
            "import sys, cviqp.cli\n"
            f"assert cviqp.cli.main({error_correct!r}) == 0\n"
            "assert cviqp.cli.main(['scaling', '--n', '1,10', '--solve-ft-error', '1e-6']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cviqp.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert result.stdout.splitlines()[-1] == "[]"


class TestPeakMemory:
    """No command builds an n x n array: each run peaks below half of one, n^2 * 8 bytes.
    The sampled commands hold a few bytes of numeric array per trial and no per-trial text."""

    @pytest.mark.parametrize(
        "argv, n",
        [
            (README_COMMANDS["readme_error_correct.csv"], 1024),
            (README_COMMANDS["readme_fourier_gadget.csv"], 4096),
            (["error-correct", "--delta", "0.25", "--eta", str(SQRT_PI / 4), "--trials", "100", "--seed", "7"], 4096),
        ],
        ids=["readme_error_correct", "readme_fourier_gadget", "error_correct_default_grid"],
    )
    def test_peak_below_half_an_n_by_n_array(self, argv, n, tmp_path):
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "argv",
        [README_COMMANDS["readme_error_correct.csv"], ["dv", "--mode", "hadamard-gadget", "--seed", "1"]],
        ids=["readme_error_correct", "dv_hadamard_gadget"],
    )
    def test_trials_cost_a_few_bytes_each(self, argv, tmp_path):
        trials = 100_000
        tracemalloc.start()
        try:
            assert main([*argv, "--trials", str(trials), "--out", str(tmp_path / "out.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * trials, f"peak {peak / trials:.0f} bytes a trial"
