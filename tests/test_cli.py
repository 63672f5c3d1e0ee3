import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pseudotherm
from pseudotherm.cli import (
    CONFIG_ENV_VAR,
    VALID_KEYS,
    main,
    params_from_mapping,
    read_table,
    run,
    write_table,
)


@pytest.fixture()
def tiny_cfg(tmp_path):
    cfg = {
        "system.Omega": 0.5,
        "system.Omega1": 1,
        "system.Omega2": 1,
        "model.g": 1.0,
        "model.alpha": 0.7,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_params_from_mapping_defaults():
    p = params_from_mapping({})
    assert p.D == 2.878 and p.Omega == 4.0


def test_params_from_mapping_unknown_key_lists_valid():
    with pytest.raises(ValueError) as err:
        params_from_mapping({"model.Dee": 1.0})
    msg = str(err.value)
    assert "model.Dee" in msg
    for key in VALID_KEYS[:3]:
        assert key in msg


def test_write_read_roundtrip(tmp_path):
    path = str(tmp_path / "t.tsv")
    write_table(path, ["a", "b"], [(1, 2.5), (3, float("nan"))], {"model.D": 2.878})
    meta, cols, rows = read_table(path)
    assert meta["model.D"] == "2.878"
    assert cols == ["a", "b"]
    assert rows[0] == ["1", "2.5"]
    assert rows[1][1] == "nan"


def test_blocks_dump(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "blocks-dump"])
    assert rc == 0
    meta, cols, rows = read_table(os.path.join(str(tmp_path), "blocks.tsv"))
    assert cols == ["N", "tau", "k", "S", "s1", "s2", "mult", "dim"]
    total = sum(int(r[6]) * int(r[7]) for r in rows)
    assert total == 64
    assert meta["system.Omega"] == "0.5"


def test_spectrum_emits_block_eigenvalues(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "spectrum"])
    assert rc == 0
    _, cols, rows = read_table(os.path.join(str(tmp_path), "spectrum.tsv"))
    assert cols == ["block-id", "mult", "ReE", "ImE"]
    assert len(rows) == 36  # sum of block dims at this size
    mult_dim = sum(int(r[1]) for r in rows)
    assert mult_dim == 64  # multiplicity-weighted state count


def test_byte_identical_reruns(tmp_path, tiny_cfg):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["--config", tiny_cfg, "--out", str(out), "thermo",
                     "--t-min", "0.2", "--t-max", "2.0", "--t-steps", "7"]) == 0
    b1 = (out1 / "thermo.tsv").read_bytes()
    b2 = (out2 / "thermo.tsv").read_bytes()
    assert b1 == b2


def test_thermo_columns_and_validity(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "thermo",
               "--t-min", "0.1", "--t-max", "5.0", "--t-steps", "9", "--gap"])
    assert rc == 0
    meta, cols, rows = read_table(os.path.join(str(tmp_path), "thermo.tsv"))
    assert cols == ["T", "Tr", "z_sign", "ln_abs_Z", "F", "U", "S", "Cv",
                    "Delta", "valid"]
    assert meta["run.command"] == "thermo"
    t = np.array([float(r[0]) for r in rows])
    assert len(t) == 9 and np.all(np.diff(t) > 0)
    assert all(r[9] == "1" for r in rows)
    assert all(float(r[8]) >= 0.0 for r in rows)


def test_gap_table_survives_negative_correlators(tmp_path):
    # a negative pair correlator leaves Delta NaN at its temperature; the
    # run finishes, and every other column is that of a run without --gap
    argv = ["--alpha", "0.24", "--g", "1.73", "thermo",
            "--t-min", "0.05", "--t-max", "0.3", "--t-steps", "200"]
    assert main(["--out", str(tmp_path / "plain"), *argv]) == 0
    with pytest.warns(UserWarning, match="at 7 of 200"):
        assert main(["--out", str(tmp_path / "gap"), *argv, "--gap"]) == 0
    _, cols, plain = read_table(str(tmp_path / "plain" / "thermo.tsv"))
    _, _, gap = read_table(str(tmp_path / "gap" / "thermo.tsv"))
    assert len(gap) == 200
    delta = cols.index("Delta")
    assert sum(r[delta] == "nan" for r in gap) == 7
    assert all(float(r[delta]) > 0.0 for r in gap if r[delta] != "nan")
    for with_gap, without in zip(gap, plain):
        assert with_gap[:delta] + with_gap[delta + 1:] == without[:delta] + without[delta + 1:]


def test_flag_overrides_config(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--alpha", "1.0", "--out", str(tmp_path),
               "spectrum"])
    assert rc == 0
    meta, _, rows = read_table(os.path.join(str(tmp_path), "spectrum.tsv"))
    assert meta["model.alpha"] == "1"
    assert all(float(r[3]) == 0.0 for r in rows)  # hermitian point: real


def test_tc_map_tiny(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "tc-map",
               "--alpha-min", "0.2", "--alpha-max", "0.8", "--alpha-steps", "4",
               "--t-max", "1.0"])
    assert rc == 0
    _, cols, rows = read_table(os.path.join(str(tmp_path), "tc_map.tsv"))
    assert cols == ["alpha", "g", "T_c"]
    assert len(rows) == 4


def test_empty_grid_exits_two(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "tc-map",
               "--alpha-min", "1.0", "--alpha-max", "0.0", "--alpha-steps", "3"])
    assert rc == 2


@pytest.mark.parametrize("t_max", ["0.001", "-1", "inf"])
def test_tc_map_t_max_below_scan_exits_two(tmp_path, monkeypatch, t_max):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    rc = main(["--g", "1.73", "--out", str(tmp_path), "tc-map", "--alpha-min", "0.246",
               "--alpha-max", "0.246", "--alpha-steps", "1", "--t-max", t_max])
    assert rc == 2
    assert not (tmp_path / "tc_map.tsv").exists()


@pytest.mark.parametrize(
    "argv, table",
    [
        (["thermo", "--t-min", "0", "--t-steps", "5", "--gap"], "thermo.tsv"),
        (["spinodal", "--t-values=-0.1"], "spinodal_loci.tsv"),
        (["cycle", "--kind", "carnot", "--t-values=-0.1,0.5", "--x-values", "0.5"],
         "cycle_carnot.tsv"),
        (["cycle", "--kind", "stirling", "--t-values", "0.4,inf", "--x-values", "0.5,0.9"],
         "cycle_stirling.tsv"),
        (["spinodal", "--t-values", "inf"], "spinodal_loci.tsv"),
    ],
)
def test_non_positive_temperature_exits_two(tmp_path, tiny_cfg, argv, table):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), *argv])
    assert rc == 2
    assert not (tmp_path / table).exists()


@pytest.mark.parametrize("lo, hi, steps", [("0.3", "0.3", "5"), ("0.2", "0.4", "2")],
                         ids=["flat", "two-points"])
def test_spinodal_refuses_grid_before_solving(tmp_path, monkeypatch, lo, hi, steps):
    # a grid that is not strictly increasing, or has under 5 points, cannot
    # be classified: exit 2 before any eigensolve
    from pseudotherm import spectral

    def refuse(points):
        raise AssertionError("eigensolve before the grid check")

    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.setattr(spectral, "block_spectra", refuse)
    rc = main(["--g", "1.73", "--out", str(tmp_path), "spinodal", "--t-values", "0.144",
               "--alpha-min", lo, "--alpha-max", hi, "--alpha-steps", steps])
    assert rc == 2
    assert not (tmp_path / "spinodal_loci.tsv").exists()


def test_thermo_rows_where_z_is_not_finite_are_invalid(tmp_path):
    # beta*E overflows at both temperatures: Z is NaN, and the rows say so,
    # without numpy's warnings about the NaN on stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    env = dict(os.environ)
    env.pop(CONFIG_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudotherm", "--g", "1.73", "--out", str(tmp_path), "thermo",
         "--t-min", "1e-320", "--t-max", "1e-319", "--t-steps", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    _, cols, rows = read_table(str(tmp_path / "thermo.tsv"))
    assert [(row[cols.index("z_sign")], row[cols.index("valid")]) for row in rows] == [
        ("0", "0"), ("0", "0")
    ]


def test_spinodal_isotherm_with_too_few_valid_points_exits_two(tmp_path, monkeypatch):
    # a check after the solve: every point of the 1e-320 isotherm is invalid
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    with np.errstate(all="ignore"):
        rc = main(["--g", "1.73", "--out", str(tmp_path), "spinodal", "--t-values",
                   "0.2,1e-320", "--alpha-min", "0.2", "--alpha-max", "0.4",
                   "--alpha-steps", "6"])
    assert rc == 2
    assert not (tmp_path / "spinodal_loci.tsv").exists()


CARNOT_CORNERS = ["--t-values", "0.4,0.7", "--x-values", "3.5,4.5"]


@pytest.mark.parametrize(
    "argv, table",
    [
        (["eps", "--steps", "1"], "eps.tsv"),
        (["eps", "--lo", "0.5", "--hi", "0.4"], "eps.tsv"),
        (["eps", "--hi", "inf"], "eps.tsv"),
        (["eps", "--lo=-0.1", "--hi", "0.5", "--steps", "4"], "eps.tsv"),
        (["eps", "--precision", "0"], "eps.tsv"),
        (["eps", "--precision=-1"], "eps.tsv"),
        (["cycle", "--kind", "carnot", *CARNOT_CORNERS, "--bracket-lo", "0.5",
          "--bracket-hi", "0.5"], "cycle_carnot.tsv"),
        (["cycle", "--kind", "carnot", *CARNOT_CORNERS, "--bracket-lo=-0.1"],
         "cycle_carnot.tsv"),
        (["cycle", "--kind", "carnot", "--t-values", "0.4,0.7,0.4", "--x-values", "3.5,4.5"],
         "cycle_carnot.tsv"),
        (["cycle", "--kind", "carnot", "--t-values", "0.4,0.7", "--x-values", "3.5,4.5,3.5"],
         "cycle_carnot.tsv"),
        (["cycle", "--kind", "stirling", "--t-values", "0.4,0.7", "--x-values", "0.5,0.9,0.5"],
         "cycle_stirling.tsv"),
        (["cycle", "--kind", "carnot", "--t-values", "0.4,0.7", "--x-values", "3.5,nan"],
         "cycle_carnot.tsv"),
        (["cycle", "--kind", "stirling", "--t-values", "0.4,0.7", "--x-values", "0,0.5"],
         "cycle_stirling.tsv"),
        (["spinodal", "--t-values", "0.144", "--alpha-min=-0.1"], "spinodal_loci.tsv"),
        (["tc-map", "--alpha-min=-0.1"], "tc_map.tsv"),
        (["thermo", "--nv-count", "0"], "thermo.tsv"),
        (["tc-map", "--alpha-max", "inf", "--alpha-steps", "3"], "tc_map.tsv"),
        (["tc-map", "--g-values", "1.0,nan"], "tc_map.tsv"),
        (["tc-map", "--g-values", "inf"], "tc_map.tsv"),
        (["--g", "nan", "thermo"], "thermo.tsv"),
        (["--alpha", "inf", "spinodal", "--t-values", "0.144"], "spinodal_loci.tsv"),
        (["--workers", "0", "tc-map"], "tc_map.tsv"),
        (["--workers=-3", "spinodal", "--t-values", "0.144"], "spinodal_loci.tsv"),
        (["rescale-fit", "--np-values", "2.5"], "rescale_fit.tsv"),
        (["rescale-fit", "--np-values", "0"], "rescale_fit.tsv"),
        (["rescale-fit", "--np-values=-2"], "rescale_fit.tsv"),
        (["rescale-fit", "--np-values", "2,nan"], "rescale_fit.tsv"),
        (["rescale-fit", "--target=-1"], "rescale_fit.tsv"),
        (["rescale-fit", "--target", "nan"], "rescale_fit.tsv"),
        (["rescale-fit", "--g0", "0"], "rescale_fit.tsv"),
        (["rescale-fit", "--g0", "nan"], "rescale_fit.tsv"),
        (["--config", {"system.Omega1": 2.5}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega1": "2.5"}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega2": True}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega2": math.inf}, "thermo"], "thermo.tsv"),
        (["--config", {"model.alpha": True}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega": 2.3}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega": -1}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega": 0}, "thermo"], "thermo.tsv"),
        (["--config", {"system.Omega1": 0}, "thermo"], "thermo.tsv"),
        (["--config", {"model.D": -1}, "thermo"], "thermo.tsv"),
        (["--config", {"model.coupling_z": "foo"}, "thermo"], "thermo.tsv"),
        (["--alpha", "-0.5", "thermo"], "thermo.tsv"),
        (["spinodal", "--t-values", "abc"], "spinodal_loci.tsv"),
        (["cycle", "--kind", "stirling", "--t-values", "0.4,x", "--x-values", "0.3,0.5"],
         "cycle_stirling.tsv"),
        (["tc-map", "--g-values", "1,abc"], "tc_map.tsv"),
        (["rescale-fit", "--np-values", "2,x"], "rescale_fit.tsv"),
        (["oracle-check"], "oracle_check.tsv"),
        (["cycle", "--kind", "stirling", "--t-values", "0.4", "--x-values", "0.3,0.5"],
         "cycle_stirling.tsv"),
        (["cycle", "--kind", "carnot", "--t-values", "0.4,0.7", "--x-values", "3.5"],
         "cycle_carnot.tsv"),
    ],
    ids=["one-step", "reversed", "infinite", "negative-alpha", "zero-precision",
         "negative-precision", "flat-bracket", "negative-bracket", "repeated-temperature",
         "repeated-entropy", "repeated-alpha", "nan-x", "zero-stirling-alpha",
         "spinodal-negative-alpha", "tc-map-negative-alpha", "zero-nv-count",
         "tc-map-infinite-alpha", "tc-map-nan-g", "tc-map-infinite-g", "nan-g",
         "infinite-alpha", "zero-workers", "negative-workers", "fractional-np", "zero-np",
         "negative-np", "nan-np", "negative-target", "nan-target", "zero-g0", "nan-g0",
         "fractional-omega1", "fractional-omega1-text", "boolean-omega2", "infinite-omega2",
         "boolean-alpha", "fractional-omega", "negative-omega", "zero-omega", "zero-omega1",
         "negative-d", "unknown-coupling", "negative-alpha-flag", "text-t-value",
         "text-cycle-t-value", "text-g-value", "text-np-value", "oracle-over-fock-cap",
         "one-t-value", "one-x-value"],
)
def test_infeasible_sweep_exits_two_before_solving(tmp_path, monkeypatch, argv, table):
    # a dict in argv stands for a config file holding it
    from pseudotherm import spectral

    cfg = tmp_path / "cfg.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv = [*argv[:i], str(cfg), *argv[i + 1:]]

    def refuse(*args):
        raise AssertionError("eigensolve before the request check")

    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    monkeypatch.setattr(spectral, "block_spectra", refuse)
    monkeypatch.setattr(spectral, "vector_spectra", refuse)
    spectral.block_eigen_data.cache_clear()
    assert main(["--g", "1.73", "--out", str(tmp_path), *argv]) == 2
    assert not (tmp_path / table).exists()


def test_sweeps_solve_their_tables_in_one_batch(tmp_path, monkeypatch, tiny_cfg):
    from pseudotherm import spectral

    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    assert main(["--config", tiny_cfg, "--workers", "2", "--out", str(tmp_path), "tc-map",
                 "--alpha-min", "0.2", "--alpha-max", "0.8", "--alpha-steps", "5",
                 "--g-values", "1.0,1.73", "--t-max", "1.0"]) == 0
    assert batches == [10]
    del batches[:]
    assert main(["--config", tiny_cfg, "--out", str(tmp_path), "spinodal",
                 "--t-values", "0.3,0.4", "--alpha-min", "0.2", "--alpha-max", "0.9",
                 "--alpha-steps", "21"]) == 0
    assert batches == [21]


def test_sweeps_in_several_batches_write_the_same_tables(tmp_path, monkeypatch):
    # a sweep longer than one batch is solved and reduced batch by batch,
    # and writes the bytes of one batch
    from pseudotherm import spectral, thermo
    from pseudotherm.model import ModelParams, fold_plan

    tc_map = ["tc-map", "--alpha-min", "0", "--alpha-max", "1.2", "--alpha-steps", "6",
              "--g-values", "1.0,1.73"]
    spinodal = ["spinodal", "--t-values", "0.144,0.3", "--alpha-min", "0.2",
                "--alpha-max", "0.4", "--alpha-steps", "15"]
    names = {"tc-map": ["tc_map.tsv"], "spinodal": ["spinodal_loci.tsv", "spinodal_intervals.tsv"]}

    def tables(out, argv):
        assert main(["--g", "1.73", "--workers", "2", "--out", str(out), *argv]) == 0
        return [(out / name).read_bytes() for name in names[argv[0]]]

    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    whole = {argv[0]: tables(tmp_path / "whole", argv) for argv in (tc_map, spinodal)}
    assert b"\t0.157332202915\n" in whole["tc-map"][0]
    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    monkeypatch.setattr(thermo, "SWEEP_SLOTS", 5 * len(fold_plan(ModelParams()).slot_nqb))
    assert tables(tmp_path / "split", tc_map) == whole["tc-map"]
    assert batches == [5, 5, 2]
    del batches[:]
    assert tables(tmp_path / "split", spinodal) == whole["spinodal"]
    assert batches == [5, 5, 5]


def test_cycle_grids_in_several_batches_write_the_same_tables(tmp_path, monkeypatch):
    # the coarse scan, every bisection step and the roots of a Carnot grid,
    # and the corners of a Stirling grid, are solved in sweep batches, and
    # write the bytes of one batch
    from pseudotherm import spectral, thermo
    from pseudotherm.model import fold_plan

    with open(CARNOT_SYSTEM, encoding="utf-8") as fh:
        system = params_from_mapping(json.load(fh))

    def tables(out, argv):
        kind = argv[argv.index("--kind") + 1]
        assert main(["--config", CARNOT_SYSTEM, "--out", str(out), *argv]) == 0
        return [(out / f"cycle_{kind}{part}.tsv").read_bytes()
                for part in ("", "_max_by_x", "_max_by_t")]

    carnot = tables(tmp_path / "whole", CARNOT_ARGS)
    stirling = tables(tmp_path / "whole", STIRLING_GRID_ARGS)
    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    monkeypatch.setattr(thermo, "SWEEP_SLOTS", 2 * len(fold_plan(system).slot_nqb))
    assert tables(tmp_path / "split", CARNOT_ARGS) == carnot
    # the 64 coarse points in 32 batches, then the 6 distinct corners at each
    # of the 22 bisection steps and at the roots, in 3 batches each
    assert batches == [2] * (32 + 23 * 3)
    del batches[:]
    assert tables(tmp_path / "split", STIRLING_GRID_ARGS) == stirling
    assert batches == [2, 2, 1]


def test_stirling_grid_ignores_the_alpha_bracket(tmp_path):
    # the bracket bounds the Carnot corner solves alone: a Stirling grid
    # given an empty one writes the bytes of the default
    def tables(out, extra):
        argv = ["--config", CARNOT_SYSTEM, "--out", str(out), *STIRLING_GRID_ARGS, *extra]
        assert main(argv) == 0
        return [(out / f"cycle_stirling{part}.tsv").read_bytes()
                for part in ("", "_max_by_x", "_max_by_t")]

    empty = tables(tmp_path / "empty", ["--bracket-lo", "2", "--bracket-hi", "1"])
    assert empty == tables(tmp_path / "default", [])


def test_tc_map_desk_critical_temperatures(tmp_path, monkeypatch):
    # desk size at g 1.73: only alpha 0.246 has a zero of Z below T = 2, and
    # two worker threads write the same bytes as one
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    tables = {}
    for workers in ("2", "1"):
        out = tmp_path / f"w{workers}"
        assert main(["--g", "1.73", "--workers", workers, "--out", str(out), "tc-map",
                     "--alpha-min", "0.006", "--alpha-max", "1.206",
                     "--alpha-steps", "6"]) == 0
        tables[workers] = (out / "tc_map.tsv").read_bytes()
    _, cols, rows = read_table(str(tmp_path / "w2" / "tc_map.tsv"))
    assert cols == ["alpha", "g", "T_c"]
    assert [r[0] for r in rows] == ["0.006", "0.246", "0.486", "0.726", "0.966", "1.206"]
    assert [r[2] for r in rows] == ["0", "0.156025268619", "0", "0", "0", "0"]
    assert tables["2"] == tables["1"]


def test_tc_map_scans_only_open_points_in_threads(tmp_path, monkeypatch):
    # the points whose certificate proves Z > 0 are settled in the calling
    # thread; the others go to the pool, which starts only for two or more
    import concurrent.futures

    from pseudotherm import thermo

    pools, scanned = [], []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def map(self, fn, items, **kwargs):
            items = list(items)
            pools.append((self._max_workers, len(items)))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    solve = thermo.critical_temperature

    def counted(p, **kwargs):
        scanned.append(p.alpha)
        return solve(p, **kwargs)

    monkeypatch.setattr(thermo, "critical_temperature", counted)

    def tc_map(workers, lo, hi):
        out = tmp_path / f"w{workers}-{lo}"
        assert main(["--g", "1.73", "--workers", workers, "--out", str(out), "tc-map",
                     "--alpha-min", lo, "--alpha-max", hi, "--alpha-steps", "6"]) == 0
        return (out / "tc_map.tsv").read_bytes()

    # every point of alpha 0.2-0.3 has a zero of Z
    assert tc_map("2", "0.2", "0.3") == tc_map("1", "0.2", "0.3")
    assert pools == [(2, 6)]
    assert len(scanned) == 12
    del pools[:], scanned[:]
    # only alpha 0.246 has one in 0.006-1.206
    tc_map("2", "0.006", "1.206")
    assert pools == [] and scanned == [0.246]


@pytest.mark.parametrize(
    "alpha, g", [(0.242, 1.73), (0.2, 2.5), (0.36, 1.73), (0.02, 2.5), (0.3, 2.0), (0.36, 1.0)]
)
def test_tc_map_is_invariant_under_transpose_duality(tmp_path, monkeypatch, alpha, g):
    # H(alpha, g)^T = H(1/alpha, alpha g) has the same spectrum, so tc-map
    # writes the same T_c at both points: five with a zero of Z, one without
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)

    def t_c(a, coupling):
        out = tmp_path / repr(a)
        assert main(["--out", str(out), "tc-map", "--alpha-min", repr(a), "--alpha-max",
                     repr(a), "--alpha-steps", "1", "--g-values", repr(coupling)]) == 0
        (row,) = read_table(str(out / "tc_map.tsv"))[2]
        return float(row[2])

    want = t_c(alpha, g)
    assert (want > 0.0) == (g > 1.0)
    assert t_c(1.0 / alpha, alpha * g) == pytest.approx(want, rel=1e-8, abs=0.0)


def test_unknown_config_key_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model.bogus": 1}))
    rc = main(["--config", str(bad), "--out", str(tmp_path), "blocks-dump"])
    assert rc == 1


def test_oracle_check_passes(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--alpha", "0.4", "--g", "1.73",
               "--out", str(tmp_path), "oracle-check"])
    assert rc == 0
    _, _, rows = read_table(os.path.join(str(tmp_path), "oracle_check.tsv"))
    assert float(rows[0][1]) < 1e-8


def test_oracle_check_solves_the_fock_matrix_once(tmp_path, monkeypatch):
    # the spectrum check and the four partition traces share one eigensolve
    from pseudotherm.oracle import FockSpace

    dim = FockSpace(1.0, 1, 1).dimension
    solves = []
    eigvals = np.linalg.eigvals

    def counted(a):
        if np.shape(a) == (dim, dim):
            solves.append(dim)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    cfg = tmp_path / "mu.json"
    cfg.write_text(json.dumps({**OMEGA1_POINT, "model.muS": 0.4}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "oracle-check"]) == 0
    assert solves == [dim]


@pytest.mark.parametrize("mu_s, mu_qb", [(0.0, 0.3), (0.4, 0.0), (0.4, 0.3)])
def test_oracle_check_passes_with_chemical_potentials(tmp_path, mu_s, mu_qb):
    # the Fock spectrum is the grand-canonical one, so the block union must
    # carry the same -muS*N - muQb*N_qb shift
    cfg = tmp_path / "mu.json"
    cfg.write_text(json.dumps({
        "system.Omega": 1.0, "system.Omega1": 1, "system.Omega2": 1,
        "model.alpha": 0.5, "model.g": 1.2, "model.muS": mu_s, "model.muQb": mu_qb,
    }))
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "oracle-check"])
    assert rc == 0
    _, _, rows = read_table(os.path.join(str(tmp_path), "oracle_check.tsv"))
    assert float(rows[0][1]) < 1e-8 and float(rows[1][1]) < 1e-8


def test_module_entry_point_runs(tmp_path, tiny_cfg):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudotherm", "--config", tiny_cfg,
         "--out", str(tmp_path), "blocks-dump"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, cols, _ = read_table(os.path.join(str(tmp_path), "blocks.tsv"))
    assert cols[:2] == ["N", "tau"]


def test_cli_leaves_thread_pool_unimported():
    # concurrent.futures (and logging with it) costs ~10 ms to import; only
    # a step with more than one worker and more than one item needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from pseudotherm.cli import _parallel_map\n"
        "assert _parallel_map(abs, [-1, 2], 1) == [1, 2]\n"
        "assert _parallel_map(abs, [-1], 2) == [1]\n"
        "assert _parallel_map(abs, [], 2) == []\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_desk_steps_leave_numpy_ma_and_scipy_unimported(tmp_path):
    # numpy.ma (~17 ms, pulled in by np.unique) and scipy cost start-up time
    # in every process; the fold plan and the desk spinodal and tc-map steps
    # need neither
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    spinodal = ["--g", "1.73", "spinodal", "--t-values", "0.144", "--alpha-min", "0.2",
                "--alpha-max", "0.4", "--alpha-steps", "15"]
    tc_map = ["--workers", "2", "tc-map", "--alpha-steps", "6", "--g-values", "1.0,1.73"]
    code = (
        "import sys\n"
        "from pseudotherm.cli import main\n"
        f"for argv in ({spinodal!r}, {tc_map!r}):\n"
        f"    assert main(['--out', {str(tmp_path)!r}, *argv]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy.ma' or m.startswith(('numpy.ma.', 'scipy'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "spinodal_loci.tsv").exists() and (tmp_path / "tc_map.tsv").exists()


def test_cycle_stirling_tiny(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "cycle",
               "--kind", "stirling", "--t-values", "0.3,0.9",
               "--x-values", "0.4,0.8"])
    assert rc == 0
    _, cols, rows = read_table(os.path.join(str(tmp_path), "cycle_stirling.tsv"))
    assert len(rows) == 1
    assert rows[0][7] == "1"  # feasible
    for name in ("cycle_stirling_max_by_x.tsv", "cycle_stirling_max_by_t.tsv"):
        assert os.path.exists(os.path.join(str(tmp_path), name))


def test_spinodal_classifies_in_the_calling_thread(tmp_path, monkeypatch):
    # the classification of an isotherm is pure Python on the alpha grid, so
    # --workers starts no pool for it, and the tables are those of one worker
    import concurrent.futures

    pools = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)

    def spinodal(workers):
        out = tmp_path / f"w{workers}"
        assert main(["--g", "1.73", "--workers", workers, "--out", str(out), "spinodal",
                     "--t-values", "0.115,0.144,0.173", "--alpha-steps", "41"]) == 0
        return [(out / name).read_bytes()
                for name in ("spinodal_loci.tsv", "spinodal_intervals.tsv")]

    assert spinodal("2") == spinodal("1")
    assert pools == []


def test_spinodal_subcommand(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "spinodal",
               "--t-values", "0.4", "--alpha-min", "0.2", "--alpha-max", "0.9",
               "--alpha-steps", "41"])
    assert rc == 0
    for name in ("spinodal_loci.tsv", "spinodal_intervals.tsv"):
        meta, cols, rows = read_table(os.path.join(str(tmp_path), name))
        assert cols[0] == "T"


def test_eps_subcommand(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--g", "1.73", "--out", str(tmp_path), "eps",
               "--lo", "0.2", "--hi", "0.8", "--steps", "20"])
    assert rc == 0
    _, cols, _ = read_table(os.path.join(str(tmp_path), "eps.tsv"))
    assert cols[:2] == ["param", "value"]


def test_eps_g_sweep_may_go_negative(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "eps", "--param", "g",
               "--lo=-0.1", "--hi", "0.5", "--steps", "4"])
    assert rc == 0


def test_nv_count_header_reproduces_its_table(tmp_path):
    argv = ["--alpha", "0.36", "--g", "1.73", "thermo", "--t-steps", "20"]
    assert main(["--out", str(tmp_path), *argv, "--nv-count", "6"]) == 0
    meta, _, rows = read_table(str(tmp_path / "thermo.tsv"))
    assert (meta["run.nv_count"], meta["system.Omega"]) == ("6", "3")
    cfg = tmp_path / "config.json"
    keys = {k: v for k, v in meta.items() if k.startswith(("model.", "system."))}
    cfg.write_text(json.dumps(keys))
    again = tmp_path / "again"
    again.mkdir()
    assert main(["--config", str(cfg), "--out", str(again), "thermo", "--t-steps", "20"]) == 0
    assert read_table(str(again / "thermo.tsv"))[2] == rows


def test_rescale_fit_subcommand(tmp_path, tiny_cfg):
    rc = main(["--config", tiny_cfg, "--out", str(tmp_path), "rescale-fit",
               "--np-values", "2,3"])
    assert rc == 0
    meta, cols, rows = read_table(os.path.join(str(tmp_path), "rescale_fit.tsv"))
    assert "fit.a" in meta and "fit.b" in meta
    assert len(rows) == 2


def test_parallel_map_matches_serial(tmp_path, tiny_cfg):
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    for out, workers in ((out1, "1"), (out2, "4")):
        assert main(["--config", tiny_cfg, "--workers", workers, "--out", str(out),
                     "tc-map", "--alpha-min", "0.2", "--alpha-max", "0.8",
                     "--alpha-steps", "5", "--t-max", "1.0"]) == 0
    assert (out1 / "tc_map.tsv").read_bytes() == (out2 / "tc_map.tsv").read_bytes()


def test_benchmark_hooks_find_their_names():
    # perfbench/spans.py wraps and reads layer functions and caches by module
    # attribute (thermo._refine_bracket, cycles.solve_alpha,
    # cycles._solve_alpha_cached, spectral.build_block_hamiltonian,
    # cli._parallel_map, ...); install() fails on any name the program no
    # longer has, so a rename in src/ fails here, not only in the benchmark's
    # own suite.  In a subprocess, because install() patches numpy.linalg in
    # place
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, os.path.join(root, "perfbench")])
    code = (
        "import spans\n"
        "t = spans.install()\n"
        "assert set(spans.layer_metrics([spans.layer_totals(t)])) == set(spans.LAYER_METRICS)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_layer_trace_sees_every_layer(tmp_path):
    # the benchmark's traced child process, run unchanged: its spans wrap the
    # layers by module attribute, so a layer that stopped going through one
    # would drop out of the trace
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = tmp_path / "omega1.json"
    cfg.write_text(json.dumps({"system.Omega": 1, "system.Omega1": 1, "system.Omega2": 1}))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "child.py"), str(result), "1", src,
         "--", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "thermo", "--t-min", "0.05", "--t-max", "15", "--t-steps", "12", "--gap"],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["rc"] == 0
    assert out["trace_problems"] == []
    spans = out["layer_totals"]["spans"]
    for name in ("thermo.fold", "spectral.block_spectra", "spectral.diagonalize",
                 "thermo.gap_curve", "thermo.potentials"):
        assert spans.get(name, [0])[0] > 0, name


# -------------------------------------------------------------- pinned tables
# Tables written by an earlier version of the program, kept in tests/data;
# a rerun must reproduce them byte for byte.

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
OMEGA1_POINT = {
    "system.Omega": 1,
    "system.Omega1": 1,
    "system.Omega2": 1,
    "model.alpha": 0.5,
    "model.g": 1.2,
    "model.muQb": 0.3,
}
EPS_ARGS = ["--g", "1.73", "eps", "--lo", "0.39", "--hi", "0.5", "--steps", "24"]
GAP_ARGS = ["thermo", "--t-min", "0.05", "--t-max", "15", "--gap"]
BROKEN_MU_POINT = {"model.alpha": 0.36, "model.g": 1.73, "model.muS": 0.2, "model.muQb": 0.1}
ISOTHERM_ARGS = ["--g", "1.73", "spinodal", "--t-values", "0.144",
                 "--alpha-min", "0.2", "--alpha-max", "0.4", "--alpha-steps", "15"]
TC_MAP_ARGS = ["--workers", "2", "tc-map", "--alpha-min", "0", "--alpha-max", "1.2",
               "--alpha-steps", "6"]
CARNOT_SYSTEM = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "carnot_system.json"
)
CARNOT_ARGS = ["--g", "1.73", "cycle", "--kind", "carnot",
               "--t-values", "0.4,0.7", "--x-values", "3.5,4.5,5.5"]
STIRLING_ARGS = ["--g", "1.73", "cycle", "--kind", "stirling",
                 "--t-values", "0.4,0.7", "--x-values", "0.5,0.9"]
# 15 infeasible cells, for 4 distinct reasons
CARNOT_INFEASIBLE_ARGS = ["--g", "1.73", "cycle", "--kind", "carnot",
                          "--t-values", "0.3,0.5,0.9", "--x-values", "3.0,4.0,5.0,9.0"]
STIRLING_GRID_ARGS = ["--g", "1.73", "cycle", "--kind", "stirling",
                      "--t-values", "0.3,0.5,0.9,1.4", "--x-values", "0.2,0.4,0.7,1.1,1.5"]
# Omega 8: 6 points of the T_c map below have a zero of Z, 6 none
OMEGA8 = {"system.Omega": 8, "system.Omega1": 3, "system.Omega2": 3}
OMEGA8_ISOTHERM_ARGS = ["--g", "1.73", "spinodal", "--t-values", "0.3,0.5", "--alpha-min",
                        "0.1", "--alpha-max", "0.3", "--alpha-steps", "16"]
# pinned file -> (config: a mapping, or a path read in place; argv; the file
# the command writes)
PINNED = {
    "eps.tsv": (None, EPS_ARGS, "eps.tsv"),
    "spectrum.tsv": (OMEGA1_POINT, ["spectrum"], "spectrum.tsv"),
    "spectrum_total.tsv": (
        {**OMEGA1_POINT, "model.coupling_z": "total"}, ["spectrum"], "spectrum.tsv"
    ),
    "oracle_check.tsv": (OMEGA1_POINT, ["oracle-check"], "oracle_check.tsv"),
    "thermo_gap.tsv": (
        None, ["--alpha", "0.36", "--g", "1.73", *GAP_ARGS, "--t-steps", "120"], "thermo.tsv"
    ),
    "thermo_gap_mu.tsv": (BROKEN_MU_POINT, [*GAP_ARGS, "--t-steps", "40"], "thermo.tsv"),
    "thermo_nv6.tsv": (
        None, ["--alpha", "0.36", "--g", "1.73", "thermo", "--t-steps", "20", "--nv-count", "6"],
        "thermo.tsv",
    ),
    "spinodal_loci.tsv": (None, ISOTHERM_ARGS, "spinodal_loci.tsv"),
    "spinodal_intervals.tsv": (None, ISOTHERM_ARGS, "spinodal_intervals.tsv"),
    "tc_map.tsv": (None, [*TC_MAP_ARGS, "--g-values", "1.0,1.73"], "tc_map.tsv"),
    "tc_map_mu.tsv": (BROKEN_MU_POINT, TC_MAP_ARGS, "tc_map.tsv"),
    "tc_map_omega8.tsv": (OMEGA8, ["--g", "1.73", "--workers", "2", "tc-map", "--alpha-min",
                                   "0.1", "--alpha-max", "1.2", "--alpha-steps", "12"],
                          "tc_map.tsv"),
    "thermo_gap_omega8.tsv": (OMEGA8, ["--alpha", "0.36", "--g", "1.73", *GAP_ARGS,
                                       "--t-steps", "40"], "thermo.tsv"),
    # no spinodal lies in this range: the table pins the classified isotherm's
    # empty result at the size of 42 size groups and 1088 sectors
    "spinodal_loci_omega8.tsv": (OMEGA8, ["--g", "1.73", "spinodal", "--t-values", "0.3",
                                          "--alpha-min", "0.2", "--alpha-max", "0.5",
                                          "--alpha-steps", "8"], "spinodal_loci.tsv"),
    # two isotherms across the loci: at T 0.5 three minima, two binodals and
    # two spinodal intervals; at T 0.3 one minimum and eight inflections
    "spinodal_loci_omega8_binodal.tsv": (OMEGA8, OMEGA8_ISOTHERM_ARGS, "spinodal_loci.tsv"),
    "spinodal_intervals_omega8_binodal.tsv": (
        OMEGA8, OMEGA8_ISOTHERM_ARGS, "spinodal_intervals.tsv"
    ),
    "cycle_carnot.tsv": (CARNOT_SYSTEM, CARNOT_ARGS, "cycle_carnot.tsv"),
    "cycle_carnot_max_by_x.tsv": (CARNOT_SYSTEM, CARNOT_ARGS, "cycle_carnot_max_by_x.tsv"),
    "cycle_carnot_max_by_t.tsv": (CARNOT_SYSTEM, CARNOT_ARGS, "cycle_carnot_max_by_t.tsv"),
    "cycle_stirling.tsv": (CARNOT_SYSTEM, STIRLING_ARGS, "cycle_stirling.tsv"),
    "cycle_carnot_infeasible.tsv": (CARNOT_SYSTEM, CARNOT_INFEASIBLE_ARGS, "cycle_carnot.tsv"),
    "cycle_stirling_grid.tsv": (CARNOT_SYSTEM, STIRLING_GRID_ARGS, "cycle_stirling.tsv"),
}


def write_ep_levels(path) -> None:
    """The block key and level indices of each EP of the pinned eps sweep."""
    from pseudotherm.spectral import find_eps

    p = params_from_mapping({"model.g": 1.73})
    eps = find_eps(p, "alpha", 0.39, 0.5, 24)
    write_table(
        path,
        ["value", "block_key", "level_indices"],
        [(e.value, e.block_key, e.level_indices) for e in eps],
        {"model.g": p.g},
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_tables_are_byte_identical(tmp_path, name):
    config, argv, written = PINNED[name]
    if isinstance(config, dict):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        config = str(cfg)
    if config is not None:
        argv = ["--config", config, *argv]
    assert main(["--out", str(tmp_path), *argv]) == 0
    with open(os.path.join(DATA, name), "rb") as fh:
        assert (tmp_path / written).read_bytes() == fh.read()


def test_pinned_ep_levels_are_byte_identical(tmp_path):
    write_ep_levels(str(tmp_path / "eps_levels.tsv"))
    with open(os.path.join(DATA, "eps_levels.tsv"), "rb") as fh:
        assert (tmp_path / "eps_levels.tsv").read_bytes() == fh.read()
