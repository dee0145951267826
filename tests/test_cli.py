"""CLI surface: flags, file formats, and the exit-code contract."""

import csv
import dataclasses
import json

import pytest

from amoebatsp import ParamSet, load_map, preset, run_batch, run_trial
from amoebatsp.cli import EXIT_NO_SOLUTION, EXIT_OK, EXIT_USAGE, EXIT_VERDICT_FAIL, main
from amoebatsp.harness import standard_error


def run_cli(argv):
    """Invoke the CLI in-process; normalize SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _no_batch(*args, **kwargs):
    raise AssertionError("a batch ran before the flags were checked")


@pytest.fixture(scope="module")
def map10(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "m10.json"
    assert run_cli(["gen-map", "--n", "10", "--seed", "4", "--out", str(path)]) == EXIT_OK
    return path


class TestGenMap:
    def test_writes_valid_file(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(["gen-map", "--n", "20", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        inst = load_map(out)
        assert inst.n == 20
        assert inst.dist.size == 400

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["gen-map", "--n", "8", "--seed", "1", "--out", str(a)])
        run_cli(["gen-map", "--n", "8", "--seed", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_below_minimum_usage_error(self, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(["gen-map", "--n", "2", "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE


class TestSolve:
    def test_improved_preset_succeeds(self, map10, capsys):
        code = run_cli(["solve", "--map", str(map10), "--preset", "improved",
                        "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "solved in" in out
        assert "tour:" in out
        assert "normalized ratio:" in out

    def test_no_fluctuations_exhausts_budget(self, map10, capsys):
        code = run_cli(["solve", "--map", str(map10), "--preset", "a1",
                        "--seed", "3", "--max-iters", "200"])
        assert code == EXIT_NO_SOLUTION
        assert "no solution within 200 iterations" in capsys.readouterr().out

    def test_trace_rows_match_iterations(self, map10, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = run_cli(["solve", "--map", str(map10), "--preset", "improved",
                        "--seed", "3", "--trace", str(trace)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        iterations = int(out.split("solved in ")[1].split()[0])
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,L_off,sum_X,S,total_O,residual"
        assert len(lines) - 1 == iterations
        # each row is the trial's diagnostics record, every float exact
        inst = load_map(map10)
        result = run_trial(inst, ParamSet.for_instance(inst), preset("improved"), seed=3,
                           trace=True)
        parsed = [(int(t), int(l_off), *map(float, rest))
                  for t, l_off, *rest in csv.reader(lines[1:])]
        assert parsed == [dataclasses.astuple(d) for d in result.trace]

    def test_preset_and_elements_conflict(self, map10, capsys):
        # a given element flag conflicts with a preset even at its default value
        for value in ("normal", "uniform"):
            code = run_cli(["solve", "--map", str(map10), "--preset", "improved",
                            "--element-a", value])
            assert code == EXIT_USAGE
            assert "mutually exclusive" in capsys.readouterr().err

    def test_elements_spell_out_variant(self, map10):
        code = run_cli(["solve", "--map", str(map10), "--element-a", "normal",
                        "--element-b", "denom_n", "--element-c", "o_const",
                        "--seed", "3"])
        assert code == EXIT_OK

    def test_missing_map_is_config_error(self, tmp_path):
        code = run_cli(["solve", "--map", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("d, codes", [
        (1e6, (EXIT_OK, EXIT_NO_SOLUTION)),  # nu's 3-figure rounding lands an ulp high
        (1e-320, (EXIT_USAGE,)),  # the two-edge path is subnormal
        (1e308, (EXIT_USAGE,)),  # the two-edge path overflows
    ])
    def test_uniform_map_at_extreme_scale(self, d, codes, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 4, "dist": [0.0 if i % 5 == 0 else d for i in range(16)]}))
        code = run_cli(["solve", "--map", str(path), "--preset", "improved", "--max-iters", "300"])
        assert code in codes
        if code == EXIT_USAGE:
            assert "error: distances are too small or too large to calibrate nu" in \
                capsys.readouterr().err


@pytest.mark.parametrize("level", ["nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "batch"])
def test_nonfinite_init_level_rejected(map10, tmp_path, capsys, command, level):
    # a non-finite start can never reach a tour, so it must not run the budget
    out = tmp_path / "r.csv"
    args = {"solve": ["--map", str(map10)],
            "batch": ["--n", "10", "--trials", "2", "--out", str(out)]}[command]
    code = run_cli([command, *args, f"--init-level={level}"])
    assert code == EXIT_USAGE
    assert "error: init_level must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, files, message", [
    (["batch", "--out", "{tmp}/r.csv"], {}, "--n is required"),
    (["sweep", "--n-list", "8", "--out", "{tmp}/s.csv", "--plot-iters", "{tmp}/i.csv"], {},
     "--plot-iters and --plot-ratio must be given together"),
    (["batch", "--n", "10", "--preset", "improved", "--element-a", "normal", "--out", "{tmp}/r.csv"],
     {}, "--preset and explicit element flags are mutually exclusive"),
    (["batch", "--config", "{tmp}/run.json", "--out", "{tmp}/r.csv"], {"run.json": "[10]"},
     "config must be a JSON object"),
    (["batch", "--config", "{tmp}/run.json", "--out", "{tmp}/r.csv"],
     {"run.json": '{"n": 10, "typo_key": 1}'}, "config keys with no flag on batch: ['typo_key']"),
    (["reproduce", "--table", "5", "--n-list", "25"], {}, "no reference row for n=25"),
    (["fit-scaling", "--results", "{tmp}/r.csv", "--out", "{tmp}/f.json"],
     {"r.csv": "variant,n,trials,success_rate,avg_iterations,std_iterations,avg_ratio,std_ratio\n"
               "x,10,5,1.0,100.0,,0.9,\n"},
     "scaling fit needs at least 3 distinct sizes with successes"),
], ids=["n-missing", "plot-iters-alone", "preset-and-element", "config-not-object",
        "config-unknown-key", "no-reference-row", "unfittable-csv"])
def test_semantic_error_is_one_line(tmp_path, capsys, monkeypatch, argv, files, message):
    # no usage line: it would show the top-level parser, not the failing command
    monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, flag", [
    ("batch", "--out"), ("sweep", "--out"), ("sweep", "--plot-iters"), ("sweep", "--plot-ratio"),
    ("solve", "--trace"),
])
def test_missing_output_directory_rejected_before_any_trial(map10, tmp_path, capsys,
                                                            monkeypatch, command, flag):
    monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
    monkeypatch.setattr("amoebatsp.cli.run_trial", _no_batch)
    argv = {"batch": ["batch", "--n", "10", "--trials", "2"],
            "sweep": ["sweep", "--n-list", "8", "--trials", "2"],
            "solve": ["solve", "--map", str(map10)]}[command]
    outputs = {"batch": ["--out"], "sweep": ["--out", "--plot-iters", "--plot-ratio"],
               "solve": ["--trace"]}[command]
    missing = tmp_path / "no-such-dir"
    for out in outputs:
        argv = [*argv, out, str((missing if out == flag else tmp_path) / f"{out[2:]}.csv")]
    assert run_cli(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: argument {flag}: directory {missing} does not exist\n"


@pytest.mark.parametrize("argv, flag", [
    (["gen-map", "--n", "5", "--seed=-3"], "--seed"),
    (["batch", "--n", "10", "--global-seed=-3"], "--global-seed"),
    (["batch", "--n", "10", "--map-policy", "fixed", "--map-seed=-3"], "--map-seed"),
    (["batch", "--config", "{tmp}/run.json"], "--global-seed"),
], ids=["seed", "global-seed", "map-seed", "global-seed-config"])
def test_negative_seed_names_its_flag(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
    (tmp_path / "run.json").write_text('{"n": 10, "global_seed": -3}')
    out = tmp_path / "out"
    assert run_cli([*(arg.format(tmp=tmp_path) for arg in argv), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"\nerror: argument {flag}: seed must be a non-negative integer: '-3'\n" in err
    assert not out.exists()


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"], ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("command, kind", [("solve", "map"), ("batch", "config")])
def test_unreadable_json_names_its_file(tmp_path, capsys, command, kind, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {"solve": ["solve", "--map", str(bad)],
            "batch": ["batch", "--config", str(bad), "--out", str(tmp_path / "r.csv")]}[command]
    assert run_cli(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {kind} file {bad}: ") and err.count("\n") == 1


class TestBatchSweepFit:
    def test_batch_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(["batch", "--n", "10", "--preset", "improved", "--trials", "4",
                        "--global-seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("variant,n,trials,success_rate")
        assert len(lines) == 2

    def test_batch_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["batch", "--n", "10", "--preset", "improved", "--trials", "3",
                     "--global-seed", "2", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_fit_pipeline(self, tmp_path, capsys):
        results = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--n-list", "8,10,12", "--preset", "improved",
                        "--trials", "3", "--global-seed", "1", "--out", str(results)])
        assert code == EXIT_OK
        fit_out = tmp_path / "fit.json"
        code = run_cli(["fit-scaling", "--results", str(results), "--out", str(fit_out)])
        assert code == EXIT_OK
        data = json.loads(fit_out.read_text())
        assert len(data["points"]) == 3

    def test_sweep_plot_data(self, tmp_path):
        results = tmp_path / "sweep.csv"
        pa, pb = tmp_path / "iters.csv", tmp_path / "ratio.csv"
        code = run_cli(["sweep", "--n-list", "8,10,12", "--preset", "improved",
                        "--trials", "2", "--global-seed", "1", "--out", str(results),
                        "--plot-iters", str(pa), "--plot-ratio", str(pb)])
        assert code == EXIT_OK
        for path, header in ((pa, "n,avg_iterations,sqrt_n_fit"),
                             (pb, "n,avg_ratio,reference_0.9")):
            lines = path.read_text().splitlines()
            assert lines[0] == header
            rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
            assert [row[0] for row in rows] == [8, 10, 12]

    @pytest.mark.parametrize("flag", ["--plot-iters", "--plot-ratio"])
    def test_plot_flags_go_together(self, tmp_path, capsys, flag):
        plot = tmp_path / "plot.csv"
        code = run_cli(["sweep", "--n-list", "8", "--preset", "improved", "--trials", "1",
                        "--out", str(tmp_path / "sweep.csv"), flag, str(plot)])
        assert code == EXIT_USAGE
        assert "error: --plot-iters and --plot-ratio" in capsys.readouterr().err
        assert not plot.exists()

    @pytest.mark.parametrize("knob,message", [
        (["--i-scale", "0.5"], "error: i_scale needs element_b scale_i"),
        (["--normal-sd", "0.5"], "error: normal_sd needs element_a normal"),
    ])
    def test_knob_without_its_element_rejected(self, tmp_path, capsys, knob, message):
        out = tmp_path / "r.csv"
        code = run_cli(["batch", "--n", "10", "--trials", "6", "--global-seed", "3",
                        "--out", str(out), *knob])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_n_list_usage_error(self, tmp_path):
        code = run_cli(["sweep", "--n-list", "", "--preset", "improved",
                        "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,config", [
        (["sweep", "--n-list", "30,2"], None),
        (["sweep"], {"n_list": [30, 2]}),
        (["reproduce", "--table", "5", "--n-list", "10,2"], None),
    ], ids=["sweep", "sweep-config", "reproduce"])
    def test_city_count_below_three_rejected_before_any_batch(self, tmp_path, capsys,
                                                               monkeypatch, argv, config):
        monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        if argv[0] == "sweep":
            argv = [*argv, "--preset", "improved", "--out", str(tmp_path / "s.csv")]
        assert run_cli(argv) == EXIT_USAGE
        assert "every city count must be at least 3" in capsys.readouterr().err

    def test_sweep_map_seed_reaches_the_maps(self, tmp_path, capsys):
        base = ["sweep", "--n-list", "8,10", "--preset", "improved", "--trials", "2"]
        code = run_cli(base + ["--map-seed", "77", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE  # fresh maps have no map seed to use
        assert "error:" in capsys.readouterr().err
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for seed, path in (("77", a), ("78", b)):
            code = run_cli(base + ["--map-policy", "fixed", "--map-seed", seed,
                                   "--out", str(path)])
            assert code == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    def test_fit_names_missing_columns(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        results.write_text("variant,n\nx,5\n")
        code = run_cli(["fit-scaling", "--results", str(results),
                        "--out", str(tmp_path / "f.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "lacks columns ['trials', 'success_rate'" in err

    @pytest.mark.parametrize("rows,problem", [
        ([(8, "80.0"), (10, "nan"), (12, "120.0")],
         "finite positive n and mean iterations, got n=10 avg_iterations=nan"),
        ([(8, "80.0"), (10, "-100.0"), (12, "120.0")],
         "finite positive n and mean iterations, got n=10 avg_iterations=-100.0"),
        ([(0, "80.0"), (10, "100.0"), (12, "120.0")],
         "finite positive n and mean iterations, got n=0 avg_iterations=80.0"),
        ([(10, "90.0"), (10, "100.0"), (10, "110.0")], "at least 3 distinct sizes"),
    ], ids=["nan-mean", "negative-mean", "zero-n", "one-size"])
    def test_fit_rejects_unfittable_points(self, tmp_path, capsys, rows, problem):
        results = tmp_path / "r.csv"
        results.write_text("variant,n,trials,success_rate,avg_iterations,std_iterations,"
                           "avg_ratio,std_ratio\n"
                           + "".join(f"x,{n},5,1.0,{it},,0.9,\n" for n, it in rows))
        fit_out = tmp_path / "f.json"
        code = run_cli(["fit-scaling", "--results", str(results), "--out", str(fit_out)])
        assert code == EXIT_USAGE
        assert f"error: scaling fit needs {problem}" in capsys.readouterr().err
        assert not fit_out.exists()

    def test_fit_rejects_empty_success_rate(self, tmp_path, capsys):
        # an empty success_rate, then a fractional n: each message names the
        # file, the line, the column and the cell
        header = "variant,n,trials,success_rate,avg_iterations,std_iterations,avg_ratio,std_ratio\n"
        results = tmp_path / "r.csv"
        for bad_row, column, cell in (("x,8,5,,80.0,,0.9,", "success_rate", "''"),
                                      ("x,8.5,5,1.0,80.0,,0.9,", "n", "'8.5'")):
            results.write_text(header + "x,10,5,1.0,100.0,,0.9,\n" + bad_row + "\n")
            code = run_cli(["fit-scaling", "--results", str(results),
                            "--out", str(tmp_path / "f.json")])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
            assert f"{results}: line 3, column {column}: cannot read {cell}" in err

    def test_fit_needs_three_sizes(self, tmp_path):
        results = tmp_path / "short.csv"
        run_cli(["sweep", "--n-list", "8,10", "--preset", "improved", "--trials", "2",
                 "--global-seed", "1", "--out", str(results)])
        code = run_cli(["fit-scaling", "--results", str(results),
                        "--out", str(tmp_path / "f.json")])
        assert code == EXIT_USAGE


class TestConfigFile:
    def test_valid_config_runs(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "improved", "n": 10, "trials": 2,
                                   "global_seed": 4}))
        out = tmp_path / "r.csv"
        code = run_cli(["batch", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # n_list is a sweep flag, and tri only abbreviates --trials
        cfg = tmp_path / "run.json"
        for key in ("typo_key", "n_list", "tri", "config", "run"):
            cfg.write_text(json.dumps({"preset": "improved", "n": 10, key: 1}))
            code = run_cli(["batch", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
            assert code == EXIT_USAGE
        # n is a batch flag; as --n it would also abbreviate two sweep flags
        cfg.write_text(json.dumps({"n_list": [8, 10], "n": 3}))
        capsys.readouterr()
        code = run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_USAGE
        assert "config keys with no flag on sweep: ['n']" in capsys.readouterr().err

    @pytest.mark.parametrize("command,data", [
        ("batch", {"n": "20"}),
        ("batch", {"n": 10, "trials": "2"}),
        ("sweep", {"n_list": "8,10,12"}),
        ("sweep", {"n_list": ["8", "10"]}),
    ])
    def test_string_for_numeric_key_rejected(self, tmp_path, capsys, command, data):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "improved", **data}))
        code = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_USAGE
        assert "error: config key" in capsys.readouterr().err

    def test_list_of_names_repeats_its_flag(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 6, "element_c": ["o_const", "l_inner_step"],
                                   "trials": 2}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["batch", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert run_cli(["batch", "--n", "6", "--element-c", "o_const", "--element-c",
                        "l_inner_step", "--trials", "2", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_file_value_wins_over_flag(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "improved", "n_list": [8, 10], "trials": 2}))
        out = tmp_path / "r.csv"
        code = run_cli(["sweep", "--config", str(cfg), "--trials", "50", "--out", str(out)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [("8", "2"), ("10", "2")]

    def test_preset_and_elements_exclusive_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        for elements in ({"element_a": "normal"}, {"i_scale": 0.5, "normal_sd": 9}):
            cfg.write_text(json.dumps({"preset": "improved", "n": 10, **elements}))
            code = run_cli(["batch", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
            assert code == EXIT_USAGE
            assert "mutually exclusive" in capsys.readouterr().err


class TestReproduce:
    def test_table_two_smoke(self, capsys):
        code = run_cli(["reproduce", "--table", "2", "--trials", "1",
                        "--global-seed", "0"])
        out = capsys.readouterr().out
        for name in ("a1", "a2", "original"):
            assert name in out
        assert "verdict" in out
        overall = out.splitlines()[-1]
        assert overall in ("overall: PASS", "overall: FAIL")
        assert code == (EXIT_OK if overall == "overall: PASS" else EXIT_VERDICT_FAIL)

    def test_row_shows_standard_errors_and_gaps(self, capsys):
        code = run_cli(["reproduce", "--table", "5", "--n-list", "10", "--trials", "4"])
        row = capsys.readouterr().out.splitlines()[2]
        s = run_batch(10, 4, preset("improved"), global_seed=0)
        se = standard_error(s, "avg_iterations")
        assert row.startswith(" improved n=10 | ")
        assert (f"{s.avg_iterations:.1f} +-{se:.1f} "
                f"({(s.avg_iterations - 199.5) / se:+.1f} SE) vs 199.5") in row
        assert f"+-{standard_error(s, 'avg_ratio'):.3f} (" in row
        assert row.endswith("| PASS" if code == EXIT_OK else "| FAIL")

    @pytest.mark.parametrize("argv, message", [
        (["--table", "2", "--n-list", "10,50"], "error: --n-list applies only to table 5"),
        (["--table", "5", "--n-list", ""], "error: --n-list must name at least one city count"),
    ], ids=["table-two", "empty-list"])
    def test_n_list_only_on_table_five(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
        code = run_cli(["reproduce", "--trials", "1", *argv])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--iters-tol", "-1"), ("--ratio-tol", "nan"), ("--success-tol", "inf"),
    ])
    def test_bad_tolerance_rejected_before_any_batch(self, flag, value, capsys, monkeypatch):
        monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
        code = run_cli(["reproduce", "--table", "2", "--trials", "1", f"{flag}={value}"])
        assert code == EXIT_USAGE
        assert f"error: argument {flag}: tolerance must be finite and nonnegative" in \
            capsys.readouterr().err

    def test_unknown_table_rejected(self):
        assert run_cli(["reproduce", "--table", "7"]) == EXIT_USAGE
