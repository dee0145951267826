"""CLI surface: flags, file formats, and the exit-code contract."""

import csv
import dataclasses
import json

import pytest

from amoebatsp.cli import (EXIT_NO_SOLUTION, EXIT_OK, EXIT_USAGE, EXIT_VERDICT_FAIL,
                           build_parser, main)
from amoebatsp.harness import (COMPARED, PRESETS, REFERENCE_N20, AggregateStats, preset,
                               reference_cell, run_batch, score)
from amoebatsp.instance import ParamSet, load_map
from amoebatsp.solver import run_trial


def run_cli(argv):
    """Invoke the CLI in-process; normalize SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _no_batch(*args, **kwargs):
    raise AssertionError("a batch ran before the input was checked")


def _subparser(command):
    return build_parser()._subparsers._group_actions[0].choices[command]


R = "required"
VARIANT = {"--preset": None, "--element-a": None, "--element-b": None, "--i-scale": None,
           "--element-c": None, "--normal-sd": None}
# every flag of each command with its default, or R for a required flag
SURFACE = {
    "gen-map": {"--n": R, "--seed": R, "--mean": 100.0, "--sd": 17.0, "--out": R},
    "solve": {"--map": R, "--seed": 0, "--trace": None, "--init-level": None,
              "--max-iters": 3000, **VARIANT},
    "batch": {"--n": None, "--config": None, "--map-policy": "fresh", "--map-seed": None,
              "--out": None, "--trials": 200, "--global-seed": 0, "--workers": 1,
              "--init-level": None, "--max-iters": 3000, **VARIANT},
    "sweep": {"--n-list": None, "--plot-iters": None, "--plot-ratio": None, "--config": None,
              "--map-policy": "fresh", "--map-seed": None, "--out": None, "--trials": 200,
              "--global-seed": 0, "--workers": 1, "--init-level": None, "--max-iters": 3000,
              **VARIANT},
    "fit-scaling": {"--results": R, "--out": R},
    "reproduce": {"--table": R, "--trials": 200, "--global-seed": 0, "--workers": 1,
                  "--init-level": None, "--n-list": None},
}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_flag_surface(command, capsys):
    flags = {a.option_strings[0]: R if a.required else a.default
             for a in _subparser(command)._actions if a.dest != "help"}
    assert flags == SURFACE[command]
    assert run_cli([command, "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: amoebatsp {command} ")


@pytest.fixture(scope="module")
def map10(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps") / "m10.json"
    assert run_cli(["gen-map", "--n", "10", "--seed", "4", "--out", str(path)]) == EXIT_OK
    return path


FIT = "fit-scaling --results {tmp}/r.csv --out {tmp}/f.json"
# a results CSV with one solved row
RESULTS = ("variant,n,trials,success_rate,avg_iterations,std_iterations,avg_ratio,std_ratio\n"
           "x,10,5,1.0,100.0,,0.9,\n")
BATCH_CONFIG = "batch --config {tmp}/run.json --out {tmp}/r.csv"
CONFIG_KEY = '{{"preset": "improved", "n": 10, "{}": 1}}'
EXCLUSIVE = "--preset and explicit element flags are mutually exclusive"
# each output flag of each command; a row names one, the others go into {tmp}
OUTPUT_FLAGS = {"batch --n 10 --trials 2": ["--out"], "solve --map {map}": ["--trace"],
                "sweep --n-list 8 --trials 2": ["--out", "--plot-iters", "--plot-ratio"],
                "gen-map --n 5 --seed 1": ["--out"], "fit-scaling --results {tmp}/r.csv": ["--out"]}
SAME = {"same": '{"n": 6}'}

# Refused inputs, by case id: (argv, files written into tmp_path first, None
# making an empty directory, the stderr line after "error: "). {tmp} stands for
# tmp_path, and in argv {map} for a valid map. A line ending in "..." is a
# prefix; argparse supplies the rest.
REFUSALS = {
    "gen-map-two-cities": ("gen-map --n 2 --seed 1 --out {tmp}/m.json", {},
                           "need at least 3 cities, got n=2"),
    "gen-map-degenerate": ("gen-map --n 3 --seed 1 --mean 0 --sd 0 --out {tmp}/m.json", {},
                           "degenerate map needs a positive mean"),
    "gen-map-negative-seed": ("gen-map --n 5 --seed=-3 --out {tmp}/m.json", {},
                              "argument --seed: seed must be a non-negative integer: '-3'"),
    # a given element flag conflicts with a preset even at its default value
    "solve-preset-and-default-element": ("solve --map {map} --preset improved --element-a uniform",
                                         {}, EXCLUSIVE),
    "solve-missing-map": ("solve --map {tmp}/nope.json", {},
                          "[Errno 2] No such file or directory: '{tmp}/nope.json'"),
    "solve-max-iters": ("solve --map {map} --max-iters 0", {}, "max_iters must be at least 1"),
    "batch-i-scale-zero": ("batch --n 10 --element-b scale_i --i-scale 0 --out {tmp}/r.csv", {},
                           "i_scale must be positive and finite"),
    "batch-two-cities": ("batch --n 2 --trials 2 --workers 2 --out {tmp}/r.csv", {},
                         "need at least 3 cities, got n=2"),
    "batch-trials": ("batch --n 10 --trials 0 --out {tmp}/r.csv", {}, "trials must be at least 1"),
    "batch-workers": ("batch --n 10 --workers 0 --out {tmp}/r.csv", {},
                      "workers must be at least 1"),
    "batch-max-iters": ("batch --n 10 --max-iters 0 --out {tmp}/r.csv", {},
                        "max_iters must be at least 1"),
    "batch-no-n": ("batch --out {tmp}/r.csv", {}, "--n is required"),
    "batch-no-out": ("batch --n 6", {}, "--out is required"),
    "config-not-json": (BATCH_CONFIG, {"run.json": "{not json"},
                        "malformed config file {tmp}/run.json: Expecting property name enclosed "
                        "in double quotes: line 1 column 2 (char 1)"),
    "config-not-object": (BATCH_CONFIG, {"run.json": "[10]"}, "config must be a JSON object"),
    "config-text-for-number": (BATCH_CONFIG, {"run.json": '{"n": "20"}'},
                               "config key 'n': expected numbers, got '20'"),
    # n_list is a sweep flag; tri only abbreviates --trials
    **{f"config-key-{key}": (BATCH_CONFIG, {"run.json": CONFIG_KEY.format(key)},
                             f"config keys with no flag on batch: ['{key}']")
       for key in ("n_list", "tri", "config", "run")},
    # n is a batch flag; as --n it would also abbreviate two sweep flags
    "config-key-n-on-sweep": ("sweep --config {tmp}/run.json --out {tmp}/r.csv",
                              {"run.json": '{"n_list": [8, 10], "n": 3}'},
                              "config keys with no flag on sweep: ['n']"),
    "config-preset-and-knobs": (BATCH_CONFIG, {"run.json": '{"preset": "improved", "n": 10, '
                                                        '"i_scale": 0.5, "normal_sd": 9}'},
                                EXCLUSIVE),
    "sweep-empty-n-list": ("sweep --n-list= --preset improved --out {tmp}/x.csv", {},
                           "argument --n-list: must name at least one city count"),
    "sweep-no-n-list": ("sweep --preset improved --out {tmp}/x.csv", {}, "--n-list is required"),
    # an empty list adds no flag
    "sweep-config-empty-n-list": ("sweep --config {tmp}/run.json --out {tmp}/x.csv",
                                  {"run.json": '{"n_list": []}'}, "--n-list is required"),
    "sweep-two-cities": ("sweep --n-list 30,2 --out {tmp}/x.csv", {},
                         "need at least 3 cities, got n=2"),
    "sweep-bad-n-list": ("sweep --n-list 8,x --out {tmp}/x.csv", {},
                         "argument --n-list: bad n-list: '8,x'"),
    "sweep-plot-iters-alone": ("sweep --n-list 8 --out {tmp}/s.csv --plot-iters {tmp}/i.csv", {},
                               "--plot-iters and --plot-ratio must be given together"),
    # fresh maps have no map seed to use
    "sweep-fresh-map-seed": ("sweep --n-list 8,10 --preset improved --trials 2 --map-seed 77 "
                             "--out {tmp}/x.csv", {}, "map_seed needs map_policy 'fixed'"),
    "fit-missing-columns": (FIT, {"r.csv": "variant,n\nx,5\n"},
                            "{tmp}/r.csv: results CSV lacks columns ['trials', 'success_rate', "
                            "'avg_iterations', 'std_iterations', 'avg_ratio', 'std_ratio']"),
    # each message names the file, the line, the column and the cell
    "fit-empty-success-rate": (FIT, {"r.csv": RESULTS + "x,8,5,,80.0,,0.9,\n"},
                               "{tmp}/r.csv: line 3, column success_rate: cannot read '' as float"),
    "fit-fractional-n": (FIT, {"r.csv": RESULTS + "x,8.5,5,1.0,80.0,,0.9,\n"},
                         "{tmp}/r.csv: line 3, column n: cannot read '8.5' as int"),
    "reproduce-unknown-table": ("reproduce --table 7", {}, "argument --table: invalid choice: ..."),
    "reproduce-trials": ("reproduce --table 2 --trials 0", {}, "trials must be at least 1"),
    "reproduce-no-reference-row": ("reproduce --table 5 --n-list 25", {}, "no reference row for n=25"),
    "reproduce-n-list-on-table-two": ("reproduce --table 2 --n-list 10,50", {},
                                      "--n-list applies only to table 5"),
    # an output path must be a file in a directory that exists
    **{f"{command.split()[0]}-{flag[2:]}-{kind}": (
        command + "".join(f" {f} {{tmp}}/{path if f == flag else f[2:]}" for f in flags), files,
        f"argument {flag}: {message}")
       for command, flags in OUTPUT_FLAGS.items() for flag in flags
       for kind, path, files, message in [
           ("in-missing-dir", "gone/x.csv", {}, "directory {tmp}/gone does not exist"),
           ("is-dir", "d", {"d": None}, "{tmp}/d is a directory")]},
    # no output overwrites a file that another flag names, compared as resolved paths
    "same-plot-iters-plot-ratio": ("sweep --n-list 6 --out {tmp}/s.csv --plot-iters {tmp}/same "
                                   "--plot-ratio {tmp}/same", SAME,
                                   "argument --plot-ratio: {tmp}/same is also given to --plot-iters"),
    "same-out-plot-iters": ("sweep --n-list 6 --out {tmp}/same --plot-iters {tmp}/same "
                            "--plot-ratio {tmp}/pr.csv", SAME,
                            "argument --plot-iters: {tmp}/same is also given to --out"),
    "same-map-trace": ("solve --map {tmp}/same --trace {tmp}/same", SAME,
                       "argument --trace: {tmp}/same is also given to --map"),
    "same-results-out": ("fit-scaling --results {tmp}/same --out {tmp}/same", SAME,
                         "argument --out: {tmp}/same is also given to --results"),
    "same-config-out": ("batch --config {tmp}/same --out {tmp}/sub/../same", {**SAME, "sub": None},
                        "argument --out: {tmp}/sub/../same is also given to --config"),
}
# the syntax errors, which print the command's usage above their error line
USAGE_ERRORS = {"gen-map-negative-seed", "sweep-empty-n-list", "sweep-bad-n-list",
                "reproduce-unknown-table"}


def _tree(root):
    """Each path under root with its bytes, None for a directory."""
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused(case, map10, tmp_path, capsys, monkeypatch):
    # refused before any trial steps or pool opens, and no file is written or changed
    monkeypatch.setattr("amoebatsp.solver.step", _no_batch)
    monkeypatch.setattr("amoebatsp.harness.Pool", _no_batch)
    argv, files, message = REFUSALS[case]
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text)
    before = _tree(tmp_path)
    argv = [arg.format(tmp=tmp_path, map=map10) for arg in argv.split()]
    assert run_cli(argv) == EXIT_USAGE
    usage = _subparser(argv[0]).format_usage() if case in USAGE_ERRORS else ""
    expected = f"{usage}error: {message.format(tmp=tmp_path)}\n"
    err = capsys.readouterr().err
    assert err == expected or (expected.endswith("...\n") and err.startswith(expected[:-4])
                               and err.count("\n") == expected.count("\n"))
    assert _tree(tmp_path) == before


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

    @pytest.mark.parametrize("flag, value", [("--sd", "nan"), ("--mean", "nan"), ("--sd", "inf")])
    def test_nonfinite_parameter_named(self, tmp_path, capsys, flag, value):
        out = tmp_path / "g.json"
        code = run_cli(["gen-map", "--n", "4", "--seed", "1", flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be finite") and err.count("\n") == 1
        assert err.endswith(f"got {value}\n")
        assert not out.exists()


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
        rows = []
        run_trial(inst, ParamSet.for_instance(inst), preset("improved"), seed=3, trace=rows)
        parsed = [(int(t), int(l_off), *map(float, rest))
                  for t, l_off, *rest in csv.reader(lines[1:])]
        assert parsed == [dataclasses.astuple(d) for d in rows]

    def test_elements_spell_out_variant(self, map10):
        code = run_cli(["solve", "--map", str(map10), "--element-a", "normal",
                        "--element-b", "denom_n", "--element-c", "o_const",
                        "--seed", "3"])
        assert code == EXIT_OK

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
@pytest.mark.parametrize("command", ["solve", "batch", "sweep", "reproduce"])
def test_nonfinite_init_level_rejected(map10, tmp_path, capsys, monkeypatch, command, level):
    # a non-finite start can never reach a tour: it is refused with the
    # configuration, before any batch or worker pool starts
    monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
    out = tmp_path / "r.csv"
    args = {"solve": ["--map", str(map10)],
            "batch": ["--n", "10", "--trials", "2", "--workers", "2", "--out", str(out)],
            "sweep": ["--n-list", "6,8", "--trials", "2", "--out", str(out)],
            "reproduce": ["--table", "2", "--trials", "2"]}[command]
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


@pytest.mark.parametrize("argv", [
    ["gen-map", "--n", "5", "--seed", "1", "--out", "{loop}"],
    ["solve", "--map", "{loop}"],
], ids=["output", "input"])
def test_symlink_loop_is_one_error_line(tmp_path, capsys, argv):
    loop, back = tmp_path / "loop", tmp_path / "back"
    loop.symlink_to(back)
    back.symlink_to(loop)
    assert run_cli([arg.format(loop=loop) for arg in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_seed_too_large_for_a_float_accepted(tmp_path):
    # the seed bound is a comparison: math.isfinite would raise OverflowError here
    out = tmp_path / "m.json"
    assert run_cli(["gen-map", "--n", "5", "--seed", "9" * 400, "--out", str(out)]) == EXIT_OK
    assert load_map(out).gen_meta.seed == int("9" * 400)


NUMPY_OUT_OF_MEMORY = ("Unable to allocate 37.3 GiB for an array with shape (100000, 100000) "
                       "and data type float64")


@pytest.mark.parametrize("text, message", [(NUMPY_OUT_OF_MEMORY, NUMPY_OUT_OF_MEMORY),
                                           ("", "out of memory")], ids=["numpy", "bare"])
def test_map_too_large_for_memory_is_one_error_line(tmp_path, capsys, monkeypatch, text, message):
    # a real n=100000 batch asks numpy for tens of GiB; on a host that
    # overcommits memory it may be killed instead, so the allocation is faked
    def out_of_memory(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr("amoebatsp.cli.run_batch", out_of_memory)
    argv = ["batch", "--n", "100000", "--preset", "improved", "--trials", "1",
            "--out", str(tmp_path / "b.csv")]
    assert run_cli(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_element_flags_of_a_preset_take_its_label(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(["batch", "--n", "6", "--element-a", "zero", "--trials", "2",
                        "--max-iters", "50", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1] == "a1,6,2,0.0,,,,"
        assert capsys.readouterr().out.startswith("a1 n=6 trials=2: ")

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

    def test_sweep_with_nothing_solved_writes_header_only_plots(self, tmp_path, capsys):
        out, pi, pr = tmp_path / "sw.csv", tmp_path / "pi.csv", tmp_path / "pr.csv"
        code = run_cli(["sweep", "--n-list", "5,6", "--preset", "a1", "--trials", "2",
                        "--max-iters", "50", "--out", str(out),
                        "--plot-iters", str(pi), "--plot-ratio", str(pr)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            assert [row["success_rate"] for row in csv.DictReader(fh)] == ["0.0", "0.0"]
        assert pi.read_text().splitlines() == ["n,avg_iterations,sqrt_n_fit"]
        assert pr.read_text().splitlines() == ["n,avg_ratio,reference_0.9"]
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("argv,config,message", [
        (["sweep", "--n-list", "30,2"], None, "need at least 3 cities, got n=2"),
        (["sweep"], {"n_list": [30, 2]}, "need at least 3 cities, got n=2"),
        (["reproduce", "--table", "5", "--n-list", "10,2"], None, "no reference row for n=2"),
    ], ids=["sweep", "sweep-config", "reproduce"])
    def test_city_count_below_three_rejected_before_any_batch(self, tmp_path, capsys,
                                                               monkeypatch, argv, config, message):
        monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        if argv[0] == "sweep":
            argv = [*argv, "--preset", "improved", "--out", str(tmp_path / "s.csv")]
        assert run_cli(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_map_seed_reaches_the_maps(self, tmp_path):
        base = ["sweep", "--n-list", "8,10", "--preset", "improved", "--trials", "2",
                "--map-policy", "fixed"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for seed, path in (("77", a), ("78", b)):
            assert run_cli(base + ["--map-seed", seed, "--out", str(path)]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

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


class TestConfigFile:
    def test_valid_config_runs(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "improved", "n": 10, "trials": 2,
                                   "global_seed": 4}))
        out = tmp_path / "r.csv"
        code = run_cli(["batch", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_config_may_name_the_output(self, tmp_path):
        cfg, out = tmp_path / "run.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps({"out": str(out)}))
        code = run_cli(["batch", "--config", str(cfg), "--n", "6", "--preset", "improved",
                        "--trials", "2"])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1].startswith("improved,6,2,")

    @pytest.mark.parametrize("argv", [["batch", "--n", "6"], ["sweep", "--n-list", "6,7"]])
    def test_missing_output_rejected_before_any_batch(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "improved", "trials": 2}))
        for extra in ([], ["--config", str(cfg)]):
            assert run_cli(argv + extra) == EXIT_USAGE
            assert capsys.readouterr().err == "error: --out is required\n"

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
        cells = [score(*reference_cell(s, field)) for field in COMPARED]
        verdict = "PASS" if all(ok for ok, _ in cells) else "FAIL"
        assert [part.strip() for part in row.split(" | ")] == \
            ["improved n=10", *(text for _, text in cells), verdict]
        assert code == (EXIT_OK if verdict == "PASS" else EXIT_VERDICT_FAIL)

    def test_success_under_its_floor_fails_the_row(self, capsys, monkeypatch):
        # a2's success 0.94 is within 0.05 of its reference 0.986 but under its floor 0.96
        def batch(n, trials, cfg, **kwargs):
            name = next(key for key, known in PRESETS.items() if known == cfg)
            rate, iters, ratio = (0.94, 1326.8, 0.941) if name == "a2" else REFERENCE_N20[name]
            return AggregateStats(name, n, trials, rate, iters, None, ratio, None)
        monkeypatch.setattr("amoebatsp.cli.run_batch", batch)
        code = run_cli(["reproduce", "--table", "2"])
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(" | ")[-1] for row in rows[:3]] == ["PASS", "FAIL", "PASS"]
        assert rows[1].startswith("            a2 | 0.940 ")
        assert rows[3:] == ["overall: FAIL"]
        assert code == EXIT_VERDICT_FAIL

    @pytest.mark.parametrize("argv, message", [
        (["--table", "2", "--n-list", "10,50"], "error: --n-list applies only to table 5"),
        (["--table", "5", "--n-list", ""],
         "error: argument --n-list: must name at least one city count"),
    ], ids=["table-two", "empty-list"])
    def test_n_list_only_on_table_five(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr("amoebatsp.cli.run_batch", _no_batch)
        code = run_cli(["reproduce", "--trials", "1", *argv])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
