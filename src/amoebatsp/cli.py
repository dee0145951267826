"""Command-line surface: map generation, single solves, batches, sweeps,
scaling fits, and reference-table reproduction.

Exit codes are stable for scripting: 0 success, 1 usage or configuration
error, 2 no solution within the iteration budget, 3 a `reproduce` run
whose overall verdict is FAIL.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .dynamics import ElementA, ElementB, ElementC, VariantConfig
from .harness import (
    COMPARED,
    PRESETS,
    REFERENCE_IMPROVED_SWEEP,
    REFERENCE_TABLES,
    fit_scaling,
    preset,
    read_results_csv,
    reference_cell,
    run_batch,
    score,
    write_csv,
    write_fit_json,
    write_plot_data,
    write_results_csv,
)
from .instance import MAP_MEAN, MAP_SD, ParamSet, check_city_count, generate_map, load_map, save_map
from .solver import DEFAULT_MAX_ITERS, run_trial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2
EXIT_VERDICT_FAIL = 3

# Element flags and how each turns into a VariantConfig field; a flag left
# out keeps VariantConfig's default.
ELEMENT_FIELDS = {"element_a": ElementA, "element_b": ElementB, "i_scale": float,
                  "element_c": lambda flags: frozenset(map(ElementC, flags)),
                  "normal_sd": float}


class _Parser(argparse.ArgumentParser):
    """A syntax error prints the failing command's usage above its error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _variant(args) -> VariantConfig:
    """Variant configuration from --preset or the element flags, started at --init-level."""
    given = {key: convert(getattr(args, key)) for key, convert in ELEMENT_FIELDS.items()
             if getattr(args, key) is not None}
    if args.preset is None:
        return VariantConfig(**given, init_level=args.init_level)
    if given:
        raise ValueError("--preset and explicit element flags are mutually exclusive")
    return dataclasses.replace(preset(args.preset), init_level=args.init_level)


def _n_list(text):
    try:
        sizes = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n-list: {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("must name at least one city count")
    return sizes


def _seed(text):
    """Argparse type: a non-negative integer, of any size."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer: {text!r}")
    return value


def _check_out_dirs(args):
    """Refuse, before any trial runs, an output file whose directory is
    missing, that is a directory, or that another flag of the command names."""
    # realpath, unlike Path.resolve, does not raise on a symlink loop
    named = {os.path.realpath(getattr(args, key)): f"--{key}"
             for key in ("map", "results", "config") if getattr(args, key, None) is not None}
    for key in ("out", "trace", "plot_iters", "plot_ratio"):
        path = getattr(args, key, None)
        if path is None:
            continue
        path, flag = Path(path), "--" + key.replace("_", "-")
        if path.is_dir():
            raise ValueError(f"argument {flag}: {path} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"argument {flag}: directory {path.parent} does not exist")
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"argument {flag}: {path} is also given to {other}")


def _with_config(parser, argv, args):
    """Parse argv again with the JSON run-config's entries appended as flags.

    Each key must name a flag of the command; its entry goes through that
    flag, so it is checked like one and wins over the same flag given
    earlier on the command line. A list of strings repeats its flag; any
    other list becomes one comma-separated value. A value, or the entries of
    a list, must be JSON strings exactly when the flag's parsed value is text.
    """
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"malformed config file {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    bad = [key for key in data if key in ("command", "config", "run") or key not in vars(args)]
    if bad:
        raise ValueError(f"config keys with no flag on {args.command}: {bad}")
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if not isinstance(value, list):
            tokens.append(f"{flag}={value}")
        elif all(isinstance(v, str) for v in value):
            tokens.extend(f"{flag}={v}" for v in value)
        else:
            tokens.append(f"{flag}={','.join(map(str, value))}")
    args = parser.parse_args(argv + tokens)
    for key, value in data.items():
        wants_text = _holds_text(getattr(args, key))
        if value != [] and _holds_text(value) != wants_text:  # [] adds no flag
            raise ValueError(f"config key {key!r}: expected {'text' if wants_text else 'numbers'}, "
                             f"got {value!r}")
    return args


def _holds_text(value) -> bool:
    """Whether a value, or any entry of a list value, is a string."""
    return any(isinstance(v, str) for v in (value if isinstance(value, list) else [value]))


def cmd_gen_map(args) -> int:
    inst = generate_map(args.n, args.seed, mean=args.mean, sd=args.sd)
    save_map(inst, args.out)
    print(f"wrote {args.out}: n={inst.n}, {inst.n * inst.n} matrix entries")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _variant(args)
    inst = load_map(args.map)
    rows = None if args.trace is None else []
    result = run_trial(inst, ParamSet.for_instance(inst), cfg, seed=args.seed,
                       max_iters=args.max_iters, trace=rows)
    if args.trace is not None:
        write_csv(args.trace, ["t", "L_off", "sum_X", "S", "total_O", "residual"],
                  map(dataclasses.astuple, rows))
        print(f"trace written to {args.trace} ({len(rows)} rows)")
    if result.success:
        tour_1based = " ".join(str(c + 1) for c in result.tour)
        print(f"solved in {result.iterations} iterations")
        print(f"tour: {tour_1based}")
        print(f"route length: {result.r_calc:.3f}")
        print(f"normalized ratio: {result.ratio:.4f}")
        return EXIT_OK
    print(f"no solution within {args.max_iters} iterations")
    return EXIT_NO_SOLUTION


def _run_batches(args, sizes) -> list:
    """One batch per city count, written to --out with one summary line each."""
    if args.out is None:
        raise ValueError("--out is required")
    for n in sizes:
        check_city_count(n)
    cfg = _variant(args)
    stats = [run_batch(n, args.trials, cfg, global_seed=args.global_seed,
                       max_iters=args.max_iters, map_policy=args.map_policy,
                       map_seed=args.map_seed, workers=args.workers) for n in sizes]
    write_results_csv(stats, args.out)
    for s in stats:
        print(f"{s.variant} n={s.n} trials={s.trials}: success_rate={s.success_rate:.3f} "
              f"avg_iterations={_fmt(s.avg_iterations)} avg_ratio={_fmt(s.avg_ratio, 4)}")
    print(f"results written to {args.out}")
    return stats


def cmd_batch(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    _run_batches(args, [args.n])
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n_list is None:
        raise ValueError("--n-list is required")
    if (args.plot_iters is None) != (args.plot_ratio is None):
        raise ValueError("--plot-iters and --plot-ratio must be given together")
    stats = _run_batches(args, args.n_list)
    if args.plot_iters is not None:
        write_plot_data(stats, args.plot_iters, args.plot_ratio)
        print(f"plot data written to {args.plot_iters}, {args.plot_ratio}")
    return EXIT_OK


def cmd_fit_scaling(args) -> int:
    fit = fit_scaling(read_results_csv(args.results))
    write_fit_json(fit, args.out)
    print(f"exponent={fit.exponent:.4f} prefactor={fit.prefactor:.3f} "
          f"r_squared={fit.r_squared:.5f}")
    print(f"fit written to {args.out}")
    return EXIT_OK


def _fmt(value, digits=1):
    return "-" if value is None else f"{value:.{digits}f}"


def cmd_reproduce(args) -> int:
    """Re-run a reference table's rows and compare side by side; each mean
    is scored against its reference and band by harness.score."""
    if args.table == "5":
        n_list = [10, 20, 50, 100] if args.n_list is None else args.n_list
        for n in n_list:
            if n not in REFERENCE_IMPROVED_SWEEP:
                raise ValueError(f"no reference row for n={n}")
        plan = [(f"improved n={n}", "improved", n) for n in n_list]
    else:
        if args.n_list is not None:
            raise ValueError("--n-list applies only to table 5")
        plan = [(name, name, 20) for name in REFERENCE_TABLES[args.table]]
    rows = []
    all_ok = True
    for label, name, n in plan:
        cfg = dataclasses.replace(preset(name), init_level=args.init_level)
        s = run_batch(n, args.trials, cfg, global_seed=args.global_seed, workers=args.workers)
        cells = [score(*reference_cell(s, field)) for field in COMPARED]
        ok = all(passed for passed, _ in cells)
        all_ok &= ok
        success, iters, ratio = (text for _, text in cells)
        rows.append(f"{label:>14} | {success:>32} | {iters:>34} | {ratio:>36} | "
                    f"{'PASS' if ok else 'FAIL'}")
    header = (f"{'variant':>14} | {'success':>32} | {'iterations':>34} | "
              f"{'ratio':>36} | verdict")
    rows.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    print("\n".join([header, "-" * len(header), *rows]))
    return EXIT_OK if all_ok else EXIT_VERDICT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="amoebatsp",
                     description="Amoeba-inspired TSP dynamics: solve, ablate, benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each group of shared flags is declared once, as a parent parser; a
    # command lists the groups it takes.
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--preset", choices=sorted(PRESETS),
                         help="named variant; mutually exclusive with element flags")
    variant.add_argument("--element-a", choices=[e.value for e in ElementA])
    variant.add_argument("--element-b", choices=[e.value for e in ElementB])
    variant.add_argument("--i-scale", type=float)
    variant.add_argument("--element-c", action="append", choices=[e.value for e in ElementC],
                         help="repeatable flag replacements")
    variant.add_argument("--normal-sd", type=float)
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--init-level", type=float, help="uniform initial branch length "
                       "(default: the size rule, 0.435 at n=20)")
    iters = argparse.ArgumentParser(add_help=False)
    iters.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--trials", type=int, default=200)
    settings.add_argument("--global-seed", type=_seed, default=0)
    settings.add_argument("--workers", type=int, default=1)
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", help="JSON run-config file")
    run_flags.add_argument("--map-policy", choices=["fresh", "fixed"], default="fresh")
    run_flags.add_argument("--map-seed", type=_seed)
    run_flags.add_argument("--out")
    batch_parents = [run_flags, variant, settings, iters, level]

    p = sub.add_parser("gen-map", help="generate a random map file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--mean", type=float, default=MAP_MEAN)
    p.add_argument("--sd", type=float, default=MAP_SD)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_gen_map)

    p = sub.add_parser("solve", help="run one search on a map file",
                       parents=[variant, iters, level])
    p.add_argument("--map", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trace", help="write per-step trace CSV here")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("batch", help="seeded trial batch for one configuration",
                       parents=batch_parents)
    p.add_argument("--n", type=int)
    p.set_defaults(run=cmd_batch)

    p = sub.add_parser("sweep", help="batches across city counts", parents=batch_parents)
    p.add_argument("--n-list", type=_n_list, help="comma-separated city counts")
    p.add_argument("--plot-iters")
    p.add_argument("--plot-ratio")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("fit-scaling", help="log-log fit on a sweep results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_fit_scaling)

    p = sub.add_parser("reproduce", help="re-run a reference table and compare",
                       parents=[settings, level])
    p.add_argument("--table", choices=["2", "3", "4", "5"], required=True)
    p.add_argument("--n-list", type=_n_list,
                   help="city counts for table 5 (default: 10,20,50,100)")
    p.set_defaults(run=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _with_config(parser, argv, args)
        _check_out_dirs(args)
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
