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
import math
import sys
from pathlib import Path

from .dynamics import ElementA, ElementB, ElementC, VariantConfig
from .harness import (
    PRESETS,
    REFERENCE_IMPROVED_SWEEP,
    REFERENCE_N20,
    REFERENCE_TABLES,
    fit_scaling,
    preset,
    read_results_csv,
    run_batch,
    standard_error,
    write_csv,
    write_fit_json,
    write_plot_data,
    write_results_csv,
)
from .instance import ParamSet, generate_map, load_map, save_map
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


def _variant(args) -> tuple[str, VariantConfig]:
    """Variant name and configuration from --preset or the element flags."""
    given = {key: convert(getattr(args, key)) for key, convert in ELEMENT_FIELDS.items()
             if getattr(args, key) is not None}
    if args.preset is None:
        return "custom", VariantConfig(**given)
    if given:
        raise ValueError("--preset and explicit element flags are mutually exclusive")
    return args.preset, preset(args.preset)


def _add_variant_flags(parser):
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="named variant; mutually exclusive with element flags")
    parser.add_argument("--element-a", dest="element_a", choices=[e.value for e in ElementA])
    parser.add_argument("--element-b", dest="element_b", choices=[e.value for e in ElementB])
    parser.add_argument("--i-scale", dest="i_scale", type=float)
    parser.add_argument("--element-c", dest="element_c", action="append",
                        choices=[e.value for e in ElementC],
                        help="repeatable flag replacements")
    parser.add_argument("--normal-sd", dest="normal_sd", type=float)


def _n_list(text):
    try:
        sizes = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n-list: {text!r}") from None
    if any(n < 3 for n in sizes):
        raise argparse.ArgumentTypeError(f"every city count must be at least 3: {text!r}")
    return sizes


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and nonnegative: {text!r}")
    return value


def _seed(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer: {text!r}")
    return value


def _check_out_dirs(args, *keys):
    """Refuse, before any trial runs, an output file whose directory is missing."""
    for key in keys:
        path = getattr(args, key)
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"argument --{key.replace('_', '-')}: "
                             f"directory {Path(path).parent} does not exist")


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


def _add_run_flags(parser):
    parser.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    _add_init_level_flag(parser)


def _add_init_level_flag(parser):
    parser.add_argument("--init-level", dest="init_level", type=float, default=None,
                        help="uniform initial branch length (default: the size rule, "
                             "0.435 at n=20)")


def cmd_gen_map(args) -> int:
    inst = generate_map(args.n, args.seed, mean=args.mean, sd=args.sd)
    save_map(inst, args.out)
    print(f"wrote {args.out}: n={inst.n}, {inst.n * inst.n} matrix entries")
    return EXIT_OK


def cmd_solve(args) -> int:
    _, cfg = _variant(args)
    _check_out_dirs(args, "trace")
    inst = load_map(args.map)
    params = ParamSet.for_instance(inst)
    result = run_trial(inst, params, cfg, seed=args.seed, max_iters=args.max_iters,
                       trace=args.trace is not None, init_level=args.init_level)
    if args.trace is not None:
        write_csv(args.trace, ["t", "L_off", "sum_X", "S", "total_O", "residual"],
                  map(dataclasses.astuple, result.trace))
        print(f"trace written to {args.trace} ({len(result.trace)} rows)")
    if result.success:
        tour_1based = " ".join(str(c + 1) for c in result.tour)
        print(f"solved in {result.iterations} iterations")
        print(f"tour: {tour_1based}")
        print(f"route length: {result.r_calc:.3f}")
        print(f"normalized ratio: {result.ratio:.4f}")
        return EXIT_OK
    print(f"no solution within {args.max_iters} iterations")
    return EXIT_NO_SOLUTION


def cmd_batch(args) -> int:
    if args.n is None:
        raise ValueError("--n is required")
    name, cfg = _variant(args)
    _check_out_dirs(args, "out")
    stats = run_batch(args.n, args.trials, cfg, global_seed=args.global_seed,
                      max_iters=args.max_iters, map_policy=args.map_policy,
                      map_seed=args.map_seed, init_level=args.init_level,
                      workers=args.workers, variant_name=name)
    write_results_csv([stats], args.out)
    print(f"{name} n={stats.n} trials={stats.trials}: "
          f"success_rate={stats.success_rate:.3f} "
          f"avg_iterations={_fmt(stats.avg_iterations)} avg_ratio={_fmt(stats.avg_ratio, 4)}")
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.n_list:
        raise ValueError("--n-list must name at least one city count")
    if (args.plot_iters is None) != (args.plot_ratio is None):
        raise ValueError("--plot-iters and --plot-ratio must be given together")
    name, cfg = _variant(args)
    _check_out_dirs(args, "out", "plot_iters", "plot_ratio")
    stats = [run_batch(n, args.trials, cfg, global_seed=args.global_seed,
                       max_iters=args.max_iters, map_policy=args.map_policy,
                       map_seed=args.map_seed, init_level=args.init_level,
                       workers=args.workers, variant_name=name) for n in args.n_list]
    write_results_csv(stats, args.out)
    for s in stats:
        print(f"n={s.n}: success_rate={s.success_rate:.3f} "
              f"avg_iterations={_fmt(s.avg_iterations)} avg_ratio={_fmt(s.avg_ratio, 4)}")
    if args.plot_iters is not None:
        write_plot_data(stats, args.plot_iters, args.plot_ratio)
        print(f"plot data written to {args.plot_iters}, {args.plot_ratio}")
    print(f"results written to {args.out}")
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


def _vs(s, field, ref, digits) -> str:
    """'mean +-SE (gap in SE) vs reference' for one compared mean of a batch;
    the SE needs two solved trials, the gap a reference and a positive SE."""
    value, se = getattr(s, field), standard_error(s, field)
    if value is None:
        return f"- vs {_fmt(ref, digits)}"
    spread = "" if se is None else f" +-{se:.{digits}f}"
    gap = f" ({(value - ref) / se:+.1f} SE)" if ref is not None and se else ""
    return f"{value:.{digits}f}{spread}{gap} vs {_fmt(ref, digits)}"


def _near(value, ref, tol) -> bool:
    """True when there is no reference, or the value is within tol of it."""
    return ref is None or (value is not None and abs(value - ref) <= tol)


def cmd_reproduce(args) -> int:
    """Re-run a reference table's rows and compare side by side; each mean
    shows its standard error and its gap to the reference in SE."""
    if args.table == "5":
        n_list = [10, 20, 50, 100] if args.n_list is None else args.n_list
        if not n_list:
            raise ValueError("--n-list must name at least one city count")
        for n in n_list:
            if n not in REFERENCE_IMPROVED_SWEEP:
                raise ValueError(f"no reference row for n={n}")
        plan = [(f"improved n={n}", "improved", n, REFERENCE_IMPROVED_SWEEP[n]) for n in n_list]
    else:
        if args.n_list is not None:
            raise ValueError("--n-list applies only to table 5")
        plan = [(name, name, 20, REFERENCE_N20[name]) for name in REFERENCE_TABLES[args.table]]
    rows = []
    all_ok = True
    for label, name, n, (ref_sr, ref_it, ref_ratio) in plan:
        s = run_batch(n, args.trials, preset(name), global_seed=args.global_seed,
                      workers=args.workers, init_level=args.init_level, variant_name=name)
        # a row with no reference iterations (nothing solved) must match its rate exactly
        ok = (_near(s.avg_iterations, ref_it, args.iters_tol * (ref_it or 0))
              and _near(s.avg_ratio, ref_ratio, args.ratio_tol)
              and _near(s.success_rate, ref_sr, 0.0 if ref_it is None else args.success_tol))
        all_ok &= ok
        rows.append(f"{label:>14} | {_vs(s, 'success_rate', ref_sr, 3):>32} | "
                    f"{_vs(s, 'avg_iterations', ref_it, 1):>34} | "
                    f"{_vs(s, 'avg_ratio', ref_ratio, 3):>32} | {'PASS' if ok else 'FAIL'}")
    header = (f"{'variant':>14} | {'success':>32} | {'iterations':>34} | "
              f"{'ratio':>32} | verdict")
    rows.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    print("\n".join([header, "-" * len(header), *rows]))
    return EXIT_OK if all_ok else EXIT_VERDICT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="amoebatsp",
                     description="Amoeba-inspired TSP dynamics: solve, ablate, benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-map", help="generate a random map file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--mean", type=float, default=100.0)
    p.add_argument("--sd", type=float, default=17.0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_gen_map)

    p = sub.add_parser("solve", help="run one search on a map file")
    p.add_argument("--map", required=True)
    _add_variant_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    _add_run_flags(p)
    p.add_argument("--trace", default=None, help="write per-step trace CSV here")
    p.set_defaults(run=cmd_solve)

    for name, helptext, run in (("batch", "seeded trial batch for one configuration", cmd_batch),
                                ("sweep", "batches across city counts", cmd_sweep)):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="JSON run-config file")
        if name == "batch":
            p.add_argument("--n", type=int, default=None)
        else:
            p.add_argument("--n-list", dest="n_list", type=_n_list, default=None,
                           help="comma-separated city counts")
            p.add_argument("--plot-iters", dest="plot_iters", default=None)
            p.add_argument("--plot-ratio", dest="plot_ratio", default=None)
        _add_variant_flags(p)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--global-seed", dest="global_seed", type=_seed, default=0)
        _add_run_flags(p)
        p.add_argument("--map-policy", dest="map_policy", choices=["fresh", "fixed"],
                       default="fresh")
        p.add_argument("--map-seed", dest="map_seed", type=_seed, default=None)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out", required=True)

    p = sub.add_parser("fit-scaling", help="log-log fit on a sweep results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_fit_scaling)

    p = sub.add_parser("reproduce", help="re-run a reference table and compare")
    p.add_argument("--table", choices=["2", "3", "4", "5"], required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--global-seed", dest="global_seed", type=_seed, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_init_level_flag(p)
    p.add_argument("--n-list", dest="n_list", type=_n_list, default=None,
                   help="city counts for table 5 (default: 10,20,50,100)")
    p.add_argument("--iters-tol", dest="iters_tol", type=_tolerance, default=0.15,
                   help="relative tolerance on mean iterations")
    p.add_argument("--ratio-tol", dest="ratio_tol", type=_tolerance, default=0.03,
                   help="absolute tolerance on mean ratio")
    p.add_argument("--success-tol", dest="success_tol", type=_tolerance, default=0.05,
                   help="absolute tolerance on success rate")
    p.set_defaults(run=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _with_config(parser, argv, args)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
