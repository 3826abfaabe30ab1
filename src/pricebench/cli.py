"""Command-line interface.

Subcommands: simulate, matrix, calibrate, elasticity, report, wilcoxon.
Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .demand import DemandParams, estimate_elasticity, sweep_reference
from .harness import (
    CONFIG_MATRIX,
    ExperimentSpec,
    FULL_EPISODES,
    FULL_RUNS,
    FULL_WEEKS,
    RunManifest,
    WilcoxonResult,
    desk_spec,
    emit_plotdata,
    run_experiment,
    run_experiments,
    summarize,
    wilcoxon_signed_rank,
    wilcoxon_vs_baseline,
    write_summary_csv,
    write_sweep_csv,
)
from .market import ConfigError
from .metrics import MetricsReport
from .transactions import (
    CalibrationError,
    SchemaError,
    aggregate_weekly,
    calibrate,
    clean_transactions,
    load_transactions,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

VALIDATION_ERRORS = (ConfigError, SchemaError, CalibrationError, ValueError, KeyError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; bad usage is validation
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pricebench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured experiment")
    sim.add_argument("--config", required=True, help="experiment JSON file")
    sim.add_argument("--runs", type=int, default=None)
    sim.add_argument("--episodes", type=int, default=None)
    sim.add_argument("--weeks", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--full-scale", action="store_true",
                     help=f"force {FULL_EPISODES} episodes x {FULL_WEEKS} weeks x {FULL_RUNS} runs")
    sim.add_argument("--out", required=True)

    mat = sub.add_parser("matrix", help="run configuration letters side by side and summarize them")
    mat.add_argument("--configs", default="".join(CONFIG_MATRIX),
                     help="matrix letters, each at most once, e.g. ACF")
    mat.add_argument("--seed", type=int, default=2024)
    mat.add_argument("--jobs", type=int, default=1)
    mat.add_argument("--out", required=True)
    mat.add_argument("--full-scale", action="store_true",
                     help=f"{FULL_EPISODES} episodes x {FULL_WEEKS} weeks x {FULL_RUNS} runs "
                          "instead of the desk preset")

    cal = sub.add_parser("calibrate", help="fit demand parameters from a transaction CSV")
    cal.add_argument("--csv", required=True)
    cal.add_argument("--out", required=True, help="output params JSON path")

    ela = sub.add_parser("elasticity", help="price sweep + elasticity of a params file")
    ela.add_argument("--params", required=True)
    ela.add_argument("--out", required=True, help="output curve CSV path")

    rep = sub.add_parser("report", help="summarize completed runs in a directory")
    rep.add_argument("--in", dest="in_dir", required=True)
    rep.add_argument("--out", required=True)

    wil = sub.add_parser("wilcoxon", help="exact paired signed-rank test over two CSVs")
    wil.add_argument("--a", required=True)
    wil.add_argument("--b", required=True)
    return parser


def _read_number_column(path) -> tuple[list[float], int]:
    """The first field of each line of `path` as a number, in line order, and
    the line number of the first.

    One leading line that is not a number is a header and is skipped; any
    other line without a number raises ValueError naming the file and line.
    """
    values = []
    first_line = 1
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            try:
                values.append(float(row[0]))
            except (IndexError, ValueError):
                if reader.line_num == 1:
                    first_line = 2
                    continue
                field = row[0] if row else ""
                raise ValueError(f"{path}, line {reader.line_num}: {field!r} is not a number") from None
    if not values:
        raise ValueError(f"no numeric values found in {path}")
    return values, first_line


FULL_SCALE = {"n_runs": FULL_RUNS, "episodes": FULL_EPISODES, "weeks_per_episode": FULL_WEEKS}


def _resized(spec: ExperimentSpec, n_runs: int | None = None, **market) -> ExperimentSpec:
    """`spec` with `n_runs` and the given market fields replaced, and checked again."""
    return replace(spec, n_runs=spec.n_runs if n_runs is None else n_runs,
                   market=replace(spec.market, **market))


def _signed_rank_line(result: WilcoxonResult) -> str:
    """One test's result, with the smallest two-sided p its n can reach (2/2^n)."""
    if result.flags:
        return f"W undefined ({', '.join(result.flags)}); n_effective={result.n_effective}"
    n = result.n_effective
    return f"W={result.w_statistic:g} n={n} p={result.p_value:.6g} p_floor={2.0 ** (1 - n):.6g}"


def _summary_lines(rows: list[dict]) -> list[str]:
    """`summarize`'s rows as an aligned table of equal-length lines: one line
    per summary.csv column, its name, then each config's value to four
    significant digits, right-aligned under the config's id."""
    table = [[key] + [f"{row[key]:.4g}" if isinstance(row[key], float) else str(row[key])
                      for row in rows] for key in rows[0]]
    widths = [max(map(len, column)) for column in zip(*table)]
    return ["  ".join([name.ljust(widths[0])] + [c.rjust(w) for c, w in zip(cells, widths[1:])])
            for name, *cells in table]


def _write_report(reports_by_config: dict[str, list[MetricsReport]], out) -> None:
    """Write the summary table and plot data of each config's runs under
    `out`, and print the table, one config per column."""
    rows = summarize(reports_by_config)
    summary = write_summary_csv(rows, out)
    for path in [summary, *emit_plotdata(reports_by_config, out)]:
        print(f"wrote {path}")
    print(f"\nsummary (mean and 95 % CI half-width over runs; six decimals in {summary}):")
    print("\n".join(_summary_lines(rows)))


def cmd_simulate(args) -> int:
    """Each of --runs, --episodes, --weeks and --seed given overrides the
    file's value, and --full-scale's."""
    flags = {"n_runs": args.runs, "episodes": args.episodes, "weeks_per_episode": args.weeks,
             "seed": args.seed}
    sizes = dict(FULL_SCALE if args.full_scale else {},
                 **{name: value for name, value in flags.items() if value is not None})
    spec = _resized(ExperimentSpec.from_file(args.config), **sizes)

    results = run_experiment(spec, args.out, jobs=args.jobs)
    for manifest, report in results:
        print(f"{manifest.run_id}: mean return {report.mean_return():.2f}, "
              f"jain {report.jain_index:.4f}")
    print(f"wrote {len(results)} run(s) under {args.out}")
    return EXIT_OK


def cmd_matrix(args) -> int:
    """Every run of every config goes to one pool and into `<out>/<run_id>/`,
    the layout `report --in` reads."""
    if not args.configs or len(set(args.configs)) < len(args.configs):
        raise ConfigError(f"--configs must name each matrix letter at most once, got {args.configs!r}")
    sizes = FULL_SCALE if args.full_scale else {}
    specs = [_resized(desk_spec(config_id, seed=args.seed), **sizes) for config_id in args.configs]
    for spec in specs:
        print(f"config {spec.config_id}: {spec.n_runs} run(s) x {spec.market.episodes} "
              f"episode(s) x {spec.market.weeks_per_episode} week(s)")
    results = run_experiments(specs, args.out, jobs=args.jobs)
    reports_by_config = {
        spec.config_id: [report for _, report in runs] for spec, runs in zip(specs, results)
    }
    _write_report(reports_by_config, args.out)
    tests = wilcoxon_vs_baseline(reports_by_config)
    if tests:
        print("\npaired signed-rank vs A (homogeneous MARL configs only):")
        for config_id, result in sorted(tests.items()):
            print(f"  {config_id} vs A: {_signed_rank_line(result)}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    table = load_transactions(args.csv)
    cleaned, removed = clean_transactions(table)
    records = aggregate_weekly(cleaned)
    params = calibrate(records)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(params.to_dict(), fh, indent=2, sort_keys=True)
    print(f"parsed {len(table)} rows ({len(table.errors)} malformed), "
          f"removed {sum(removed.values())} ({dict(removed)})")
    print(f"fitted elasticity {params.elasticity:.4f}, holiday uplift "
          f"{params.holiday_uplift:.4f} -> {args.out}")
    return EXIT_OK


def cmd_elasticity(args) -> int:
    with open(args.params, encoding="utf-8-sig") as fh:
        params = DemandParams.from_dict(json.load(fh))
    write_sweep_csv(params, args.out)
    epsilon = estimate_elasticity(*sweep_reference(params))
    print(f"elasticity over the sweep: {epsilon:.4f} -> curve at {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    manifests = sorted(in_dir.glob("*/manifest.json"))
    if not manifests:
        raise ValueError(f"no run manifests found under {in_dir}")
    reports_by_config: dict[str, list[MetricsReport]] = {}
    for path in manifests:
        with open(path, encoding="utf-8") as fh:
            manifest = RunManifest.from_dict(json.load(fh))
        metrics_path = path.parent / "metrics.json"
        if not metrics_path.exists():
            log.warning("skipping %s: no metrics.json", path.parent)
            continue
        with open(metrics_path, encoding="utf-8") as fh:
            report = MetricsReport.from_dict(json.load(fh))
        cid = manifest.config["config_id"]
        reports_by_config.setdefault(cid, []).append(report)
    if not reports_by_config:
        raise ValueError(f"no run under {in_dir} has a metrics.json")
    _write_report(reports_by_config, args.out)
    return EXIT_OK


def cmd_wilcoxon(args) -> int:
    """Pairs the files' values row by row, after each file's optional header line."""
    (a, a_first), (b, b_first) = _read_number_column(args.a), _read_number_column(args.b)
    if len(a) != len(b):
        path, first, n = (args.a, a_first, len(a)) if len(a) < len(b) else (args.b, b_first, len(b))
        raise ValueError(f"{path}, line {first + n}: no value to pair with the other file's")
    print(_signed_rank_line(wilcoxon_signed_rank(a, b)))
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": cmd_simulate,
        "matrix": cmd_matrix,
        "calibrate": cmd_calibrate,
        "elasticity": cmd_elasticity,
        "report": cmd_report,
        "wilcoxon": cmd_wilcoxon,
    }
    try:
        return handlers[args.command](args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("runtime failure")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
