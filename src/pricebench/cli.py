"""Command-line interface.

Subcommands: simulate, calibrate, elasticity, report, wilcoxon.
Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .demand import DemandParams, ParametricDemandModel, estimate_elasticity, neutral_query
from .harness import (
    ExperimentSpec,
    FULL_EPISODES,
    FULL_RUNS,
    FULL_WEEKS,
    RunManifest,
    emit_plotdata,
    run_experiment,
    summarize,
    wilcoxon_signed_rank,
    write_summary_csvs,
    write_sweep_csv,
)
from .market import ConfigError, ProductSpec
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


def _read_number_column(path) -> list[float]:
    values = []
    with open(path, encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                values.append(float(row[0]))
            except ValueError:
                continue  # header or junk line
    if not values:
        raise ValueError(f"no numeric values found in {path}")
    return values


def cmd_simulate(args) -> int:
    spec = ExperimentSpec.from_file(args.config)
    market = spec.market
    if args.full_scale:
        market = market.copy_with(episodes=FULL_EPISODES, weeks_per_episode=FULL_WEEKS)
        spec.n_runs = FULL_RUNS
    if args.episodes is not None:
        market = market.copy_with(episodes=args.episodes)
    if args.weeks is not None:
        market = market.copy_with(weeks_per_episode=args.weeks)
    if args.seed is not None:
        market = market.copy_with(seed=args.seed)
    if args.runs is not None:
        spec.n_runs = args.runs
    spec.market = market.validate()
    spec.validate()

    results = run_experiment(spec, args.out, jobs=args.jobs)
    for manifest, report in results:
        mean_return = sum(a.mean_return for a in report.agents.values()) / len(report.agents)
        print(f"{manifest.run_id}: mean return {mean_return:.2f}, jain {report.jain_index:.4f}")
    print(f"wrote {len(results)} run(s) under {args.out}")
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
    with open(args.params, encoding="utf-8") as fh:
        params = DemandParams.from_dict(json.load(fh))
    write_sweep_csv(params, args.out)
    spec = ProductSpec(
        product_id="sweep", cluster_id=0, initial_price=10.0, unit_cost=6.0,
        baseline_demand=100.0,
    )
    model = ParametricDemandModel(params.with_clusters([0]))
    epsilon = estimate_elasticity(model, neutral_query(spec))
    print(f"elasticity over the sweep: {epsilon:.4f} -> curve at {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    manifests = sorted(in_dir.glob("*/manifest.json"))
    if not manifests:
        raise ValueError(f"no run manifests found under {in_dir}")
    reports_by_config: dict[str, list[MetricsReport]] = {}
    demand_params = None
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
        if demand_params is None:
            dp = manifest.config["market"].get("demand_params")
            if dp:
                demand_params = DemandParams.from_dict(dp)
    tables = summarize(reports_by_config)
    written = write_summary_csvs(tables, args.out)
    written += emit_plotdata(reports_by_config, args.out, demand_params=demand_params)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_wilcoxon(args) -> int:
    a = _read_number_column(args.a)
    b = _read_number_column(args.b)
    result = wilcoxon_signed_rank(a, b)
    if result.flags:
        print(f"W undefined ({', '.join(result.flags)}); n_effective={result.n_effective}")
    else:
        print(f"W={result.w_statistic:g} n={result.n_effective} p={result.p_value:.6g}")
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
