#!/usr/bin/env python3
"""Run the full A-H configuration matrix and print the summary tables.

Desk scale by default (fast); pass --full-scale for the full-size runs
(30 episodes x 104 weeks x 8 runs per configuration).

    python scripts/run_matrix.py --out results/matrix --seed 2024 [--jobs 4]
"""

import argparse
import sys
from pathlib import Path

from pricebench.harness import (
    CONFIG_MATRIX,
    ExperimentSpec,
    FULL_EPISODES,
    FULL_RUNS,
    FULL_WEEKS,
    emit_plotdata,
    run_experiment,
    summarize,
    wilcoxon_vs_baseline,
    write_summary_csvs,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/matrix")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--episodes", type=int, default=3)
    parser.add_argument("--weeks", type=int, default=20)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--full-scale", action="store_true")
    parser.add_argument("--configs", default="".join(CONFIG_MATRIX),
                        help="subset of letters, e.g. ACF")
    args = parser.parse_args()

    if args.full_scale:
        args.runs, args.episodes, args.weeks = FULL_RUNS, FULL_EPISODES, FULL_WEEKS

    out = Path(args.out)
    reports_by_config = {}
    demand_params = None
    for config_id in args.configs:
        spec = ExperimentSpec.from_dict(
            {
                "config_id": config_id,
                "n_runs": args.runs,
                "market": {
                    "episodes": args.episodes,
                    "weeks_per_episode": args.weeks,
                    "seed": args.seed,
                },
            }
        )
        demand_params = spec.market.demand_params
        print(f"config {config_id}: {args.runs} run(s) x {args.episodes} episode(s) "
              f"x {args.weeks} week(s)")
        results = run_experiment(spec, out / config_id, jobs=args.jobs)
        reports_by_config[config_id] = [report for _, report in results]

    tables = summarize(reports_by_config)
    for path in write_summary_csvs(tables, out):
        print(f"wrote {path}")
    for path in emit_plotdata(reports_by_config, out, demand_params=demand_params):
        print(f"wrote {path}")

    print("\nmean return by configuration:")
    for row in tables["returns"]:
        delta = row.get("delta_vs_A_pct")
        suffix = f"  ({delta:+.1f}% vs A)" if delta is not None else ""
        print(f"  {row['config_id']}: {row['mean_return']:12.1f}{suffix}")
    print("\nadaptability (mean over agents and runs):")
    for row in tables["adaptability"]:
        print(f"  {row['config_id']}: adj_mag={row['adjustment_magnitude']:.4f} "
              f"adj_freq={row['adjustment_frequency']:.3f} "
              f"stability={row['price_stability']:.3f}")
    print("\nmarket dynamics:")
    for row in tables["dynamics"]:
        print(f"  {row['config_id']}: jain={row['jain_mean']:.4f} "
              f"MV={row['market_volatility_pp_mean']:.1f}pp "
              f"NEP={row['nash_proximity']:.4f} PC={row['price_convergence']:.4f} "
              f"WF={row['welfare_fairness']:.4f}")

    tests = wilcoxon_vs_baseline(reports_by_config)
    if tests:
        print("\npaired signed-rank vs A (homogeneous MARL configs only):")
        for cid, result in sorted(tests.items()):
            print(f"  {cid} vs A: W={result.w_statistic:g} n={result.n_effective} "
                  f"p={result.p_value:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
