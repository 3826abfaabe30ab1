#!/usr/bin/env python3
"""Sweep the reference demand model over 0.5x-2.5x price multipliers and
report the fitted elasticity alongside the smoothed curve.

    python scripts/elasticity_curve.py --out results/curve.csv
"""

import argparse
import sys

import pricebench  # noqa: F401  (first: it pins the BLAS threads before numpy loads)
import numpy as np

from pricebench.demand import (
    DemandParams,
    ParametricDemandModel,
    centered_rolling_mean,
    elasticity_sweep,
    estimate_elasticity,
    neutral_query,
    price_multipliers,
)
from pricebench.harness import write_sweep_csv
from pricebench.market import ProductSpec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/curve.csv")
    parser.add_argument("--elasticity", type=float, default=-0.072)
    args = parser.parse_args()

    params = DemandParams(elasticity=args.elasticity, noise_sigma=0.0).with_clusters([0, 1])
    spec = ProductSpec("demo", 1, 10.0, 6.0, 100.0)
    model = ParametricDemandModel(params)
    query = neutral_query(spec)

    grid = price_multipliers()
    prices, demands = elasticity_sweep(model, query, grid)
    smooth = np.exp(centered_rolling_mean(np.log(demands)))
    fitted = estimate_elasticity(model, query)

    write_sweep_csv(params, args.out)
    print(f"configured elasticity: {args.elasticity:+.4f}")
    print(f"fitted from sweep:     {fitted:+.4f}")
    print(f"demand at {grid[0]:.2f}x: {demands[0]:8.2f}   at {grid[20]:.2f}x: "
          f"{demands[20]:8.2f}   at {grid[-1]:.2f}x: {demands[-1]:8.2f}")
    print(f"smoothed curve spans {smooth[0]:.2f} -> {smooth[-1]:.2f} "
          f"({len(smooth)} interior points)")
    print(f"curve written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
