#!/usr/bin/env python3
"""Generate a synthetic transaction CSV in the retail-export layout, suitable
for exercising `pricebench calibrate`.

    python scripts/make_transactions.py --out results/transactions.csv --weeks 104
"""

import argparse
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pricebench  # noqa: F401  (first: it pins the BLAS threads before numpy loads)
import numpy as np

from pricebench.market import derive_rng

HEADER = "InvoiceNo,StockCode,Description,Quantity,InvoiceDate,UnitPrice,CustomerID,Country"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/transactions.csv")
    parser.add_argument("--weeks", type=int, default=104)
    parser.add_argument("--products", type=int, default=4)
    parser.add_argument("--elasticity", type=float, default=-0.25)
    parser.add_argument("--uplift", type=float, default=1.3)
    parser.add_argument("--noise", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = derive_rng(args.seed, "synthetic-transactions")
    start = datetime(2010, 1, 4, 9, 0)
    lines = [HEADER]
    invoice = 100000
    for p in range(args.products):
        stock = f"SKU{p:03d}"
        base_price = 4.0 + 2.0 * p
        baseline = 80.0 + 30.0 * p
        q_prev = baseline
        for t in range(args.weeks):
            date = start + timedelta(weeks=t, hours=int(rng.integers(0, 72)))
            year, week, _ = date.isocalendar()
            price = base_price * float(rng.choice([0.8, 0.9, 1.0, 1.0, 1.1, 1.25]))
            holiday = 1.0 if 47 <= week <= 52 else 0.0
            log_q = (
                np.log(baseline)
                + args.elasticity * np.log(price / base_price)
                + np.log(args.uplift) * holiday
                + 0.3 * np.log(q_prev / baseline)
                + rng.normal(0.0, args.noise)
            )
            quantity = max(1, int(round(np.exp(log_q))))
            q_prev = quantity
            # split the weekly volume over a few invoices
            remaining = quantity
            while remaining > 0:
                chunk = int(min(remaining, rng.integers(5, 40)))
                remaining -= chunk
                invoice += 1
                lines.append(
                    f"{invoice},{stock},SYNTHETIC PRODUCT {p},{chunk},"
                    f"{date:%Y-%m-%d %H:%M:%S},{price:.2f},1{p:04d},United Kingdom"
                )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} transactions for {args.products} products -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
