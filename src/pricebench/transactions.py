"""Transaction CSV ingestion and demand-parameter calibration.

Replaces model training on the retail dataset with a least-squares fit of the
reference demand model on weekly product aggregates. The expected CSV layout
is the classic UK online-retail export: InvoiceNo, StockCode, Description,
Quantity, InvoiceDate, UnitPrice, CustomerID, Country (header names exact).
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .demand import DemandParams
from .features import seasonal_encoding
from .market import holiday_flag

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = (
    "InvoiceNo",
    "StockCode",
    "Description",
    "Quantity",
    "InvoiceDate",
    "UnitPrice",
    "CustomerID",
    "Country",
)

DATE_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d")
# the fewest weekly aggregates calibrate() fits on
MIN_RECORDS = 30


class SchemaError(ValueError):
    """CSV header does not match the required transaction schema."""


class CalibrationError(ValueError):
    """Weekly records cannot identify the demand parameters."""


@dataclass(frozen=True)
class Transaction:
    invoice_no: str
    stock_code: str
    description: str
    quantity: float
    invoice_date: datetime
    unit_price: float
    customer_id: str
    country: str


@dataclass(frozen=True)
class RowError:
    line_number: int
    reason: str


@dataclass
class TransactionTable:
    rows: list[Transaction] = field(default_factory=list)
    errors: list[RowError] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class WeeklyAggregate:
    product: str
    year: int
    week: int
    mean_price: float  # quantity-weighted
    total_quantity: float


def _parse_date(raw: str) -> datetime:
    raw = raw.strip()
    for fmt in DATE_FORMATS:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            continue
    return datetime.fromisoformat(raw)  # last resort; raises ValueError itself


def load_transactions(path) -> TransactionTable:
    """Parse the CSV; malformed rows become RowError records, never silent drops."""
    table = TransactionTable()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        for row in reader:
            line = reader.line_num
            try:
                table.rows.append(
                    Transaction(
                        invoice_no=row["InvoiceNo"].strip(),
                        stock_code=row["StockCode"].strip(),
                        description=row["Description"].strip(),
                        quantity=float(row["Quantity"]),
                        invoice_date=_parse_date(row["InvoiceDate"]),
                        unit_price=float(row["UnitPrice"]),
                        customer_id=(row["CustomerID"] or "").strip(),
                        country=row["Country"].strip(),
                    )
                )
            except (ValueError, TypeError, AttributeError) as exc:
                table.errors.append(RowError(line, str(exc)))
    if table.errors:
        log.warning("%d malformed row(s) while loading %s", len(table.errors), path)
    return table


def clean_transactions(table: TransactionTable) -> tuple[TransactionTable, Counter]:
    """Drop non-positive quantities/prices and anonymous rows; count each reason."""
    removed: Counter = Counter()
    kept = []
    for row in table.rows:
        if row.quantity <= 0:
            removed["negative-quantity"] += 1
        elif row.unit_price <= 0:
            removed["negative-price"] += 1
        elif not row.customer_id:
            removed["missing-customer"] += 1
        else:
            kept.append(row)
    return TransactionTable(rows=kept, errors=list(table.errors)), removed


def aggregate_weekly(table: TransactionTable) -> list[WeeklyAggregate]:
    """One record per (product, ISO year-week): total units, quantity-weighted price."""
    buckets: dict[tuple[str, int, int], list[Transaction]] = {}
    for row in table.rows:
        iso = row.invoice_date.isocalendar()
        buckets.setdefault((row.stock_code, iso[0], iso[1]), []).append(row)
    records = []
    for (product, year, week), rows in sorted(buckets.items()):
        total_q = sum(r.quantity for r in rows)
        weighted = sum(r.quantity * r.unit_price for r in rows)
        records.append(
            WeeklyAggregate(
                product=product,
                year=year,
                week=week,
                mean_price=weighted / total_q,
                total_quantity=total_q,
            )
        )
    return records


def calibrate(
    records: list[WeeklyAggregate],
    cluster_of: dict[str, int] | None = None,
) -> DemandParams:
    """Fit the reference-model coefficients on weekly aggregates.

    Regresses log quantity on per-product intercepts, log price ratio, the
    holiday flag, the week sine, and lagged log quantity. Requires genuine
    price variation; a flat-price design is rank deficient and rejected.
    """
    if len(records) < MIN_RECORDS:
        raise CalibrationError(f"need at least {MIN_RECORDS} records, got {len(records)}")

    by_product: dict[str, list[WeeklyAggregate]] = {}
    for rec in records:
        by_product.setdefault(rec.product, []).append(rec)
    products = sorted(by_product)
    ref_price = {
        p: sum(r.mean_price for r in rows) / len(rows) for p, rows in by_product.items()
    }

    rows_x, rows_y = [], []
    for p, rows in by_product.items():
        rows = sorted(rows, key=lambda r: (r.year, r.week))
        for prev, cur in zip(rows, rows[1:]):
            if cur.total_quantity <= 0 or prev.total_quantity <= 0 or cur.mean_price <= 0:
                continue
            dummies = [1.0 if p == q else 0.0 for q in products]
            week_sin = seasonal_encoding(cur.week)[0]
            rows_x.append(
                dummies
                + [
                    math.log(cur.mean_price / ref_price[p]),
                    1.0 if holiday_flag(cur.week) else 0.0,
                    week_sin,
                    math.log(prev.total_quantity),
                ]
            )
            rows_y.append(math.log(cur.total_quantity))

    if len(rows_x) < len(products) + 4:
        raise CalibrationError("too few usable consecutive-week pairs for a fit")

    x = np.asarray(rows_x)
    y = np.asarray(rows_y)
    price_col = x[:, len(products)]
    if float(np.std(price_col)) < 1e-12:
        raise CalibrationError("no price variation in the records; elasticity unidentifiable")

    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise CalibrationError("design matrix is rank deficient")

    n = len(products)
    elasticity = min(float(coef[n]), 0.0)
    holiday_uplift = max(float(math.exp(coef[n + 1])), 1.0)
    seasonal_amp = float(coef[n + 2])
    lag_weight = float(coef[n + 3])
    if seasonal_amp < 0:
        log.warning("fitted seasonal amplitude %.4f < 0; clamping to 0", seasonal_amp)
        seasonal_amp = 0.0
    lag_weight = min(max(lag_weight, 0.0), 0.99)

    residuals = y - x @ coef
    noise_sigma = float(np.sqrt(np.mean(residuals**2)))

    grand_mean = float(np.mean([r.total_quantity for r in records]))
    cluster_base: dict[int, float] = {}
    if cluster_of:
        cluster_totals: dict[int, list[float]] = {}
        for rec in records:
            cluster = cluster_of.get(rec.product)
            if cluster is not None:
                cluster_totals.setdefault(cluster, []).append(rec.total_quantity)
        cluster_base = {
            c: (sum(v) / len(v)) / grand_mean for c, v in sorted(cluster_totals.items())
        }

    return DemandParams(
        elasticity=elasticity,
        holiday_uplift=holiday_uplift,
        cluster_base=cluster_base,
        seasonal_amp=seasonal_amp,
        lag_weight=lag_weight,
        noise_sigma=noise_sigma,
    )
