import math
from datetime import datetime, timedelta

import pytest

from pricebench.demand import DemandParams
from pricebench.market import holiday_flag, seasonal_encoding
from pricebench.transactions import (
    CalibrationError,
    SchemaError,
    WeeklyAggregate,
    aggregate_weekly,
    calibrate,
    clean_transactions,
    load_transactions,
)

HEADER = "InvoiceNo,StockCode,Description,Quantity,InvoiceDate,UnitPrice,CustomerID,Country"


def _write(tmp_path, lines):
    path = tmp_path / "tx.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _row(invoice="536365", stock="85123A", qty="6", date="2010-12-01 08:26:00",
         price="2.55", customer="17850", country="United Kingdom"):
    return f"{invoice},{stock},WHITE HEART,{qty},{date},{price},{customer},{country}"


class TestLoad:
    def test_loads_all_columns(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(), _row(qty="2")]))
        assert len(table) == 2
        assert table.rows[0].unit_price == 2.55
        assert table.rows[0].invoice_date == datetime(2010, 12, 1, 8, 26)
        assert not table.errors

    def test_empty_file_with_header(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER]))
        assert len(table) == 0
        assert not table.errors

    def test_missing_column_names_it(self, tmp_path):
        bad = HEADER.replace(",UnitPrice", "")
        with pytest.raises(SchemaError, match="UnitPrice"):
            load_transactions(_write(tmp_path, [bad, "x,y,z,1,2010-12-01,17850,UK"]))

    def test_bad_date_becomes_row_error(self, tmp_path):
        table = load_transactions(
            _write(tmp_path, [HEADER, _row(), _row(date="not-a-date")])
        )
        assert len(table) == 1
        assert len(table.errors) == 1
        assert table.errors[0].line_number == 3

    def test_bad_quantity_becomes_row_error(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(qty="many")]))
        assert len(table) == 0
        assert len(table.errors) == 1


class TestClean:
    def _table(self, **kw):
        return load_transactions(kw.pop("path"))

    def test_negative_quantity_removed(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(qty="-3")]))
        cleaned, removed = clean_transactions(table)
        assert len(cleaned) == 0
        assert removed["negative-quantity"] == 1

    def test_missing_customer_removed(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(customer="")]))
        cleaned, removed = clean_transactions(table)
        assert len(cleaned) == 0
        assert removed["missing-customer"] == 1

    def test_nonpositive_price_removed(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(price="0")]))
        cleaned, removed = clean_transactions(table)
        assert removed["negative-price"] == 1

    def test_valid_rows_pass_through(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(), _row(qty="9")]))
        cleaned, removed = clean_transactions(table)
        assert cleaned.rows == table.rows
        assert sum(removed.values()) == 0


class TestAggregate:
    def test_quantity_weighted_mean(self, tmp_path):
        table = load_transactions(
            _write(tmp_path, [HEADER, _row(qty="2", price="5.0"), _row(qty="3", price="10.0")])
        )
        records = aggregate_weekly(table)
        assert len(records) == 1
        assert records[0].total_quantity == 5
        assert records[0].mean_price == pytest.approx(8.0)

    def test_single_row_passthrough(self, tmp_path):
        table = load_transactions(_write(tmp_path, [HEADER, _row(qty="4", price="3.0")]))
        (rec,) = aggregate_weekly(table)
        assert rec.total_quantity == 4
        assert rec.mean_price == pytest.approx(3.0)
        assert (rec.year, rec.week) == datetime(2010, 12, 1).isocalendar()[:2]

    def test_iso_weeks_split(self, tmp_path):
        table = load_transactions(
            _write(
                tmp_path,
                [HEADER, _row(date="2010-12-01 10:00:00"), _row(date="2010-12-08 10:00:00")],
            )
        )
        assert len(aggregate_weekly(table)) == 2


def synthetic_records(
    elasticity=-0.3, uplift=1.2, lag_weight=0.3, seasonal_amp=0.1, weeks=120, baseline=100.0
):
    """Noise-free generator mirroring the reference demand model recursion."""
    records = []
    rngish = [1.0, 1.3, 0.8, 1.1, 0.95, 1.25, 0.7, 1.4]  # deterministic price pattern
    ref_price = 10.0
    q_prev = baseline
    start = datetime(2010, 1, 4)  # a Monday
    prices = []
    for t in range(weeks):
        price = ref_price * rngish[t % len(rngish)]
        prices.append(price)
    mean_price = sum(prices) / len(prices)
    for t in range(weeks):
        date = start + timedelta(weeks=t)
        year, week, _ = date.isocalendar()
        week_sin = seasonal_encoding(week)[0]
        log_q = (
            math.log(baseline)
            + elasticity * math.log(prices[t] / mean_price)
            + math.log(uplift) * (1.0 if holiday_flag(week) else 0.0)
            + seasonal_amp * week_sin
            + lag_weight * math.log(q_prev / baseline)
        )
        q = math.exp(log_q)
        records.append(
            WeeklyAggregate(
                product="prodX", year=year, week=week, mean_price=prices[t], total_quantity=q
            )
        )
        q_prev = q
    return records


class TestCalibrate:
    def test_generate_and_recover(self):
        records = synthetic_records(elasticity=-0.3, uplift=1.2)
        params = calibrate(records)
        assert params.elasticity == pytest.approx(-0.3, abs=0.01)
        assert params.holiday_uplift == pytest.approx(1.2, abs=0.02)
        assert params.lag_weight == pytest.approx(0.3, abs=0.01)
        assert params.noise_sigma == pytest.approx(0.0, abs=1e-6)

    def test_zero_elasticity_recovered(self):
        records = synthetic_records(elasticity=0.0, uplift=1.0)
        params = calibrate(records)
        assert params.elasticity == pytest.approx(0.0, abs=0.01)

    def test_constant_prices_rejected(self):
        records = [
            WeeklyAggregate("p", 2010, (t % 50) + 1, 10.0, 100.0 + t) for t in range(60)
        ]
        with pytest.raises(CalibrationError):
            calibrate(records)

    def test_too_few_records_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate(synthetic_records(weeks=10))

    def test_pairs_only_consecutive_weeks(self):
        """A record after a week without sales has no lag-1 demand: with
        every tenth week dropped, the noise-free fit is still exact, where
        pairing each record with the one before read elasticity -0.283,
        lag weight 0.247 and a noise sigma of 0.0076."""
        records = [r for t, r in enumerate(synthetic_records()) if t % 10 != 9]
        params = calibrate(records)
        assert params.elasticity == pytest.approx(-0.3, abs=1e-9)
        assert params.lag_weight == pytest.approx(0.3, abs=1e-9)
        assert params.noise_sigma == pytest.approx(0.0, abs=1e-9)

    def test_returns_valid_params(self):
        params = calibrate(synthetic_records())
        assert isinstance(params, DemandParams)
        assert params.elasticity <= 0
