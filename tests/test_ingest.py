"""Ingestion: parsing, BOM selection, return computation, rate handling."""

import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portopt import (
    ConfigError,
    DailyPriceTable,
    InsufficientDataError,
    ParseError,
    RiskFreeSeries,
    ValidationError,
    annual_to_monthly_rate,
    average_risk_free,
    compute_monthly_returns,
    parse_price_table,
    parse_riskfree_table,
    select_bom,
)

BUNDLED_STOCKS = 10  # stock columns in the bundled dataset


def test_parse_two_rows():
    text = "date,A,MKT\n2013-01-02,1.0,2.0\n2013-01-03,1.1,2.1\n"
    t = parse_price_table(text, "MKT")
    assert len(t) == 2
    assert t.tickers == ("A", "MKT")
    assert t.market_position == 1
    assert np.allclose(t.closes, [[1.0, 2.0], [1.1, 2.1]])


def test_parse_invalid_month_names_row():
    with pytest.raises(ParseError) as exc:
        parse_price_table("date,A\n2013-13-01,1.0\n", "A")
    assert exc.value.row == 2


def test_parse_missing_market_ticker():
    with pytest.raises(ConfigError):
        parse_price_table("date,A\n2013-01-02,1.0\n", "MKT")


def test_parse_duplicate_dates():
    text = "date,A\n2013-01-02,1.0\n2013-01-02,1.1\n"
    with pytest.raises(ValidationError):
        parse_price_table(text, "A")


def test_parse_non_numeric_price_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_price_table("date,A,B\n2013-01-02,1.0,oops\n", "A")
    assert exc.value.row == 2
    assert exc.value.column == 3


def test_parse_missing_cell_default_error_and_forward_fill():
    text = "date,A,B\n2013-01-02,1.0,2.0\n2013-01-03,,2.2\n"
    with pytest.raises(ParseError):
        parse_price_table(text, "A")
    t = parse_price_table(text, "A", forward_fill=True)
    assert t.closes[1, 0] == 1.0


def test_parse_bundled_file_width(bundled_prices_text):
    t = parse_price_table(bundled_prices_text, "MKT")
    assert t.n_assets == BUNDLED_STOCKS + 1


def test_nonpositive_price_rejected():
    with pytest.raises(ValidationError):
        parse_price_table("date,A\n2013-01-02,0.0\n", "A")


def test_parse_header_and_shape_errors():
    with pytest.raises(ParseError):
        parse_price_table("", "A")
    with pytest.raises(ParseError):
        parse_price_table("time,A\n2013-01-02,1.0\n", "A")
    with pytest.raises(ParseError):
        parse_price_table("date,A,B\n2013-01-02,1.0\n", "A")   # short row


def test_forward_fill_requires_prior_row():
    with pytest.raises(ParseError):
        parse_price_table("date,A\n2013-01-02,\n", "A", forward_fill=True)


def test_riskfree_bad_rate_and_order():
    with pytest.raises(ParseError):
        parse_riskfree_table("month,annual_rate\n2013-01,abc\n")
    with pytest.raises(ValidationError):
        parse_riskfree_table(
            "month,annual_rate\n2013-02,0.02\n2013-01,0.02\n")


def test_select_bom_first_of_month():
    text = ("date,A\n2013-01-02,1.0\n2013-01-03,1.1\n2013-02-03,1.2\n")
    bom = select_bom(parse_price_table(text, "A"))
    assert [str(d) for d in bom.dates] == ["2013-01-02", "2013-02-03"]


def test_select_bom_single_row_identity():
    t = parse_price_table("date,A\n2013-01-02,1.0\n", "A")
    bom = select_bom(t)
    assert bom.dates == t.dates


def test_select_bom_ten_year_window_counts(bundled_prices_text):
    # independent oracle: enumerate months from 2013-01 through 2023-08
    expected = len([
        (y, m) for y in range(2013, 2024) for m in range(1, 13)
        if (y, m) <= (2023, 8)
    ])
    assert expected == 128
    bom = select_bom(parse_price_table(bundled_prices_text, "MKT"))
    assert len(bom) == expected


def test_returns_flat_and_simple():
    text = "date,A\n2013-01-02,100\n2013-02-01,100\n"
    r = compute_monthly_returns(select_bom(parse_price_table(text, "A")))
    assert r.returns[0, 0] == 0.0
    text = "date,A\n2013-01-02,100\n2013-02-01,105\n"
    r = compute_monthly_returns(select_bom(parse_price_table(text, "A")))
    assert r.returns[0, 0] == pytest.approx(0.05, abs=1e-15)


def test_returns_hand_sequence():
    # (110-100)/100 = 0.10, (99-110)/110 = -0.10
    text = "date,A\n2013-01-02,100\n2013-02-01,110\n2013-03-01,99\n"
    r = compute_monthly_returns(select_bom(parse_price_table(text, "A")))
    assert np.allclose(r.returns[:, 0], [0.10, -0.10])
    assert r.months == ((2013, 2), (2013, 3))


def test_returns_need_two_rows():
    t = parse_price_table("date,A\n2013-01-02,1.0\n", "A")
    with pytest.raises(InsufficientDataError):
        compute_monthly_returns(t)


def test_month_gap_flagging():
    text = "date,A\n2013-01-02,1.0\n2013-03-04,1.1\n"
    bom = select_bom(parse_price_table(text, "A"))
    with pytest.raises(ValidationError):
        compute_monthly_returns(bom)
    r = compute_monthly_returns(bom, allow_gaps=True)
    assert r.sample_size == 1


def test_annual_to_monthly_values():
    assert annual_to_monthly_rate(0.0) == 0.0
    assert annual_to_monthly_rate(0.03) == pytest.approx(0.0025, abs=1e-18)
    assert annual_to_monthly_rate(0.024) == pytest.approx(0.002, abs=1e-18)
    with pytest.raises(ValidationError):
        annual_to_monthly_rate(float("nan"))


def test_average_risk_free_simple():
    s = RiskFreeSeries(((2013, 1), (2013, 2)), [0.012, 0.036])
    assert average_risk_free(s) == pytest.approx(0.002, abs=1e-15)
    s2 = RiskFreeSeries(((2013, 1),), [0.024])
    assert average_risk_free(s2) == pytest.approx(0.002, abs=1e-18)


def test_average_risk_free_empty():
    s = RiskFreeSeries((), [])
    with pytest.raises(InsufficientDataError):
        average_risk_free(s)


def test_riskfree_parse_and_warning():
    s = parse_riskfree_table("month,annual_rate\n2013-01,0.024\n2013-02,0.03\n")
    assert np.allclose(s.monthly_rates, [0.002, 0.0025])
    with pytest.raises(ParseError):
        parse_riskfree_table("month,annual_rate\n2013-13,0.02\n")
    with pytest.warns(UserWarning):
        parse_riskfree_table("month,annual_rate\n2013-01,0.9\n")


def test_riskfree_rate_must_exceed_minus_one():
    # the rule of annual_to_monthly_rate, for a series and for a file
    for rate in (-1.0, -2.0):
        with pytest.raises(ValidationError, match="exceed -1"):
            annual_to_monthly_rate(rate)
        with pytest.raises(ValidationError, match="exceed -1"):
            RiskFreeSeries(((2013, 1),), [rate])
    with pytest.raises(ValidationError, match=r"rate -2 must exceed -1 \(rf\.csv, row 3\)"):
        parse_riskfree_table("month,annual_rate\n2013-01,0.02\n2013-02,-2.0\n",
                             filename="rf.csv")
    assert RiskFreeSeries(((2013, 1),), [-0.5]).monthly_rates[0] == pytest.approx(-0.5 / 12)


def test_riskfree_warning_names_file_and_row():
    text = "month,annual_rate\n2013-01,0.02\n2013-02,0.9\n2013-03,-0.5\n"
    with pytest.warns(UserWarning) as record:
        parse_riskfree_table(text, filename="rf.csv")
    assert len(record) == 1
    shown = warnings.formatwarning(record[0].message, record[0].category,
                                   record[0].filename, record[0].lineno)
    assert shown.startswith("rf.csv:3: UserWarning: annual risk-free rate 0.9 outside the "
                            "typical [0, 0.2] range (first of 2 such rows)")
    # the series itself no longer warns (warnings are errors under pytest)
    RiskFreeSeries(((2013, 1),), [0.9])


def test_bundled_riskfree_average(bundled_riskfree_text):
    s = parse_riskfree_table(bundled_riskfree_text)
    assert average_risk_free(s) == pytest.approx(0.002139918, abs=1e-9)


# -- property tests -----------------------------------------------------

@st.composite
def price_tables(draw):
    n_days = draw(st.integers(min_value=1, max_value=40))
    n_assets = draw(st.integers(min_value=1, max_value=4))
    start = date(2015, 1, 1) + timedelta(days=draw(st.integers(0, 200)))
    gaps = draw(st.lists(st.integers(1, 11), min_size=n_days - 1,
                         max_size=n_days - 1))
    dates = [start]
    for g in gaps:
        dates.append(dates[-1] + timedelta(days=g))
    # ratios bounded away from 0 keep 1+r well conditioned, as real prices do
    prices = draw(st.lists(
        st.lists(st.floats(1.0, 1e3, allow_nan=False), min_size=n_assets,
                 max_size=n_assets),
        min_size=n_days, max_size=n_days,
    ))
    tickers = tuple(f"T{i}" for i in range(n_assets))
    return DailyPriceTable(tuple(dates), tickers, np.array(prices), "T0")


@given(price_tables())
@settings(max_examples=60, deadline=None)
def test_select_bom_idempotent(table):
    once = select_bom(table)
    twice = select_bom(once)
    assert once.dates == twice.dates
    assert np.array_equal(once.closes, twice.closes)


@given(price_tables())
@settings(max_examples=60, deadline=None)
def test_row_count_relation(table):
    bom = select_bom(table)
    if len(bom) < 2:
        return
    r = compute_monthly_returns(bom, allow_gaps=True)
    assert r.sample_size == len(bom) - 1


@given(price_tables())
@settings(max_examples=60, deadline=None)
def test_compounding_reconstructs_prices(table):
    bom = select_bom(table)
    if len(bom) < 2:
        return
    r = compute_monthly_returns(bom, allow_gaps=True)
    rebuilt = bom.closes[0] * np.cumprod(1.0 + r.returns, axis=0)
    assert np.max(np.abs(rebuilt / bom.closes[1:] - 1.0)) < 1e-12


@given(st.floats(-0.45, 0.5), st.floats(-0.45, 0.5))
@settings(max_examples=100, deadline=None)
def test_rate_conversion_linear(a, b):
    lhs = annual_to_monthly_rate(a + b)
    rhs = annual_to_monthly_rate(a) + annual_to_monthly_rate(b)
    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_select_bom_rejects_an_empty_table():
    empty = DailyPriceTable(dates=(), tickers=("A", "MKT"), closes=np.zeros((0, 2)),
                            market_ticker="MKT")
    with pytest.raises(InsufficientDataError, match="empty price table"):
        select_bom(empty)
