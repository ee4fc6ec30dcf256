"""Price and risk-free-rate ingestion with beginning-of-month aggregation.

Input files are wide CSVs (one column per ticker, ISO-8601 dates).  Daily
prices are reduced to the first trading day of each calendar month, and
simple monthly returns are computed from those observations.  Annual fixed
deposit rates convert to monthly rates by plain division by 12.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)

Month = tuple[int, int]


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def month_label(month: Month) -> str:
    return f"{month[0]:04d}-{month[1]:02d}"


@dataclass(frozen=True)
class DailyPriceTable:
    """Daily closing prices for N tickers, one of which is the market index."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    closes: np.ndarray  # (T_daily, N), strictly positive
    market_ticker: str

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(str(t) for t in self.tickers))
        closes = np.atleast_2d(np.asarray(self.closes, dtype=float))
        object.__setattr__(self, "closes", _readonly(closes))
        if closes.shape != (len(self.dates), len(self.tickers)):
            raise ValidationError(
                f"price matrix shape {closes.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if len(set(self.tickers)) != len(self.tickers):
            raise ValidationError("duplicate ticker names")
        if self.market_ticker not in self.tickers:
            raise ConfigError(
                f"market ticker {self.market_ticker!r} not among columns {list(self.tickers)}"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValidationError(
                    f"dates must be strictly increasing; saw {prev} then {cur}"
                )
        if not np.all(np.isfinite(closes)):
            raise ValidationError("non-finite price encountered")
        if np.any(closes <= 0.0):
            t, i = np.argwhere(closes <= 0.0)[0]
            raise ValidationError(
                f"non-positive price {closes[t, i]} for {self.tickers[i]} on {self.dates[t]}"
            )

    @property
    def market_position(self) -> int:
        return self.tickers.index(self.market_ticker)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def __len__(self) -> int:
        return len(self.dates)


def _months(months) -> tuple[Month, ...]:
    """``months`` as ``(year, month)`` integer pairs, each month in 1..12,
    strictly increasing."""
    months = tuple((int(y), int(m)) for y, m in months)
    if any(not 1 <= m <= 12 for _, m in months):
        raise ValidationError("month number outside 1..12")
    for prev, cur in zip(months, months[1:]):
        if cur <= prev:
            raise ValidationError(f"months must be strictly increasing; saw "
                                  f"{month_label(prev)} then {month_label(cur)}")
    return months


@dataclass(frozen=True)
class MonthlyReturnTable:
    """T x N matrix of simple monthly returns; each row labelled by the month
    in which the return is realized."""

    months: tuple[Month, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray  # (T, N), each entry > -1
    market_ticker: str
    allow_gaps: bool = False

    def __post_init__(self):
        object.__setattr__(self, "months", _months(self.months))
        object.__setattr__(self, "tickers", tuple(str(t) for t in self.tickers))
        rets = np.atleast_2d(np.asarray(self.returns, dtype=float))
        object.__setattr__(self, "returns", _readonly(rets))
        if rets.shape != (len(self.months), len(self.tickers)):
            raise ValidationError(
                f"return matrix shape {rets.shape} does not match "
                f"{len(self.months)} months x {len(self.tickers)} tickers"
            )
        if len(set(self.tickers)) != len(self.tickers):
            raise ValidationError("duplicate ticker names")
        if self.market_ticker not in self.tickers:
            raise ConfigError(f"market ticker {self.market_ticker!r} not among tickers")
        for (y0, m0), (y1, m1) in zip(self.months, self.months[1:]):
            if (y1 * 12 + m1) - (y0 * 12 + m0) > 1 and not self.allow_gaps:
                raise ValidationError(
                    f"gap between {month_label((y0, m0))} and {month_label((y1, m1))}; "
                    "pass allow_gaps=True to accept"
                )
        if not np.all(np.isfinite(rets)):
            raise ValidationError("non-finite return encountered")
        if np.any(rets <= -1.0):
            raise ValidationError("return <= -1 impossible for positive prices")

    @property
    def market_position(self) -> int:
        return self.tickers.index(self.market_ticker)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def sample_size(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class RiskFreeSeries:
    """Per-month fixed deposit rates quoted per annum, each above -1; the
    per-month values are derived (annual / 12)."""

    months: tuple[Month, ...]
    annual_rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "months", _months(self.months))
        annual = _readonly(np.atleast_1d(self.annual_rates))
        object.__setattr__(self, "annual_rates", annual)
        if annual.shape != (len(self.months),):
            raise ValidationError("risk-free series lengths disagree")
        if not np.all(np.isfinite(annual)):
            raise ValidationError("non-finite risk-free rate")
        if np.any(annual <= -1.0):
            raise ValidationError("annual risk-free rate must exceed -1")

    @property
    def monthly_rates(self) -> np.ndarray:
        return self.annual_rates / 12.0

    def __len__(self) -> int:
        return len(self.months)


def _split_csv(raw_text: str):
    reader = csv.reader(io.StringIO(raw_text))
    rows = [[cell.strip() for cell in row] for row in reader if any(c.strip() for c in row)]
    return rows


def parse_price_table(raw_text: str, market_ticker: str, *,
                      forward_fill: bool = False,
                      filename: str = "<string>") -> DailyPriceTable:
    """Parse a wide price CSV (``date,TICKER1,...,TICKERn``) into a table.

    Empty price cells are a hard error unless ``forward_fill`` is set, in
    which case the previous row's value is carried forward.
    """
    rows = _split_csv(raw_text)
    if not rows:
        raise ParseError("empty price file", file=filename)
    header = rows[0]
    if len(header) < 2 or header[0].lower() != "date":
        raise ParseError(
            "header must be 'date,<ticker>,...'", file=filename, row=1, column=1
        )
    tickers = header[1:]
    if market_ticker not in tickers:
        raise ConfigError(
            f"market ticker {market_ticker!r} not found in header of {filename}"
        )
    if len(rows) < 2:
        raise ParseError("no data rows", file=filename, row=1)

    dates: list[date] = []
    prices: list[list[float]] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, found {len(row)}",
                file=filename, row=r,
            )
        try:
            d = date.fromisoformat(row[0])
        except ValueError:
            raise ParseError(
                f"invalid ISO date {row[0]!r}", file=filename, row=r, column=1
            ) from None
        values: list[float] = []
        for c, cell in enumerate(row[1:], start=2):
            if cell == "":
                if forward_fill and prices:
                    values.append(prices[-1][c - 2])
                    continue
                raise ParseError(
                    "missing price (enable forward_fill to carry last value)",
                    file=filename, row=r, column=c,
                )
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"non-numeric price {cell!r}", file=filename, row=r, column=c
                ) from None
        if dates and d == dates[-1]:
            raise ValidationError(f"duplicate date {d} ({filename}, row {r})")
        dates.append(d)
        prices.append(values)

    return DailyPriceTable(tuple(dates), tuple(tickers), np.array(prices), market_ticker)


def parse_riskfree_table(raw_text: str, *, filename: str = "<string>") -> RiskFreeSeries:
    """Parse a ``month,annual_rate`` CSV into a :class:`RiskFreeSeries`."""
    rows = _split_csv(raw_text)
    if not rows:
        raise ParseError("empty risk-free file", file=filename)
    header = [h.lower() for h in rows[0]]
    if header[:2] != ["month", "annual_rate"]:
        raise ParseError(
            "header must be 'month,annual_rate'", file=filename, row=1
        )
    months: list[Month] = []
    annual: list[float] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise ParseError("expected 2 fields", file=filename, row=r)
        try:
            y_s, m_s = row[0].split("-")
            y, m = int(y_s), int(m_s)
            if not 1 <= m <= 12:
                raise ValueError
        except ValueError:
            raise ParseError(
                f"invalid month {row[0]!r} (expected YYYY-MM)",
                file=filename, row=r, column=1,
            ) from None
        try:
            rate = float(row[1])
        except ValueError:
            raise ParseError(
                f"non-numeric rate {row[1]!r}", file=filename, row=r, column=2
            ) from None
        if not np.isfinite(rate):
            raise ValidationError(f"non-finite rate ({filename}, row {r})")
        if rate <= -1.0:
            raise ValidationError(f"annual rate {rate:g} must exceed -1 ({filename}, row {r})")
        if months and (y, m) <= months[-1]:
            raise ValidationError(
                f"months must be strictly increasing ({filename}, row {r})"
            )
        months.append((y, m))
        annual.append(rate)
    unusual = [i for i, rate in enumerate(annual) if not 0.0 <= rate <= 0.2]
    if unusual:   # shown as file:row at the first one; the header is row 1
        more = f" (first of {len(unusual)} such rows)" if len(unusual) > 1 else ""
        warnings.warn_explicit(f"annual risk-free rate {annual[unusual[0]]:g} outside the "
                               f"typical [0, 0.2] range{more}", UserWarning, filename,
                               unusual[0] + 2)
    return RiskFreeSeries(tuple(months), annual)


def select_bom(prices: DailyPriceTable) -> DailyPriceTable:
    """Keep the first trading day of each calendar month present in the input."""
    if len(prices) == 0:
        raise InsufficientDataError("empty price table")
    keep: list[int] = []
    seen: set[Month] = set()
    for i, d in enumerate(prices.dates):
        key = (d.year, d.month)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return DailyPriceTable(
        tuple(prices.dates[i] for i in keep),
        prices.tickers,
        prices.closes[keep, :],
        prices.market_ticker,
    )


def compute_monthly_returns(bom_prices: DailyPriceTable, *,
                            allow_gaps: bool = False) -> MonthlyReturnTable:
    """Simple returns (P[t+1] - P[t]) / P[t] between consecutive BOM rows.

    Each return row is labelled with the month of the later observation.
    """
    if len(bom_prices) < 2:
        raise InsufficientDataError(
            "need at least 2 beginning-of-month rows to compute returns"
        )
    if not allow_gaps:
        labels = [(d.year, d.month) for d in bom_prices.dates]
        for (y0, m0), (y1, m1) in zip(labels, labels[1:]):
            if (y1 * 12 + m1) - (y0 * 12 + m0) > 1:
                raise ValidationError(
                    f"gap between {month_label((y0, m0))} and {month_label((y1, m1))}; "
                    "pass allow_gaps=True to accept"
                )
    closes = bom_prices.closes
    rets = closes[1:, :] / closes[:-1, :] - 1.0
    months = tuple((d.year, d.month) for d in bom_prices.dates[1:])
    return MonthlyReturnTable(
        months, bom_prices.tickers, rets, bom_prices.market_ticker,
        allow_gaps=allow_gaps,
    )


def annual_to_monthly_rate(annual: float) -> float:
    """Convert a nominal per-annum rate to per-month by dividing by 12."""
    annual = float(annual)
    if not np.isfinite(annual):
        raise ValidationError("annual rate must be finite")
    if annual <= -1.0:
        raise ValidationError("annual rate must exceed -1")
    return annual / 12.0


def average_risk_free(series: RiskFreeSeries) -> float:
    """Arithmetic mean of the monthly risk-free rates."""
    if len(series) == 0:
        raise InsufficientDataError("risk-free series is empty")
    return float(np.mean(series.monthly_rates))


def format_number(x) -> str:
    """The one number format of every CSV cell and printed figure: 10 significant digits."""
    return format(float(x), ".10g")


def csv_text(rows) -> str:
    """Rows as CSV text with ``\\n`` line ends, floats through ``format_number``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [format_number(v) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


def monthly_returns_to_csv(table: MonthlyReturnTable) -> str:
    """Serialize a return table as ``month,<ticker>,...`` CSV."""
    return csv_text([["month", *table.tickers],
                     *([month_label(m), *row] for m, row in zip(table.months, table.returns))])
