"""One-period market data model.

A market holds initial instrument prices, a payoff matrix over a finite set
of outcomes (one row per instrument, one column per outcome), and strictly
positive outcome probabilities. Portfolios are plain float arrays of share
counts, one entry per instrument; a portfolio's cost is ``xi @ prices`` and
its payoff in outcome ``w`` is ``xi @ payoffs[:, w]``.

This module also owns the JSON market-file format consumed by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroCostPortfolioError

#: absolute tolerance for sum(probabilities) == 1
PROB_SUM_TOL = 1e-9
#: every outcome probability must be at least this
MIN_PROBABILITY = 1e-12
#: |cost| <= ZERO_COST_RTOL * max(1, |xi| |x|) counts as a zero-cost portfolio
ZERO_COST_RTOL = 1e-12

_PSD_RTOL = 1e-10

_REQUIRED_KEYS = ("instruments", "prices", "probabilities", "payoffs")
_OPTIONAL_KEYS = ("outcome_labels",)


def _frozen_array(values, ndim: int, what: str) -> np.ndarray:
    # numpy's own type discovery, so that strings, null and nested objects are
    # refused instead of cast; integers too large for numpy arrive as objects.
    try:
        arr = np.array(values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not numeric: {exc}") from None
    if arr.dtype.kind == "O" and all(isinstance(v, (int, float)) for v in arr.flat):
        try:
            arr = arr.astype(float)
        except OverflowError:
            raise ValidationError(f"{what} holds a number beyond the float range") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} is not numeric")
    arr = arr.astype(float, copy=False)
    if arr.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Market:
    """A one-period market: prices now, outcome-dependent payoffs at period end.

    The payoff matrix is instrument-major: ``payoffs[i, w]`` is what one share
    of instrument ``i`` pays in outcome ``w``, so a portfolio's payoff vector
    over outcomes is the row-vector product ``xi @ payoffs``.
    """

    instruments: tuple[str, ...]
    prices: np.ndarray          # shape (n_instruments,)
    payoffs: np.ndarray         # shape (n_instruments, n_outcomes)
    probabilities: np.ndarray   # shape (n_outcomes,)
    outcome_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "instruments", tuple(str(s) for s in self.instruments))
        object.__setattr__(self, "prices", _frozen_array(self.prices, 1, "prices"))
        object.__setattr__(self, "payoffs", _frozen_array(self.payoffs, 2, "payoff matrix"))
        object.__setattr__(self, "probabilities",
                           _frozen_array(self.probabilities, 1, "probabilities"))
        if self.outcome_labels is not None:
            object.__setattr__(self, "outcome_labels",
                               tuple(str(s) for s in self.outcome_labels))

    @property
    def n_instruments(self) -> int:
        return len(self.instruments)

    @property
    def n_outcomes(self) -> int:
        return self.payoffs.shape[1]


@dataclass(frozen=True)
class Moments:
    """Exact model moments of the payoff vector under the outcome probabilities.

    The covariance's eigendecomposition is kept with it:
    ``covariance = eigenvectors @ diag(eigenvalues) @ eigenvectors.T`` with
    the eigenvalues ascending, so every frontier computation reads one factor.
    """

    mean: np.ndarray           # E[X], shape (n,)
    second_moment: np.ndarray  # E[X X'], shape (n, n)
    covariance: np.ndarray     # E[X X'] - E[X] E[X'], shape (n, n)
    eigenvalues: np.ndarray    # of the covariance, ascending, shape (n,)
    eigenvectors: np.ndarray   # orthonormal columns, one per eigenvalue, shape (n, n)

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean, 1, "mean"))
        object.__setattr__(self, "second_moment",
                           _frozen_array(self.second_moment, 2, "second moment"))
        object.__setattr__(self, "covariance", _frozen_array(self.covariance, 2, "covariance"))
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues, 1, "eigenvalues"))
        object.__setattr__(self, "eigenvectors",
                           _frozen_array(self.eigenvectors, 2, "eigenvectors"))


@dataclass(frozen=True)
class ReturnProfile:
    """Realized return of a portfolio as a function on the outcome set."""

    per_outcome: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "per_outcome",
                           _frozen_array(self.per_outcome, 1, "per-outcome returns"))


def validate_market(market: Market) -> Market:
    """Check every structural invariant of ``market`` and return it unchanged.

    Raises ValidationError naming the offending field/index otherwise.
    """
    n = market.n_instruments
    if n < 1:
        raise ValidationError("market needs at least one instrument")
    rows, cols = market.payoffs.shape
    if rows != n:
        raise ValidationError(f"payoff matrix has {rows} rows but the market lists {n} instruments")
    if cols < 1:
        raise ValidationError("market needs at least one outcome")
    if market.prices.size != n:
        raise ValidationError(f"market has {market.prices.size} prices but {n} instruments")
    if market.probabilities.size != cols:
        raise ValidationError(
            f"market has {market.probabilities.size} probabilities "
            f"but the payoff matrix has {cols} outcome columns")

    seen: set[str] = set()
    for name in market.instruments:
        if name in seen:
            raise ValidationError(f"duplicate instrument identifier '{name}'")
        seen.add(name)
    if market.outcome_labels is not None:
        if len(market.outcome_labels) != cols:
            raise ValidationError(
                f"market has {len(market.outcome_labels)} outcome labels but {cols} outcomes")
        if len(set(market.outcome_labels)) != cols:
            raise ValidationError("outcome labels must be unique")

    bad = np.flatnonzero(~np.isfinite(market.prices))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"price of instrument '{market.instruments[i]}' (index {i}) is not finite")
    bad = np.argwhere(~np.isfinite(market.payoffs))
    if bad.size:
        i, w = (int(v) for v in bad[0])
        raise ValidationError(
            f"payoff of instrument '{market.instruments[i]}' in outcome {w} is not finite")

    probabilities = market.probabilities
    bad = np.flatnonzero(~(np.isfinite(probabilities) & (probabilities >= MIN_PROBABILITY)))
    if bad.size:
        w = int(bad[0])
        p = float(probabilities[w])
        if not np.isfinite(p):
            raise ValidationError(f"probability of outcome {w} is not finite")
        raise ValidationError(
            f"probability of outcome {w} is {p!r}; must be at least {MIN_PROBABILITY}")
    total = float(market.probabilities.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(
            f"probabilities sum to {total!r}; must equal 1 within {PROB_SUM_TOL}")
    return market


def moments(market: Market) -> Moments:
    """Mean payoff, second moment, covariance and its eigendecomposition."""
    x = market.payoffs
    p = market.probabilities
    mean = x @ p
    second = (x * p) @ x.T
    second = 0.5 * (second + second.T)
    cov = second - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    eigs, vecs = np.linalg.eigh(cov)
    if eigs[0] < -_PSD_RTOL * max(eigs[-1], 1e-300):
        raise ValidationError(
            f"covariance is not positive semi-definite (smallest eigenvalue {eigs[0]!r})")
    return Moments(mean=mean, second_moment=second, covariance=cov,
                   eigenvalues=eigs, eigenvectors=vecs)


def as_portfolio(market: Market, portfolio) -> np.ndarray:
    """Coerce ``portfolio`` to a float vector matching the market's instrument count."""
    xi = np.asarray(portfolio, dtype=float)
    if xi.shape != (market.n_instruments,):
        raise ValidationError(
            f"portfolio has shape {xi.shape}; expected ({market.n_instruments},)")
    bad = np.flatnonzero(~np.isfinite(xi))
    if bad.size:
        raise ValidationError(f"portfolio entry {int(bad[0])} is not finite")
    return xi


def portfolio_cost(market: Market, portfolio) -> float:
    """Acquisition cost ``xi @ prices``; raises if it is numerically zero."""
    xi = as_portfolio(market, portfolio)
    cost = float(xi @ market.prices)
    scale = max(1.0, float(np.linalg.norm(xi) * np.linalg.norm(market.prices)))
    if abs(cost) <= ZERO_COST_RTOL * scale:
        raise ZeroCostPortfolioError(
            f"portfolio cost {cost!r} is zero within tolerance; realized return is undefined")
    return cost


def realized_return(market: Market, portfolio) -> ReturnProfile:
    """Realized return of ``portfolio``: payoff divided by cost, outcome by outcome.

    Scale invariant: any nonzero multiple of the portfolio yields the same profile.
    """
    xi = as_portfolio(market, portfolio)
    cost = portfolio_cost(market, xi)
    per_outcome = (xi @ market.payoffs) / cost
    p = market.probabilities
    mean = float(p @ per_outcome)
    centered = per_outcome - mean
    variance = float(p @ (centered * centered))
    return ReturnProfile(per_outcome=per_outcome, mean=mean, variance=variance)


def market_from_dict(document: dict, source: str = "<dict>") -> Market:
    """Build and validate a Market from a parsed market document.

    The document is strict: exactly the keys ``instruments``, ``prices``,
    ``probabilities``, ``payoffs`` and optionally ``outcome_labels``.
    """
    if not isinstance(document, dict):
        raise ValidationError(f"{source}: market document must be a JSON object")
    unknown = sorted(set(document) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ValidationError(f"{source}: unknown key(s) in market document: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in document:
            raise ValidationError(f"{source}: market document missing required key '{key}'")
    instruments = document["instruments"]
    if not isinstance(instruments, list) or not all(isinstance(s, str) for s in instruments):
        raise ValidationError(f"{source}: 'instruments' must be an array of strings")
    labels = document.get("outcome_labels")
    if labels is not None and (
            not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)):
        raise ValidationError(f"{source}: 'outcome_labels' must be an array of strings")
    try:
        market = Market(
            instruments=tuple(instruments),
            prices=document["prices"],
            payoffs=document["payoffs"],
            probabilities=document["probabilities"],
            outcome_labels=tuple(labels) if labels is not None else None,
        )
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None
    try:
        return validate_market(market)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def load_market(path) -> Market:
    """Read, parse and validate a market JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read market file '{path}': {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"market file '{path}' is not valid JSON: {exc}") from None
    return market_from_dict(document, source=str(path))
