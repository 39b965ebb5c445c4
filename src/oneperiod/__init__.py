"""One-period market model toolkit.

Construct efficient portfolios (closed form for invertible covariance, the
riskless/tangency route otherwise), verify that the CAPM identity holds for
realized returns outcome by outcome, and run a constructive no-arbitrage
test that yields either a pricing measure or a certified arbitrage
portfolio. All functions are pure, every result is a frozen dataclass, and
the arrays of a Market, its Moments and a ReturnProfile are read-only views
that cannot be made writeable, so the library is safe to use from any
number of concurrent callers.
"""

from .arbitrage import (ArbitrageCertificate, CheckReport, ConditionCheck,
                        PricingMeasure, check_arbitrage, risk_neutral_consistency,
                        verify_certificate)
from .capm import IdentityReport, verify_realized_identity
from .errors import (ArbitragePresentError, ConvergenceError, DegenerateProblemError,
                     ModelError, UnsupportedMarketError, ValidationError,
                     ZeroCostPortfolioError)
from .frontier import (FrontierSolution, RisklessInfo, efficient_portfolio, find_riskless,
                       two_fund_compose)
from .linalg import ConeProjection, nnls
from .market import (Market, Moments, ReturnProfile, load_market, market_from_dict,
                     moments, realized_return, validate_market)

__version__ = "0.3.0"

__all__ = [
    "ArbitrageCertificate", "ArbitragePresentError", "CheckReport", "ConditionCheck",
    "ConeProjection", "ConvergenceError", "DegenerateProblemError", "FrontierSolution",
    "IdentityReport", "Market", "ModelError", "Moments", "PricingMeasure",
    "ReturnProfile", "RisklessInfo", "UnsupportedMarketError", "ValidationError",
    "ZeroCostPortfolioError", "check_arbitrage", "efficient_portfolio", "find_riskless",
    "load_market", "market_from_dict", "moments", "nnls", "realized_return",
    "risk_neutral_consistency", "two_fund_compose", "validate_market",
    "verify_certificate", "verify_realized_identity",
]
