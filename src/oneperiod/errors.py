"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for every domain error raised by this package."""


class ValidationError(ModelError, ValueError):
    """Input data violates a structural requirement (shape, sign, normalization)."""


class ZeroCostPortfolioError(ModelError):
    """The portfolio has numerically zero acquisition cost, so its return is undefined."""


class ArbitragePresentError(ModelError):
    """The market admits an arbitrage, so the requested quantity does not exist."""


class DegenerateProblemError(ModelError):
    """The problem instance is degenerate (single attainable mean, identical funds, ...)."""


class UnsupportedMarketError(ModelError):
    """Singular covariance without a riskless portfolio: outside the supported regimes."""


class ConvergenceError(ModelError):
    """An iterative solver hit its iteration cap. Carries the best iterate found."""

    def __init__(self, message, best=None, iterations=0):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
