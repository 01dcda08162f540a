"""Gamma fitting and sampling for durations and saccade lengths.

Fixation durations, saccade durations and saccade lengths are all right
skewed and modeled as gamma variables. Fitting is maximum likelihood with a
Newton iteration on the shape equation; sampling supports truncation to an
interval in closed form via the regularized incomplete gamma inverse, so
there are no rejection loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, kolmogi, polygamma, psi

from .core import DataError, NumericError
from .ingest import derive_saccades, write_csv

FIT_SOURCES = ("fixation_duration", "saccade_duration", "saccade_length")

_SHAPE_TOL = 1e-10
_MAX_NEWTON = 100


@dataclass(frozen=True)
class GammaFit:
    """Gamma(shape, rate) fit; mean = shape / rate."""

    shape: float
    rate: float
    n: int
    source: str

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise NumericError(f"invalid shape {self.shape}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise NumericError(f"invalid rate {self.rate}")
        if self.source not in FIT_SOURCES:
            raise DataError(f"unknown source {self.source!r}")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def cdf(self, x) -> np.ndarray:
        return gammainc(self.shape, self.rate * np.asarray(x, dtype=float))

    def quantile(self, p) -> np.ndarray:
        return gammaincinv(self.shape, np.asarray(p, dtype=float)) / self.rate

    def truncated_quantile(self, u, lower: float, upper) -> np.ndarray:
        """Quantile at uniform level ``u`` of the law conditioned on (lower, upper].

        Elementwise over ``u`` and ``upper``, so a block of draws is one
        ``gammaincinv`` call with the bits of one call per draw; the CDF is
        exactly 0 at 0 and 1 at inf. Raises ``DataError`` unless every upper
        exceeds ``lower``, and ``NumericError`` naming the first interval
        that holds no representable mass.
        """
        upper = np.asarray(upper, dtype=float)
        bad = ~(upper > lower)
        if bad.any():
            raise DataError(f"need upper > lower, got ({lower}, {float(upper[bad][0])}]")
        c_lo = gammainc(self.shape, self.rate * max(lower, 0.0))
        mass = gammainc(self.shape, self.rate * upper) - c_lo
        empty = mass <= 0.0
        if empty.any():
            top = float(upper[empty][0])
            raise NumericError(f"truncation region ({lower}, {top}] has no representable mass")
        draws = gammaincinv(self.shape, c_lo + u * mass) / self.rate
        # inverse-CDF rounding can land a hair past a bound
        draws = np.minimum(draws, upper)
        if lower > 0.0:
            draws = np.maximum(draws, np.nextafter(lower, np.inf))
        return draws

    def loglik(self, sample: np.ndarray) -> float:
        n = len(sample)
        return float(
            n * (self.shape * np.log(self.rate) - gammaln(self.shape))
            + (self.shape - 1.0) * np.log(sample).sum()
            - self.rate * sample.sum()
        )


@dataclass
class QQBand:
    """Gamma quantile-quantile data with a simultaneous confidence band.

    The band inverts the one-sample Kolmogorov-Smirnov acceptance region of
    the fitted CDF, so it is simultaneous over all order statistics. The top
    entries of ``upper`` are +inf where p + d reaches 1.
    """

    theoretical: np.ndarray
    empirical: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float

    def line_inside(self) -> bool:
        """Whether the unit-slope line (empirical == theoretical) stays in the band."""
        return bool(
            np.all(self.empirical >= self.lower) and np.all(self.empirical <= self.upper)
        )

    def to_csv(self, path) -> None:
        write_csv(path, ("theoretical", "empirical", "lower", "upper"),
                  [(self.theoretical, self.empirical, self.lower, self.upper)])


def law_sample(sequences, source: str) -> np.ndarray:
    """The sample the ``source`` law of ``sequences`` is fitted to, in their order: the
    fixation durations, or the positive lengths or durations of the jumps their
    ``valid_jumps`` mark valid (a jump spliced across a removed fixation is not)."""
    if source not in FIT_SOURCES:
        raise DataError(f"unknown source {source!r}")
    if source == "fixation_duration":
        return np.concatenate([np.empty(0)] + [s.durations for s in sequences])
    jumps = [derive_saccades(s) for s in sequences]
    values = [getattr(j, source.removeprefix("saccade_") + "s") for j in jumps]
    return np.concatenate([np.empty(0)] + [v[j.valid & (v > 0)] for j, v in zip(jumps, values)])


def _validated_sample(sample) -> np.ndarray:
    sample = np.asarray(sample, dtype=float).ravel()
    if len(sample) < 2:
        raise DataError(f"need at least 2 observations, got {len(sample)}")
    if np.any(sample <= 0) or not np.all(np.isfinite(sample)):
        raise DataError("sample must be positive and finite")
    return sample


def fit_gamma_mle(sample, source: str = "fixation_duration") -> GammaFit:
    """Maximum-likelihood gamma fit.

    Newton iteration on ln(a) - psi(a) = ln(mean) - mean(ln), started from
    the moment estimate mean^2/var; the rate is shape/mean. Raises on
    degenerate (constant) samples and on non-convergence.
    """
    sample = _validated_sample(sample)
    mean = sample.mean()
    mean_log = np.log(sample).mean()
    log_spread = np.log(mean) - mean_log  # >= 0 by Jensen, 0 iff constant
    var = sample.var()
    if var == 0.0 or log_spread <= 0.0:
        raise NumericError("degenerate sample: zero spread, shape estimate diverges")

    alpha = mean**2 / var
    for _ in range(_MAX_NEWTON):
        step = (np.log(alpha) - psi(alpha) - log_spread) / (1.0 / alpha - polygamma(1, alpha))
        new = alpha - step
        if new <= 0:
            new = alpha / 2.0  # keep the iterate in the domain
        if abs(new - alpha) < _SHAPE_TOL:
            alpha = new
            break
        alpha = new
    else:
        raise NumericError(f"gamma MLE did not converge; last shape iterate {alpha}")

    fit = GammaFit(float(alpha), float(alpha / mean), len(sample), source)
    moment = GammaFit(mean**2 / var, mean / var, len(sample), source)
    if fit.loglik(sample) < moment.loglik(sample) - 1e-8:
        raise NumericError("MLE log-likelihood below moment estimate; fit unreliable")
    return fit


def gamma_qq(sample, fit: GammaFit, alpha: float = 0.05) -> QQBand:
    """Theoretical-vs-empirical quantiles with a simultaneous KS band.

    Plotting positions are p_i = (i - 0.5) / n; the band half-width on the
    probability scale is the asymptotic KS critical value / sqrt(n). The fit
    is treated as fixed (estimation uncertainty is not propagated).
    """
    sample = _validated_sample(sample)
    order = np.sort(sample)
    n = len(order)
    p = (np.arange(1, n + 1) - 0.5) / n
    d = kolmogi(alpha) / np.sqrt(n)
    return QQBand(
        theoretical=fit.quantile(p),
        empirical=order,
        lower=fit.quantile(np.maximum(p - d, 0.0)),
        upper=fit.quantile(np.minimum(p + d, 1.0)),
        alpha=alpha,
    )


def sample_truncated_gamma(
    fit: GammaFit,
    upper: float,
    rng: np.random.Generator,
    lower: float = 0.0,
    size=None,
):
    """Draw from the gamma law conditioned on (lower, upper].

    Inverse-CDF on a uniform rescaled to the truncation mass, hence exact
    and loop-free. ``upper`` may be inf; ``lower`` defaults to 0 (plain
    upper truncation).
    """
    draws = fit.truncated_quantile(rng.random(size), lower, upper)
    return draws if size is not None else float(draws)


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 1..max_lag, biased normalization."""
    series = np.asarray(series, dtype=float).ravel()
    n = len(series)
    if n <= max_lag:
        raise DataError(f"series of length {n} too short for max_lag {max_lag}")
    centered = series - series.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise NumericError("zero-variance series has no autocorrelation")
    return np.array(
        [float(centered[:-k] @ centered[k:]) / denom for k in range(1, max_lag + 1)]
    )
