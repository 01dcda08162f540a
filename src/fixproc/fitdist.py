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

from .core import DataError, NumericError, Window, corner_offsets
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


def _kept_jumps(sequences, source: str):
    """Per sequence, its jumps' ``source`` values and the mask of those
    :func:`law_sample` keeps: positive, and marked valid in ``valid_jumps``."""
    for s in sequences:
        jumps = derive_saccades(s)
        values = getattr(jumps, source.removeprefix("saccade_") + "s")
        yield s, values, jumps.valid & (values > 0)


def law_sample(sequences, source: str) -> np.ndarray:
    """The sample the ``source`` law of ``sequences`` is fitted to, in their order: the
    fixation durations, or the positive lengths or durations of the jumps their
    ``valid_jumps`` mark valid (a jump spliced across a removed fixation is not)."""
    if source not in FIT_SOURCES:
        raise DataError(f"unknown source {source!r}")
    if source == "fixation_duration":
        return np.concatenate([np.empty(0)] + [s.durations for s in sequences])
    kept = [values[keep] for _, values, keep in _kept_jumps(sequences, source)]
    return np.concatenate([np.empty(0)] + kept)


def jump_sample(sequences, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """The sample of :func:`fit_jump_mixture`: the ``saccade_length`` :func:`law_sample`
    of ``sequences``, and each jump's l_max, the distance from its start fixation to
    the farthest corner of ``window`` (:func:`~fixproc.core.corner_offsets`), which
    the simulator draws the jump's length under."""
    lengths, starts = [np.empty(0)], [np.empty((0, 2))]
    for s, values, keep in _kept_jumps(sequences, "saccade_length"):
        lengths.append(values[keep])
        starts.append(s.locations[:-1][keep])
    starts = np.concatenate(starts)
    return np.concatenate(lengths), np.hypot(*corner_offsets(window, *starts.T))


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


# Nelder-Mead on (log shape, log mean), which the gamma likelihood keeps
# nearly uncorrelated: the first simplex's edge, the
# spread of the simplex that ends the search, and the most likelihood
# evaluations it may take
_SIMPLEX_STEP = 0.1
_SIMPLEX_TOL = 1e-5
_MAX_EVALS = 2000


def _nelder_mead(cost, x0: np.ndarray) -> np.ndarray:
    """The point that Nelder-Mead's simplex search (reflect 1, expand 2,
    contract and shrink 1/2) closes on, from ``x0``, minimising ``cost``; a
    non-finite cost counts as +inf. The search ends when every vertex lies
    within ``_SIMPLEX_TOL`` of the best one in every coordinate."""
    evals = 0

    def value(x) -> float:
        nonlocal evals
        evals += 1
        c = cost(x)
        return c if np.isfinite(c) else np.inf  # neither NaN nor -inf is a minimum

    simplex = [x0] + [x0 + _SIMPLEX_STEP * e for e in np.eye(len(x0))]
    costs = [value(x) for x in simplex]
    while True:
        order = sorted(range(len(simplex)), key=costs.__getitem__)
        simplex = [simplex[i] for i in order]
        costs = [costs[i] for i in order]
        best, worst = simplex[0], simplex[-1]
        if max(np.abs(x - best).max() for x in simplex[1:]) <= _SIMPLEX_TOL:
            return best
        if evals >= _MAX_EVALS:
            raise NumericError(f"jump-length fit did not converge in {_MAX_EVALS} evaluations")
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = 2.0 * centroid - worst
        c_ref = value(reflected)
        if c_ref < costs[0]:
            expanded = 3.0 * centroid - 2.0 * worst
            c_exp = value(expanded)
            simplex[-1], costs[-1] = ((expanded, c_exp) if c_exp < c_ref
                                      else (reflected, c_ref))
        elif c_ref < costs[-2]:
            simplex[-1], costs[-1] = reflected, c_ref
        else:
            toward = reflected if c_ref < costs[-1] else worst
            contracted = 0.5 * (centroid + toward)
            c_con = value(contracted)
            if c_con < min(c_ref, costs[-1]):
                simplex[-1], costs[-1] = contracted, c_con
            else:
                simplex = [best] + [0.5 * (best + x) for x in simplex[1:]]
                costs = [costs[0]] + [value(x) for x in simplex[1:]]


def _best_p(ratio: np.ndarray, p: float) -> float:
    """The p in [0, 1] that maximises sum(log(1 + p * (ratio - 1))), a concave
    function, by Newton steps from ``p`` kept inside a shrinking bracket."""
    c = ratio - 1.0
    if c.sum() <= 0.0:
        return 0.0
    if (ratio > 0.0).all() and (c / ratio).sum() >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        terms = c / (1.0 + p * c)
        slope = terms.sum()
        if slope > 0.0:
            lo = p
        else:
            hi = p
        step = p + slope / (terms @ terms)
        new = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(new - p) <= 1e-12:
            return new
        p = new
    return p


def fit_jump_mixture(lengths, l_max, p_long: float | None = None) -> tuple[float, GammaFit]:
    """Maximum-likelihood fit of the law the simulator draws jump lengths from.

    A jump of length l from a fixation whose farthest window corner lies
    l_max away is, with probability p, uniform on [l_max / 2, l_max], and
    otherwise a gamma draw truncated at l_max. The fit maximises

        sum log[(1 - p) g(l) / G(l_max) + p (2 / l_max) 1{l >= l_max / 2}]

    over p and the gamma's shape and rate, g and G the gamma density and
    CDF. A small Nelder-Mead search moves the log shape and log mean from
    the plain :func:`fit_gamma_mle`, and at each of its points p is the
    maximiser of the likelihood. When no jump lies in its [l_max / 2,
    l_max], that p is 0 and the fit is the right-truncated gamma fit. A
    given ``p_long`` is held fixed and only the gamma is fitted; at 1 the
    gamma does not enter the likelihood, so the right-truncated fit is kept,
    as it is when the fitted p is 1. Returns ``(p, gamma)``.
    """
    lengths = _validated_sample(lengths)
    l_max = np.asarray(l_max, dtype=float).ravel()
    if l_max.shape != lengths.shape or not (np.isfinite(l_max) & (l_max > 0)).all():
        raise DataError(f"need one positive, finite l_max per jump, got shape {l_max.shape}")
    plain = fit_gamma_mle(lengths, "saccade_length")
    start = np.log([plain.shape, plain.mean])
    log_l = np.log(lengths)
    with np.errstate(divide="ignore"):
        log_uniform = np.where(lengths >= l_max / 2.0, np.log(2.0 / l_max), -np.inf)
    p = 0.0  # the last p found, where the next search for one starts

    def loglik(theta, fixed: float | None) -> float:
        """The log-likelihood at (log shape, log mean) ``theta`` and at p, which
        is ``fixed`` or else the maximiser, left in ``p``."""
        nonlocal p
        shape, mean = np.exp(theta)
        rate = shape / mean
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_g = (shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * log_l
                     - rate * lengths - np.log(gammainc(shape, rate * l_max)))
            # the uniform density over the gamma one, capped where it would overflow
            ratio = np.exp(np.minimum(log_uniform - log_g, 700.0))
            p = _best_p(ratio, p) if fixed is None else fixed
            return float(log_g.sum() + np.log1p(p * (ratio - 1.0)).sum())

    def search(fixed: float | None) -> np.ndarray:
        return _nelder_mead(lambda theta: -loglik(theta, fixed), start)

    fitted = p_long
    if fitted is None:
        theta = search(None)
        loglik(theta, None)  # leaves the maximiser at theta in p
        fitted = p
    if p_long is not None or fitted == 1.0:
        theta = search(fitted if fitted < 1.0 else 0.0)
    shape, mean = np.exp(theta)
    return float(fitted), GammaFit(float(shape), float(shape / mean), len(lengths),
                                   "saccade_length")


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
