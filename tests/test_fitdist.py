import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import gamma as gamma_dist, kstest

from fixproc import (
    DataError,
    GammaFit,
    NumericError,
    acf,
    fit_gamma_mle,
    fixed_fit_qq,
    gamma_qq,
    law_sample,
    sample_truncated_gamma,
)
from fixproc.fitdist import (FIT_SOURCES, _gamma_mle_rows, _nelder_mead, fit_jump_mixture,
                             fit_law, jump_sample)
from fixproc.rng import substream
from helpers import (WINDOW, derive_saccades_reference, jump_sample_reference,
                     simulated_dataset, toy_model, valid_saccade_values_reference)
from test_ingest import _saccade_cases


class TestGammaFit:
    def test_moments(self):
        fit = GammaFit(2.0, 0.01, 100, "fixation_duration")
        assert fit.mean == 200.0

    def test_invalid_params_rejected(self):
        with pytest.raises(NumericError):
            GammaFit(-1.0, 1.0, 10, "fixation_duration")
        with pytest.raises(DataError):
            GammaFit(1.0, 1.0, 10, "blood_pressure")


class TestLawSample:
    # fit, qq and build_model each fit a law to law_sample of its sequences
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_scalar_reference_for_each_source(self, seed):
        cases = _saccade_cases(np.random.default_rng(seed))
        seqs = [seq for seq, _ in cases]
        jumps = {(seq.subject_id, seq.painting_id): derive_saccades_reference(seq, exclusions)
                 for seq, exclusions in cases}
        for source in FIT_SOURCES:
            if source == "fixation_duration":
                want = [d for seq in seqs for d in seq.durations.tolist()]
            else:
                attr = source.removeprefix("saccade_")
                want = valid_saccade_values_reference(seqs, jumps, attr)
            got = law_sample(seqs, source)
            assert got.dtype == np.float64 and got.tolist() == want

    def test_unknown_source_is_refused(self):
        with pytest.raises(DataError, match="unknown source 'blink'"):
            law_sample([], "blink")


class TestFitGammaMLE:
    def test_recovers_shape_2(self):
        rng = np.random.default_rng(101)
        fit = fit_gamma_mle(rng.gamma(2.0, 100.0, 100_000))
        assert 1.94 <= fit.shape <= 2.06
        assert fit.rate == pytest.approx(0.01, rel=0.03)

    def test_recovers_exponential(self):
        rng = np.random.default_rng(102)
        fit = fit_gamma_mle(rng.exponential(50.0, 100_000))
        assert 0.95 <= fit.shape <= 1.05

    def test_round_trip_three_percent(self):
        rng = np.random.default_rng(103)
        truth = GammaFit(2.4, 1 / 130.0, 1, "fixation_duration")
        draws = rng.gamma(truth.shape, 1.0 / truth.rate, size=100_000)
        fit = fit_gamma_mle(draws)
        assert fit.shape == pytest.approx(truth.shape, rel=0.03)
        assert fit.rate == pytest.approx(truth.rate, rel=0.03)

    def test_constant_sample_degenerate(self):
        with pytest.raises(NumericError, match="degenerate"):
            fit_gamma_mle(np.full(50, 3.3))

    def test_nonpositive_rejected(self):
        with pytest.raises(DataError):
            fit_gamma_mle([1.0, -2.0, 3.0])

    def test_mle_beats_moment_estimator(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            sample = rng.gamma(rng.uniform(0.5, 5), rng.uniform(10, 200), 400)
            fit = fit_gamma_mle(sample)
            mean, var = sample.mean(), sample.var()
            moment = GammaFit(mean**2 / var, mean / var, len(sample), "fixation_duration")
            assert fit.loglik(sample) >= moment.loglik(sample) - 1e-8


def _mixture_draws(rng, n, p, shape, scale):
    """n jumps of the simulator's length law from uniform l_max in [400, 1000]:
    uniform on [l_max / 2, l_max] with probability p, else a gamma draw
    truncated at l_max."""
    l_max = rng.uniform(400.0, 1000.0, n)
    top = gamma_dist.cdf(l_max, shape, scale=scale)
    short = gamma_dist.ppf(rng.random(n) * top, shape, scale=scale)
    long = rng.uniform(l_max / 2.0, l_max)
    return np.where(rng.random(n) < p, long, short), l_max


def _mixture_loglik(lengths, l_max, p, shape, rate):
    """The mixture's log-likelihood by scipy.stats, term by term."""
    g = gamma_dist.pdf(lengths, shape, scale=1.0 / rate)
    big = gamma_dist.cdf(l_max, shape, scale=1.0 / rate)
    uniform = np.where(lengths >= l_max / 2.0, 2.0 / l_max, 0.0)
    return float(np.sum(np.log((1.0 - p) * g / big + p * uniform)))


class TestFitJumpMixture:
    def test_recovers_p_and_the_gamma(self):
        lengths, l_max = _mixture_draws(np.random.default_rng(7), 20_000, 0.2, 1.8, 80.0)
        p, fit = fit_jump_mixture(lengths, l_max)
        assert p == pytest.approx(0.2, abs=0.01)
        assert fit.shape == pytest.approx(1.8, abs=0.05)
        assert fit.mean == pytest.approx(144.0, rel=0.02)
        assert fit.n == len(lengths) and fit.source == "saccade_length"

    @pytest.mark.parametrize("p_long", [None, 0.0, 0.35])
    def test_is_the_maximum_a_general_optimiser_finds(self, p_long):
        # scipy's Nelder-Mead on the likelihood written with scipy.stats, over
        # (logit p, log shape, log rate), from the plain gamma fit
        from scipy.optimize import minimize

        lengths, l_max = _mixture_draws(np.random.default_rng(8), 2_000, 0.3, 1.5, 120.0)
        p, fit = fit_jump_mixture(lengths, l_max, p_long)
        plain = fit_gamma_mle(lengths)

        def cost(x):
            q = p_long if p_long is not None else 1.0 / (1.0 + np.exp(-x[2]))
            return -_mixture_loglik(lengths, l_max, q, np.exp(x[0]), np.exp(x[1]))

        start = [np.log(plain.shape), np.log(plain.rate)] + ([0.0] if p_long is None else [])
        best = minimize(cost, start, method="Nelder-Mead",
                        options=dict(xatol=1e-9, fatol=1e-10, maxiter=20_000))
        ours = _mixture_loglik(lengths, l_max, p, fit.shape, fit.rate)
        assert ours >= -best.fun - 1e-6
        if p_long is not None:
            assert p == p_long

    def test_no_long_jump_gives_p_0_and_the_right_truncated_fit(self):
        rng = np.random.default_rng(9)
        l_max = rng.uniform(2000.0, 4000.0, 500)
        lengths = rng.gamma(2.0, 40.0, 500)
        assert (lengths < l_max / 2.0).all()
        p, fit = fit_jump_mixture(lengths, l_max)
        assert p == 0.0
        assert fit_jump_mixture(lengths, l_max, 0.0) == (0.0, fit)
        # truncation where the gamma has no mass left: the plain gamma fit, to
        # the search's tolerance
        plain = fit_gamma_mle(lengths)
        assert fit.shape == pytest.approx(plain.shape, rel=1e-4)
        assert fit.rate == pytest.approx(plain.rate, rel=1e-4)

    def test_p_1_keeps_the_right_truncated_fit(self):
        # at p = 1 the gamma leaves the likelihood; the fit at p = 0 is kept
        lengths, l_max = _mixture_draws(np.random.default_rng(10), 1_000, 0.2, 1.8, 80.0)
        assert fit_jump_mixture(lengths, l_max, 1.0) == (
            1.0, fit_jump_mixture(lengths, l_max, 0.0)[1])

    def test_l_max_must_match_the_lengths(self):
        with pytest.raises(DataError, match="l_max"):
            fit_jump_mixture([10.0, 20.0, 30.0], [500.0, 600.0])
        with pytest.raises(DataError, match="l_max"):
            fit_jump_mixture([10.0, 20.0], [500.0, np.inf])


class TestNelderMead:
    def test_a_cost_of_minus_inf_is_no_minimum(self):
        # a truncated likelihood whose gamma CDF underflows to 0 at l_max
        # gives log-likelihood +inf, a cost of -inf; the search took that
        # vertex as its best and ended there
        def cost(x):
            return -np.inf if x[0] > 1.0 else float((x[0] - 0.2) ** 2)

        best = _nelder_mead(cost, np.array([0.95]))
        assert best[0] == pytest.approx(0.2, abs=1e-4)


class TestJumpSample:
    def test_lengths_are_the_law_sample_and_l_max_the_far_corner(self):
        cases = _saccade_cases(np.random.default_rng(3))
        seqs = [seq for seq, _ in cases]
        jumps = {(seq.subject_id, seq.painting_id): derive_saccades_reference(seq, exclusions)
                 for seq, exclusions in cases}
        lengths, l_max = jump_sample(seqs, WINDOW)
        expected = jump_sample_reference(seqs, jumps, WINDOW)
        assert lengths.tolist() == expected[0] == law_sample(seqs, "saccade_length").tolist()
        np.testing.assert_allclose(l_max, expected[1], rtol=1e-15, atol=0)


class TestFitLaw:
    # the one rule by which build_model, fit and qq choose each law's
    # sequences, sample and fit
    def test_sequences_sample_and_fit_of_each_source(self):
        d = simulated_dataset(toy_model(trial_length=5_000.0), n_subjects=6, seed=3)
        for group in ("novice", "non_novice", None):
            for source in FIT_SOURCES:
                law = fit_law(d, group, source)
                # saccade durations pool both groups whatever the group
                pooled = group is None or source == "saccade_duration"
                seqs = d.sequences if pooled else d.by_group(group)
                assert law.sample.tolist() == law_sample(seqs, source).tolist()
                if source == "saccade_length":
                    assert (law.p_long, law.fit) == fit_jump_mixture(*jump_sample(seqs, d.window))
                else:
                    assert law.p_long is None and law.fit == fit_gamma_mle(law.sample, source)

    def test_given_p_long_is_held(self):
        d = simulated_dataset(toy_model(trial_length=5_000.0), n_subjects=6, seed=3)
        lengths, l_max = jump_sample(d.by_group("novice"), d.window)
        law = fit_law(d, "novice", "saccade_length", 0.3)
        assert (law.p_long, law.fit) == fit_jump_mixture(lengths, l_max, 0.3)
        assert fit_law(d, "novice", "fixation_duration", 0.3).p_long is None


class TestGammaQQ:
    def test_exact_quantiles_on_the_line(self):
        fit = GammaFit(2.0, 0.01, 500, "fixation_duration")
        n = 500
        sample = fit.quantile((np.arange(1, n + 1) - 0.5) / n)
        band = gamma_qq(sample, fit, seed=1)
        assert np.allclose(band.theoretical, band.empirical, rtol=1e-9)
        assert band.line_inside()

    def test_calibration(self):
        # the fixed-fit band that qq --source saccade_length keeps
        rng = np.random.default_rng(105)
        inside = 0
        for _ in range(500):
            sample = rng.gamma(2.0, 150.0, 500)
            band = fixed_fit_qq(sample, fit_gamma_mle(sample))
            inside += band.line_inside()
        assert inside / 500 >= 0.93

    def test_heavy_tail_violates_band(self):
        rng = np.random.default_rng(106)
        sample = rng.lognormal(5.0, 1.5, 2000)
        band = gamma_qq(sample, fit_gamma_mle(sample), seed=2)
        assert not band.line_inside()
        assert band.p_value == 1 / 1000  # no bootstrap sample is as far from its fit

    def test_band_ordering(self):
        rng = np.random.default_rng(107)
        sample = rng.gamma(3.0, 80.0, 200)
        band = gamma_qq(sample, fit_gamma_mle(sample), seed=3)
        assert np.all(band.lower <= band.upper)


class TestBootstrapQQ:
    """The QQ band of a fit made from its own sample (ROADMAP item 4)."""

    def test_exit_rate_holds_its_level(self):
        # the fixed-fit KS band was left by 0 of 400 such samples
        rng = np.random.default_rng(110)
        trials, exits = 300, 0
        for i in range(trials):
            sample = rng.gamma(2.0, 150.0, 50)
            exits += not gamma_qq(sample, fit_gamma_mle(sample), 0.05, seed=i).line_inside()
        assert abs(exits / trials - 0.05) <= 0.03

    def test_rejects_lognormal_durations_the_fixed_fit_band_keeps(self):
        # power against a near-gamma law: lognormal(5, 0.65) samples of 200
        # left the bootstrap band in 38 of 60 and the fixed-fit one in 4
        rng = np.random.default_rng(115)
        trials, boot, fixed = 60, 0, 0
        for i in range(trials):
            sample = rng.lognormal(5.0, 0.65, 200)
            fit = fit_gamma_mle(sample)
            boot += not gamma_qq(sample, fit, 0.05, seed=i, n_boot=199).line_inside()
            fixed += not fixed_fit_qq(sample, fit, 0.05).line_inside()
        assert boot / trials >= 0.35 and fixed / trials <= 0.15

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_line_inside_exactly_when_d_is_at_most_the_critical_value(self, alpha):
        rng = np.random.default_rng(111)
        seen = set()
        for i in range(40):
            sample = rng.gamma(2.0, 150.0, 30) if i % 2 else rng.lognormal(5.0, 0.8, 30)
            fit = fit_gamma_mle(sample)
            band = gamma_qq(sample, fit, alpha, seed=i, n_boot=99)
            d = kstest(sample, gamma_dist(fit.shape, scale=1 / fit.rate).cdf).statistic
            inside = band.line_inside()
            assert inside == (np.sqrt(30) * d <= band.critical_value)
            assert inside == (band.p_value > alpha)
            seen.add(inside)
        assert seen == {True, False}

    def test_critical_value_is_an_order_statistic_of_the_draws(self):
        sample = np.random.default_rng(112).gamma(2.0, 150.0, 40)
        fit = fit_gamma_mle(sample)
        band = gamma_qq(sample, fit, 0.1, seed=5, n_boot=19)
        boot = []
        for b in range(19):
            draw = np.sort(substream(5, "qq", b).standard_gamma(fit.shape, 40) / fit.rate)
            refit = fit_gamma_mle(draw)
            boot.append(kstest(draw, gamma_dist(refit.shape, scale=1 / refit.rate).cdf).statistic)
        # the ceil(0.9 * 20) = 18th smallest of 19
        assert band.critical_value == pytest.approx(np.sqrt(40) * np.sort(boot)[17], rel=1e-12)
        d = kstest(sample, gamma_dist(fit.shape, scale=1 / fit.rate).cdf).statistic
        assert band.p_value == (1 + sum(b >= d for b in boot)) / 20
        # past the last draw the band is everything
        wide = gamma_qq(sample, fit, 0.01, seed=5, n_boot=19)
        assert wide.critical_value == np.inf and wide.line_inside() and wide.p_value > 0.01

    def test_same_seed_same_band(self):
        sample = np.random.default_rng(113).gamma(2.0, 150.0, 60)
        fit = fit_gamma_mle(sample)
        one, two = (gamma_qq(sample, fit, seed=9) for _ in range(2))
        assert one.upper.tobytes() == two.upper.tobytes() and one.p_value == two.p_value
        assert gamma_qq(sample, fit, seed=10).critical_value != one.critical_value

    def test_refits_are_fit_gamma_mle_of_each_row(self):
        rows = np.random.default_rng(114).gamma(1.5, 30.0, (50, 80))
        shape, rate = _gamma_mle_rows(rows)
        for i, row in enumerate(rows):
            fit = fit_gamma_mle(row)
            assert (shape[i], rate[i]) == (fit.shape, fit.rate)


class TestTruncatedSampler:
    FIT = GammaFit(2.0, 1.0, 1, "saccade_length")

    def test_infinite_upper_matches_plain_gamma(self):
        rng = np.random.default_rng(108)
        draws = sample_truncated_gamma(self.FIT, np.inf, rng, size=100_000)
        assert kstest(draws, gamma_dist(a=2.0).cdf).statistic < 0.01

    def test_hard_upper_bound(self):
        rng = np.random.default_rng(109)
        draws = sample_truncated_gamma(self.FIT, 2.0, rng, size=50_000)
        assert np.max(draws) <= 2.0
        assert np.min(draws) > 0.0

    def test_truncated_mean_vs_quadrature(self):
        rng = np.random.default_rng(110)
        draws = sample_truncated_gamma(self.FIT, 2.0, rng, size=1_000_000)
        pdf = gamma_dist(a=2.0).pdf
        num, _ = quad(lambda x: x * pdf(x), 0, 2.0)
        expected = num / float(gammainc(2.0, 2.0))
        assert draws.mean() == pytest.approx(expected, rel=0.005)

    def test_ks_against_analytic_truncated_cdf(self):
        rng = np.random.default_rng(111)
        upper = 2.0
        draws = sample_truncated_gamma(self.FIT, upper, rng, size=100_000)
        mass = float(gammainc(2.0, upper))
        cdf = lambda x: np.clip(gammainc(2.0, np.clip(x, 0, upper)), 0, mass) / mass
        assert kstest(draws, cdf).statistic < 0.005

    def test_lower_truncation(self):
        rng = np.random.default_rng(112)
        draws = sample_truncated_gamma(self.FIT, np.inf, rng, lower=1.5, size=20_000)
        assert np.min(draws) > 1.5

    def test_no_mass_region_rejected(self):
        tight = GammaFit(5.0, 1.0, 1, "saccade_length")
        with pytest.raises(NumericError):
            sample_truncated_gamma(tight, 1e-200, np.random.default_rng(0))

    def test_bad_interval_rejected(self):
        with pytest.raises(DataError):
            sample_truncated_gamma(self.FIT, 1.0, np.random.default_rng(0), lower=2.0)


class TestTruncatedQuantile:
    FIT = GammaFit(2.5, 0.01, 1, "fixation_duration")

    @pytest.mark.parametrize("lower", [0.0, 40.0])
    def test_vector_call_equals_scalar_calls_bit_for_bit(self, lower):
        rng = np.random.default_rng(114)
        upper = np.array([60.0, 100.0, np.inf, 250.0, 1e4, np.inf, 41.0] * 30)
        u = rng.random(len(upper))
        u[:4] = [0.0, 1.0, 0.5, np.nextafter(1.0, 0.0)]
        got = self.FIT.truncated_quantile(u, lower, upper)
        one_by_one = [float(self.FIT.truncated_quantile(a, lower, b)) for a, b in zip(u, upper)]
        assert got.tobytes() == np.array(one_by_one).tobytes()
        assert np.all(got <= upper)
        # level 0 lands on a lower bound of 0; a positive one is clamped above
        assert np.all(got > lower) if lower else np.all(got >= 0.0)

    def test_scalar_upper_broadcasts_over_levels(self):
        u = np.random.default_rng(115).random(50)
        got = self.FIT.truncated_quantile(u, 40.0, np.inf)
        assert got.tobytes() == self.FIT.truncated_quantile(u, 40.0, np.full(50, np.inf)).tobytes()

    def test_first_interval_without_mass_is_named(self):
        tight = GammaFit(5.0, 1.0, 1, "saccade_length")
        upper = np.array([1.0, 1e-200, 2.0, 1e-250, 1e-300])
        with pytest.raises(NumericError, match=r"^truncation region \(0\.0, 1e-200\] has no"):
            tight.truncated_quantile(np.full(5, 0.5), 0.0, upper)

    @pytest.mark.parametrize("upper", [40.0, 39.0, np.nan])
    def test_upper_at_or_below_lower_rejected(self, upper):
        with pytest.raises(DataError, match="need upper > lower"):
            self.FIT.truncated_quantile(np.full(3, 0.5), 40.0, np.array([100.0, upper, np.inf]))


class TestAcf:
    def test_white_noise_small(self):
        rng = np.random.default_rng(113)
        series = rng.normal(0, 1, 5000)
        r = acf(series, 20)
        assert np.mean(np.abs(r) < 2 / np.sqrt(5000)) >= 0.8

    def test_alternating_series(self):
        r = acf(np.tile([1.0, -1.0], 2500), 1)
        assert r[0] == pytest.approx(-1.0, abs=1e-3)

    def test_ar1_recovery(self):
        rng = np.random.default_rng(114)
        n = 10_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.normal(0, 1, n)
        for t in range(1, n):
            x[t] = 0.8 * x[t - 1] + eps[t]
        r = acf(x, 1)
        assert 0.75 <= r[0] <= 0.85

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericError):
            acf(np.ones(100), 5)

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            acf([1.0, 2.0], 5)
