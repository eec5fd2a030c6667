import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cviqp.analysis import (
    check_multiplicative,
    composed_postselection,
    conditional_factor,
    delta_sq_from_db,
    fault_tolerant_fourier_error,
    min_squeezing_db,
    pe_bound,
    pe_budget_check,
    solve_ft_error,
    squeezing_db,
)
from cviqp.errors import NumericalError, ValidationError


class TestPeBound:
    def test_value_at_quarter(self):
        # direct evaluation of the closed form
        expected = (2 * 0.25 / math.pi) * math.exp(-math.pi / (4 * 0.25**2))
        assert pe_bound(0.25) == pytest.approx(expected, rel=1e-15)
        assert pe_bound(0.25) == pytest.approx(5.5503e-7, rel=1e-4)

    def test_value_at_half(self):
        assert pe_bound(0.5) == pytest.approx(math.exp(-math.pi) / math.pi, rel=1e-15)

    def test_vanishes_at_zero_limit(self):
        assert pe_bound(1e-3) < 1e-300 or pe_bound(1e-3) == 0.0

    def test_strictly_increasing_on_stated_interval(self):
        # the derivative (2/pi) e^{-pi/4 d^2} (1 + pi/(2 d^2)) is positive, so
        # there is no turning point; float64 underflows to 0 below d ~ 0.034,
        # so the strict scan starts above the representable floor
        deltas = np.linspace(0.05, 0.85, 400)
        values = [pe_bound(d) for d in deltas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            pe_bound(0.0)


class TestSqueezingDb:
    def test_vacuum_is_zero_db(self):
        assert squeezing_db(0.5) == 0.0

    def test_ten_db(self):
        assert squeezing_db(0.05) == pytest.approx(10.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(db=st.floats(-20.0, 40.0, allow_nan=False))
    def test_round_trip(self, db):
        assert squeezing_db(delta_sq_from_db(db)) == pytest.approx(db, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            squeezing_db(0.0)


class TestMinSqueezingDb:
    def test_single_qubit(self):
        assert min_squeezing_db(1).min_squeezing_db == pytest.approx(2.0942, abs=1e-3)

    def test_hundred_qubits(self):
        assert min_squeezing_db(100).min_squeezing_db == pytest.approx(16.5615, abs=1e-3)

    @pytest.mark.parametrize("n", [1, 3, 10, 100, 1000, 10_000])
    def test_two_closed_forms_agree(self, n):
        # the report constructor cross-checks the dB form against the
        # direct variance bound to 1e-9 and raises otherwise
        report = min_squeezing_db(n)
        direct = (math.pi / 4.0) / (n * math.log(2) + math.log(20 / math.pi))
        assert report.min_delta_sq == pytest.approx(direct, rel=1e-12)
        assert report.min_squeezing_db == pytest.approx(squeezing_db(direct), rel=1e-9)

    def test_mean_photon_affine_in_n(self):
        slope = (4.0 / math.pi) * math.log(2.0)
        reports = [min_squeezing_db(n) for n in (1, 2, 50, 51, 999, 1000)]
        for a, b in ((0, 1), (2, 3), (4, 5)):
            measured = reports[b].mean_photon_lower - reports[a].mean_photon_lower
            assert measured == pytest.approx(slope, rel=1e-9)
        assert slope == pytest.approx(0.88254, abs=1e-5)

    def test_pe_bound_at_min_respects_budget(self):
        for n in (1, 10, 100):
            report = min_squeezing_db(n)
            assert report.pe_bound_at_min <= 0.1 * 2.0 ** (-n)

    def test_consistency_identity_dbform(self):
        report = min_squeezing_db(7)
        closed = 10 * math.log10(7 * math.log(2) - math.log(math.pi / 20)) + 10 * math.log10(
            2 / math.pi
        )
        assert report.min_squeezing_db == pytest.approx(closed, rel=1e-12)


class TestFaultTolerantFourier:
    def test_solves_to_twenty_point_five_db(self):
        sigma = solve_ft_error(1e-6)
        db = squeezing_db(sigma**2)
        assert 20.0 <= db <= 21.0

    def test_monotone_increasing_in_sigma(self):
        # the erfc evaluation stays representable down to sigma ~ 0.01
        sigmas = np.linspace(0.01, 1.0, 200)
        values = [fault_tolerant_fourier_error(s) for s in sigmas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_vanishes_for_small_sigma(self):
        assert fault_tolerant_fourier_error(0.01) < 1e-12

    def test_second_factor_dominates(self):
        # sigma_err,2 = sqrt(7) sigma > sigma_err,1 = sqrt(2) sigma, so the
        # second erf factor carries the error at sigma = 0.2
        from scipy.special import erf

        sigma = 0.2
        f1 = erf(math.sqrt(math.pi) / (2 * math.sqrt(2) * math.sqrt(2) * sigma))
        f2 = erf(math.sqrt(math.pi) / (2 * math.sqrt(2) * math.sqrt(7) * sigma))
        assert 1 - f2 > 10 * (1 - f1)
        assert fault_tolerant_fourier_error(sigma) == pytest.approx(1 - f1 * f2, rel=1e-12)


class TestSolveFtError:
    @pytest.mark.parametrize("target", [1e-9, 1e-6, 1e-3, 0.1, 0.5])
    def test_error_crosses_target_at_the_returned_float(self, target):
        sigma = solve_ft_error(target)
        here = fault_tolerant_fourier_error(sigma) - target
        below = fault_tolerant_fourier_error(math.nextafter(sigma, 0.0)) - target
        above = fault_tolerant_fourier_error(math.nextafter(sigma, math.inf)) - target
        # the other end of the final bracket is one neighbour, and the
        # returned end is the one nearer the target
        crossings = [other for other in (below, above) if here * other <= 0.0]
        assert crossings
        assert any(abs(here) <= abs(other) for other in crossings)

    def test_unreachable_target_is_a_numerical_failure(self):
        # the error at sigma = 1, the top of the bracket, is about 0.877
        with pytest.raises(NumericalError):
            solve_ft_error(0.9)


class TestMultiplicative:
    def test_equality_accepted_for_any_c(self):
        assert check_multiplicative(0.5, 0.5, 1.0)
        assert check_multiplicative(0.5, 0.5, 2 ** 0.25)

    def test_conditional_factor_endpoint(self):
        assert conditional_factor(2 ** 0.25) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_ratio_checks_recomputed(self):
        # ratio 0.13/0.1 = 1.3: outside both 1.18 and 1.15 directly, but inside
        # both squared factors 1.3924 and 1.3225 at the conditional level
        assert not check_multiplicative(0.1, 0.13, 1.18)
        assert not check_multiplicative(0.1, 0.13, 1.15)
        assert check_multiplicative(0.1, 0.13, conditional_factor(1.18))
        assert check_multiplicative(0.1, 0.13, conditional_factor(1.15))

    def test_rejects_zero_p_true(self):
        with pytest.raises(ValidationError):
            check_multiplicative(0.0, 0.1, 1.1)

    def test_rejects_c_below_one(self):
        with pytest.raises(ValidationError):
            check_multiplicative(0.5, 0.5, 0.9)


class TestPeBudget:
    def test_quarter_delta_ten_qubits(self):
        # 5.55e-7 < (1/10) 2^-10 = 9.77e-6
        assert pe_budget_check(0.25, 10)

    def test_quarter_delta_thirty_qubits(self):
        # 5.55e-7 > (1/10) 2^-30 = 9.3e-11
        assert not pe_budget_check(0.25, 30)

    def test_solved_bound_is_feasible(self):
        for n in (1, 5, 20):
            delta_at_bound = math.sqrt(min_squeezing_db(n).min_delta_sq)
            assert pe_budget_check(0.99 * delta_at_bound, n)


class TestComposedPostselection:
    def test_no_gadgets(self):
        out = composed_postselection(8, 0, 0.01, 0.1)
        assert out.probability == pytest.approx(2.0**-8, rel=1e-12)

    def test_single_gadget_matches_leading_order(self):
        out = composed_postselection(0, 1, 0.01, 0.1)
        assert out.probability == pytest.approx(2 * 0.01 * 0.1 / math.sqrt(math.pi), rel=1e-12)
        assert out.probability == pytest.approx(1.1284e-3, rel=1e-4)

    def test_log_space_finite_at_scale(self):
        out = composed_postselection(1000, 1000, 0.01, 0.1)
        assert out.probability == 0.0
        assert math.isfinite(out.log10_probability)
        assert out.log10_probability == pytest.approx(
            1000 * math.log10(2 * 0.01 * 0.1 / math.sqrt(math.pi)) - 1000 * math.log10(2.0),
            rel=1e-12,
        )

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 50), l=st.integers(0, 50))
    def test_monotone_decreasing(self, n, l):
        base = composed_postselection(n, l, 0.01, 0.1).log10_probability
        assert composed_postselection(n + 1, l, 0.01, 0.1).log10_probability < base
        assert composed_postselection(n, l + 1, 0.01, 0.1).log10_probability < base
