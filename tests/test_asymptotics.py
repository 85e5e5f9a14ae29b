"""Efficiency formulas, the trimmed-moment integral cross-checks, and
influence functions, pinned against independently known values."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from severfit.dist import ExponentialModel, ThresholdPair, exp_quantile
from severfit.errors import DegenerateError
from severfit.framework import adapter_from_model
from severfit.asymptotics import (
    are,
    are_mcm,
    are_mtcm,
    are_mtm,
    are_mtum,
    are_table,
    are_table_csv,
    avar,
    influence_curve,
    influence_mcm,
    influence_mtm,
    mtm_integral_I,
    mtm_integral_J,
    default_grid,
)
from severfit.moments import sigma_mcm2, tail_quantities, truncated_summary

THETA = 10.0
EXP10 = ExponentialModel(THETA)
ADAPTER = adapter_from_model(EXP10)


def quantile_pair(a, b, theta=THETA):
    d = exp_quantile(ExponentialModel(theta), a)
    u = math.inf if b == 0.0 else exp_quantile(ExponentialModel(theta), 1.0 - b)
    return ThresholdPair(d, u)


class TestAreClosedForms:
    def test_boxed_reference_cells(self):
        t = quantile_pair(0.05, 0.05)
        assert are_mtum(THETA, t) == pytest.approx(0.443, abs=1e-3)
        assert are_mcm(THETA, t) == pytest.approx(0.918, abs=1e-3)
        assert are_mtcm(THETA, t) == pytest.approx(0.868, abs=1e-3)

    def test_untruncated_is_fully_efficient(self):
        t = ThresholdPair(0.0, math.inf)
        for fn in (are_mtum, are_mcm, are_mtcm):
            assert fn(THETA, t) == pytest.approx(1.0, abs=1e-14)

    def test_mtum_infinite_u_is_survival(self):
        for d in (0.5, 2.88, 12.04):
            t = ThresholdPair(d, math.inf)
            assert are_mtum(THETA, t) == pytest.approx(math.exp(-d / THETA), abs=1e-12)
            assert are_mtcm(THETA, t) == pytest.approx(math.exp(-d / THETA), abs=1e-12)

    def test_mtum_printed_form_identity(self):
        # product form equals the printed ratio form
        for t in (ThresholdPair(0.51, 29.96), ThresholdPair(2.0, 8.0)):
            q = tail_quantities(THETA, t)
            printed = (
                q.p**2 * THETA**2 - math.exp(-(t.d + t.u) / THETA) * (t.u - t.d) ** 2
            ) / (q.p * THETA**2)
            assert are_mtum(THETA, t) == pytest.approx(printed, rel=1e-12)

    def test_mcm_as_moment_ratio(self):
        t = ThresholdPair(2.88, 13.86)
        mu_y = truncated_summary(THETA, t).mu_y
        assert are_mcm(THETA, t) == pytest.approx(mu_y**2 / sigma_mcm2(THETA, t), rel=1e-14)
        assert are_mcm(THETA, t) == pytest.approx(0.679, abs=1e-3)

    def test_mtcm_asymmetric_cell(self):
        assert are_mtcm(THETA, quantile_pair(0.10, 0.70)) == pytest.approx(0.156, abs=1e-3)

    def test_d0_collapse_mtcm_equals_mcm(self):
        for b in (0.05, 0.10, 0.25, 0.49, 0.85):
            t = quantile_pair(0.0, b)
            assert are_mtcm(THETA, t) == pytest.approx(are_mcm(THETA, t), abs=1e-10)

    def test_ordering_across_grid(self):
        for a in (0.0, 0.05, 0.15, 0.25):
            for b in (0.05, 0.10, 0.25):
                t = quantile_pair(a, b)
                v_mtum, v_mtcm, v_mcm = (
                    are_mtum(THETA, t),
                    are_mtcm(THETA, t),
                    are_mcm(THETA, t),
                )
                assert v_mtum <= v_mtcm + 1e-12
                assert v_mtcm <= v_mcm + 1e-12
                assert 0.0 < v_mtum <= 1.0 and v_mcm <= 1.0

    def test_dispatch(self):
        t = quantile_pair(0.05, 0.05)
        assert are("mtum", THETA, t) == are_mtum(THETA, t)
        with pytest.raises(ValueError):
            are("winsorized", THETA, t)


class TestAvar:
    def test_mle_reduction(self):
        assert avar("mle", THETA) == pytest.approx(100.0)
        assert avar("mcm", THETA, ThresholdPair(0.0, math.inf)) == pytest.approx(100.0)

    def test_theta2_over_are_identity(self):
        t = ThresholdPair(0.51, 29.96)
        for method in ("mtum", "mcm", "mtcm"):
            value = avar(method, THETA, t)
            assert value * are(method, THETA, t) == pytest.approx(THETA**2, abs=1e-12)

    def test_mtum_equals_printed_variance_display(self):
        t = ThresholdPair(0.51, 29.96)
        q = tail_quantities(THETA, t)
        printed = (THETA**2) * (q.p * THETA**2) / (
            q.p**2 * THETA**2 - math.exp(-(t.d + t.u) / THETA) * (t.u - t.d) ** 2
        )
        assert avar("mtum", THETA, t) == pytest.approx(printed, rel=1e-12)

    def test_degenerate_window(self):
        # survival at d underflows: the efficiency is a true machine zero
        with pytest.raises(DegenerateError):
            avar("mtum", 1e-3, ThresholdPair(5.0, 6.0))

    def test_missing_thresholds(self):
        with pytest.raises(ValueError):
            avar("mtum", THETA)

    def test_unevaluable_efficiency(self):
        # the MTCM closed form divides 0 by 0 at this theta; avar reports it as degenerate
        with pytest.raises(DegenerateError):
            avar("mtcm", 1e10, ThresholdPair(1.0, 11.0))


class TestTrimmedIntegrals:
    def test_i_closed_form_against_quadrature(self):
        for a, ub in [(0.0, 1.0), (0.05, 0.95), (0.25, 0.75), (0.1, 0.3)]:
            oracle, _ = quad(lambda v: math.log1p(-v), a, ub, epsabs=1e-13, limit=300)
            assert mtm_integral_I(a, ub) == pytest.approx(oracle, abs=1e-10)

    def test_j_untrimmed_is_one(self):
        assert mtm_integral_J(0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
        assert are_mtm(0.0, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_j_matches_censored_variance_ratio(self):
        for a, b in [(0.05, 0.05), (0.10, 0.10), (0.25, 0.0), (0.0, 0.49)]:
            t = quantile_pair(a, b)
            assert mtm_integral_J(a, 1.0 - b) == pytest.approx(
                sigma_mcm2(THETA, t) / THETA**2, abs=1e-6
            )

    def test_trimmed_equals_censored_efficiency(self):
        assert are_mtm(0.05, 0.05) == pytest.approx(0.918, abs=1e-3)
        assert are_mtm(0.05, 0.05) == pytest.approx(
            are_mcm(THETA, quantile_pair(0.05, 0.05)), abs=1e-6
        )

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            mtm_integral_I(0.5, 0.4)
        with pytest.raises(ValueError):
            mtm_integral_J(-0.1, 0.9)


class TestInfluence:
    def test_untrimmed_is_influence_of_mean(self):
        for x in (0.0, 3.0, 10.0, 42.0):
            assert influence_mtm(ADAPTER, 0.0, 0.0, x) == pytest.approx(x - THETA, abs=1e-8)
            t = ThresholdPair(0.0, math.inf)
            assert influence_mcm(ADAPTER, t, x) == pytest.approx(x - THETA, abs=1e-8)

    def test_zero_mean_under_model(self):
        # E_F[IF(X)] = 0, integrated in the quantile domain
        value, _ = quad(
            lambda v: influence_mtm(ADAPTER, 0.05, 0.05, ADAPTER.quantile(v)),
            0.0,
            1.0,
            epsabs=1e-10,
            limit=300,
        )
        assert abs(value) < 1e-8

    def test_contraction_identity(self):
        a = b = 0.05
        t = quantile_pair(a, b)
        for x in np.linspace(0.0, 40.0, 21):
            lhs = influence_mcm(ADAPTER, t, float(x))
            rhs = (1.0 - a - b) * influence_mtm(ADAPTER, a, b, float(x))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_monotone_then_flat_shape(self):
        a = b = 0.05
        t = quantile_pair(a, b)
        xs = np.linspace(0.0, 50.0, 41)
        values = [influence_mtm(ADAPTER, a, b, float(x)) for x in xs]
        assert all(later >= earlier - 1e-10 for earlier, later in zip(values, values[1:]))
        # constant below the lower and above the upper threshold
        low = [influence_mtm(ADAPTER, a, b, x) for x in (0.0, 0.2, t.d * 0.99)]
        high = [influence_mtm(ADAPTER, a, b, x) for x in (t.u * 1.01, t.u * 2, t.u * 5)]
        assert max(low) - min(low) < 1e-9
        assert max(high) - min(high) < 1e-9
        # linear with slope 1/(1-a-b) inside the window
        inside = [influence_mtm(ADAPTER, a, b, x) for x in (5.0, 6.0)]
        assert inside[1] - inside[0] == pytest.approx(1.0 / (1 - a - b), abs=1e-7)

    def test_curve_container(self):
        curve = influence_curve(ADAPTER, "mtm", 0.05, 0.05, np.linspace(0, 30, 7))
        assert curve.values.shape == (7,)
        with pytest.raises(ValueError):
            influence_curve(ADAPTER, "trimmed", 0.05, 0.05, [0.0, 1.0])

    def test_invalid_mass(self):
        with pytest.raises(ValueError):
            influence_mtm(ADAPTER, 0.6, 0.5, 1.0)


class TestAreTable:
    def test_shape_and_absent_cells(self):
        reports = are_table(THETA)
        grid = default_grid()
        assert len(reports) == 3 * len(grid) * len(grid)
        absent = [(r.a, r.b) for r in reports if r.are is None and r.method == "mcm"]
        expected_absent = [(a, b) for a in grid for b in grid if a + b >= 1.0 - 1e-15]
        assert sorted(absent) == sorted(expected_absent)

    def test_avar_consistency(self):
        for r in are_table(THETA, (0.0, 0.05), (0.0, 0.05)):
            if r.are is not None:
                assert r.avar_per_obs * r.are == pytest.approx(THETA**2, abs=1e-12)
                assert 0.0 < r.are <= 1.0

    def test_quantile_thresholds_are_exact(self):
        reports = are_table(THETA, (0.05,), (0.10,), methods=("mtum",))
        r = reports[0]
        assert r.d == pytest.approx(exp_quantile(EXP10, 0.05), rel=1e-14)
        assert r.u == pytest.approx(exp_quantile(EXP10, 0.90), rel=1e-14)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            are_table(THETA, (0.1, 0.05), (0.0,))

    def test_csv_round_trip(self):
        reports = are_table(THETA, (0.0, 0.85), (0.0, 0.05, 0.85), methods=("mcm",))
        text = are_table_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "method,a,b,d,u,are,reason"
        assert len(lines) == 1 + len(reports)
        # absent cell carries the reason and an empty are field
        absent_rows = [ln for ln in lines[1:] if ln.endswith("d>=u")]
        assert len(absent_rows) == 1  # only (0.85, 0.85) has a + b >= 1
        parsed = [ln.split(",") for ln in lines[1:]]
        for row in parsed:
            if row[5]:
                assert float(row[5]) > 0
        # re-serializing parsed floats reproduces the text exactly
        rebuilt = ["method,a,b,d,u,are,reason"]
        for row in parsed:
            rebuilt.append(
                ",".join(
                    [
                        row[0],
                        repr(float(row[1])),
                        repr(float(row[2])),
                        repr(float(row[3])),
                        "inf" if row[4] == "inf" else repr(float(row[4])),
                        "" if row[5] == "" else repr(float(row[5])),
                        row[6],
                    ]
                )
            )
        assert "\n".join(rebuilt) + "\n" == text


class TestStability:
    def test_are_invariant_under_rescaling(self):
        # fixed tail probabilities, any scale: identical efficiencies
        for a, b in [(0.05, 0.05), (0.10, 0.25), (0.25, 0.0)]:
            reference = {
                m: are(m, 1.0, quantile_pair(a, b, 1.0)) for m in ("mtum", "mcm", "mtcm")
            }
            for theta in (0.1, 10.0, 250.0):
                t = quantile_pair(a, b, theta)
                for m, ref in reference.items():
                    assert are(m, theta, t) == pytest.approx(ref, abs=1e-10)
