import json
import math

import pytest

from meanval import cli
from meanval.arith import ArithParams
from meanval.coeffs import ConstantsBundle, bundle
from meanval.errors import ConfigError, InsufficientDataError
from meanval.fit import fit_exponent, residuals
from meanval.sieve import SummatoryRow, SummatoryTable, geometric_checkpoints, summatory

GAMMA = 0.5772156649015329


def toy_bundle(params: ArithParams, c: float = 0.7, hp: float = 0.5) -> ConstantsBundle:
    b = hp + 2 * GAMMA * c
    return ConstantsBundle(
        params=params,
        prime_cutoff=100,
        leading=c,
        cofactor_deriv=hp,
        pole_coeff=b,
        x_coeff=b - c,
        tail_bounds={"C": 1e-9, "H1_prime": 1e-9, "B": 1e-9, "K": 1e-9},
    )


def synthetic_table(params: ArithParams, consts: ConstantsBundle, limit: int, resid_fn):
    rows = []
    for x in geometric_checkpoints(limit):
        main = consts.main_term(x)
        s = main + resid_fn(x)
        rows.append(SummatoryRow(x=x, value=s, main=main, residual=s - main, err_bound=1e-12))
    return SummatoryTable(params=params, limit=limit, mode="float", rows=tuple(rows))


class TestResiduals:
    def test_x_equals_one(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        table = summatory(params, 10, grid=[1, 10])
        rep = residuals(table, consts)
        assert rep.xs[0] == 1
        # ln 1 = 0, so R(1) = S(1) - K = 1 - K
        assert rep.residuals[0] == pytest.approx(1.0 - consts.x_coeff, abs=1e-15)

    def test_plug_in_at_ten(self):
        params = ArithParams(2, 1.0)
        consts = bundle(params, 10**4)
        table = summatory(params, 10, grid=[10])
        rep = residuals(table, consts)
        expected = 24.0 - consts.leading * 10 * math.log(10) - 10 * consts.x_coeff
        assert rep.residuals[0] == pytest.approx(expected, abs=1e-12)

    def test_exact_mode_subtraction_avoids_cancellation(self):
        # S ~ 1.2e8 here; the rational-path residual must not lose the
        # low-order digits to float cancellation
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        table = summatory(params, 10**6, grid=[10**6])
        rep = residuals(table, consts)
        from fractions import Fraction

        exact = float(table.rows[0].value - Fraction(consts.main_term(10**6)))
        assert rep.residuals[0] == exact

    def test_params_mismatch_rejected(self):
        table = summatory(ArithParams(2, 1.0), 10)
        consts = toy_bundle(ArithParams(3, 1.0))
        with pytest.raises(ConfigError):
            residuals(table, consts)

    def test_sign_changes_counted(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**5, lambda x: math.cos(math.log(x)) * x**0.4)
        rep = residuals(t, consts)
        assert rep.sign_changes >= 1


class TestFitExponent:
    def test_pure_power_law(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**7, lambda x: x**0.5)
        rep = fit_exponent(residuals(t, consts))
        assert abs(rep.theta - 0.5) < 1e-6
        assert rep.rss < 1e-12
        assert rep.points_used >= 30

    def test_negative_power_law(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**7, lambda x: -3.0 * x**0.45)
        rep = fit_exponent(residuals(t, consts))
        assert abs(rep.theta - 0.45) < 1e-6

    def test_oscillatory_power_law(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(
            params, consts, 10**7, lambda x: x**0.5 * (2.0 + math.sin(math.log(x)))
        )
        rep = fit_exponent(residuals(t, consts))
        assert abs(rep.theta - 0.5) < 0.05

    def test_witness_scalar(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**6, lambda x: 2.0 * x**0.6)
        rep = fit_exponent(residuals(t, consts))
        assert rep.witness == pytest.approx(2.0, rel=1e-12)

    def test_insufficient_points(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        table = summatory(params, 10**4, grid=[1000, 2000, 4000, 8000, 10000])
        rep = residuals(table, consts)
        with pytest.raises(InsufficientDataError):
            fit_exponent(rep)

    def test_near_zero_residuals_filtered(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        # residuals far below the 1e-6*sqrt(x) floor at every checkpoint
        t = synthetic_table(params, consts, 10**7, lambda x: 1e-12)
        rep = residuals(t, consts)
        with pytest.raises(InsufficientDataError):
            fit_exponent(rep)

    def test_determinism(self):
        params = ArithParams(2, 1.0)
        consts = bundle(params, 10**4)
        t = summatory(params, 10**5)
        a = fit_exponent(residuals(t, consts))
        b = fit_exponent(residuals(t, consts))
        assert a == b

    def test_x_min_respected(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**7, lambda x: x**0.5)
        rep = fit_exponent(residuals(t, consts), x_min=10**4)
        assert rep.x_min == 10**4
        assert rep.points_used == sum(1 for x in rep.xs if x >= 10**4)


class TestDiagnostics:
    def test_absent_at_weight_one(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**6, lambda x: x**0.5)
        rep = fit_exponent(residuals(t, consts))
        assert rep.diagnostics is None

    def test_present_and_labeled_otherwise(self):
        params = ArithParams(2, 2.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**6, lambda x: x**0.5)
        rep = fit_exponent(residuals(t, consts))
        assert rep.diagnostics is not None
        assert "descriptive only" in rep.diagnostics["note"]
        assert float(rep.diagnostics["S_over_x_lnx_pow"]["exponent"]) == 2 / 2.0 - 1

    def test_json_output(self):
        params = ArithParams(2, 2.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**6, lambda x: x**0.5)
        rep = fit_exponent(residuals(t, consts))
        obj = json.loads(cli.render_fit(rep, "json"))
        assert obj["kind"] == "fit_report"
        assert "fit" in obj and "diagnostics" in obj
        assert float(obj["fit"]["theta"]) == rep.theta
        json.dumps(obj)

    def test_residual_dump_two_columns(self):
        params = ArithParams(2, 1.0)
        consts = toy_bundle(params)
        t = synthetic_table(params, consts, 10**4, lambda x: x**0.5)
        rep = residuals(t, consts)
        lines = cli.render_fit(rep, "csv").splitlines()
        assert len(lines) == len(rep.xs)
        x0, r0 = lines[0].split()
        assert int(x0) == rep.xs[0]
        assert float(r0) == rep.residuals[0]
