"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete. Each test is self-contained and compares the
package against independent oracles defined in ``oracles.py``.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from meanval.arith import ArithParams, factorize, minimal_power
from meanval.coeffs import bundle, cofactor_value
from meanval.fit import fit_exponent, residuals
from meanval.sieve import summatory
from meanval.verify import (
    dirichlet_series_truncated,
    euler_product_truncated,
    global_factorization_check,
    power_series_check,
    numerator_identity_check,
)
from meanval.zeta import zeta_prime

from oracles import (
    brute_minimal_power_sweep,
    enumerated_sum,
    partial_product_leading,
    zeta_prime_2_closed_form,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@contextmanager
def criterion(num: int, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL  {desc}", flush=True)
        raise
    dt = time.perf_counter() - t0
    print(f"\n[criterion {num:2d}] PASS  {desc}  ({dt:.1f}s)", flush=True)


def test_criterion_01_minimal_power_oracle_sweep():
    with criterion(1, "minimal power matches brute force for n <= 2e4, r in {2,3,4}"):
        t0 = time.perf_counter()
        limit = 2 * 10**4
        facs = [None] + [factorize(n) for n in range(1, limit + 1)]
        for r in (2, 3, 4):
            brute = brute_minimal_power_sweep(limit, r)
            for n in range(1, limit + 1):
                assert minimal_power(facs[n], r).value == int(brute[n]), (n, r)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_02_enumerated_sums_exact():
    with criterion(2, "S(10) = 24 at (r=2,k=1) and 21/2 at (r=2,k=2), exact"):
        t1 = summatory(ArithParams(2, 1.0), 10)
        assert t1.rows[-1].value == Fraction(24)
        assert t1.rows[-1].value == enumerated_sum(10, 2, 1)
        t2 = summatory(ArithParams(2, 2.0), 10)
        assert t2.rows[-1].value == Fraction(21, 2)
        assert t2.rows[-1].value == enumerated_sum(10, 2, 2)


def test_criterion_03_series_identity_grid():
    with criterion(3, "series closed form holds on r x z grid within tail bounds"):
        t0 = time.perf_counter()
        for r in (1, 2, 3, 5):
            for z in (0.1, 0.3, 0.5, 0.9):
                rep = power_series_check(r, z, terms=200)
                assert rep.passed, (r, z, rep.gap, rep.bound)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_04_euler_product_equals_series():
    with criterion(4, "truncated series and product agree within joint tails (12 combos)"):
        t0 = time.perf_counter()
        for r in (2, 3):
            for k in (1.0, 2.0):
                params = ArithParams(r, k)
                for s in (1.5, 2.0, 3.0):
                    sv, st = dirichlet_series_truncated(params, s, 10**6)
                    pv, pt = euler_product_truncated(params, s, 10**5)
                    assert abs(sv - pv) <= st + pt, (r, k, s, abs(sv - pv), st + pt)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_05_factorization_exact_at_weight_one():
    with criterion(5, "three-way factorization agreement at (r=2,k=1,s=2), bounds <= 1e-4"):
        rep = global_factorization_check(2.0, ArithParams(2, 1.0), limit=10**6, cutoff=10**6)
        assert rep.passed
        assert rep.bound <= 1e-4
        assert rep.details["closed_form_within_bound"]
        assert float(rep.details["closed_form_combined_bound"]) <= 1e-4


def test_criterion_06_numerator_identity_coefficients():
    with criterion(6, "numerator expansion zero at k=1 (r=2..10); k=2 degree-1 gap = -2"):
        for r in range(2, 11):
            rep = numerator_identity_check(ArithParams(r, 1.0))
            assert rep.passed
            assert all(Fraction(c) == 0 for c in rep.details["coefficient_diff"])
        rep2 = numerator_identity_check(ArithParams(2, 2.0))
        diff = [Fraction(c) for c in rep2.details["coefficient_diff"]]
        assert diff[1] == Fraction(-2)
        assert not rep2.passed


def test_criterion_07_constants():
    with criterion(7, "C(2,1) = 0.7044422 +/- 1e-6; C(40,1) ~ 6/pi^2; zeta'(2) cross-check"):
        b21 = bundle(ArithParams(2, 1.0), 10**6)
        c21, tail = b21.leading, b21.tail_bounds["C"]
        oracle, oracle_tail = partial_product_leading(2, 1.0, 10**6)
        assert abs(c21 - oracle) <= tail + oracle * oracle_tail + 1e-10
        assert abs(c21 - 0.7044422) <= 1e-6
        c40 = bundle(ArithParams(40, 1.0), 10**5).leading
        assert abs(c40 - 6.0 / math.pi**2) < 1e-9
        assert abs(zeta_prime(2.0).value - zeta_prime_2_closed_form()) < 1e-9


def test_criterion_08_derivative_gate():
    with criterion(8, "analytic H'(1) matches central differences within 1e-6 (6 params)"):
        h = 1e-5
        for r in (2, 3):
            for k in (1.0, 2.0, 3.0):
                params = ArithParams(r, k)
                analytic = bundle(params, 10**5).cofactor_deriv
                up, _ = cofactor_value(1.0 + h, params, 10**5)
                dn, _ = cofactor_value(1.0 - h, params, 10**5)
                fd = (up - dn) / (2 * h)
                assert abs(analytic - fd) < 1e-6, (r, k, analytic, fd)


def test_criterion_09_asymptotic_fit_weight_one():
    with criterion(9, "pipeline at (r=2,k=1,N=1e7): theta <= 0.75, witness bounded"):
        t0 = time.perf_counter()
        params = ArithParams(2, 1.0)
        consts = bundle(params, 10**6)
        table = summatory(params, 10**7)
        report = fit_exponent(residuals(table, consts), x_min=10**3)
        assert report.theta <= 0.75, report.theta
        assert math.isfinite(report.witness)
        # "bounded" made concrete: observed ~0.07, ceiling leaves wide margin
        assert report.witness < 10.0
        assert time.perf_counter() - t0 < 120.0


def test_criterion_10_thread_reproducibility(tmp_path):
    with criterion(10, "sum --threads 4 output is bit-identical to --threads 1 at N=1e6"):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        outputs = {}
        for fmt in ("csv", "json"):
            for threads in ("1", "4"):
                out = tmp_path / f"t{threads}.{fmt}"
                res = subprocess.run(
                    [
                        sys.executable, "-m", "meanval", "sum",
                        "--r", "2", "--k", "1", "--N", "1000000",
                        "--threads", threads, "--format", fmt, "--out", str(out),
                    ],
                    capture_output=True, text=True, env=env,
                )
                assert res.returncode == 0, res.stderr
                outputs[(fmt, threads)] = out.read_bytes()
            assert outputs[(fmt, "1")] == outputs[(fmt, "4")]
