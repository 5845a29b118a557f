"""Checks of meanval's CLI outputs, and a self-test that each check bites.

Every check compares an output with the independent reference in
``reference.py``, with a closed form, or with a property the method must
have.  None compares with a stored copy of an earlier output.  A check
returns a list of error strings; an empty list means the output passed.
``selftest_*`` perturbs a genuine output in the ways listed in the README
and returns an error for every perturbation its check fails to reject.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from fractions import Fraction

EPS = 2.220446049250313e-16
PAPER_C_2_1 = 0.7044422  # C(r=2, k=1) as printed in the paper, 7 digits

# closed forms and literals for the zeta'(2) check (30 digits, independent of meanval)
ZETA_2 = math.pi**2 / 6.0
ZETA_3 = 1.20205690315959428539973816151
ZETA_PRIME_3 = -0.198126242885636853330681821503
EULER_GAMMA = 0.577215664901532860606512090082
GLAISHER_A = 1.28242712910062263687534256887


def zeta_prime_2_closed_form() -> float:
    """Glaisher-Kinkelin: zeta'(2) = pi^2/6 * (gamma + ln(2 pi) - 12 ln A)."""
    return ZETA_2 * (EULER_GAMMA + math.log(2.0 * math.pi) - 12.0 * math.log(GLAISHER_A))


def main_term(c: float, kx: float, x: int) -> float:
    """C x ln x + K x in doubles, evaluated as the documented formula reads."""
    return c * x * math.log(x) + kx * x


def s_from_totals(totals: list[int], k: Fraction) -> Fraction:
    """S(x) = sum_w T_w(x) * k**-w, exactly."""
    return sum((Fraction(t) / k**w for w, t in enumerate(totals)), Fraction(0))


def _close(a: float, b: float, scale: float, ulps: float = 8.0) -> bool:
    return abs(a - b) <= ulps * EPS * scale


# ---------------------------------------------------------------------------
# fit-exact


def check_fit(doc: dict, grid: list[int], s_ref: dict[int, Fraction]) -> list[str]:
    """R(x) = S_ref(x) - C x ln x - K x, C near the paper's value, theta <= 0.75."""
    errs = []
    xs = [p["x"] for p in doc["points"]]
    if xs != grid:
        return [f"fit: checkpoints {xs[:3]}... differ from the requested grid"]
    c, kx = float(doc["C"]), float(doc["K"])
    for p in doc["points"]:
        x, r_out = p["x"], float(p["R"])
        main = main_term(c, kx, x)
        want = float(s_ref[x] - Fraction(main))
        if not _close(r_out, want, abs(float(s_ref[x])) + abs(main)):
            errs.append(f"fit: R({x}) = {r_out!r}, reference S - main = {want!r}")
    if not abs(c - PAPER_C_2_1) <= 1e-6:
        errs.append(f"fit: C = {c!r} is not within 1e-6 of the paper's {PAPER_C_2_1}")
    f = doc.get("fit", {})
    theta, witness = float(f.get("theta", "nan")), float(f.get("witness_x06", "nan"))
    if not theta <= 0.75:
        errs.append(f"fit: theta = {theta!r} > 0.75")
    if not witness < 10.0:
        errs.append(f"fit: witness max|R|/x^0.6 = {witness!r} >= 10")
    return errs


def selftest_fit(doc: dict, grid: list[int], s_ref: dict[int, Fraction]) -> list[str]:
    cases = []
    bad = copy.deepcopy(doc)
    bad["points"][-1]["R"] = repr(float(bad["points"][-1]["R"]) + 1.0)
    cases.append(("S off by one", bad))
    bad = copy.deepcopy(doc)
    bad["C"] = repr(float(bad["C"]) + 2e-6)
    cases.append(("C moved by 2e-6", bad))
    bad = copy.deepcopy(doc)
    bad["fit"]["theta"] = "0.8"
    cases.append(("theta above 0.75", bad))
    return [f"self-test: fit check accepted {name}" for name, d in cases
            if not check_fit(d, grid, s_ref)]


# ---------------------------------------------------------------------------
# sum-float-mt


def parse_sum_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["x", "S", "main", "residual", "err_bound"]:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return [
        {"x": int(row["x"]), **{key: float(row[key]) for key in ("S", "main", "residual", "err_bound")}}
        for row in reader
    ]


def check_sum(rows: list[dict], grid: list[int], s_ref: dict[int, Fraction],
              consts: dict) -> list[str]:
    """|S - S_ref| <= err_bound, S increasing, main and residual columns consistent."""
    errs = []
    xs = [row["x"] for row in rows]
    if xs != grid:
        return [f"sum: checkpoints {xs[:3]}... differ from the requested grid"]
    c, kx = float(consts["C"]), float(consts["K"])
    prev = -math.inf
    for row in rows:
        x, s = row["x"], row["S"]
        gap = abs(Fraction(s) - s_ref[x])
        if not (math.isfinite(row["err_bound"]) and gap <= Fraction(row["err_bound"])):
            errs.append(f"sum: |S({x}) - S_ref| = {float(gap):.3e} > err_bound {row['err_bound']:.3e}")
        if not s > prev:
            errs.append(f"sum: S is not increasing at x={x}")
        prev = s
        main = main_term(c, kx, x)
        if not _close(row["main"], main, abs(main)):
            errs.append(f"sum: main({x}) = {row['main']!r}, C x ln x + K x = {main!r}")
        if not _close(row["residual"], s - row["main"], abs(s) + abs(row["main"])):
            errs.append(f"sum: residual({x}) != S - main")
    return errs


def selftest_sum(rows: list[dict], grid: list[int], s_ref: dict[int, Fraction],
                 consts: dict) -> list[str]:
    cases = []
    bad = copy.deepcopy(rows)
    bad[-1]["S"] += 1.0
    cases.append(("S off by one", bad))
    worst = max(range(len(rows)), key=lambda i: abs(Fraction(rows[i]["S"]) - s_ref[rows[i]["x"]]))
    gap = float(abs(Fraction(rows[worst]["S"]) - s_ref[rows[worst]["x"]]))
    if gap > 0.0:
        bad = copy.deepcopy(rows)
        bad[worst]["err_bound"] = gap / 2.0
        cases.append(("err_bound shrunk below the true gap", bad))
    bad = copy.deepcopy(rows)
    bad[-1]["S"], bad[-2]["S"] = bad[-2]["S"], bad[-1]["S"]
    cases.append(("S decreasing", bad))
    return [f"self-test: sum check accepted {name}" for name, d in cases
            if not check_sum(d, grid, s_ref, consts)]


# ---------------------------------------------------------------------------
# constants-identities


def check_constants(at_cut: dict, at_1e6: dict) -> list[str]:
    """C and K at two prime cutoffs agree within the sum of their tail bounds."""
    errs = []
    tag = f"constants (r={at_cut['params']['r']}, k={at_cut['params']['k']})"
    for name in ("C", "K"):
        a, b = float(at_cut[name]), float(at_1e6[name])
        ta, tb = float(at_cut["tail_bounds"][name]), float(at_1e6["tail_bounds"][name])
        if not (0.0 < ta < tb and abs(a - b) <= ta + tb):
            errs.append(f"{tag}: {name} = {a!r} (tail {ta:.2e}) vs {b!r} at P=1e6 (tail {tb:.2e})")
    return errs


def derived_zeta_prime_2(doc: dict, prime_sum: float) -> tuple[float, float]:
    """zeta'(2) solved from H'(1)/C at r = 3, and a bound on its error.

    H'(1)/H(1) = r zeta'(r)/zeta(r) - 2 zeta'(2)/zeta(2) + sum_{p<=P} g_p, with
    the prime sum ``prime_sum`` computed apart from meanval over the same P.
    The error bound propagates the reported tail bounds of C and H'(1).
    """
    r = doc["params"]["r"]
    assert r == 3
    c, h1p = float(doc["C"]), float(doc["H1_prime"])
    tc, th = float(doc["tail_bounds"]["C"]), float(doc["tail_bounds"]["H1_prime"])
    ratio = h1p / c
    value = ZETA_2 / 2.0 * (3.0 * ZETA_PRIME_3 / ZETA_3 + prime_sum - ratio)
    err = ZETA_2 / 2.0 * (th / c + abs(h1p) * tc / c**2 + 64.0 * EPS * (abs(ratio) + abs(prime_sum)))
    return value, err


def check_zeta_prime_2(doc: dict, prime_sum: float) -> list[str]:
    value, err = derived_zeta_prime_2(doc, prime_sum)
    closed = zeta_prime_2_closed_form()
    if not abs(value - closed) <= err + 1e-14:
        return [f"zeta'(2) from H'(1)/C = {value!r}, Glaisher-Kinkelin gives {closed!r} (+-{err:.2e})"]
    return []


def check_verify(doc: dict, k: float, series_ref: float) -> list[str]:
    """At k = 1 every report passes; at k != 1 the numerator gap is 2 - 2k."""
    errs = []
    tag = f"verify (r={doc['params']['r']}, k={k})"
    reports = doc["reports"]
    glob = next(rep for rep in reports if rep["identity"] == "global_factorization")
    num = next(rep for rep in reports if rep["identity"] == "numerator_identity")
    diff = [Fraction(c) for c in num["details"]["coefficient_diff"]]
    if diff[1] != 2 - 2 * Fraction(k):
        errs.append(f"{tag}: degree-1 numerator gap {diff[1]}, expected 2 - 2k = {2 - 2 * Fraction(k)}")
    if num["pass"] != all(c == 0 for c in diff):
        errs.append(f"{tag}: numerator verdict {num['pass']} contradicts its coefficients")
    for rep in reports:
        expect = k == 1 or rep["identity"] != "numerator_identity"
        if rep["pass"] is not expect:
            errs.append(f"{tag}: {rep['identity']} {rep['params']} pass={rep['pass']}")
    if k == 1 and glob["details"]["closed_form_within_bound"] is not True:
        errs.append(f"{tag}: closed-form route outside its bound at k = 1")
    series = float(glob["details"]["series"])
    if not abs(series - series_ref) <= 16.0 * EPS * series_ref:
        errs.append(f"{tag}: Dirichlet series {series!r}, reference {series_ref!r}")
    return errs


def selftest_constants(docs: dict, prime_sum: float, series_ref: dict) -> list[str]:
    """docs: {'c21', 'c15', 'c21_1e6', 'c15_1e6', 'v21', 'v32'} -> parsed outputs."""
    fails = []
    bad = copy.deepcopy(docs["c21"])
    t = float(bad["tail_bounds"]["K"]) + float(docs["c21_1e6"]["tail_bounds"]["K"])
    bad["K"] = repr(float(docs["c21_1e6"]["K"]) + 1.5 * t)
    if not check_constants(bad, docs["c21_1e6"]):
        fails.append("self-test: constants check accepted K moved outside its tail bound")
    bad = copy.deepcopy(docs["c15"])
    bad["H1_prime"] = repr(float(bad["H1_prime"]) * (1.0 + 1e-6))
    if not check_zeta_prime_2(bad, prime_sum):
        fails.append("self-test: zeta'(2) check accepted H'(1) moved by 1e-6")
    bad = copy.deepcopy(docs["v21"])
    bad["reports"][0]["pass"] = not bad["reports"][0]["pass"]
    if not check_verify(bad, 1.0, series_ref[2]):
        fails.append("self-test: verify check accepted a flipped verdict")
    bad = copy.deepcopy(docs["v32"])
    bad["reports"][-1]["pass"] = not bad["reports"][-1]["pass"]
    if not check_verify(bad, 2.0, series_ref[3]):
        fails.append("self-test: verify check accepted a flipped verdict at k = 2")
    return fails
