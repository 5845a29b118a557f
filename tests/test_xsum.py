import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanval import xsum
from meanval.xsum import ExactSum

_TINY = 2.0**-1022  # smallest normal

# mixed signs and magnitudes over the whole range: subnormals, the normal
# boundary, values near 1e-300 and 1e300, the top of the range, signed zeros
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4 * _TINY, max_value=4 * _TINY),
    st.floats(min_value=1e-301, max_value=1e-299).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=1e299, max_value=1e301).flatmap(lambda x: st.sampled_from([x, -x])),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, 1.0, -1.0, 0.1, 1e308, -1e308]),
)
# values whose magnitudes cannot add up past the float range in a short list
moderate = finite.filter(lambda x: abs(x) <= 1e301)
special = st.sampled_from([math.inf, -math.inf, math.nan])


def _outcome(f, values):
    """repr of the result, or the type of the exception raised."""
    try:
        return repr(f(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _stream(chunks):
    acc = ExactSum()
    for chunk in chunks:
        acc.add(np.array(chunk, dtype=np.float64))
    return acc.value()


def _rounded_once(values):
    """The exact sum rounded once: the fsum of the infinities and nans if there
    are any, else the Fraction total as a float (OverflowError out of range)."""
    special = [x for x in values if not math.isfinite(x)]
    if special:
        return math.fsum(special)
    return float(sum(map(Fraction, values), Fraction(0)))


def _expected(values):
    """math.fsum's outcome; where its running sum overflows midway, the exact
    sum rounded once, which is ExactSum's documented result there."""
    outcome = _outcome(math.fsum, values)
    return _outcome(_rounded_once, values) if outcome is OverflowError else outcome


class TestFsum:
    """ExactSum over one whole array against math.fsum."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(finite, max_size=60))
    def test_same_repr_as_math_fsum(self, xs):
        assert _outcome(_stream, [xs]) == _expected(xs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(moderate, min_size=1, max_size=40), st.lists(moderate, max_size=5), st.randoms())
    def test_cancellation(self, xs, extra, rnd):
        values = xs + [-x for x in xs] + extra
        rnd.shuffle(values)
        assert repr(_stream([values])) == repr(math.fsum(values))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(finite, special), max_size=30))
    def test_non_finite_keeps_fsum_result_or_error(self, xs):
        assert _outcome(_stream, [xs]) == _expected(xs)

    @pytest.mark.parametrize("xs", [
        [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-5e-324, 5e-324],
        [1e308, -1e308], [1e308, 1e308, -1e308], [1.7e308, 1.7e308], [-1.7e308, -1e308, 1e300],
        [1e308, 1e308, math.inf],
    ])
    def test_edge_cases(self, xs):
        # math.fsum raises OverflowError on the last four, where a running sum
        # overflows; ExactSum gives 1e308, OverflowError twice (the exact totals
        # are out of range) and inf (an infinity decides the sum)
        assert _outcome(_stream, [xs]) == _expected(xs)

    def test_large_array(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300_000) * 10.0 ** rng.integers(-30, 30, 300_000)
        assert repr(_stream([x])) == repr(math.fsum(x))


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(moderate, special), max_size=20), max_size=6))
    def test_chunked_stream_equals_fsum_of_concatenation(self, chunks):
        flat = [x for chunk in chunks for x in chunk]
        assert _outcome(_stream, chunks) == _outcome(math.fsum, flat)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(finite, special), max_size=20), max_size=6),
           st.lists(st.integers(0, 2), max_size=6))
    def test_merged_sums_equal_one_sum(self, chunks, owners):
        # chunks shared out over three sums, then merged: the one stream's outcome
        sums = [ExactSum() for _ in range(3)]
        for chunk, owner in zip(chunks, owners + [0] * len(chunks)):
            sums[owner].add(np.array(chunk, dtype=np.float64))
        for other in sums[1:]:
            sums[0].merge(other)
        assert _outcome(lambda _: sums[0].value(), None) == _outcome(_stream, chunks)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(moderate, max_size=12), min_size=1, max_size=8))
    def test_forced_fold_keeps_bins_below_limit(self, chunks):
        # the real interval is 2**26 values; at 5 a fold happens every few values
        field = np.maximum(np.arange(4096) & 2047, 1)  # subnormals share field 1's grid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xsum, "_FLUSH", 5)
            acc = ExactSum()
            for chunk in chunks:
                acc.add(np.array(chunk, dtype=np.float64))
                # the exactness invariant: no bin holds more than _FLUSH values, and each
                # bin is a whole number of units of its grid, below _FLUSH times the bound
                # of one value (2**27 units for hi, 2**26 for lo), so below 2**53
                assert acc._pending <= 5
                hi = np.ldexp(acc._hi, 1049 - field)  # in units of 2**(e - 1049)
                lo = np.ldexp(acc._lo, 1075 - field)  # in units of 2**(e - 1075)
                assert np.array_equal(hi, np.trunc(hi)) and np.array_equal(lo, np.trunc(lo))
                assert np.abs(hi).max() < 5 * 2**27 and np.abs(lo).max() < 5 * 2**26
            flat = [x for chunk in chunks for x in chunk]
            assert repr(acc.value()) == repr(math.fsum(flat))

    @pytest.mark.parametrize("chunks", [
        [[1e308], [1e308], [-1e308]],
        [[1.7e308], [1.7e308], [-1.7e308, -1.7e308, 1e300]],
        [[1e300] * 7, [-1e300] * 3, [1e308, -1e308, 3e307]],
        [[1e300, 5e307, -1e301], [1e-300, 1.0], [-5e307]],
        [[1.7976931348623157e308], [-1.7976931348623157e308], [2.0**-1074]],
        [[2.0**1015] * 1024, [-(2.0**1015)] * 1024, [1.0]],  # one bin of these would reach inf
    ])
    def test_top_of_range_across_adds(self, chunks):
        # values whose bins could pass 2**1024 skip the bins, in every add call
        flat = [x for chunk in chunks for x in chunk]
        assert _outcome(_stream, chunks) == _expected(flat)

    @pytest.mark.parametrize("at", [0, 1, xsum._CHUNK - 2, xsum._CHUNK - 1])
    def test_top_of_range_across_a_chunk_boundary(self, at):
        # two values near the top of the range, one each side of a chunk boundary when
        # at = _CHUNK - 1, among small values that the bins take
        x = np.full(xsum._CHUNK + 3, 1e-3)
        x[at], x[at + 1], x[-1] = 1e308, 1e308, -1.5e308
        assert _outcome(_stream, [x]) == _expected(x.tolist())

    @pytest.mark.parametrize("xs", [
        [5e-324] * (xsum._CHUNK + 5),
        [-5e-324] * 3 + [2.0**-1022 - 5e-324, 5e-324],
        [-0.0] * (xsum._CHUNK + 1),
        [-0.0, 5e-324, -0.0, -5e-324],
        [2.0**-1022, -(2.0**-1022 - 5e-324), -0.0],
        [1e-310, 1e308, -1e308, -1e-310, 1e-320],
    ])
    def test_subnormals_and_negative_zero(self, xs):
        assert _outcome(_stream, [xs]) == _expected(xs)

    @pytest.mark.parametrize("xs", [
        [1.0, math.inf, 2.0],
        [1e308, math.nan, 1e308],
        [-math.inf, 1e-310, 3.0, -0.0],
        [math.inf, 1.0, -math.inf],
        [5e-324, math.nan, -math.inf, 1e300],
        [1e308, 1e308, 1e308, -math.inf],
    ])
    def test_non_finite_beside_finite_in_one_chunk(self, xs):
        # the infinities and nans decide the sum; the finite values beside them in the
        # same chunk still pass through the bins and the top-of-range path
        assert _outcome(_stream, [xs]) == _expected(xs)
        assert _outcome(_stream, [xs * (xsum._CHUNK // len(xs) + 1)]) == _expected(
            xs * (xsum._CHUNK // len(xs) + 1))
