import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanval import xsum
from meanval.xsum import ExactSum, fsum

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


class TestFsum:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(finite, max_size=60))
    def test_same_repr_as_math_fsum(self, xs):
        assert _outcome(fsum, np.array(xs, dtype=np.float64)) == _outcome(math.fsum, xs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(moderate, min_size=1, max_size=40), st.lists(moderate, max_size=5), st.randoms())
    def test_cancellation(self, xs, extra, rnd):
        values = xs + [-x for x in xs] + extra
        rnd.shuffle(values)
        assert repr(fsum(np.array(values))) == repr(math.fsum(values))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(finite, special), max_size=30))
    def test_non_finite_keeps_fsum_result_or_error(self, xs):
        assert _outcome(fsum, np.array(xs, dtype=np.float64)) == _outcome(math.fsum, xs)

    @pytest.mark.parametrize("xs", [
        [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-5e-324, 5e-324],
        [1e308, -1e308], [1e308, 1e308, -1e308], [1.7e308, 1.7e308], [-1.7e308, -1e308, 1e300],
    ])
    def test_edge_cases(self, xs):
        # fsum raises OverflowError when a running sum overflows, even if the total would not
        assert _outcome(fsum, np.array(xs, dtype=np.float64)) == _outcome(math.fsum, xs)

    def test_large_array(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300_000) * 10.0 ** rng.integers(-30, 30, 300_000)
        assert repr(fsum(x)) == repr(math.fsum(x))


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(moderate, special), max_size=20), max_size=6))
    def test_chunked_stream_equals_fsum_of_concatenation(self, chunks):
        flat = [x for chunk in chunks for x in chunk]
        assert _outcome(_stream, chunks) == _outcome(math.fsum, flat)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(moderate, max_size=12), min_size=1, max_size=8))
    def test_forced_fold_keeps_bins_below_limit(self, chunks):
        # the real interval is 2**27 values; at 5 a fold happens every few values
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xsum, "_FLUSH", 5)
            acc = ExactSum()
            for chunk in chunks:
                acc.add(np.array(chunk, dtype=np.float64))
                # the exactness invariant: no bin holds more than _FLUSH values
                assert acc._count.sum() <= 5
                assert max(acc._hi.max(), acc._lo.max()) < 5 * 2**26
            flat = [x for chunk in chunks for x in chunk]
            assert repr(acc.value()) == repr(math.fsum(flat))
