import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanval import xsum
from meanval.errors import ToleranceError
from meanval.xsum import ExactSum

_TINY = 2.0**-1022  # smallest normal
_TOP = 2.0**998  # the first magnitude outside ExactSum's domain
_BELOW_TOP = math.nextafter(_TOP, 0.0)  # the largest inside it

# mixed signs and magnitudes over the whole domain: subnormals, the normal
# boundary, values near 1e-300 and up to 2**998, signed zeros
finite = st.one_of(
    st.floats(min_value=-_TOP, max_value=_TOP, exclude_min=True, exclude_max=True),
    st.floats(min_value=-4 * _TINY, max_value=4 * _TINY),
    st.floats(min_value=1e-301, max_value=1e-299).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=2.0**996, max_value=_BELOW_TOP).flatmap(lambda x: st.sampled_from([x, -x])),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, 1.0, -1.0, 0.1, _BELOW_TOP, -_BELOW_TOP]),
)
# outside the domain: the infinities, nan, the bottom of the top exponent
# fields and values past it
_OUTSIDE = [math.inf, -math.inf, math.nan, _TOP, -_TOP, 1e308]
outside = st.one_of(
    st.sampled_from(_OUTSIDE),
    st.floats(min_value=_TOP, allow_infinity=False).flatmap(lambda x: st.sampled_from([x, -x])),
)


def _stream(chunks):
    acc = ExactSum()
    for chunk in chunks:
        acc.add(np.array(chunk, dtype=np.float64))
    return acc.value()


def _in_domain(values):
    return all(abs(x) < _TOP for x in values)  # False at a nan too


def _assert_stream_refused(chunks, bad):
    with pytest.raises(ToleranceError, match=re.escape(f"got {bad!r}") + "$"):
        _stream(chunks)


class TestFsum:
    """ExactSum over one whole array against math.fsum."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(finite, max_size=60))
    def test_same_repr_as_math_fsum(self, xs):
        assert repr(_stream([xs])) == repr(math.fsum(xs))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=40), st.lists(finite, max_size=5), st.randoms())
    def test_cancellation(self, xs, extra, rnd):
        values = xs + [-x for x in xs] + extra
        rnd.shuffle(values)
        assert repr(_stream([values])) == repr(math.fsum(values))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(finite, outside), max_size=30))
    def test_non_finite_or_top_of_range_raises(self, xs):
        if _in_domain(xs):
            assert repr(_stream([xs])) == repr(math.fsum(xs))
        else:
            with pytest.raises(ToleranceError):
                _stream([xs])

    @pytest.mark.parametrize("xs", [
        [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-5e-324, 5e-324],
        [_BELOW_TOP, -_BELOW_TOP], [_BELOW_TOP, _BELOW_TOP, -_BELOW_TOP], [-_BELOW_TOP, -2.0**997, 1e300],
    ])
    def test_edge_cases(self, xs):
        assert repr(_stream([xs])) == repr(math.fsum(xs))

    @pytest.mark.parametrize("xs, bad", [
        ([1e308, -1e308], 1e308), ([1.7e308, 1.7e308], 1.7e308), ([-1.7e308, -1e308, 1e300], -1.7e308),
        ([1e300, _TOP], _TOP), ([1.0, math.inf], math.inf),
    ])
    def test_edge_cases_past_the_domain_raise(self, xs, bad):
        # math.fsum gives 0.0, 1e308 or inf, or raises OverflowError, on these;
        # ExactSum refuses the first value outside its domain
        _assert_stream_refused([xs], bad)

    def test_large_array(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300_000) * 10.0 ** rng.integers(-30, 30, 300_000)
        assert repr(_stream([x])) == repr(math.fsum(x))


class TestDomain:
    """A value outside the domain raises ToleranceError in ``add``, naming it as a plain float."""

    @pytest.mark.parametrize("bad", _OUTSIDE)
    def test_alone(self, bad):
        _assert_stream_refused([[bad]], bad)

    @pytest.mark.parametrize("bad", _OUTSIDE)
    def test_beside_finite_values_in_one_piece(self, bad):
        _assert_stream_refused([[1.0, -0.0, bad, 5e-324]], bad)

    @pytest.mark.parametrize("bad", _OUTSIDE)
    def test_in_a_later_piece(self, bad):
        _assert_stream_refused([[1.0, 2.0], [3.0, bad]], bad)

    @pytest.mark.parametrize("bad", _OUTSIDE)
    def test_after_merge(self, bad):
        acc, other = ExactSum(), ExactSum()
        acc.add(np.array([1.0]))
        other.add(np.array([2.0]))
        acc.merge(other)
        with pytest.raises(ToleranceError, match=re.escape(f"got {bad!r}") + "$"):
            acc.add(np.array([bad]))

    def test_nan_whose_payload_is_in_the_low_bits(self):
        # its hi part, with the low 26 fraction bits cleared, is inf
        nan = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        with pytest.raises(ToleranceError, match="got nan$"):
            ExactSum().add(np.concatenate(([1.0], nan)))

    def test_top_of_the_domain_is_summed(self):
        xs = [_BELOW_TOP] * 3 + [-_BELOW_TOP, 1e-300]
        assert repr(_stream([xs])) == repr(math.fsum(xs))


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(finite, outside), max_size=20), max_size=6))
    def test_chunked_stream_equals_fsum_of_concatenation(self, chunks):
        flat = [x for chunk in chunks for x in chunk]
        if _in_domain(flat):
            assert repr(_stream(chunks)) == repr(math.fsum(flat))
        else:
            with pytest.raises(ToleranceError):
                _stream(chunks)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(finite, outside), max_size=20), max_size=6),
           st.lists(st.integers(0, 2), max_size=6))
    def test_merged_sums_equal_one_sum(self, chunks, owners):
        # chunks shared out over three sums, then merged: the one stream's sum,
        # and a chunk outside the domain raises in the add that takes it
        sums = [ExactSum() for _ in range(3)]
        for chunk, owner in zip(chunks, owners + [0] * len(chunks)):
            if _in_domain(chunk):
                sums[owner].add(np.array(chunk, dtype=np.float64))
            else:
                with pytest.raises(ToleranceError):
                    sums[owner].add(np.array(chunk, dtype=np.float64))
        for other in sums[1:]:
            sums[0].merge(other)
        kept = [chunk for chunk in chunks if _in_domain(chunk)]
        assert repr(sums[0].value()) == repr(_stream(kept))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(finite, max_size=12), min_size=1, max_size=8))
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

    @pytest.mark.parametrize("chunks, refused", [
        ([[1e300], [1e308], [-1e308]], 1),
        ([[1.7e308], [1.7e308], [-1.7e308, -1.7e308, 1e300]], 0),
        ([[1e300] * 7, [-1e300] * 3, [1e308, -1e308, 3e307]], 2),
        ([[1e300, 2e300, -1e299], [1e-300, 1.0], [-5e307]], 2),
        ([[2.0**997] * 1024, [-(2.0**997)] * 1024, [2.0**1015]], 2),
    ])
    def test_top_of_range_across_adds(self, chunks, refused):
        # the add that takes the first value past the domain raises; those before it sum
        acc = ExactSum()
        for chunk in chunks[:refused]:
            acc.add(np.array(chunk))
        with pytest.raises(ToleranceError):
            acc.add(np.array(chunks[refused]))
        flat = [x for chunk in chunks[:refused] for x in chunk]
        assert repr(acc.value()) == repr(math.fsum(flat))

    @pytest.mark.parametrize("at", [0, 1, xsum.PIECE - 1, xsum.PIECE, xsum.PIECE + 2])
    def test_top_of_range_across_a_chunk_boundary(self, at):
        # one value past the domain among small ones, in the first pass of
        # PIECE values or in the second
        x = np.full(xsum.PIECE + 3, 1e-3)
        x[at] = -1.5e308
        _assert_stream_refused([x], -1.5e308)

    @pytest.mark.parametrize("xs", [
        [5e-324] * (xsum.PIECE + 5),
        [-5e-324] * 3 + [2.0**-1022 - 5e-324, 5e-324],
        [-0.0] * (xsum.PIECE + 1),
        [-0.0, 5e-324, -0.0, -5e-324],
        [2.0**-1022, -(2.0**-1022 - 5e-324), -0.0],
        [1e-310, _BELOW_TOP, -_BELOW_TOP, -1e-310, 1e-320],
    ])
    def test_subnormals_and_negative_zero(self, xs):
        assert repr(_stream([xs])) == repr(math.fsum(xs))

    @pytest.mark.parametrize("xs, bad", [
        ([1.0, math.inf, 2.0], math.inf),
        ([1e300, math.nan, 1e300], math.nan),
        ([-math.inf, 1e-310, 3.0, -0.0], -math.inf),
        ([math.inf, 1.0, -math.inf], math.inf),
        ([5e-324, math.nan, -math.inf, 1e300], math.nan),
        ([1e300, 1e308, 1e300, -math.inf], 1e308),
    ])
    def test_non_finite_beside_finite_in_one_chunk(self, xs, bad):
        # the first value outside the domain is named, in one pass or past several
        _assert_stream_refused([xs], bad)
        _assert_stream_refused([xs * (xsum.PIECE // len(xs) + 1)], bad)


class TestOneSignPass:
    """A pass of one sign within 13 binades is summed as two plain float sums, exactly."""

    @pytest.mark.parametrize("xs, binned", [
        ([1.0, 2.0**13], False),  # frexp exponents 1 and 14
        ([1.0, 2.0**14], True),
        ([-1.0, -(2.0**13), -1.5], False),
        ([5e-324, 2.0**-1061], False),  # the least subnormal's frexp exponent is -1073
        ([5e-324, 2.0**-1060], True),
        ([2.0**986, _BELOW_TOP], False),
        ([1.0, -1.0], True),
        ([0.0, 1.0], True),
        ([-0.0, -1.0], True),
    ])
    def test_which_passes_take_the_plain_sums(self, xs, binned):
        acc = ExactSum()
        acc.add(np.array(xs))
        assert (acc._pending > 0) is binned
        assert repr(acc.value()) == repr(math.fsum(xs))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_thirteen_binades_of_maximal_mantissas(self, sign):
        # one value in [1, 2) and the rest of a pass in [2**13, 2**14), every fraction bit
        # set: the hi parts sum to just under 2**53 units of 2**-26, the lo parts to just
        # under 2**52 units of 2**-52, the ulp of the least value
        x = np.full(xsum.PIECE, sign * math.nextafter(2.0**14, 0.0))
        x[0] = sign * math.nextafter(2.0, 0.0)
        acc = ExactSum()
        acc.add(x)
        assert acc._pending == 0
        assert repr(acc.value()) == repr(math.fsum(x))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_binade_wider_needs_54_bits(self, sign):
        # the rest of the pass one binade higher, in [2**14, 2**15): its hi parts sum to an
        # odd number of units 2**-26 between 2**53 and 2**54, which a plain float sum rounds
        x = np.full(xsum.PIECE, sign * (2.0**15 - 2.0**-12))
        x[0] = sign * (2.0 - 3 * 2.0**-26 + 2.0**-52)
        hi = (x.view(np.uint64) & xsum._HI_MASK).view(np.float64)
        units = sum(int(v * 2.0**26) for v in hi.tolist())
        assert 2**53 < abs(units) < 2**54 and units % 2 == 1
        assert float(hi.sum()) * 2.0**26 != units
        acc = ExactSum()
        acc.add(x)
        assert acc._pending == xsum.PIECE
        assert repr(acc.value()) == repr(math.fsum(x))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, xsum.PIECE), st.integers(-1074, 998 - 13), st.integers(0, 13),
           st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1))
    def test_narrow_pass_equals_fsum(self, size, bottom, span, sign, seed):
        # frexp exponents in bottom .. bottom + span, random or maximal mantissas, subnormals
        # included; values that round to 0 send the pass to the bins
        rng = np.random.default_rng(seed)
        mantissas = np.where(rng.random(size) < 0.3, 1.0 - 2.0**-53, rng.uniform(0.5, 1.0, size))
        x = sign * np.ldexp(mantissas, bottom + rng.integers(0, span + 1, size))
        assert repr(_stream([x])) == repr(math.fsum(x.tolist()))
