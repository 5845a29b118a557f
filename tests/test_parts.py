"""Walks split over forked worker processes (``xsum.split_sums``).

The number of parts is forced by patching ``xsum.MIN_PART`` and
``os.sched_getaffinity``, which is how the helper picks it; no caller can
ask for a part count.
"""

import os
import time

import numpy as np
import pytest

from meanval import coeffs, verify, xsum
from meanval.arith import ArithParams
from meanval.errors import ConfigError
from meanval.xsum import ExactSum, split_sums


def _force_parts(monkeypatch, parts):
    """Make every walk, however short, run as ``parts`` processes."""
    monkeypatch.setattr(xsum, "MIN_PART", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)


def _no_fork(*args):
    raise AssertionError("os.fork was called")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sum_of_parts(part, parts):
    """The exact sum of part + 1, as one ExactSum, and of its square."""
    a, b = ExactSum(), ExactSum()
    a.add([part + 1.0])
    b.add([(part + 1.0) ** 2])
    return a, b


class TestSplitSums:
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_merges_every_part(self, monkeypatch, parts):
        _force_parts(monkeypatch, parts)
        a, b = split_sums(_sum_of_parts, 10)
        assert a.value() == parts * (parts + 1) / 2
        assert b.value() == parts * (parts + 1) * (2 * parts + 1) / 6
        _assert_no_child_left()

    def test_part_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert xsum._part_count(0) == 1
        assert xsum._part_count(2 * xsum.MIN_PART - 1) == 1
        assert xsum._part_count(2 * xsum.MIN_PART) == 2
        assert xsum._part_count(10**9) == 3
        monkeypatch.delattr(os, "fork")
        assert xsum._part_count(10**9) == 1

    def test_short_walk_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        a, _ = split_sums(_sum_of_parts, 2 * xsum.MIN_PART - 1)
        assert a.value() == 1.0

    def test_worker_exception_raised_here(self, monkeypatch):
        _force_parts(monkeypatch, 3)

        def work(part, parts):
            if part == 1:
                raise ConfigError(f"part {part} of {parts} refused")
            return _sum_of_parts(part, parts)

        with pytest.raises(ConfigError, match="part 1 of 3 refused"):
            split_sums(work, 10)
        _assert_no_child_left()

    def test_worker_that_dies_raises_child_process_error(self, monkeypatch):
        _force_parts(monkeypatch, 2)

        def work(part, parts):
            if part == 1:
                os._exit(7)
            return _sum_of_parts(part, parts)

        with pytest.raises(ChildProcessError, match="part 1 of 2 exited with 7"):
            split_sums(work, 10)
        _assert_no_child_left()

    def test_failure_here_stops_the_workers(self, monkeypatch):
        # part 0 fails while the workers would run for a minute: they are
        # killed and reaped at once
        _force_parts(monkeypatch, 3)

        def work(part, parts):
            if part == 0:
                raise ValueError("part 0 failed")
            time.sleep(60)
            return _sum_of_parts(part, parts)

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="part 0 failed"):
            split_sums(work, 10)
        assert time.monotonic() - t0 < 30
        _assert_no_child_left()

    @pytest.mark.parametrize("fail", [False, True])
    def test_workers_never_run_the_callers_code(self, monkeypatch, tmp_path, fail):
        # a worker leaves by os._exit, so the finally around the call runs in
        # this process alone, as does a traced run's SPANS.json writer
        _force_parts(monkeypatch, 3)
        log = tmp_path / "pids"

        def work(part, parts):
            if fail and part == 1:
                raise RuntimeError("part 1 failed")
            return _sum_of_parts(part, parts)

        try:
            split_sums(work, 10)
        except RuntimeError:
            assert fail
        finally:
            with open(log, "a", encoding="utf-8") as fp:
                fp.write(f"{os.getpid()}\n")
        assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]
        _assert_no_child_left()


def _hex(values):
    return [float(v).hex() for v in values]


def _bundle_bits(params, cutoff):
    b = coeffs.bundle(params, cutoff)
    return _hex([b.leading, b.cofactor_deriv, b.pole_coeff, b.x_coeff, *b.tail_bounds.values()])


# each walk spans several blocks: a prime cutoff of 2e6 has four blocks of
# primes.PRIME_BLOCK odd slots, and a series limit of 3e5 five blocks of
# sieve.SERIES_BLOCK integers, so that 2 and 3 parts get unequal shares
REDUCTIONS = {
    "bundle (2, 1)": lambda: _bundle_bits(ArithParams(2, 1.0), 2 * 10**6),
    "bundle (3, 1.5)": lambda: _bundle_bits(ArithParams(3, 1.5), 2 * 10**6),
    "cofactor_value": lambda: _hex(coeffs.cofactor_value(1.25, ArithParams(3, 1.5), 2 * 10**6)),
    "euler_product_truncated": lambda: _hex(
        verify.euler_product_truncated(ArithParams(2, 1.0), 2.0, 2 * 10**6)),
    "dirichlet_series_truncated (2, 1)": lambda: _hex(
        verify.dirichlet_series_truncated(ArithParams(2, 1.0), 2.0, 3 * 10**5)),
    "dirichlet_series_truncated (3, 1.5)": lambda: _hex(
        verify.dirichlet_series_truncated(ArithParams(3, 1.5), 1.7, 3 * 10**5 + 7)),
}


@pytest.mark.parametrize("name", list(REDUCTIONS))
def test_every_split_gives_the_same_bits(monkeypatch, name):
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _no_fork)
        serial = REDUCTIONS[name]()
    real_fork = os.fork
    for parts in (2, 3):
        forked = []

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        with monkeypatch.context() as m:
            _force_parts(m, parts)
            m.setattr(os, "fork", fork)
            assert REDUCTIONS[name]() == serial, parts
        assert len(forked) == parts - 1  # each is one walk
    _assert_no_child_left()


def test_default_sizes_fork_nothing(monkeypatch):
    # the default prime cutoff and the battery's default sizes stay on one process
    monkeypatch.setattr(os, "fork", _no_fork)
    b = coeffs.bundle(ArithParams(2, 1.0), coeffs.DEFAULT_PRIME_CUTOFF)
    assert np.isfinite(b.x_coeff)
    reports = verify.run_battery(ArithParams(2, 1.0))
    assert all(rep.passed for rep in reports)
