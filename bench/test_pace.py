"""Tests of the speed reference that scales the benchmark's times (no welldom needed).

Run with ``python3 -m pytest bench``.
"""

from pytest import approx

import pace


def paced(mids, times) -> pace.Pace:
    p = pace.Pace()
    p.mids, p.times = list(mids), list(times)
    return p


def test_scale_uses_the_samples_near_the_interval():
    p = paced([0.0, 0.5, 1.0, 5.0, 5.5], [0.004, 0.004, 0.004, 0.016, 0.016])
    assert p.scale(0.2, 0.8) == approx(pace.REFERENCE_S / 0.004)
    assert p.scale(5.1, 5.2) == approx(pace.REFERENCE_S / 0.016)
    assert p.scaled(5.0, 5.5) == approx(0.5 * pace.REFERENCE_S / 0.016)


def test_samples_are_taken_when_due():
    p = pace.Pace()
    p.due()
    p.due()  # too soon after the first
    assert len(p.times) == len(p.mids) == 1 and p.times[0] > 0
    p.sample()
    assert len(p.times) == 2 and p.mids[0] < p.mids[1]


def test_reference_work_is_fixed():
    assert pace.reference_work() == pace.reference_work()
