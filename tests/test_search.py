"""Shared budget search: probe order of each phase, march caps, probe budget."""

import numpy as np

from ccpkit.search import MARCH_PROBES, bisect_budget, bisect_from


def threshold(at):
    """accept(t) taking every t >= at (witness: t itself), logging each probe."""
    probes = []

    def accept(t):
        probes.append(t)
        return t if t >= at else None

    return accept, probes


def test_up_march_keeps_lo_then_halves():
    accept, probes = threshold(5.5)
    out = bisect_budget(accept, 0.0, np.inf, 1.0, 1.0)
    assert probes == [1.0, 2.0, 4.0, 8.0, 4.0, 6.0, 5.0]
    assert out.marched == (0.0, 8.0)
    assert (out.lo, out.hi, out.witness, out.probes) == (5.0, 6.0, 6.0, 7)


def test_down_march_moves_hi_then_halves():
    accept, probes = threshold(3.5)
    out = bisect_budget(accept, -np.inf, 10.0, 0.5, 1.0)
    assert probes == [9.0, 7.0, 3.0, 5.0, 4.0, 3.5]
    assert out.marched == (3.0, 7.0)
    assert (out.lo, out.hi, out.witness, out.probes) == (3.0, 3.5, 3.5, 6)


def test_finite_bracket_only_halves():
    accept, probes = threshold(0.3)
    out = bisect_budget(accept, 0.0, 1.0, 0.25, 1.0)
    assert probes == [0.5, 0.25]
    assert (out.lo, out.hi, out.witness) == (0.25, 0.5, 0.5)
    assert out.marched == (0.0, 1.0)


def test_nothing_accepted_leaves_witness_none():
    accept, probes = threshold(np.inf)
    out = bisect_budget(accept, 0.0, 1.0, 0.25, 1.0)
    assert probes == [0.5, 0.75]
    assert out.witness is None and out.hi == 1.0


def test_relative_width_scales_with_hi():
    accept, probes = threshold(1000.0)
    out = bisect_budget(accept, 0.0, 2000.0, 1e-3, 1.0, relative=True)
    assert out.hi - out.lo <= 1e-3 * (1.0 + abs(out.hi))
    assert out.hi - out.lo > 1e-3
    assert out.hi >= 1000.0 and out.lo < 1000.0


def test_up_march_runs_out_after_the_cap():
    accept, probes = threshold(np.inf)
    out = bisect_budget(accept, 0.0, np.inf, 1.0, 1.0)
    assert len(probes) == MARCH_PROBES == 60
    assert probes[-1] == 2.0 ** (MARCH_PROBES - 1)
    assert out.hi == np.inf and out.witness is None and out.lo == 0.0


def test_down_march_runs_out_after_the_cap():
    accept, probes = threshold(-np.inf)
    out = bisect_budget(accept, -np.inf, 0.0, 1.0, 1.0)
    assert len(probes) == MARCH_PROBES
    assert out.lo == -np.inf
    assert out.hi == probes[-1] == out.witness < -(2.0 ** (MARCH_PROBES - 1))


def test_probe_budget_is_shared_by_march_and_halving():
    accept, probes = threshold(-10.0)
    out = bisect_budget(accept, -np.inf, 0.0, 1e-6, 1.0, max_probes=5)
    assert probes == [-1.0, -3.0, -7.0, -15.0, -11.0]
    assert out.marched == (-15.0, -7.0)
    assert (out.lo, out.hi, out.probes) == (-11.0, -7.0, 5)


def test_march_probes_count_against_the_budget():
    accept, probes = threshold(-10.0)
    out = bisect_budget(accept, -np.inf, 0.0, 1e-6, 1.0, max_probes=3)
    assert probes == [-1.0, -3.0, -7.0, -15.0]
    assert (out.lo, out.hi, out.probes) == (-15.0, -7.0, 4)


def test_search_from_an_accepted_start_marches_down_first():
    accept, probes = threshold(1.0)
    out = bisect_from(accept, 10.0, 1.0)
    assert probes == [10.0, 5.0, -5.0, 0.0, 2.5, 1.25, 0.625]
    assert (out.lo, out.hi, out.witness, out.probes) == (0.625, 1.25, 1.25, 7)


def test_search_from_a_rejected_start_probes_it_exactly():
    accept, probes = threshold(2.5)
    out = bisect_from(accept, 0.1, 0.5)
    assert probes[:4] == [0.1, 1.1, 2.1, 4.1]
    assert out.hi - out.lo <= 0.5 and out.lo < 2.5 <= out.hi == out.witness
    assert out.probes == len(probes)


def test_search_from_reports_no_witness_when_nothing_is_accepted():
    accept, probes = threshold(np.inf)
    out = bisect_from(accept, 0.0, 1.0)
    assert len(probes) == 1 + MARCH_PROBES and probes[0] == 0.0
    assert out.witness is None and out.hi == np.inf and out.probes == len(probes)
