"""The jm family leaves out a certified-negligible tail of j multiplets.

A maximally mixed bath puts almost all of its weight on total spins j of
order sqrt(N).  ``sector_family(params, "jm")`` keeps the shortest ascending
prefix of the multiplets whose dropped rest weighs at most
``sectors._TAIL_WEIGHT`` = 2^-60 in total.  Every sector term of every route
is bounded by its weight, so the cut moves a coherence by at most
2 |coh0| 2^-60 and a population by at most 2^-60.
"""

import math
import textwrap
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar import sectors
from spinstar.exact import exact_trajectory
from spinstar.masters import tcl2_jm
from spinstar.sectors import (
    EXACT_BINOMIAL_MAX_N,
    SystemParams,
    jm_sector_table,
    sector_family,
    weights_jm_array,
)

TAIL = 2.0**-60


def _params(N, **kw):
    return SystemParams(N=N, A=0.1 / (2 * N), omega0=1.0, **kw)


def _uncut(fn, *args):
    """``fn(*args)`` on the whole jm table."""
    with mock.patch.object(sectors, "_TAIL_WEIGHT", 0.0):
        return fn(*args)


@pytest.mark.parametrize(
    "N, kept",
    [(1, 2), (5, 12), (66, 34**2), (67, 1122), (101, 1892), (401, 8556), (1000, 21609),
     (10_000, 218089)],
)
def test_kept_sector_counts(N, kept):
    fam = sector_family(_params(N), "jm")
    assert fam.w.size == kept
    # whole chains, m = -j ... j
    assert np.all(fam.two_m[fam.lower < 0] == -fam.two_j[fam.lower < 0])
    assert fam.two_m[-1] == fam.two_j[-1]


@pytest.mark.parametrize("N", [67, 101, 401, 1000, EXACT_BINOMIAL_MAX_N + 904])
def test_dropped_tail_is_certified_and_minimal(N):
    # exact integer arithmetic on both weight paths: the dropped multiplets
    # weigh at most 2^-60, and keeping one multiplet fewer would exceed it
    top = int(sector_family(_params(N), "jm").two_j[-1])

    def p_num(two_j):  # 2^N p(j)
        k = (N + two_j) // 2
        return (two_j + 1) * (math.comb(N, k) - math.comb(N, k + 1))

    dropped = sum(p_num(tj) for tj in range(top + 2, N + 1, 2))
    assert dropped > 0
    assert Fraction(dropped, 1 << N) <= TAIL < Fraction(dropped + p_num(top), 1 << N)


def test_nothing_is_dropped_up_to_66_spins():
    for N in range(1, 67):
        assert sector_family(_params(N), "jm").w.size == jm_sector_table(N)[0].size


def test_kept_sectors_are_the_whole_table_prefix():
    p = _params(101, initial_p_plus=0.35)
    cut, whole = sector_family(p, "jm"), _uncut(sector_family, p, "jm")
    for name, value in vars(cut).items():
        np.testing.assert_array_equal(value, getattr(whole, name)[:value.size], err_msg=name)


def test_log_space_weights_are_the_whole_table_prefix():
    N = EXACT_BINOMIAL_MAX_N + 1
    fam = sector_family(_params(N), "jm")
    two_j, two_m = jm_sector_table(N)
    np.testing.assert_array_equal(fam.two_j, two_j[:fam.w.size])
    np.testing.assert_array_equal(fam.two_m, two_m[:fam.w.size])
    np.testing.assert_array_equal(fam.w, weights_jm_array(N)[:fam.w.size])


@given(
    N=st.integers(67, 200),
    alpha=st.floats(0.02, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
    p0=st.floats(0.001, 0.999),
    radius=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_cut_moves_totals_within_the_certified_bound_hypothesis(N, alpha, sign, p0, radius,
                                                                  phase):
    coh0 = radius * math.sqrt(p0 * (1.0 - p0)) * complex(math.cos(phase), math.sin(phase))
    p = SystemParams(N=N, A=sign * alpha / (2 * N), omega0=1.0, initial_p_plus=p0,
                     initial_coh=coh0)
    t = np.concatenate([[0.0], np.geomspace(0.01, 4000.0, 60)])
    eps = np.finfo(float).eps
    for fn in (exact_trajectory, tcl2_jm):
        cut, whole = fn(p, t), _uncut(fn, p, t)
        for got, ref, bound, rounding in (
            (cut.coh, whole.coh, 2.0 * abs(coh0) * TAIL, 4.0 * eps * abs(coh0)),
            (cut.p_plus, whole.p_plus, TAIL, 4.0 * eps),
        ):
            err = np.abs(got - ref)
            # the bound holds for the sums; where the shift flips the rounding
            # of the final 1 + sum, the outputs differ by that rounding, which
            # is rare
            assert np.all(err <= bound + rounding)
            assert np.count_nonzero(err > bound) <= 0.01 * t.size


_CAPPED_N1000 = textwrap.dedent(
    """
    import numpy as np
    from spinstar.exact import exact_trajectory
    from spinstar.masters import tcl2_jm
    from spinstar.sectors import SystemParams

    p = SystemParams(N=1000, A=0.1 / 2000, omega0=1.0, initial_p_plus=0.8,
                     initial_coh=0.3 - 0.1j)
    traj = {fn}(p, 0.5 * np.arange(16001))
    assert traj.p_plus[0] == 0.8 and traj.coh[0] == 0.3 - 0.1j
    assert np.all(np.abs(traj.coh) <= 0.32)
    """
)


@pytest.mark.parametrize("fn", ["exact_trajectory", "tcl2_jm"])
def test_thousand_spins_on_16001_times_fit_a_memory_cap(run_capped, fn):
    # the whole table (251001 sectors) would need 64 GB for one complex
    # (sectors, times) array, and the kept 21609 sectors still 5.5 GB: on this
    # uniform grid the sums (exact's and TCL2's, 136780 coherence and 42306
    # population series terms for TCL2) pass only if their terms reach the
    # exponential-sum kernel in slices of the sector table
    proc = run_capped(_CAPPED_N1000.format(fn=fn), cap_mib=256)
    assert proc.returncode == 0, proc.stderr[-2000:]
