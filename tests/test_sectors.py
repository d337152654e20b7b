import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstar.exact import exact_trajectory
from spinstar.sectors import (
    EXACT_BINOMIAL_MAX_N,
    SectorJM,
    SectorM,
    SystemParams,
    alpha,
    b_coeff,
    coupling_from_alpha,
    jm_sector_table,
    mu,
    multiplicity_j,
    prob_j,
    prob_j_array,
    sector_family,
    sector_frequencies,
    two_m_values,
    weight_m,
    weights_jm_array,
    weights_m_array,
)


def params(N=4, A=0.1, omega0=1.0, **kw):
    return SystemParams(N=N, A=A, omega0=omega0, **kw)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(N=0, A=0.1, omega0=1.0)
        with pytest.raises(ValueError):
            SystemParams(N=2, A=0.1, omega0=0.0)
        with pytest.raises(ValueError):
            SystemParams(N=2, A=np.inf, omega0=1.0)
        with pytest.raises(ValueError):
            SystemParams(N=2, A=0.1, omega0=1.0, initial_p_plus=1.5)
        for bad_n in (np.inf, np.nan, 2.5):
            with pytest.raises(ValueError):
                SystemParams(N=bad_n, A=0.1, omega0=1.0)
        # integral floats and numpy integers are stored as int
        kw = dict(A=0.1, omega0=1.0, initial_p_plus=0.5, initial_coh=0.1)
        p = SystemParams(N=2.0, **kw)
        assert p == SystemParams(N=2, **kw)
        assert type(p.N) is int and type(SystemParams(N=np.int64(3), A=0.1, omega0=1.0).N) is int
        exact_trajectory(p, np.linspace(0.0, 1.0, 5))

    def test_nonpositive_initial_state_warns_but_propagates(self):
        # |coh|^2 > p(1-p) is Hermitian but not PSD; accepted with a warning
        with pytest.warns(UserWarning):
            p = SystemParams(N=2, A=0.1, omega0=1.0, initial_p_plus=1.0,
                             initial_coh=0.5)
        assert not p.is_physical

    @pytest.mark.parametrize("excess, physical", [(1e-13, True), (1e-11, False)])
    def test_warning_agrees_with_is_physical(self, excess, physical):
        # |coh|^2 exceeds p(1-p) = 1/4 by less / more than the rounding slack
        coh = math.sqrt(0.25 + excess)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = SystemParams(N=2, A=0.1, omega0=1.0, initial_p_plus=0.5, initial_coh=coh)
        assert p.is_physical is physical
        assert len(caught) == (0 if physical else 1)

    def test_rho_s0(self):
        p = params(initial_p_plus=0.7, initial_coh=0.2 - 0.1j)
        rho = p.rho_s0
        np.testing.assert_allclose(rho, rho.conj().T)
        assert rho[0, 0] == 0.7 and rho[0, 1] == 0.2 - 0.1j


class TestWeights:
    def test_weight_m_small(self):
        p = params(N=4)
        assert weight_m(p, SectorM(0)) == 6 / 16
        assert weight_m(p, SectorM(4)) == 1 / 16

    def test_weight_m_invalid_sector(self):
        p = params(N=4)
        with pytest.raises(ValueError):
            weight_m(p, SectorM(1))  # parity mismatch
        with pytest.raises(ValueError):
            weight_m(p, SectorM(6))  # out of range

    def test_prob_j_examples(self):
        assert prob_j(params(N=2), 2) == 0.75
        assert prob_j(params(N=6), 2) == 3 * 9 / 64
        total = sum(prob_j(params(N=4), tj) for tj in (0, 2, 4))
        assert total == (2 + 9 + 5) / 16 == 1.0

    def test_multiplicity_matches_binomial_difference(self):
        # cancellation-free identity vs the direct difference, exact integers
        for N in range(1, 41):
            for tj in range(N % 2, N + 1, 2):
                k = (N + tj) // 2
                direct = math.comb(N, k) - (math.comb(N, k + 1) if k + 1 <= N else 0)
                assert multiplicity_j(N, tj) == direct

    def test_multiplicity_sum_telescopes_to_weight(self):
        # sum_{j >= |m|} N_j = N_m, exact integer arithmetic
        for N in (3, 8, 17, 40):
            for tm in range(-N, N + 1, 2):
                total = sum(
                    multiplicity_j(N, tj) for tj in range(abs(tm), N + 1, 2)
                )
                assert total == math.comb(N, (N + tm) // 2)

    @pytest.mark.parametrize("N", [1, 2, 7, 60, 61, 101, 200, 500, 1000, 2000])
    def test_normalization(self, N):
        assert abs(weights_m_array(N).sum() - 1.0) <= 1e-12
        assert abs(prob_j_array(N).sum() - 1.0) <= 1e-12

    def test_log_space_path_matches_exact_ratio(self):
        # beyond the exact cutoff the gammaln branch takes over; compare a few
        # entries against big-integer arithmetic
        N = EXACT_BINOMIAL_MAX_N + 904  # an even N on the log-space path
        w = weights_m_array(N)
        tm = two_m_values(N)
        for i in (0, N // 4, N // 2, N // 2 + 1, N):
            exact = Fraction(math.comb(N, (N + int(tm[i])) // 2), 1 << N)
            assert abs(w[i] - float(exact)) <= 1e-15 + 1e-11 * float(exact)

    def test_weights_jm_consistency(self):
        N = 12
        tj, tm = jm_sector_table(N)
        w = weights_jm_array(N)
        # per-j weight is m-independent and equals N_j / 2^N
        for j in np.unique(tj):
            vals = w[tj == j]
            assert np.all(vals == vals[0])
            assert vals[0] == multiplicity_j(N, int(j)) / (1 << N)
        # summing (2j+1) copies reproduces p(j)
        p = params(N=N)
        for j in np.unique(tj):
            np.testing.assert_allclose(
                w[tj == j].sum(), prob_j(p, int(j)), rtol=1e-14
            )


class TestFrequencies:
    def test_examples(self):
        p = params(N=4, A=0.1, omega0=1.0)
        assert sector_frequencies(p, SectorM(0)) == (1.2, -0.8)
        p0 = params(N=4, A=0.0)
        assert sector_frequencies(p0, SectorM(2)) == (1.0, -1.0)

    def test_antisymmetry_bit_exact(self):
        # Omega_-(m+1) == -Omega_+(m) must hold exactly, not just closely
        for A in (0.1, -0.37, 1e-3, 123.456):
            p = params(N=30, A=A, omega0=0.77)
            for tm in range(-30, 29, 2):
                om_p, _ = sector_frequencies(p, SectorM(tm))
                _, om_m_next = sector_frequencies(p, SectorM(tm + 2))
                assert om_m_next == -om_p

    def test_mu_examples(self):
        p = params(N=4, A=0.1, omega0=1.0)
        np.testing.assert_allclose(mu(p, SectorJM(2, 0), +1), np.sqrt(0.36 + 0.08))
        assert mu(p, SectorJM(2, 2), +1) == 0.8  # stretched: b = 0
        np.testing.assert_allclose(mu(p, SectorJM(2, -2), +1), np.sqrt(0.16 + 0.08))

    def test_mu_identity(self):
        # mu^2 - Omega^2/4 = 4A^2 b(j, +-m) to relative 1e-12
        p = params(N=9, A=0.23, omega0=1.3)
        tj, tm = jm_sector_table(9)
        for a, b in zip(tj, tm):
            s = SectorJM(int(a), int(b))
            for branch in (+1, -1):
                om = sector_frequencies(p, SectorM(int(b)))[0 if branch == 1 else 1]
                lhs = mu(p, s, branch) ** 2 - 0.25 * om**2
                rhs = 4.0 * p.A**2 * b_coeff(s, branch)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("coupling", [0.23, 1e160], ids=["A=0.23", "A^2-overflows"])
    def test_mu_agrees_with_the_sector_table(self, coupling):
        # the scalar mu and the Rabi frequencies of the jm table (as exact.py
        # forms them), bit for bit; at A = 1e160, A^2 overflows to inf in both
        p = params(N=4, A=coupling, omega0=1.0)
        fam = sector_family(p, "jm")
        for branch, om, b4 in ((+1, fam.om_p, fam.b_p), (-1, fam.om_m, fam.b_m)):
            scalar = [mu(p, SectorJM(int(tj), int(tm)), branch)
                      for tj, tm in zip(fam.two_j, fam.two_m)]
            np.testing.assert_array_equal(scalar, np.sqrt(0.25 * om * om + b4))
        if coupling == 1e160:
            assert mu(p, SectorJM(2, 0)) == np.inf


class TestBCoeff:
    def test_examples(self):
        assert b_coeff(SectorJM(2, 0), +1) == 2.0
        assert b_coeff(SectorJM(2, 2), +1) == 0.0
        assert b_coeff(SectorJM(3, 1), +1) == 3.0  # j=3/2, m=1/2

    def test_nonnegative(self):
        for N in (5, 12):
            tj, tm = jm_sector_table(N)
            for a, b in zip(tj, tm):
                assert b_coeff(SectorJM(int(a), int(b)), +1) >= 0.0
                assert b_coeff(SectorJM(int(a), int(b)), -1) >= 0.0

    def test_pairing_identity(self):
        # b evaluated downward from sector m+1 equals b evaluated upward from
        # sector m: the identity behind the pairwise population closure
        tj, tm = jm_sector_table(11)
        for a, b in zip(tj, tm):
            if b + 2 <= a:
                assert b_coeff(SectorJM(int(a), int(b)), +1) == b_coeff(
                    SectorJM(int(a), int(b) + 2), -1
                )

    def test_invalid_sector(self):
        with pytest.raises(ValueError):
            SectorJM(2, 3)
        with pytest.raises(ValueError):
            SectorJM(2, 1)  # parity mismatch
        with pytest.raises(ValueError):
            b_coeff(SectorJM(2, 0), 2)


class TestAlpha:
    def test_round_trip(self):
        a = coupling_from_alpha(101, 1.0, 0.1)
        np.testing.assert_allclose(a, 0.1 / 202, rtol=1e-15)
        p = SystemParams(N=101, A=a, omega0=1.0)
        np.testing.assert_allclose(alpha(p), 0.1, rtol=1e-15)
        np.testing.assert_allclose(
            coupling_from_alpha(101, 1.0, 0.5), 0.5 / 202, rtol=1e-15
        )

    def test_zero(self):
        assert alpha(params(A=0.0)) == 0.0


@given(st.integers(min_value=1, max_value=min(EXACT_BINOMIAL_MAX_N, 200)))
@settings(max_examples=30, deadline=None)
def test_weights_sum_exactly_one_hypothesis(N):
    # exact-arithmetic branch: the float sum should be 1 to a few ulp
    assert abs(weights_m_array(N).sum() - 1.0) <= 5e-15
    assert abs(prob_j_array(N).sum() - 1.0) <= 5e-15


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_sector_table_consistency_hypothesis(N, idx):
    tj, tm = jm_sector_table(N)
    assert tj.size == tm.size
    i = idx % tj.size
    s = SectorJM(int(tj[i]), int(tm[i]))  # every table entry is a valid sector
    assert abs(s.two_m) <= s.two_j
    # table is sorted ascending two_j then two_m and has no duplicates
    keys = list(zip(tj.tolist(), tm.tolist()))
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("N", [1, 2, 5, 8, 60, 61])
def test_sector_family_matches_scalar_api(N):
    """The shared m/jm table against the scalar sector functions, sector by sector."""
    p = params(N=N, A=-0.13, omega0=0.9, initial_p_plus=0.35)
    p0 = p.initial_p_plus
    for family in ("m", "jm"):
        fam = sector_family(p, family)
        two_j = [N] * fam.two_m.size if fam.two_j is None else fam.two_j.tolist()
        index = {(j, m): i for i, (j, m) in enumerate(zip(two_j, fam.two_m.tolist()))}
        for (j, m), i in index.items():
            if family == "m":
                w = weight_m(p, SectorM(m))
                b_p, b_m = 2 * (N - m), 2 * (N + m)  # 4(N/2 -+ m)
                pair = 8 * (N + 1)
                steady_ratio = ((N + m) // 2 + 1) / (N + 1)
            else:
                s = SectorJM(j, m)
                w = prob_j(p, j) / (j + 1)
                b_p, b_m = 4 * b_coeff(s, +1), 4 * b_coeff(s, -1)
                pair = 4 * b_p
                steady_ratio = 0.5
            a2 = p.A**2
            assert fam.w[i] == pytest.approx(w, rel=1e-15)
            assert (fam.om_p[i], fam.om_m[i]) == sector_frequencies(p, SectorM(m))
            assert fam.b_p[i] == pytest.approx(a2 * b_p, rel=1e-15, abs=1e-300)
            assert fam.b_m[i] == pytest.approx(a2 * b_m, rel=1e-15, abs=1e-300)
            assert fam.pair_coef[i] == pytest.approx(a2 * pair, rel=1e-15, abs=1e-300)
            up, low = index.get((j, m + 2)), index.get((j, m - 2))
            c = w * p0 + (fam.w[up] if up is not None else 0.0) * (1 - p0)
            assert fam.c[i] == pytest.approx(c, rel=1e-15)
            assert fam.steady[i] == pytest.approx(steady_ratio * c, rel=1e-15)
            assert fam.y0[i] == pytest.approx(w * p0 - fam.steady[i], rel=1e-13, abs=1e-16)
            assert fam.lower[i] == (-1 if low is None else low)
            c_prev = fam.c[low] if low is not None else w * (1 - p0)
            assert fam.c_prev[i] == pytest.approx(c_prev, rel=1e-15)
    with pytest.raises(ValueError, match="unknown family"):
        sector_family(p, "product")
