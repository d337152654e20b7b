import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinstar.exact import _pair_rows, exact_trajectory
from spinstar.sectors import (
    EXACT_BINOMIAL_MAX_N,
    SystemParams,
    _multiplet_weights,
    coupling_from_alpha,
    jm_sector_table,
    prob_j_array,
    sector_family,
    two_m_values,
    weights_jm_array,
    weights_m_array,
)


def params(N=4, A=0.1, omega0=1.0, **kw):
    return SystemParams(N=N, A=A, omega0=omega0, **kw)


def n_j(N, two_j):
    """N_j by the product form C(N, k)(2j+1)/(k+1), k = N/2 + j, of the log-space weights."""
    k = (N + two_j) // 2
    q, r = divmod(math.comb(N, k) * (two_j + 1), k + 1)
    assert r == 0
    return q


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
        w = weights_m_array(4)  # two_m = -4, -2, 0, 2, 4
        assert w[2] == 6 / 16
        assert w[4] == 1 / 16

    def test_prob_j_examples(self):
        assert prob_j_array(2)[1] == 0.75  # two_j = 2
        assert prob_j_array(6)[1] == 3 * 9 / 64
        total = sum(prob_j_array(4).tolist())  # two_j = 0, 2, 4
        assert total == (2 + 9 + 5) / 16 == 1.0

    def test_multiplicity_matches_binomial_difference(self):
        # cancellation-free identity vs the direct difference, exact integers
        for N in range(1, 41):
            for tj in range(N % 2, N + 1, 2):
                k = (N + tj) // 2
                assert n_j(N, tj) == math.comb(N, k) - math.comb(N, k + 1)

    def test_multiplicity_sum_telescopes_to_weight(self):
        # sum_{j >= |m|} N_j = N_m, exact integer arithmetic
        for N in (3, 8, 17, 40):
            for i, tm in enumerate(range(-N, N + 1, 2)):
                total = sum(n_j(N, tj) for tj in range(abs(tm), N + 1, 2))
                assert total == math.comb(N, (N + tm) // 2)
                assert weights_m_array(N)[i] == total / 2**N

    @pytest.mark.parametrize("N", [1, 2, 7, 60, 61, 101, 200, 500, 1000, 2000])
    def test_normalization(self, N):
        assert abs(weights_m_array(N).sum() - 1.0) <= 1e-12
        assert abs(prob_j_array(N).sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "N, bound",
        # measured on these entries: 1.7e-12, 6.3e-12, 1.45e-11 and 5.3e-11; over
        # the central +-3 sqrt(N) entries at most 2.5e-11 (N = 10^4), 3.5e-10 (10^5)
        [(EXACT_BINOMIAL_MAX_N + 1, 1e-11), (EXACT_BINOMIAL_MAX_N + 904, 1e-11),
         (10_000, 4e-11), (100_000, 1e-9)],
    )
    def test_log_space_path_matches_exact_ratio(self, N, bound):
        # beyond the exact cutoff the log-space (lgamma) branch takes over, first
        # at N = EXACT_BINOMIAL_MAX_N + 1; compare a few entries against
        # big-integer arithmetic
        w = weights_m_array(N)
        tm = two_m_values(N)
        for i in (0, N // 4, N // 2, N // 2 + 1, N):
            exact = Fraction(math.comb(N, (N + int(tm[i])) // 2), 1 << N)
            assert abs(w[i] - float(exact)) <= 1e-15 + bound * float(exact)
        # p(j) and N_j/2^N (the per-multiplet weights that weights_jm_array
        # repeats) at j <= 3 sqrt(N), to the documented 20 N eps
        p_j, w_j = prob_j_array(N), _multiplet_weights(N, 0.0)[1]
        for i in (0, 1, math.isqrt(N), 3 * math.isqrt(N)):
            two_j = N % 2 + 2 * i
            k = (N + two_j) // 2
            n = math.comb(N, k) - math.comb(N, k + 1)
            for got, count in ((p_j[i], (two_j + 1) * n), (w_j[i], n)):
                exact = float(Fraction(count, 1 << N))
                assert abs(got - exact) <= 20 * N * np.finfo(float).eps * exact

    def test_weights_jm_consistency(self):
        N = 12
        tj, tm = jm_sector_table(N)
        w = weights_jm_array(N)
        # per-j weight is m-independent and equals N_j / 2^N
        for j in np.unique(tj):
            vals = w[tj == j]
            assert np.all(vals == vals[0])
            assert vals[0] == n_j(N, int(j)) / (1 << N)
        # summing (2j+1) copies reproduces p(j)
        for j in np.unique(tj):
            np.testing.assert_allclose(w[tj == j].sum(), prob_j_array(N)[j // 2], rtol=1e-14)


class TestFrequencies:
    def test_examples(self):
        fam = sector_family(params(N=4, A=0.1, omega0=1.0), "m")  # two_m = -4 ... 4
        assert (fam.om_p[2], fam.om_m[2]) == (1.2, -0.8)
        fam0 = sector_family(params(N=4, A=0.0), "m")
        assert (fam0.om_p[3], fam0.om_m[3]) == (1.0, -1.0)

    def test_antisymmetry_bit_exact(self):
        # Omega_-(m+1) == -Omega_+(m) must hold exactly, not just closely
        for A in (0.1, -0.37, 1e-3, 123.456):
            fam = sector_family(params(N=30, A=A, omega0=0.77), "m")
            assert np.all(fam.om_m[1:] == -fam.om_p[:-1])

    def test_mu_examples(self):
        # jm rows 1, 2, 3 are (j, m) = (1, -1), (1, 0), (1, 1)
        _, mu, _ = _pair_rows(sector_family(params(N=4, A=0.1, omega0=1.0), "jm"))
        np.testing.assert_allclose(mu[2], np.sqrt(0.36 + 0.08))
        assert mu[3] == 0.8  # stretched: b = 0
        np.testing.assert_allclose(mu[1], np.sqrt(0.16 + 0.08))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("N", [1, 2, 4, 9, 40, 101])
    @pytest.mark.parametrize("coupling", [0.23, -0.13, 0.0, 1e160],
                             ids=["A=0.23", "A=-0.13", "A=0", "A^2-overflows"])
    def test_mu_agrees_with_the_sector_table(self, N, coupling):
        # mu_+-(j, m) = sqrt(Omega_+-^2/4 + 4A^2 b(j, +-m)) against the pair rows,
        # bit for bit, the |-> branch read through ``minus``; at A = 1e160, A^2
        # overflows and inf and nan fall on the same rows
        A, omega0 = coupling, 1.3
        fam = sector_family(params(N=N, A=A, omega0=omega0), "jm")
        _, mu, minus = _pair_rows(fam)
        tj, tm = fam.two_j, fam.two_m
        for sign, rows in ((+1, mu[:tm.size]), (-1, mu[minus])):
            om = omega0 + 4 * A * (tm / 2 + sign * 0.5)  # +-Omega_+-(m)
            b = (tj * (tj + 2) - tm * (tm + 2 * sign)) / 4
            np.testing.assert_array_equal(rows, np.sqrt(0.25 * om * om + 4.0 * A * A * b))
        if coupling == 1e160:
            assert np.isinf(mu).any() and np.isnan(mu).any()


class TestBCoeff:
    # at A = 0.5 the jm table's b_p/b_m = 4A^2 b(j, +-m) are b(j, +-m) exactly

    def test_examples(self):
        fam = sector_family(params(N=4, A=0.5), "jm")
        assert (fam.two_j[2], fam.two_m[2], fam.b_p[2]) == (2, 0, 2.0)
        assert (fam.two_j[3], fam.two_m[3], fam.b_p[3]) == (2, 2, 0.0)
        fam = sector_family(params(N=3, A=0.5), "jm")
        assert (fam.two_j[4], fam.two_m[4], fam.b_p[4]) == (3, 1, 3.0)  # j=3/2, m=1/2

    def test_nonnegative(self):
        for N in (5, 12):
            fam = sector_family(params(N=N, A=0.5), "jm")
            tj, tm = fam.two_j, fam.two_m
            np.testing.assert_array_equal(fam.b_p, (tj * (tj + 2) - tm * (tm + 2)) / 4)
            np.testing.assert_array_equal(fam.b_m, (tj * (tj + 2) - tm * (tm - 2)) / 4)
            assert np.all(fam.b_p >= 0.0) and np.all(fam.b_m >= 0.0)

    def test_pairing_identity(self):
        # b evaluated downward from sector m+1 equals b evaluated upward from
        # sector m: the identity behind the pairwise population closure
        fam = sector_family(params(N=11, A=0.5), "jm")
        inner = fam.lower >= 0
        assert np.all(fam.b_m[inner] == fam.b_p[fam.lower[inner]])


class TestAlpha:
    def test_round_trip(self):
        a = coupling_from_alpha(101, 1.0, 0.1)
        np.testing.assert_allclose(a, 0.1 / 202, rtol=1e-15)
        np.testing.assert_allclose(2.0 * a * 101 / 1.0, 0.1, rtol=1e-15)  # alpha = 2AN/omega0
        np.testing.assert_allclose(
            coupling_from_alpha(101, 1.0, 0.5), 0.5 / 202, rtol=1e-15
        )


@given(st.integers(min_value=1, max_value=min(EXACT_BINOMIAL_MAX_N, 200)))
@settings(max_examples=30, deadline=None)
def test_weights_sum_exactly_one_hypothesis(N):
    # exact-arithmetic branch: the float sum should be 1 to a few ulp
    assert abs(weights_m_array(N).sum() - 1.0) <= 5e-15
    assert abs(prob_j_array(N).sum() - 1.0) <= 5e-15


@given(N=st.integers(1, EXACT_BINOMIAL_MAX_N), u=st.floats(0.0, 1.0))
@example(N=EXACT_BINOMIAL_MAX_N, u=0.5)
@settings(max_examples=20, deadline=None)
def test_exact_weights_are_correctly_rounded_hypothesis(N, u):
    """Up to EXACT_BINOMIAL_MAX_N every weight is its count over 2^N, correctly rounded.

    The counts are independent big-integer binomials; the entries checked are
    the edges, the centre and one drawn position of each table.
    """

    def rounded(count):
        return float(Fraction(count, 2**N))

    w_m, p_j, w_jm = weights_m_array(N), prob_j_array(N), weights_jm_array(N)
    table_two_j = jm_sector_table(N)[0]
    for k in {0, round(u * N), N // 2, N}:
        ref = rounded(math.comb(N, k))
        assert w_m[k] == ref
    for i in {0, round(u * (N // 2)), N // 2}:
        two_j = N % 2 + 2 * i
        k = (N + two_j) // 2
        count = math.comb(N, k) - math.comb(N, k + 1)
        assert p_j[i] == rounded((two_j + 1) * count)
        assert np.all(w_jm[table_two_j == two_j] == rounded(count))


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_sector_table_consistency_hypothesis(N, idx):
    tj, tm = jm_sector_table(N)
    assert tj.size == tm.size
    i = idx % tj.size
    # every table entry is a valid sector
    assert abs(tm[i]) <= tj[i] and (tj[i] - tm[i]) % 2 == 0
    # table is sorted ascending two_j then two_m and has no duplicates
    keys = list(zip(tj.tolist(), tm.tolist()))
    assert keys == sorted(set(keys))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_pairing_identities_bit_for_bit_hypothesis(data):
    """The |-> branch of sector m is the |+> branch of m-1 in its chain, bit for bit.

    The TCL2 detuning table and the exact pair rows read Omega_-(m) and, for
    jm, b(j, -m) from the row below, so these must hold exactly, also at
    A = 0 and at a resonance Omega_+(m) = 0.
    """
    n = data.draw(st.integers(1, 60), label="N")
    kind = data.draw(st.sampled_from(["generic", "zero", "resonant"]), label="kind")
    if kind == "resonant":
        two_m = data.draw(st.sampled_from([m for m in range(-n, n + 1, 2) if m != -1]),
                          label="resonant two_m")
        a = -math.copysign(data.draw(st.floats(1e-3, 10.0), label="|A|"), two_m + 1)
        omega0 = -(2.0 * a * (two_m + 1.0))
    else:
        a = 0.0 if kind == "zero" else data.draw(
            st.floats(-10.0, 10.0).filter(lambda v: v != 0.0), label="A")
        omega0 = data.draw(st.floats(1e-3, 100.0), label="omega0")
    p = params(N=n, A=a, omega0=omega0)
    if kind == "resonant":
        assert sector_family(p, "m").om_p[(two_m + n) // 2] == 0.0
    for family in ("m", "jm"):
        fam = sector_family(p, family)
        inner, bottom = fam.lower >= 0, fam.lower < 0
        np.testing.assert_array_equal(_bits(fam.om_m[inner]), _bits(-fam.om_p[fam.lower[inner]]))
        np.testing.assert_array_equal(_bits(fam.b_m[bottom]), _bits(np.zeros(bottom.sum())))
        if family == "jm":
            np.testing.assert_array_equal(_bits(fam.b_m[inner]), _bits(fam.b_p[fam.lower[inner]]))
            top = fam.two_m == fam.two_j
            np.testing.assert_array_equal(_bits(fam.b_p[top]), _bits(np.zeros(top.sum())))


@pytest.mark.parametrize("N", [1, 2, 5, 8, 60, 61])
def test_sector_family_matches_the_formulas(N):
    """The shared m/jm table against the counts and formulas of each sector."""
    A, omega0 = -0.13, 0.9
    p = params(N=N, A=A, omega0=omega0, initial_p_plus=0.35)
    p0 = p.initial_p_plus
    for family in ("m", "jm"):
        fam = sector_family(p, family)
        two_j = [N] * fam.two_m.size if fam.two_j is None else fam.two_j.tolist()
        index = {(j, m): i for i, (j, m) in enumerate(zip(two_j, fam.two_m.tolist()))}
        for (j, m), i in index.items():
            k = (N + m) // 2 if family == "m" else (N + j) // 2
            if family == "m":
                count = math.comb(N, k)
                b_p, b_m = 2 * (N - m), 2 * (N + m)  # 4(N/2 -+ m)
                pair = 8 * (N + 1)
                steady_ratio = ((N + m) // 2 + 1) / (N + 1)
            else:
                count = math.comb(N, k) - math.comb(N, k + 1)
                b_p, b_m = j * (j + 2) - m * (m + 2), j * (j + 2) - m * (m - 2)  # 4 b(j, +-m)
                pair = 4 * b_p
                steady_ratio = 0.5
            a2 = p.A**2
            w = float(Fraction(count, 2**N))
            assert fam.w[i] == w
            # Omega_+-(m) = +-omega0 + 4A(+-m + 1/2)
            assert (fam.om_p[i], fam.om_m[i]) == (omega0 + 4 * A * (m / 2 + 0.5),
                                                  -omega0 + 4 * A * (0.5 - m / 2))
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


@pytest.mark.parametrize("p0", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("N", [*range(1, 13), 101, 1000])
def test_only_frozen_sectors_carry_j3tot_weight(N, p0):
    """kappa_s y0_s pair_coef_s == 0 for every sector, exactly.

    With P^s_- = c_prev_s - P^{lower(s)}_+, J_3^tot = sum_s kappa_s P^s_+ + const,
    kappa_s = (m_s + 1/2) - sum_{u: lower(u) = s} (m_u - 1/2), and P^s_+ moves only
    by y0_s (g_s - 1), with g_s = 1 where pair_coef_s = 0: so J_3^tot is constant
    whenever each sector with kappa_s != 0 (a chain top) has y0_s = 0 (m) or
    pair_coef_s = 0 (jm).
    """
    p = params(N=N, A=0.013, omega0=1.0, initial_p_plus=p0)
    for family in ("m", "jm"):
        fam = sector_family(p, family)
        kappa = 0.5 * fam.two_m + 0.5
        inner = fam.lower >= 0
        np.subtract.at(kappa, fam.lower[inner], 0.5 * fam.two_m[inner] - 0.5)
        assert np.all(kappa * fam.y0 * fam.pair_coef == 0.0)
        top = kappa != 0.0
        assert np.count_nonzero(top) == (1 if family == "m" else np.unique(fam.two_j).size)
