"""Linear Volterra integrodifferential solvers for exponential-sum kernels.

Solves  x'(t) = - int_0^t k(t-s) x(s) ds  with
k(tau) = sum_i a_i exp(r_i tau), by three routes:

* ``spectral`` (production, exact): when every a_i >= 0 and every
  r_i = i w_i is purely imaginary, as in all NZ2 sector kernels, the
  auxiliary variables below scaled by sqrt(a_i) obey y' = -i H y with a
  Hermitian arrowhead H, so x(t) = x0 sum_k |V_0k|^2 exp(-i lambda_k t)
  from one batched ``eigh``: no step error, on any time grid.  Taken
  whenever ``opts`` is None and the kernel qualifies.
* ``aux_ode`` (O(T)): one auxiliary variable per kernel term,
  u_i' = r_i u_i + x, x' = -sum_i a_i u_i, stepped with classic RK4.  The
  default for any other kernel, and the route an explicit ``SolveOptions``
  selects (so a step bound or tolerance always means RK4).
* ``quadrature`` (verifier, O(T^2)): trapezoidal memory sums on a uniform
  grid with an implicit-trapezoid step, kept deliberately simple and
  independent of the reductions above.

``solve_volterra_batch``, the one public entry, solves a batch of
independent scalar problems (a single problem is a batch of one); the NZ2
solvers read the same solutions tile by tile, or their spectra, through
``_unit_solutions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import NumericsError, _tile, _uniform_step, _validate_times

__all__ = ["SolveOptions", "NumericsError", "solve_volterra_batch", "integrate_linear_ode"]


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs for the RK4 (``aux_ode``) and ``quadrature`` routes.

    Passing any ``SolveOptions`` runs ``method``; only ``opts=None`` lets
    :func:`solve_volterra_batch` take the exact spectral route.

    ``step`` is the internal step bound (output intervals are subdivided to
    respect it).  ``tolerance=None`` means a single fixed-step pass; a float
    enables step-halving control on the RK4 route (the quadrature route
    rejects it): the step is halved until two successive refinements agree
    to the tolerance (sup norm over all outputs), failing with NumericsError
    after ``max_halvings``.
    """

    step: float = 0.005
    method: str = "aux_ode"
    tolerance: float | None = None
    max_halvings: int = 12

    def __post_init__(self):
        if not (self.step > 0.0):
            raise ValueError("step must be positive")
        if self.method not in ("aux_ode", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tolerance is not None and not (self.tolerance > 0.0):
            raise ValueError("tolerance must be positive")
        if self.tolerance is not None and self.method == "quadrature":
            raise ValueError("the quadrature method runs one fixed-step pass: no tolerance")


def _rk4_fixed(rhs, y0: np.ndarray, times: np.ndarray, step: float) -> np.ndarray:
    """Classic RK4 from times[0] through all output points, substepping to <= step."""
    out = np.empty((times.size,) + y0.shape, dtype=y0.dtype)
    out[0] = y0
    y = y0
    for n in range(times.size - 1):
        t0, t1 = times[n], times[n + 1]
        nsub = max(1, int(np.ceil((t1 - t0) / step - 1e-12)))
        h = (t1 - t0) / nsub
        t = t0
        for _ in range(nsub):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out[n + 1] = y
    return out


def integrate_linear_ode(y0, generator, times, opts: SolveOptions | None = None):
    """Integrate y' = generator(t, y) (linear in y) with RK4 and optional step halving.

    Returns an array of shape ``(len(times),) + y0.shape``.  With a
    tolerance set, the step is halved until two refinements agree; the finer
    solution is returned.
    """
    opts = opts or SolveOptions()
    t = _validate_times(times)
    y0 = np.asarray(y0, dtype=complex)

    # clamp to the widest output interval so that halving the step always
    # refines the integration (otherwise ceil() keeps the substep count at 1
    # and the error control sees two identical passes)
    step = opts.step
    if t.size > 1:
        step = min(step, float(np.max(np.diff(t))))

    sol = err = None
    for halvings in range(opts.max_halvings + 1):
        if halvings:
            step *= 0.5
        finer = _rk4_fixed(generator, y0, t, step)
        if not np.all(np.isfinite(finer)):
            raise NumericsError(
                f"non-finite values during RK4 integration at step {step:g}",
                route="rk4", step=step, halvings=halvings, error=err,
            )
        if sol is not None:
            err = float(np.max(np.abs(finer - sol)))
        sol = finer
        if opts.tolerance is None or err is not None and err <= opts.tolerance:
            return sol
    raise NumericsError(
        f"step halving did not reach tolerance {opts.tolerance:g} "
        f"within {opts.max_halvings} halvings (last step {step:g})",
        route="rk4", step=step, halvings=opts.max_halvings, error=err,
    )


def _aux_ode_solve(x0, amps, rates, times, opts: SolveOptions):
    """RK4 on y = (x, u_1..u_K), y' = M y, with one generator M per problem."""
    n_prob, n_terms = amps.shape
    gen = np.zeros((n_prob, n_terms + 1, n_terms + 1), dtype=complex)
    gen[:, 0, 1:] = -amps  # x' = -sum_i a_i u_i
    gen[:, 1:, 0] = 1.0  # u_i' = r_i u_i + x
    diag = np.arange(1, n_terms + 1)
    gen[:, diag, diag] = rates

    def rhs(t, y):
        return np.einsum("pij,pj->pi", gen, y)

    y0 = np.zeros((n_prob, n_terms + 1), dtype=complex)
    y0[:, 0] = x0
    ys = integrate_linear_ode(y0, rhs, times, opts)
    return ys[:, :, 0].T  # (n_prob, n_times)


def _quadrature_solve(x0, amps, rates, times, opts: SolveOptions):
    """Implicit-trapezoid stepping with trapezoidal memory sums (order 2)."""
    dt = _uniform_step(times)
    if dt is None:
        raise ValueError("quadrature method requires a uniform output grid")
    nsub = max(1, int(np.ceil(dt / opts.step - 1e-12)))
    h = dt / nsub
    n_steps = nsub * (times.size - 1)
    n_prob = x0.shape[0]

    tau = h * np.arange(n_steps + 1)
    kv = np.add.reduce(
        amps[:, :, None] * np.exp(rates[:, :, None] * tau[None, None, :]), axis=1
    )  # (n_prob, n_steps + 1) kernel samples k(j h)
    k0 = kv[:, 0]

    x = np.empty((n_prob, n_steps + 1), dtype=complex)
    x[:, 0] = x0
    f_prev = 0.0 * x0  # the memory integral is 0 at t=0
    denom = 1.0 + 0.25 * h * h * k0
    for n in range(n_steps):
        # memory sum for t_{n+1}, trapezoid weights, excluding the unknown
        # x_{n+1} endpoint term: h * [ k((n+1)h) x_0 / 2 + sum_{j=1..n} k((n+1-j)h) x_j ]
        s = 0.5 * kv[:, n + 1] * x[:, 0]
        if n >= 1:
            s = s + np.einsum("pj,pj->p", kv[:, n:0:-1], x[:, 1 : n + 1])
        s *= h
        x_new = (x[:, n] + 0.5 * h * (f_prev - s)) / denom
        x[:, n + 1] = x_new
        # completed derivative at t_{n+1}, for the next step
        f_prev = -(s + 0.5 * h * k0 * x_new)
    if not np.all(np.isfinite(x)):
        raise NumericsError(
            f"non-finite values in quadrature solve at step {h:g}", route="quadrature", step=h
        )
    return x[:, ::nsub]


def _arrowhead_spectrum(amps, rates):
    """Eigenvalues lambda_k and weights |V_0k|^2, shape (P, K+1) each, of every arrowhead H.

    H = [[0, -i sqrt(a)^T], [i sqrt(a), -diag(w)]] is D S D^* with D = diag(1, i, ..., i)
    and the real S = [[0, sqrt(a)^T], [sqrt(a), -diag(w)]], so H has the eigenvalues
    of S and |V_0k|^2 = U_0k^2.  The weights sum to 1; a defect above 1e-12 raises.
    """
    n_prob, n_terms = amps.shape
    root = np.sqrt(amps.real)
    s = np.zeros((n_prob, n_terms + 1, n_terms + 1))
    s[:, 0, 1:] = root
    s[:, 1:, 0] = root
    diag = np.arange(1, n_terms + 1)
    s[:, diag, diag] = -rates.imag
    lam, vec = np.linalg.eigh(s)
    wts = vec[:, 0, :] ** 2
    defect = float(np.max(np.abs(np.add.reduce(wts, axis=1) - 1.0), initial=0.0))
    if not defect <= 1e-12:
        raise NumericsError(
            f"spectral solve failed: eigenvector weight-sum defect {defect:.3g}",
            route="spectral", error=defect,
        )
    return lam, wts


def _expm1_sum(lam, wts, t, out, term):
    """out = sum_k wts_k expm1(-i lam_k t), its real part if ``out`` is real, one k at a time.

    ``out`` and the complex scratch ``term`` are (P, T) tiles: no (P, K+1, T) array.  For
    a real ``out`` the sum runs in real arithmetic in the memory of ``term``: the real
    part of expm1(-i y) is -2 sin^2(y/2), which numpy's complex expm1 gives bit for bit."""
    out.fill(0.0)
    real = out.dtype != term.dtype
    if real:
        term = _tile(term.reshape(-1).view(float), *out.shape)
    for k in range(lam.shape[1]):
        np.multiply.outer(lam[:, k], t, out=term)
        if real:
            term *= -0.5
            np.sin(term, out=term)
            term *= term
            term *= -2.0
        else:
            term *= -1j
            np.expm1(term, out=term)
        term *= wts[:, k, None]
        out += term
    return out


def _spectral_solve(x0, amps, rates, times):
    """Exact solve for kernels with a_i >= 0 and r_i = i w_i (see the module docstring).

    x(t) = x0 [1 + sum_k |V_0k|^2 expm1(-i lambda_k t)], which is x0 sum_k |V_0k|^2
    exp(-i lambda_k t) because the weights sum to 1, and keeps x(0) == x0 exactly."""
    lam, wts = _arrowhead_spectrum(amps, rates)
    x = _expm1_sum(lam, wts, times, *np.empty((2, x0.size, times.size), complex))
    x += 1.0
    x *= x0[:, None]
    if not np.all(np.isfinite(x)):
        raise NumericsError("spectral solve failed: non-finite values", route="spectral")
    return x


def _checked(x0, amplitudes, rates, times):
    """(x0, amplitudes, rates, times) of a batch as arrays, checked (see solve_volterra_batch)."""
    t = _validate_times(times)
    if abs(t[0]) > 1e-14:
        raise ValueError("times must start at 0 (the memory integral starts there)")
    x0 = np.asarray(x0, dtype=complex)
    amps = np.asarray(amplitudes, dtype=complex)
    rts = np.asarray(rates, dtype=complex)
    if x0.ndim != 1 or amps.shape != rts.shape or amps.shape[0] != x0.shape[0]:
        raise ValueError("inconsistent batch shapes")
    if not all(np.all(np.isfinite(a)) for a in (x0, amps, rts)):
        raise NumericsError("non-finite initial value, kernel amplitude or rate")
    return x0, amps, rts, t


def _spectral(amps, rates, opts) -> bool:
    """Whether the spectral route runs: no ``opts``, amplitudes >= 0, imaginary rates."""
    return (opts is None and np.all(amps.imag == 0.0) and np.all(amps.real >= 0.0)
            and np.all(rates.real == 0.0))


def solve_volterra_batch(
    x0,
    amplitudes,
    rates,
    times,
    opts: SolveOptions | None = None,
) -> np.ndarray:
    """Batched solve of independent scalar Volterra problems.

    ``x0`` has shape (P,), ``amplitudes``/``rates`` shape (P, K).  Returns
    (P, n_times).  With ``opts`` None, kernels with real amplitudes >= 0 and
    purely imaginary rates take the exact spectral route and all others
    RK4 with the default ``SolveOptions()``; an explicit ``opts`` always
    runs ``opts.method``.  A non-finite ``x0``, amplitude or rate raises
    NumericsError before any route runs.
    """
    x0, amps, rts, t = _checked(x0, amplitudes, rates, times)
    if t.size == 1:
        return x0[:, None].copy()
    if _spectral(amps, rts, opts):
        return _spectral_solve(x0, amps, rts, t)
    opts = opts or SolveOptions()
    if opts.method == "aux_ode":
        return _aux_ode_solve(x0, amps, rts, t, opts)
    return _quadrature_solve(x0, amps, rts, t, opts)


def _unit_solutions(amplitudes, rates, times, opts: SolveOptions | None):
    """(part, spectrum) of the problems of ``solve_volterra_batch`` from x(0) = 1.

    The batch runs that function's checks and takes its route.
    ``part(rows, sl, out, term)`` writes x[rows, sl] - 1 into the tile ``out``,
    its real part if ``out`` is real, with ``term`` a complex scratch tile.
    On the spectral route ``spectrum`` is (lambda, |V_0k|^2) of every problem,
    from which each tile is evaluated, so nothing grows with problems x times;
    on the others it is None and the whole-grid solution is sliced.
    """
    x0, amps, rts, t = _checked(np.ones(len(amplitudes)), amplitudes, rates, times)
    if _spectral(amps, rts, opts):
        lam, wts = _arrowhead_spectrum(amps, rts)
        return (lambda rows, sl, out, term: _expm1_sum(lam[rows], wts[rows], t[sl], out, term),
                (lam, wts))
    x = solve_volterra_batch(x0, amps, rts, t, opts)
    return (lambda rows, sl, out, term: np.subtract(
        x[rows, sl] if out.dtype == x.dtype else x.real[rows, sl], 1.0, out=out)), None
