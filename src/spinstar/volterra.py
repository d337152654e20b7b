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

All routes accept batches of independent scalar problems (the sector
equations of the master solvers) as leading array dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import NumericsError, _validate_times

__all__ = [
    "KernelSpec",
    "SolveOptions",
    "NumericsError",
    "solve_volterra",
    "solve_volterra_batch",
    "integrate_linear_ode",
]


@dataclass(frozen=True)
class KernelSpec:
    """Memory kernel k(tau) = sum_i a_i exp(r_i tau)."""

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        for a, r in self.terms:
            if not (np.isfinite(complex(a)) and np.isfinite(complex(r))):
                raise ValueError("kernel amplitudes and rates must be finite")

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.terms], dtype=complex)

    @property
    def rates(self) -> np.ndarray:
        return np.array([r for _, r in self.terms], dtype=complex)


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs for the RK4 (``aux_ode``) and ``quadrature`` routes.

    Passing any ``SolveOptions`` runs ``method``; only ``opts=None`` lets
    :func:`solve_volterra_batch` take the exact spectral route.

    ``step`` is the internal step bound (output intervals are subdivided to
    respect it).  ``tolerance=None`` means a single fixed-step pass; a float
    enables step-halving control: the step is halved until two successive
    refinements agree to the tolerance (sup norm over all outputs), failing
    with NumericsError after ``max_halvings``.
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

    sol = _rk4_fixed(generator, y0, t, step)
    if not np.all(np.isfinite(sol.view(float))):
        raise NumericsError(
            f"non-finite values during RK4 integration at step {step:g}",
            route="rk4", step=step, halvings=0,
        )
    if opts.tolerance is None:
        return sol
    err = None
    for halvings in range(1, opts.max_halvings + 1):
        step *= 0.5
        finer = _rk4_fixed(generator, y0, t, step)
        if not np.all(np.isfinite(finer.view(float))):
            raise NumericsError(
                f"non-finite values during RK4 integration at step {step:g}",
                route="rk4", step=step, halvings=halvings, error=err,
            )
        err = float(np.max(np.abs(finer - sol)))
        sol = finer
        if err <= opts.tolerance:
            return sol
    raise NumericsError(
        f"step halving did not reach tolerance {opts.tolerance:g} "
        f"within {opts.max_halvings} halvings (last step {step:g})",
        route="rk4", step=step, halvings=opts.max_halvings, error=err,
    )


def _aux_ode_solve(x0, amps, rates, times, opts: SolveOptions):
    n_prob, n_terms = amps.shape

    def rhs(t, y):
        x = y[:, 0]
        u = y[:, 1:]
        dx = -np.add.reduce(amps * u, axis=1)
        du = rates * u + x[:, None]
        return np.concatenate((dx[:, None], du), axis=1)

    y0 = np.zeros((n_prob, n_terms + 1), dtype=complex)
    y0[:, 0] = x0
    ys = integrate_linear_ode(y0, rhs, times, opts)
    return ys[:, :, 0].T  # (n_prob, n_times)


def _quadrature_solve(x0, amps, rates, times, opts: SolveOptions):
    """Implicit-trapezoid stepping with trapezoidal memory sums (order 2)."""
    if times.size == 1:
        return x0[:, None].copy()
    dt_out = np.diff(times)
    if not np.allclose(dt_out, dt_out[0], rtol=1e-9, atol=0.0):
        raise ValueError("quadrature method requires a uniform output grid")
    nsub = max(1, int(np.ceil(dt_out[0] / opts.step - 1e-12)))
    h = dt_out[0] / nsub
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
    if not np.all(np.isfinite(x.view(float))):
        raise NumericsError(
            f"non-finite values in quadrature solve at step {h:g}", route="quadrature", step=h
        )
    return x[:, ::nsub]


def _arrowhead_spectrum(amps, rates):
    """Eigenvalues lambda_k and weights |V_0k|^2, shape (P, K+1) each, of every arrowhead H."""
    n_prob, n_terms = amps.shape
    root = np.sqrt(amps.real)
    h = np.zeros((n_prob, n_terms + 1, n_terms + 1), dtype=complex)
    h[:, 0, 1:] = -1j * root
    h[:, 1:, 0] = 1j * root
    diag = np.arange(1, n_terms + 1)
    h[:, diag, diag] = -rates.imag
    lam, vec = np.linalg.eigh(h)
    return lam, np.abs(vec[:, 0, :]) ** 2


def _spectral_solve(x0, amps, rates, times):
    """Exact solve for kernels with a_i >= 0 and r_i = i w_i (see the module docstring).

    H = [[0, -i sqrt(a)^T], [i sqrt(a), -diag(w)]] per problem, and
    x(t) = x0 [1 + sum_k |V_0k|^2 expm1(-i lambda_k t)], which is
    x0 sum_k |V_0k|^2 exp(-i lambda_k t) because the weights sum to 1, and
    keeps x(0) == x0 exactly.  The weight-sum defect is the runtime check.
    """
    lam, wts = _arrowhead_spectrum(amps, rates)
    n_prob, n_eig = lam.shape
    defect = float(np.max(np.abs(np.add.reduce(wts, axis=1) - 1.0), initial=0.0))

    x = np.ones((n_prob, times.size), dtype=complex)
    for k in range(n_eig):  # one eigenvalue at a time: no (P, K+1, T) array
        term = -1j * np.multiply.outer(lam[:, k], times)
        np.expm1(term, out=term)
        term *= wts[:, k, None]
        x += term
    x *= x0[:, None]
    if not (defect <= 1e-12 and np.all(np.isfinite(x.view(float)))):
        raise NumericsError(
            f"spectral solve failed: eigenvector weight-sum defect {defect:.3g}",
            route="spectral", error=defect,
        )
    return x


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
    if t.size == 1:
        return x0[:, None].copy()
    if opts is None:
        if np.all(amps.imag == 0.0) and np.all(amps.real >= 0.0) and np.all(rts.real == 0.0):
            return _spectral_solve(x0, amps, rts, t)
        opts = SolveOptions()
    if opts.method == "aux_ode":
        return _aux_ode_solve(x0, amps, rts, t, opts)
    return _quadrature_solve(x0, amps, rts, t, opts)


def solve_volterra(
    x0: complex,
    kernel: KernelSpec,
    times,
    opts: SolveOptions | None = None,
) -> np.ndarray:
    """Solve a single scalar problem; see :func:`solve_volterra_batch`."""
    out = solve_volterra_batch(
        np.array([x0], dtype=complex),
        kernel.amplitudes[None, :],
        kernel.rates[None, :],
        times,
        opts=opts,
    )
    return out[0]
