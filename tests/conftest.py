import itertools

import numpy as np
import pytest

from tdvarma import examples


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except Exception:
        return
    if not RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion, passed, detail in RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {criterion}: {detail}")
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.timefn import (
    Constant,
    ExpSine,
    ExpTrend,
    LinearTrend,
    MatrixTimeFunction,
    Param,
    Product,
    Sine,
    Sum,
    index_splits,
    sorted_tuples,
)


@pytest.fixture(scope="session")
def example1_sim():
    return examples.example1_sim_model()


@pytest.fixture(scope="session")
def example1_theory():
    return examples.example1_theory_model()


@pytest.fixture(scope="session")
def example2():
    return examples.example2_model()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def make_scalar_arma11(a=0.5, b=0.4):
    """Constant scalar ARMA(1,1) with both coefficients free parameters."""
    layout = ParamLayout(names=("ar", "ma"), n_ar=1, n_ma=1, theta0=(a, b))
    return TdVarmaModel(
        r=1,
        a_funcs=[MatrixTimeFunction([[Param(0)]])],
        b_funcs=[MatrixTimeFunction([[Param(1)]])],
        g_func=None,
        sigma=[[1.0]],
        layout=layout,
    )


def make_scale_singular_at(t0):
    """VAR(1) with scale g_t = diag(theta_1 t - t0, 1): at theta_1 = 1 the residual
    covariance is singular at t = t0 only.  Its layout's true value theta_1 = 2 keeps
    g_t invertible at every integer t."""
    layout = ParamLayout(names=("a", "s"), n_ar=1, n_ma=0, theta0=(0.5, 2.0))
    a = MatrixTimeFunction([[Param(0), Constant(0.0)], [Constant(0.0), Constant(0.3)]])
    g = MatrixTimeFunction(
        [[Sum(LinearTrend(1), Constant(-float(t0))), Constant(0.0)], [Constant(0.0), Constant(1.0)]]
    )
    return TdVarmaModel(2, [a], [], g, np.eye(2), layout)


def make_sin_varma11(rng, r=2):
    """Random sinusoidal bivariate ARMA(1,1): every entry amplitude * sin(w t + phi)."""
    slots = iter(range(2 * r * r))
    amps = []

    def mat(base):
        rows = []
        for i in range(r):
            row = []
            for j in range(r):
                slot = next(slots)
                amps.append(rng.uniform(-0.6, 0.6))
                row.append(Sine(slot, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi)))
            rows.append(row)
        return MatrixTimeFunction(rows)

    a = mat(0)
    b = mat(1)
    layout = ParamLayout(
        names=tuple(f"p{i}" for i in range(2 * r * r)),
        n_ar=r * r,
        n_ma=r * r,
        theta0=tuple(amps),
    )
    return TdVarmaModel(
        r=r, a_funcs=[a], b_funcs=[b], g_func=None, sigma=np.eye(r), layout=layout
    )


def make_random_varma22(rng, r=3):
    """VARMA(2,2) whose entries are Sine(amplitude slot) or Product(Sine, Param):
    AR slots 0-1 amplitudes, 2-3 factors; MA slots 4-5 amplitudes, 6-7 factors."""

    def mat(base):
        rows = []
        for _ in range(r):
            row = []
            for _ in range(r):
                amp = base + int(rng.integers(2))
                sine = Sine(amp, rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))
                factor = Param(base + 2 + int(rng.integers(2)))
                row.append(sine if rng.uniform() < 0.5 else Product(sine, factor))
            rows.append(row)
        return MatrixTimeFunction(rows)

    bounds = [(-0.4, 0.4), (0.5, 1.0)] * 2  # amplitudes, factors; AR block then MA block
    theta0 = tuple(np.concatenate([rng.uniform(lo, hi, 2) for lo, hi in bounds]))
    layout = ParamLayout(names=tuple(f"p{i}" for i in range(8)), n_ar=4, n_ma=4, theta0=theta0)
    return TdVarmaModel(r, [mat(0), mat(0)], [mat(4), mat(4)], None, np.eye(r), layout)


def make_random_varma(rng, p, q, r):
    """VARMA(p, q) with Sine or Product(Sine, Param) entries and a diagonal ExpSine scale.

    Each nonempty lag block has two amplitude slots and one factor slot; the
    diagonal entries of the scale take min(r, 2) slots in turn.
    """
    slots = iter(range(100))

    def block(order):
        if not order:
            return [], ()
        amps, factor = (next(slots), next(slots)), next(slots)

        def entry():
            sine = Sine(amps[int(rng.integers(2))], rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))
            return sine if rng.uniform() < 0.5 else Product(sine, Param(factor))

        mats = [MatrixTimeFunction([[entry() for _ in range(r)] for _ in range(r)]) for _ in range(order)]
        # absolute row sums total at most 0.4 over all lags: stable and invertible lag polynomials
        return mats, (*rng.uniform(-0.4, 0.4, 2) / (r * order), rng.uniform(0.5, 1.0))

    a_funcs, a_theta = block(p)
    b_funcs, b_theta = block(q)
    scale = [next(slots) for _ in range(min(r, 2))]
    g = MatrixTimeFunction(
        [
            [ExpSine(scale[i % len(scale)], rng.uniform(0.05, 2.0), rng.uniform(0, 2 * np.pi))
             if i == j else Constant(0.0) for j in range(r)]
            for i in range(r)
        ]
    )
    theta0 = (*a_theta, *b_theta, *rng.uniform(-0.5, 0.5, len(scale)))
    layout = ParamLayout(
        names=tuple(f"p{i}" for i in range(len(theta0))), n_ar=len(a_theta), n_ma=len(b_theta), theta0=theta0
    )
    return TdVarmaModel(r, a_funcs, b_funcs, g, np.eye(r), layout)


def lag_solve_loop(c, z):
    """Reference for the y that `likelihood._lag_solver(c, z)` returns and for its solver's
    sweep of z: forward substitution one t at a time, y_t = z_t - sum_i C_ti y_{t-i} with
    y_s = 0 for s < 1."""
    y = z.copy()
    for t in range(1, y.shape[-2]):
        for i in range(min(len(c), t)):
            y[..., t, :] -= y[..., t - 1 - i, :] @ c[i, t].T
    return y


def state_covariance_loop(trans, noise):
    """Reference for `asymptotics._state_covariance(trans, noise)`: the state covariance
    P_t = F_t P_{t-1} F_t' + Q_t one t at a time from P_0 = 0, for t < n, with
    F_t = trans[t - 1] and Q_t = noise[t - 1]."""
    n, dim = trans.shape[0], trans.shape[-1]
    cov = np.zeros((n, dim, dim))
    for t in range(1, n):
        cov[t] = trans[t - 1] @ cov[t - 1] @ trans[t - 1].T + noise[t - 1]
    return cov


def dense_lag_operator(funcs, theta, n, indices=()):
    """(n r)^2 matrix with the lag-i coefficient (or its derivative) of row t in block (t, t-i)."""
    r = funcs[0].rows
    out = np.zeros((n * r, n * r))
    for i, f in enumerate(funcs, 1):
        for t in range(i + 1, n + 1):
            coef = f.deriv(t, theta, indices) if indices else f.value(t, theta)
            out[(t - 1) * r : t * r, (t - 1 - i) * r : (t - i) * r] = coef
    return out


def dense_residual_operator(model, theta, n, taus=((),)):
    """{tau: d^tau M(theta)} for sorted tuples tau, where M = (I + B_op)^{-1} (I - A_op) is
    dense, so that e = M x (tau = () gives M itself).  The derivatives follow from the
    product rule on (I + B_op) M = I - A_op over every split of tau's positions:
    (I + B_op) d^tau M = -d^tau A_op - sum over non-empty position sets S of d^S B_op d^(tau - S) M."""
    eye = np.eye(n * model.r)

    def op(funcs, tau=()):  # a model without an AR or MA part has a zero operator there
        return dense_lag_operator(funcs, theta, n, tau) if funcs else np.zeros_like(eye)

    lhs = eye + op(model.b_funcs)
    out = {}

    def deriv(tau):
        if tau not in out:
            rhs = eye - op(model.a_funcs) if not tau else -op(model.a_funcs, tau)
            for size in range(1, len(tau) + 1):
                for pos in itertools.combinations(range(len(tau)), size):
                    sub = tuple(tau[i] for i in pos)
                    rest = tuple(tau[i] for i in range(len(tau)) if i not in pos)
                    rhs = rhs - op(model.b_funcs, sub) @ deriv(rest)
            out[tau] = np.linalg.solve(lhs, rhs)
        return out[tau]

    return {tuple(tau): deriv(tuple(tau)) for tau in taus}


def entrywise(f, t, theta, tau=()):
    """The matrix time function f (tau = ()) or its derivative tau at the times t,
    from each entry's own scalar value / deriv, one entry at a time."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (f.rows, f.cols))
    for i, row in enumerate(f.entries):
        for j, entry in enumerate(row):
            out[..., i, j] = entry.deriv(t, theta, tau) if tau else entry.value(t, theta)
    return out


def assert_heads_match_entrywise(f, n, theta, rtol=0.0):
    """value / head_grad / deriv_map at t = 1..n against the entry-by-entry value and
    deriv; deriv_map on every sorted derivative tuple up to order 3."""
    ts = range(1, n + 1)
    np.testing.assert_allclose(f.value(ts, theta), entrywise(f, ts, theta), rtol=rtol, atol=0)
    slots, grad = f.head_grad(n, theta)
    assert slots == tuple(sorted(f.param_slots()))
    assert grad.shape == (len(slots), n, f.rows, f.cols)
    for k, d in zip(slots, grad):
        np.testing.assert_allclose(d, entrywise(f, ts, theta, (k,)), rtol=rtol, atol=0)
    taus = sorted_tuples(slots, 3)
    got = f.deriv_map(ts, theta, taus)
    assert list(got) == taus
    for tau in taus:
        np.testing.assert_allclose(got[tau], entrywise(f, ts, theta, tau), rtol=rtol, atol=0, err_msg=str(tau))


def kind_oracle(f, t, theta, idx=()):
    """The value (idx = ()) or a derivative of a scalar time function from per-kind
    formulas and the product rule, independent of the closed form the library
    evaluates."""
    t = np.asarray(t, dtype=float)
    if not set(idx) <= f.param_slots():
        return np.zeros_like(t)
    if isinstance(f, Sum):
        return kind_oracle(f.left, t, theta, idx) + kind_oracle(f.right, t, theta, idx)
    if isinstance(f, Product):
        return sum(kind_oracle(f.left, t, theta, a) * kind_oracle(f.right, t, theta, b) for a, b in index_splits(idx))
    if isinstance(f, Constant):
        return np.full_like(t, f.c)
    if isinstance(f, ExpTrend):
        return np.exp(f.rate * t)
    if isinstance(f, ExpSine):
        u = np.sin(f.omega * t + f.phase)
        return (-u) ** len(idx) * np.exp(-theta[f.slot] * u)
    shape = {Param: np.ones_like(t), LinearTrend: t}.get(type(f))
    if shape is None:  # Sine
        shape = np.sin(f.omega * t + f.phase)
    return {0: theta[f.slot] * shape, 1: shape}.get(len(idx), np.zeros_like(t))
