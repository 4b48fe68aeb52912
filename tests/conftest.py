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
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Product, Sine


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


def lag_solve_loop(c, z):
    """Reference for `likelihood._lag_solve`: forward substitution one t at a time,
    y_t = z_t - sum_i C_ti y_{t-i} with y_s = 0 for s < 1."""
    y = z.copy()
    for t in range(1, y.shape[-2]):
        for i in range(min(len(c), t)):
            y[..., t, :] -= y[..., t - 1 - i, :] @ c[i, t].T
    return y


def dense_lag_operator(funcs, theta, n, indices=()):
    """(n r)^2 matrix with the lag-i coefficient (or its derivative) of row t in block (t, t-i)."""
    r = funcs[0].rows
    out = np.zeros((n * r, n * r))
    for i, f in enumerate(funcs, 1):
        for t in range(i + 1, n + 1):
            coef = f.deriv(t, theta, indices) if indices else f.value(t, theta)
            out[(t - 1) * r : t * r, (t - 1 - i) * r : (t - i) * r] = coef
    return out


def dense_residual_operator(model, theta, n):
    """Dense M(theta) = (I + B_op)^{-1} (I - A_op), so that e = M x, and the list of its
    first derivatives d_i M = (I + B_op)^{-1} (-d_i A_op - d_i B_op M)."""
    eye = np.eye(n * model.r)
    lhs = eye + dense_lag_operator(model.b_funcs, theta, n)
    big_m = np.linalg.solve(lhs, eye - dense_lag_operator(model.a_funcs, theta, n))
    dms = [
        np.linalg.solve(
            lhs,
            -dense_lag_operator(model.a_funcs, theta, n, (i,))
            - dense_lag_operator(model.b_funcs, theta, n, (i,)) @ big_m,
        )
        for i in range(model.m)
    ]
    return big_m, dms


def assert_heads_match_entrywise(f, n, theta, rtol=0.0):
    """head / head_grad at t = 1..n against the entry-by-entry value and deriv."""
    ts = np.arange(1, n + 1)
    np.testing.assert_allclose(f.head(n, theta), f.value(ts, theta), rtol=rtol, atol=0)
    slots, grad = f.head_grad(n, theta)
    assert slots == tuple(sorted(f.param_slots()))
    assert grad.shape == (len(slots), n, f.rows, f.cols)
    for k, d in zip(slots, grad):
        np.testing.assert_allclose(d, f.deriv(ts, theta, (k,)), rtol=rtol, atol=0)
