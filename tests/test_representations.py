import math

import numpy as np
import pytest

from conftest import dense_residual_operator, make_random_varma22, make_scalar_arma11, make_sin_varma11
from oracles import var1_transition_power, varma11_pi_closed, varma11_pi_deriv_closed
from tdvarma.errors import ContractError
from tdvarma.examples import FREQ_A, FREQ_B, example1_sim_model, example1_theory_model, example2_model
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.representations import (
    BLOCK,
    _psi_rows,
    _resid_rows,
    _row_recurrence,
    _rows,
    build_pi,
    build_psi,
    triangular_var1_product,
    varma11_psi_closed,
)
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Product, Sine, sorted_tuples


def test_pure_ar_weights_are_lag_coefficients(example1_sim):
    th = np.array(example1_sim.layout.theta0)
    pi = build_pi(example1_sim, th, 30)
    for t in (2, 11, 30):
        np.testing.assert_allclose(
            pi.weight(t, 1), example1_sim.a_funcs[0].value(t, th), atol=1e-15
        )
        for k in (2, 5, t - 1):
            if k >= 2:
                np.testing.assert_array_equal(pi.weight(t, k), np.zeros((2, 2)))


def test_constant_arma11_ar_weights_match_long_division():
    # (1 - 0.5 z) / (1 + 0.4 z): weights 0.9, -0.36, 0.144, ...
    m = make_scalar_arma11(0.5, 0.4)
    th = np.array([0.5, 0.4])
    pi = build_pi(m, th, 8)
    for k, expected in ((1, 0.9), (2, -0.36), (3, 0.144)):
        assert float(pi.weight(8, k)[0, 0]) == pytest.approx(expected, abs=1e-12)


def test_varma11_recurrences_match_closed_forms(rng):
    for _ in range(20):
        m = make_sin_varma11(rng)
        th = np.array(m.layout.theta0)
        psi = build_psi(m, th, th, 50)
        pi = build_pi(m, th, 50)
        for t in (7, 23, 50):
            for k in range(1, t):
                np.testing.assert_allclose(
                    psi.weight(t, k), varma11_psi_closed(m, th, t, k), atol=1e-12
                )
                np.testing.assert_allclose(
                    pi.weight(t, k), varma11_pi_closed(m, th, t, k), atol=1e-12
                )


def test_varma11_first_ar_derivative_matches_factor_rule(rng):
    m = make_sin_varma11(rng)
    th = np.array(m.layout.theta0)
    pi = build_pi(m, th, 20, max_deriv_order=1)
    for t in (6, 20):
        for k in (1, 2, 3, 5):
            for i in range(m.m):
                np.testing.assert_allclose(
                    pi.weight(t, k, (i,)),
                    varma11_pi_deriv_closed(m, th, t, k, i),
                    atol=1e-12,
                )


def test_duality_residual_weights_vanish_at_truth(rng):
    m = make_sin_varma11(rng)
    th = np.array(m.layout.theta0)
    psi = build_psi(m, th, th, 40)
    worst = 0.0
    for t in range(2, 41):
        for k in range(1, t):
            worst = max(worst, np.abs(psi.deriv_weight(t, k, ())).max())
    assert worst < 1e-10


def test_residual_weights_nonzero_away_from_truth():
    m = make_scalar_arma11()
    th0 = np.array([0.5, 0.4])
    th = np.array([0.3, 0.2])
    psi = build_psi(m, th, th0, 10)
    assert abs(float(psi.deriv_weight(10, 1, ())[0, 0])) > 0.1
    # and the k = 0 weight stays the identity
    np.testing.assert_array_equal(psi.deriv_weight(10, 0, ()), np.eye(1))


def test_example1_first_derivative_weights_structure(example1_theory):
    # weight of lag-k innovations in d e_t / d a11: -sin(a t) [[P11, P12], [0, 0]]
    th = np.array(example1_theory.layout.theta0)
    psi = build_psi(example1_theory, th, th, 40, max_deriv_order=1)
    for t in (9, 25, 40):
        for k in (1, 3, 8):
            prod = var1_transition_power(example1_theory, th, t, k)
            expected = -math.sin(FREQ_A * t) * np.array(
                [[prod[0, 0], prod[0, 1]], [0.0, 0.0]]
            )
            np.testing.assert_allclose(psi.deriv_weight(t, k, (0,)), expected, atol=1e-13)
            expected2 = -math.sin(FREQ_B * t) * np.array(
                [[0.0, 0.0], [0.0, prod[1, 1]]]
            )
            np.testing.assert_allclose(psi.deriv_weight(t, k, (1,)), expected2, atol=1e-13)


def test_ar_derivative_layers_match_finite_differences(rng):
    m = make_sin_varma11(rng)
    th = np.array(m.layout.theta0)
    pi = build_pi(m, th, 15, max_deriv_order=1)
    h = 1e-5
    for i in range(m.m):
        tp = th.copy()
        tm = th.copy()
        tp[i] += h
        tm[i] -= h
        pip = build_pi(m, tp, 15)
        pim = build_pi(m, tm, 15)
        for t in (8, 15):
            for k in range(1, t):
                fd = (pip.weight(t, k) - pim.weight(t, k)) / (2 * h)
                exact = pi.weight(t, k, (i,))
                if np.abs(fd).max() > 1e-8:
                    np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-9)


def test_ar_second_and_third_derivative_layers():
    # coefficient theta0 * theta1 exercises the mixed product rule
    layout = ParamLayout(names=("u", "v", "w"), n_ar=2, n_ma=1, theta0=(0.7, 0.6, 0.4))
    m = TdVarmaModel(
        1,
        [MatrixTimeFunction([[Product(Param(0), Param(1))]])],
        [MatrixTimeFunction([[Param(2)]])],
        None,
        [[1.0]],
        layout,
    )
    th = np.array([0.7, 0.6, 0.4])
    pi = build_pi(m, th, 10, max_deriv_order=3)

    def pi_of(theta, t, k):
        return float(build_pi(m, theta, 10).weight(t, k)[0, 0])

    h2, h3 = 1e-4, 1e-3
    t, k = 9, 3
    # mixed second derivative
    fd = (
        pi_of(th + [h2, h2, 0], t, k)
        - pi_of(th + [h2, -h2, 0], t, k)
        - pi_of(th + [-h2, h2, 0], t, k)
        + pi_of(th + [-h2, -h2, 0], t, k)
    ) / (4 * h2 * h2)
    assert float(pi.weight(t, k, (0, 1))[0, 0]) == pytest.approx(fd, rel=1e-4, abs=1e-7)
    # third derivative with repetition: d^3 / du dv dw
    acc = 0.0
    for su in (1, -1):
        for sv in (1, -1):
            for sw in (1, -1):
                acc += su * sv * sw * pi_of(th + [su * h3, sv * h3, sw * h3], t, k)
    fd3 = acc / (8 * h3**3)
    assert float(pi.weight(t, k, (0, 1, 2))[0, 0]) == pytest.approx(fd3, rel=2e-3, abs=1e-6)


def test_kmax_truncation_prefix_agrees(rng):
    # the audits cap the lags through tail's cap; the recurrence at lag k reads only lags <= k
    m = make_sin_varma11(rng)
    th = np.array(m.layout.theta0)
    (taus, full), (taus5, trunc) = (_resid_rows(m, th, th, 30, 1, tail) for tail in (None, (0, 1, 5)))
    psi, psi5 = (_psi_rows(m, th, 30, tail) for tail in (None, (0, 1, 5)))
    assert taus5 == taus
    pairs = zip(_rows(full), _rows(trunc), psi, psi5)
    for t, (rows, rows5, psi_t, psi5_t) in enumerate(pairs, 1):  # q = 1: one row per block
        assert psi5_t.shape[2] == rows5.shape[2] == min(t, 6)
        np.testing.assert_allclose(psi5_t, psi_t[:, :, :6], atol=1e-14)
        np.testing.assert_allclose(rows5, rows[:, :, :6], atol=1e-14)


def test_transition_power_identity_at_k1(example1_theory):
    th = np.array(example1_theory.layout.theta0)
    np.testing.assert_array_equal(var1_transition_power(example1_theory, th, 20, 1), np.eye(2))


def test_transition_power_matches_direct_product(example1_sim):
    th = np.array(example1_sim.layout.theta0)
    a = example1_sim.a_funcs[0]
    for t in (40, 77, 100):
        direct = np.eye(2)
        for k in range(1, 31):
            closed = var1_transition_power(example1_sim, th, t, k)
            np.testing.assert_allclose(closed, direct, atol=1e-13)
            direct = direct @ a.value(t - k, th)


def test_transition_power_k4_displayed_expansion():
    a11, a22, cpl = 0.8, -0.9, 0.5
    t = 60
    got = triangular_var1_product(a11, a22, FREQ_A, FREQ_B, cpl, t, 4)
    sa = lambda l: math.sin(FREQ_A * (t - l))
    sb = lambda l: math.sin(FREQ_B * (t - l))
    expected12 = cpl * (
        a11**2 * sa(1) * sa(2) + a11 * a22 * sa(1) * sb(3) + a22**2 * sb(2) * sb(3)
    )
    assert got[0, 1] == pytest.approx(expected12, rel=1e-13)
    assert got[0, 0] == pytest.approx(a11**3 * sa(1) * sa(2) * sa(3), rel=1e-13)
    assert got[1, 1] == pytest.approx(a22**3 * sb(1) * sb(2) * sb(3), rel=1e-13)


def test_closed_forms_reject_wrong_orders(example1_sim):
    th = np.array(example1_sim.layout.theta0)
    with pytest.raises(ContractError):
        varma11_psi_closed(example1_sim, th, 10, 2)  # q = 0, not (1,1)
    m = make_scalar_arma11()
    with pytest.raises(ContractError):
        var1_transition_power(m, np.array([0.5, 0.4]), 10, 2)


def test_varma11_psi_k1_trivial():
    # A_t = 0.5 I, B_t = 0.2 I constant: psi_1 = A + B = 0.7 I
    layout = ParamLayout(names=("a", "b"), n_ar=1, n_ma=1, theta0=(0.5, 0.2))
    diag = lambda slot: MatrixTimeFunction(
        [[Param(slot), Constant(0.0)], [Constant(0.0), Param(slot)]]
    )
    m = TdVarmaModel(2, [diag(0)], [diag(1)], None, np.eye(2), layout)
    th = np.array([0.5, 0.2])
    np.testing.assert_allclose(varma11_psi_closed(m, th, 10, 1), 0.7 * np.eye(2), atol=1e-15)


def test_negative_kmax_rejected(rng):
    m = make_sin_varma11(rng)
    th = np.array(m.layout.theta0)
    with pytest.raises(ContractError, match="lag cap"):
        _resid_rows(m, th, th, 10, 1, (0, 1, -1))


@pytest.mark.parametrize("accessor", ["weight", "deriv_weight"])
@pytest.mark.parametrize("t, k", [(0, 1), (11, 0), (3, -1)])
def test_ma_table_rejects_entries_outside_the_table(example1_sim, accessor, t, k):
    th = np.array(example1_sim.layout.theta0)
    psi = build_psi(example1_sim, th, th, 10, 1)
    args = (t, k, (0,)) if accessor == "deriv_weight" else (t, k)
    with pytest.raises(ContractError):
        getattr(psi, accessor)(*args)


def test_tables_read_built_zero_tuples_as_zero_and_reject_unbuilt_ones(example1_sim, example2):
    th = np.array(example1_sim.layout.theta0)
    pi = build_pi(example1_sim, th, 10)
    with pytest.raises(ContractError, match="not built"):
        pi.weight(5, 1, (0,))  # above max_deriv_order
    pi1 = build_pi(example1_sim, th, 10, 1)
    for indices in ((3,), (0, 1)):  # no such slot; above max_deriv_order
        with pytest.raises(ContractError, match="not built"):
            pi1.weight(5, 1, indices)
    # the scale slots of example2 do not enter its AR and MA weights
    th2 = np.array(example2.layout.theta0)
    pi2, psi2 = build_pi(example2, th2, 10, 1), build_psi(example2, th2, th2, 10, 1)
    for t, k in ((5, 1), (10, 9)):
        np.testing.assert_array_equal(pi2.weight(t, k, (2,)), np.zeros((2, 2)))
        np.testing.assert_array_equal(psi2.deriv_weight(t, k, (3,)), np.zeros((2, 2)))
    assert np.abs(psi2.deriv_weight(5, 1, (0,))).max() > 0.0
    with pytest.raises(ContractError, match="not built"):
        psi2.deriv_weight(5, 1, (4,))


def _seasonal_varma22() -> TdVarmaModel:
    """Bivariate VARMA(2, 2) whose lag-1 coefficients vanish, so that the recurrences read
    their own rows from lag 2 on."""
    zero = MatrixTimeFunction([[Constant(0.0), Constant(0.0)], [Constant(0.0), Constant(0.0)]])
    a2 = MatrixTimeFunction([[Param(0), Sine(1, 0.3, 0.4)], [Constant(0.0), Param(2)]])
    b2 = MatrixTimeFunction([[Param(3), Constant(0.1)], [Sine(4, 0.7, 0.2), Param(3)]])
    layout = ParamLayout(names=tuple("abcde"), n_ar=3, n_ma=2, theta0=(0.3, 0.2, -0.25, 0.2, 0.15))
    return TdVarmaModel(2, [zero, a2], [zero, b2], None, np.eye(2), layout)


def test_tables_match_dense_operator_inverse():
    # e = M x with M = (I + B_op)^{-1} (I - A_op); pi = -M, psi = M(theta0)^{-1}, and the
    # residual weights d^tau M(theta) psi for every tuple up to order 3 (the orders the
    # decay audit reads), d^tau M from the product rule on (I + B_op) M = I - A_op.  A
    # tail (step, order, cap) keeps the bits of every entry it stacks
    rng = np.random.default_rng(2718)
    n, tail = 14, (6, 1, 4)
    for m in (make_random_varma22(rng), example2_model(), _seasonal_varma22()):
        r = m.r
        th0 = np.array(m.layout.theta0)
        th = th0 + rng.uniform(-0.1, 0.1, size=th0.size)
        taus = sorted_tuples(range(m.m), 3)
        dense_m = dense_residual_operator(m, th, n, taus)
        psi0 = np.linalg.inv(dense_residual_operator(m, th0, n)[()])
        dense = {"psi": psi0, **{("pi", tau): -dm for tau, dm in dense_m.items()}}
        dense.update({("resid", tau): dm @ psi0 for tau, dm in dense_m.items()})
        scale = {key: max(float(np.abs(mat).max()), 1e-300) for key, mat in dense.items()}

        def rel(got, key, t, k):
            want = dense[key][(t - 1) * r : t * r, (t - 1 - k) * r : (t - k) * r]
            return float(np.abs(got - want).max()) / scale[key]

        pi = build_pi(m, th, n, max_deriv_order=3)
        psi = build_psi(m, th, th0, n, max_deriv_order=3)
        worst = 0.0
        for t in range(1, n + 1):
            for k in range(0, t):
                worst = max(worst, rel(psi.weight(t, k), "psi", t, k))
                worst = max(worst, *(rel(psi.deriv_weight(t, k, tau), ("resid", tau), t, k) for tau in taus))
                if k >= 1:
                    worst = max(worst, *(rel(pi.weight(t, k, tau), ("pi", tau), t, k) for tau in taus))
        assert worst <= 1e-12, worst

        kept, blocks = _resid_rows(m, th, th0, n, 3, tail)
        rows = [row for block in blocks for row in block]
        assert kept == [tau for tau in taus if psi.index[tau] is not None]
        for t, row in enumerate(rows, 1):
            lags = t - 1 if t <= tail[0] else min(t - 1, tail[2])
            assert row.shape[0] == (len(kept) if t <= tail[0] else sum(len(tau) <= tail[1] for tau in kept))
            assert not row[:, :, lags + 1 :].any()  # zero past the row's own lags
            for j, tau in enumerate(kept[: row.shape[0]]):
                np.testing.assert_array_equal(row[j, :, : lags + 1], psi.rows[t - 1][j, :, : lags + 1])


@pytest.mark.parametrize(
    "which, tail",
    [("example2", None), ("example2", (40, 1, 10)), ("varma11", (30, 1, 8)), ("seasonal", (37, 1, 12))],
)
def test_blocks_are_as_long_as_the_smallest_self_lag(which, tail):
    # each block of rows is as long as the smallest lag at which its recurrence reads its
    # own rows (none: BLOCK), and crosses neither a multiple of BLOCK nor the tail's step:
    # BLOCK rows at a time for the q = 0 M(theta) Psi(theta0) pass, one row at a time for
    # Psi(theta0) itself (it reads row t - 1) and for any q >= 1 pass
    build = {"example2": example2_model, "varma11": lambda: make_sin_varma11(np.random.default_rng(7))}
    m = build.get(which, _seasonal_varma22)()
    th = m.layout.theta0_array()
    n = 100
    step = n if tail is None else tail[0]
    psi_blocks = _row_recurrence(m.r, m.b_funcs, m.a_funcs, 1.0, th, n, [()], tail=tail)[1]
    resid_blocks = _resid_rows(m, th, th, n, 3, tail)[1]
    self_lag = {"example2": (1, BLOCK), "varma11": (1, 1), "seasonal": (2, 2)}[which]
    for blocks, span in zip((psi_blocks, resid_blocks), self_lag):
        t0 = 1
        for block in blocks:
            t1 = t0 + len(block) - 1
            assert len(block) == min(span, BLOCK - (t0 - 1) % BLOCK, (step if t0 <= step else n) - t0 + 1), (t0, t1)
            t0 = t1 + 1
        assert t0 == n + 1
