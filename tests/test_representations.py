import math

import numpy as np
import pytest

from conftest import dense_residual_operator, make_random_varma22, make_scalar_arma11, make_sin_varma11
from oracles import var1_transition_power, varma11_pi_closed, varma11_pi_deriv_closed
from tdvarma.assumptions import psi_deriv_norms
from tdvarma.errors import ContractError
from tdvarma.examples import FREQ_A, FREQ_B, example1_sim_model, example1_theory_model
from tdvarma.model import ParamLayout, TdVarmaModel
from tdvarma.representations import _resid_rows, build_pi, build_psi, triangular_var1_product, varma11_psi_closed
from tdvarma.timefn import Constant, MatrixTimeFunction, Param, Product


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
            worst = max(worst, np.abs(psi.resid_weight(t, k)).max())
    assert worst < 1e-10


def test_residual_weights_nonzero_away_from_truth():
    m = make_scalar_arma11()
    th0 = np.array([0.5, 0.4])
    th = np.array([0.3, 0.2])
    psi = build_psi(m, th, th0, 10)
    assert abs(float(psi.resid_weight(10, 1)[0, 0])) > 0.1
    # and the k = 0 weight stays the identity
    np.testing.assert_array_equal(psi.resid_weight(10, 0), np.eye(1))


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
    # the audits cap the lags; the recurrence at lag k reads only lags <= k
    m = make_sin_varma11(rng)
    th = np.array(m.layout.theta0)
    (taus, full), (taus5, trunc) = (_resid_rows(m, th, th, 30, 1, kmax) for kmax in (None, 5))
    assert taus5 == taus
    for t, ((psi, rows), (psi5, rows5)) in enumerate(zip(full, trunc), 1):
        assert psi5.shape[1] == rows5.shape[1] == min(t, 6)
        np.testing.assert_allclose(psi5, psi[:, :6], atol=1e-14)
        np.testing.assert_allclose(rows5, rows[:, :6], atol=1e-14)


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
    with pytest.raises(ContractError, match="kmax"):
        _resid_rows(m, th, th, 10, 1, -1)
    with pytest.raises(ContractError, match="kmax"):
        psi_deriv_norms(m, th, 10, kmax=-1)


@pytest.mark.parametrize("accessor", ["weight", "resid_weight", "deriv_weight"])
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


def test_tables_match_dense_operator_inverse():
    # e = M x with M = (I + B_op)^{-1} (I - A_op); pi = -M, psi = M(theta0)^{-1},
    # residual weights M(theta) psi, derivative weights d_i M(theta) psi with
    # d_i M = (I + B_op)^{-1} (-d_i A_op - d_i B_op M)
    rng = np.random.default_rng(2718)
    m = make_random_varma22(rng)
    n, r = 14, m.r
    th0 = np.array(m.layout.theta0)
    th = th0 + rng.uniform(-0.1, 0.1, size=th0.size)
    big_m, dms = dense_residual_operator(m, th, n)
    psi0 = np.linalg.inv(dense_residual_operator(m, th0, n)[0])
    dense = {"pi": -big_m, "psi": psi0, "resid": big_m @ psi0}
    for i, dm in enumerate(dms):
        dense[("pi", i)] = -dm
        dense[("deriv", i)] = dm @ psi0

    def block(key, t, k):
        return dense[key][(t - 1) * r : t * r, (t - 1 - k) * r : (t - k) * r]

    pi = build_pi(m, th, n, max_deriv_order=1)
    psi = build_psi(m, th, th0, n, max_deriv_order=1)
    worst = 0.0
    for t in range(1, n + 1):
        for k in range(0, t):
            got = [(psi.weight(t, k), "psi"), (psi.resid_weight(t, k), "resid")]
            got += [(psi.deriv_weight(t, k, (i,)), ("deriv", i)) for i in range(m.m)]
            if k >= 1:
                got.append((pi.weight(t, k), "pi"))
                got += [(pi.weight(t, k, (i,)), ("pi", i)) for i in range(m.m)]
            worst = max(worst, max(float(np.abs(w - block(key, t, k)).max()) for w, key in got))
    assert worst < 1e-12
