import io
import math

import numpy as np
import pytest
from scipy.linalg import expm

from phyrec.errors import InvalidModelError
from phyrec.model import (
    G_LIN,
    G_PERC,
    delta_from_tau,
    load_rate_model,
    potts_rate_matrix,
    potts_transition_matrix,
    thresholds,
    transition_matrix,
    validate_gtr,
)

TAUS = [0.05, 0.5 * math.log(2.0), 0.5, math.log(2.0), 2.0]


def random_gtr(q, rng):
    """A random reversible pair (Q, pi) built from a symmetric flux matrix."""
    s = rng.uniform(0.5, 2.0, size=(q, q))
    s = 0.5 * (s + s.T)
    pi = rng.dirichlet(np.full(q, 5.0))
    rate = s * pi[None, :]
    np.fill_diagonal(rate, 0.0)
    np.fill_diagonal(rate, -rate.sum(axis=1))
    return rate, pi


def test_potts_rate_matrix_entries():
    model = potts_rate_matrix(4)
    assert model.q == 4
    assert np.allclose(model.pi, 0.25)
    assert np.allclose(model.rate_matrix[~np.eye(4, dtype=bool)], 0.25)
    assert np.allclose(np.diag(model.rate_matrix), -0.75)
    assert model.is_symmetric
    # normalisation: eigenvalues are 0 and -1 (q-1 times)
    eig = np.sort(np.linalg.eigvalsh(model.rate_matrix))
    assert np.allclose(eig, [-1.0, -1.0, -1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("q", [2, 3, 4, 16, 64])
def test_potts_closed_form_vs_expm(q):
    model = potts_rate_matrix(q)
    for tau in TAUS:
        closed = potts_transition_matrix(q, tau)
        brute = expm(tau * np.asarray(model.rate_matrix))
        assert np.max(np.abs(closed - brute)) < 1e-10


@pytest.mark.parametrize("q", [2, 5, 16])
def test_transition_matrix_agrees_with_closed_form(q):
    model = potts_rate_matrix(q)
    for tau in (0.0, 0.3, 1.7):
        assert np.allclose(transition_matrix(model, tau),
                           potts_transition_matrix(q, tau), atol=1e-12)


def test_delta_spot_values():
    # q=2, tau=ln 2: delta = (1 - 1/2)/2 = 1/4
    assert delta_from_tau(2, math.log(2.0)) == pytest.approx(0.25, abs=1e-15)
    # q=4, tau=ln 2: delta = (1/2)/4 = 1/8
    assert delta_from_tau(4, math.log(2.0)) == pytest.approx(0.125, abs=1e-15)
    assert delta_from_tau(3, 0.0) == 0.0
    with pytest.raises(ValueError):
        delta_from_tau(2, -0.1)


def test_delta_rises_strictly_with_tau():
    taus = np.linspace(0.0, 4.0, 60)
    for q in (2, 4, 64):
        deltas = [delta_from_tau(q, t) for t in taus]
        assert all(a < b for a, b in zip(deltas, deltas[1:])), q


def test_transition_matrix_properties():
    rng = np.random.default_rng(20)
    rate, pi = random_gtr(5, rng)
    model, _ = validate_gtr(5, rate, pi)
    m0 = transition_matrix(model, 0.0)
    assert np.allclose(m0, np.eye(5), atol=1e-12)
    for tau in (0.2, 1.1):
        m = transition_matrix(model, tau)
        assert np.all(m >= 0)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
        # reversibility carries over to the transition matrix
        flux = pi[:, None] * m
        assert np.allclose(flux, flux.T, atol=1e-12)
    with pytest.raises(ValueError):
        transition_matrix(model, -0.5)


def test_pi_is_stationary_under_transition_matrix():
    # pi M(tau) = pi for any reversible model and any tau
    rng = np.random.default_rng(26)
    for q in (2, 4, 6):
        model, _ = validate_gtr(q, *random_gtr(q, rng))
        for tau in (0.1, 0.7, 2.0):
            drift = model.pi @ transition_matrix(model, tau) - model.pi
            assert np.abs(drift).max() < 1e-12, (q, tau)


def test_semigroup_property_gtr():
    rng = np.random.default_rng(21)
    rate, pi = random_gtr(4, rng)
    model, _ = validate_gtr(4, rate, pi)
    a, b = 0.37, 0.81
    lhs = transition_matrix(model, a) @ transition_matrix(model, b)
    assert np.allclose(lhs, transition_matrix(model, a + b), atol=1e-12)


def test_thresholds():
    t2 = thresholds(potts_rate_matrix(2))
    assert t2.g_lin == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    assert t2.g_perc == pytest.approx(math.log(2.0), abs=1e-15)
    # q=2: total rate 1/2, so the biological restatement is (1/4) ln 2
    assert t2.g_lin_bio == pytest.approx(0.25 * math.log(2.0), abs=1e-14)
    # q=4: total rate 3/4 gives (3/8) ln 2
    t4 = thresholds(potts_rate_matrix(4))
    assert t4.g_lin_bio == pytest.approx(0.375 * math.log(2.0), abs=1e-14)
    assert G_LIN < G_PERC


def test_validate_gtr_normalises_to_minus_one():
    rng = np.random.default_rng(22)
    for q in (2, 3, 6):
        rate, pi = random_gtr(q, rng)
        model, scale = validate_gtr(q, rate, pi)
        assert scale > 0
        assert np.allclose(model.rate_matrix, rate * scale, atol=1e-12)
        root = np.sqrt(pi)
        sym = model.rate_matrix * (root[:, None] / root[None, :])
        eig = np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))
        assert eig[-1] == pytest.approx(0.0, abs=1e-10)
        assert eig[-2] == pytest.approx(-1.0, abs=1e-10)
        # rescaling the input only changes the reported scale
        model3, scale3 = validate_gtr(q, 3.0 * rate, pi)
        assert np.allclose(model3.rate_matrix, model.rate_matrix, atol=1e-10)
        assert scale3 == pytest.approx(scale / 3.0, rel=1e-10)


def test_validate_gtr_diagnostics():
    rng = np.random.default_rng(23)
    rate, pi = random_gtr(3, rng)

    bad_pi = pi.copy()
    bad_pi[0] = -bad_pi[0]
    with pytest.raises(InvalidModelError) as exc:
        validate_gtr(3, rate, bad_pi)
    assert any("non-positive" in d for d in exc.value.diagnostics)

    skew = rate.copy()
    skew[0, 1] *= 2.0  # breaks both the zero row sum and detailed balance
    with pytest.raises(InvalidModelError) as exc:
        validate_gtr(3, skew, pi)
    joined = " ".join(exc.value.diagnostics)
    assert "sum to zero" in joined
    assert "detailed balance" in joined

    with pytest.raises(InvalidModelError):
        validate_gtr(3, rate[:2, :2], pi)
    with pytest.raises(InvalidModelError):
        validate_gtr(1, np.zeros((1, 1)), np.ones(1))


def test_is_symmetric_flags_gtr_models():
    rng = np.random.default_rng(24)
    rate, pi = random_gtr(4, rng)
    model, _ = validate_gtr(4, rate, pi)
    assert not model.is_symmetric


def test_load_rate_model_roundtrip():
    # Jukes-Cantor-style q=3 matrix, deliberately unnormalised (x 2)
    text = """\
# three-state symmetric model
3
-4 2 2
2 -4 2
2 2 -4
# stationary law
0.3333333333333333 0.3333333333333333 0.3333333333333333
"""
    model = load_rate_model(io.StringIO(text))
    ref = potts_rate_matrix(3)
    # loader renormalises, so the doubled matrix lands on the same model;
    # note the Potts convention has off-diagonal 1/q = 1/3
    assert np.allclose(model.rate_matrix, ref.rate_matrix, atol=1e-10)
    assert np.allclose(model.pi, ref.pi, atol=1e-12)


def test_load_rate_model_errors():
    with pytest.raises(InvalidModelError):
        load_rate_model(io.StringIO(""))
    with pytest.raises(InvalidModelError):
        load_rate_model(io.StringIO("not-a-number\n"))
    with pytest.raises(InvalidModelError):
        load_rate_model(io.StringIO("2\n-1 1\n1 -1\n"))  # missing pi line
    bad = "2\n-1 x\n1 -1\n0.5 0.5\n"
    with pytest.raises(InvalidModelError):
        load_rate_model(io.StringIO(bad))


def test_potts_rate_matrix_rejects_bad_q():
    for q in (1, 0, -3, 2.5):
        with pytest.raises(InvalidModelError):
            potts_rate_matrix(q)
