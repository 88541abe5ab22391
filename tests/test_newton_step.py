"""The Newton candidate of the qubit-system refinement: its closed-form
derivatives against finite differences of the J kernel, and the kernel
calls the refinement takes with it."""

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim.koashi_winter import example_state

SWEEP = np.linspace(0.0, np.pi / 4, 200)
# Kernel calls of classical_correlation on the qutrit state below: the grid
# call plus 43 rounds of the pattern search, as before the Newton candidate.
QUTRIT_CALLS = 44


def charts(n0):
    """An orthonormal tangent basis (s, 2, 3) at each row of n0."""
    e1 = np.cross(n0, [0.3, -0.5, 0.8])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, np.cross(n0, e1)], axis=1)


def chart_j(rho, n0, tangent):
    """J ln 2 at chart points x (s, 2) of the charts normalize(n0 + x E)."""
    j_at = corr._kernel(rho)[0]

    def f(x):
        m = n0 + (x[:, None] @ tangent)[:, 0]
        return j_at(m / np.linalg.norm(m, axis=1, keepdims=True)) * la.LOG2

    return f


def qubit_states():
    for seed in range(3):
        for rank in (2, 4):
            yield la.DensityMatrix(la.random_density_matrix(4, 40 + 10 * seed + rank, rank), (2, 2))
    for theta in (np.pi / 16, np.pi / 8, np.pi / 5):
        yield example_state(theta)


@pytest.mark.parametrize("rho", list(qubit_states()))
def test_derivatives_match_finite_differences(rho):
    rng = np.random.default_rng(3)
    n0 = rng.standard_normal((6, 3))
    n0 /= np.linalg.norm(n0, axis=1, keepdims=True)
    tangent = charts(n0)
    derivs = corr._chart_derivatives(corr._kernel(rho)[1], n0, tangent)
    f = chart_j(rho, n0, tangent)
    steps = np.eye(2)

    # The gradient is the chart's, anywhere on it.
    x = 0.3 * rng.standard_normal((6, 2))
    h = 1e-5
    grad_fd = np.stack([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in steps], axis=1)
    grad, _ = derivs(x)
    assert np.max(np.abs(grad - grad_fd)) <= 1e-7 * np.max(np.abs(grad_fd))

    # At the chart's centre the chart is a second-order retraction, so its
    # Hessian is the Riemannian one.
    x0 = np.zeros((6, 2))
    h = 1e-4
    hess_fd = np.empty((6, 2, 2))
    for i, ei in enumerate(steps):
        for k, ek in enumerate(steps):
            hess_fd[:, i, k] = (f(x0 + h * (ei + ek)) - f(x0 + h * (ei - ek))
                                - f(x0 + h * (ek - ei)) + f(x0 - h * (ei + ek))) / (4 * h * h)
    _, hess = derivs(x0)
    assert np.max(np.abs(hess - hess_fd)) <= 1e-5 * np.max(np.abs(hess_fd))


def test_no_bloch_form_beyond_a_qubit_system():
    rho = la.DensityMatrix(la.random_density_matrix(6, 5, 6), (3, 2))
    assert corr._kernel(rho)[1] is None


def test_no_newton_candidate_at_pure_branches():
    # Every branch of a pure state is pure, where J is not smooth: no start
    # proposes a Newton point, and the refinement is the pattern search.
    rho = la.DensityMatrix(la.random_density_matrix(4, 8, 1), (2, 2))
    n0 = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 0.8]])
    derivs = corr._chart_derivatives(corr._kernel(rho)[1], n0, charts(n0))
    assert derivs(np.zeros((2, 2))) is None
    assert corr._newton_moves(derivs, np.zeros((2, 2)), np.ones(2, dtype=bool)) is None


@pytest.fixture
def kernel_calls(monkeypatch):
    """calls(rho) runs classical_correlation(rho) and returns how many times
    it called the projective J kernel."""
    count = [0]
    kernel = corr._kernel

    def counted(rho):
        j_at, bloch = kernel(rho)

        def wrapper(directions):
            count[0] += 1
            return j_at(directions)

        return wrapper, bloch

    monkeypatch.setattr(corr, "_kernel", counted)

    def calls(rho):
        count[0] = 0
        corr.classical_correlation(rho)
        return count[0]

    return calls


def test_sweep_rows_take_few_kernel_calls(kernel_calls):
    # The grid call plus the rounds; the pattern search alone took 44-48.
    calls = [kernel_calls(example_state(theta)) for theta in SWEEP]
    assert np.mean(calls) <= 10


def test_flat_rows_near_a_quarter_pi_end(kernel_calls):
    # J is flat to 1e-19 here and some starts rise toward their chart's
    # equator; the pattern search alone walked there for 3 506-17 203 kernel
    # calls per row. A Newton move may cross the equator, onto the antipode.
    for theta in (0.7852141550988355, 0.7848582881642993, 0.7846383503031831,
                  0.784502421229763):
        assert kernel_calls(example_state(theta)) <= 1000


def test_qutrit_search_is_the_pattern_search(kernel_calls):
    # No Newton candidate for d_s = 3: the same rounds as the pattern search.
    rho = la.DensityMatrix(la.random_density_matrix(6, 1027, 6), (3, 2))
    assert kernel_calls(rho) == QUTRIT_CALLS
