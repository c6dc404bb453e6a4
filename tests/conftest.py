import os

import numpy as np
import pytest

from sgmlab import problems, rng as sgm_rng, solvers


def force_split(monkeypatch):
    """Make every batch of two or more columns step in two processes, on any
    host with ``os.fork``; returns the list of worker pids forked from here
    on."""
    if not hasattr(os, "fork"):
        pytest.skip("the two-process loop needs os.fork")
    monkeypatch.setattr(solvers, "_SPLIT_WORDS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def component_grad(p, i, x):
    """∇fᵢ(x), as the problem's batch kernel on a one-column batch."""
    x = np.asarray(x, dtype=float)
    return p.batch_component_grad(x[:, None], np.array([i]))[:, 0]


def exact_conditional_moment(p, x):
    """(E ∇fᵢ(x), E ‖∇fᵢ(x)‖²) over the uniform component index, by brute
    force: one batch-oracle call on n copies of x, one column per component."""
    x = np.asarray(x, dtype=float)
    n = p.n_components
    grads = p.batch_component_grad(np.repeat(x[:, None], n, axis=1),
                                   np.arange(n))
    return grads.mean(axis=1), float(np.mean((grads * grads).sum(axis=0)))


def run_one(spec):
    """The full trajectory of a one-replication run of ``spec``."""
    return solvers.run_ensemble(spec, 1).audit


def make_shared_minimizer_quadratics(dim=3, n_components=4,
                                     construction_seed=7):
    """(problem, B) for fᵢ(x) = sᵢ · 0.5‖x − c‖², scaled copies of one
    quadratic.

    Interpolation holds exactly (all ∇fᵢ(c) = 0), so the strong growth
    ratio maxᵢ‖∇fᵢ‖²/‖∇f‖² equals B = max sᵢ²/s̄² everywhere and stays
    finite; B also bounds the weak-growth ratio, with σ² = 0.
    """
    g = sgm_rng.substream(construction_seed, 0)
    scales = 0.5 + g.random(n_components)  # in [0.5, 1.5)
    center = g.standard_normal(dim)
    s_bar = float(scales.mean())
    B = float(np.max(scales ** 2) / s_bar ** 2)
    problem = problems.FiniteSumProblem(
        name="shared_minimizer", dim=dim, n_components=n_components,
        lipschitz_L=s_bar, strong_mu=s_bar, x_star=center,
        full_grad=lambda x: s_bar * (x - center),
        batch_component_grad=lambda X, idx: (scales[idx][None, :]
                                             * (X - center[:, None])),
        all_component_grads=lambda Xp: (scales[None, :, None]
                                        * (Xp - center)[:, None, :]),
        analytic_M=B, analytic_sigma_sq=0.0,
        grad_zero_points=[center.copy()])
    return problem, B


@pytest.fixture
def two_point():
    return problems.make_two_point_quadratic()


@pytest.fixture(scope="module")
def kaczmarz_20x5():
    sys_ = problems.make_random_kaczmarz_system(20, 5, 20250814, mix=0.5)
    return problems.make_kaczmarz_problem(sys_)


@pytest.fixture(scope="session")
def quadratic_l1():
    return problems.make_quadratic_l1(construction_seed=42, dim=10,
                                      n_components=20, l1_weight=0.005)


@pytest.fixture(scope="module")
def shared_minimizer():
    return make_shared_minimizer_quadratics()[0]


@pytest.fixture(scope="module")
def shared_minimizer_B():
    return make_shared_minimizer_quadratics()[1]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.solve and np.linalg.cond calls from here on."""
    calls = {"solve": 0, "cond": 0}
    for name in calls:
        def counted(*args, _inner=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
