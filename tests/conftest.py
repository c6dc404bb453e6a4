import numpy as np
import pytest

from sgmlab import problems


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
    return problems.make_shared_minimizer_quadratics(dim=3, n_components=4,
                                                     construction_seed=7)


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
