"""A catalogue of mutants: deliberate faults the checks should catch.

Each mutant is applied from here by monkeypatching, then a shipped config
runs unchanged through ``cli.main``.  A (mutant, config) pair is caught when
at least one requested check reports ``fail``; the checks that catch it
today are listed with it.  A pair that no check catches is a strict xfail
naming its blind spot, so that a check which starts catching it shows up as
an XPASS.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from sgmlab import cli, rng, solvers

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def never_draw_the_last_component(monkeypatch):
    """The sampler maps component n − 1 onto n − 2, so n − 1 is never drawn."""
    inner = rng._map_in_place

    def mapped(raw, n):
        out = inner(raw, n)
        out[out == n - 1] = n - 2
        return out
    monkeypatch.setattr(rng, "_map_in_place", mapped)


def step_an_eighth_in_the_loop(monkeypatch):
    """The step loop's gradient oracle returns ∇fᵢ / 8; the audits, which
    enumerate through ``all_component_grads``, stay correct."""
    build = cli.build_problem

    def built(cfg):
        problem = build(cfg)
        grad = problem.batch_component_grad
        problem.batch_component_grad = lambda X, idx: grad(X, idx) / 8
        return problem
    monkeypatch.setattr(cli, "build_problem", built)


def shift_x_star_in_the_distances(monkeypatch):
    """The ensemble measures its distances to x* + 0.1 in every coordinate;
    the run context, and so every audit, keeps the true x*."""
    run = solvers.run_ensemble

    def shifted(spec, replications):
        problem = spec.problem
        problem = dataclasses.replace(problem, x_star=problem.x_star + 0.1)
        return run(dataclasses.replace(spec, problem=problem), replications)
    monkeypatch.setattr(solvers, "run_ensemble", shifted)


def halve_the_prox_weight(monkeypatch):
    """The step map's ℓ1 weight is half the one the solution was built with."""
    build = cli.build_geometry

    def built(cfg, problem):
        geometry = build(cfg, problem)
        return dataclasses.replace(geometry, weight=geometry.weight / 2)
    monkeypatch.setattr(cli, "build_geometry", built)


def offset_component_0_in_the_loop(monkeypatch):
    """The batch oracle adds 1 to every coordinate of ∇f₀, the gradient of
    component 0; ``all_component_grads`` stays correct."""
    build = cli.build_problem

    def built(cfg):
        problem = build(cfg)
        grad = problem.batch_component_grad

        def wrong(X, idx):
            G = grad(X, idx)
            G[:, np.asarray(idx) == 0] += 1.0
            return G
        problem.batch_component_grad = wrong
        return problem
    monkeypatch.setattr(cli, "build_problem", built)


def blind_spot(reason):
    return pytest.mark.xfail(strict=True, reason=f"blind spot: {reason}")


CASES = [
    pytest.param(
        never_draw_the_last_component, "two_point", set(),
        marks=blind_spot(
            "with n = 2 every index is 0, so each iterate moves to target 0 "
            "and dist^2 settles at exactly 1.0, which is the upper edge of "
            "the floor band [0.25, 1.0]; wgc and necessary audit the "
            "oracle, not the sampler"),
        id="never_last-two_point"),
    pytest.param(
        never_draw_the_last_component, "kaczmarz_recommend", set(),
        marks=blind_spot(
            "on a consistent system every row passes through x*, so "
            "skipping row n - 1 still converges to x* and moves the fitted "
            "rate only in the fifth digit; the rate bound is one-sided"),
        id="never_last-kaczmarz_recommend"),
    pytest.param(never_draw_the_last_component, "quadratic_l1_floor",
                 {"floor"}, id="never_last-quadratic_l1_floor"),
    pytest.param(step_an_eighth_in_the_loop, "two_point", {"floor"},
                 id="eighth_step-two_point"),
    pytest.param(step_an_eighth_in_the_loop, "kaczmarz_recommend",
                 {"rate", "floor"}, id="eighth_step-kaczmarz_recommend"),
    pytest.param(step_an_eighth_in_the_loop, "quadratic_l1_floor", {"floor"},
                 id="eighth_step-quadratic_l1_floor"),
    pytest.param(
        shift_x_star_in_the_distances, "two_point", set(),
        marks=blind_spot(
            "the shift adds 0.01 to the floor, 1/3 -> 0.342, inside the "
            "floor band [0.23, 1.02], a factor 4 wide; rate is not "
            "requested, and wgc and necessary never read the distances"),
        id="shifted_x_star-two_point"),
    pytest.param(shift_x_star_in_the_distances, "kaczmarz_recommend",
                 {"rate", "floor"}, id="shifted_x_star-kaczmarz_recommend"),
    pytest.param(shift_x_star_in_the_distances, "quadratic_l1_floor",
                 {"floor"}, id="shifted_x_star-quadratic_l1_floor"),
    pytest.param(
        halve_the_prox_weight, "quadratic_l1_floor", set(),
        marks=blind_spot(
            "at l1 weight 0.005 halving it moves the regularized solution by "
            "0.005 (squared 2.5e-5, about 1 % of the floor 0.0021), inside "
            "the floor band [0.0018, 0.0085]; the rate bound is one-sided"),
        id="half_prox_weight-quadratic_l1_floor"),
    pytest.param(
        offset_component_0_in_the_loop, "two_point", set(),
        marks=blind_spot(
            "the offset turns target 1 into target 0, which moves the "
            "stationary mean to -1/2 but leaves E x^2 at exactly 1/3, the "
            "correct floor; wgc and necessary audit all_component_grads"),
        id="offset_component_0-two_point"),
    pytest.param(offset_component_0_in_the_loop, "kaczmarz_recommend",
                 {"rate", "floor"}, id="offset_component_0-kaczmarz_recommend"),
    pytest.param(offset_component_0_in_the_loop, "quadratic_l1_floor",
                 {"floor"}, id="offset_component_0-quadratic_l1_floor"),
]


@pytest.mark.parametrize("mutate,config,catches", CASES)
def test_a_check_catches_the_mutant(mutate, config, catches, tmp_path,
                                    monkeypatch):
    mutate(monkeypatch)
    code = cli.main(["run", str(CONFIGS_DIR / f"{config}.cfg"),
                     "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    failed = {name for name, result in manifest["checks"].items()
              if result["status"] == "fail"}
    assert failed and failed >= catches
    assert code == cli.EXIT_CHECK_FAILED
