import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import force_split

from sgmlab import analysis, cli, geometry, growth, problems, solvers

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
QUADRATIC_L1_FLOOR = (CONFIGS_DIR / "quadratic_l1_floor.cfg").read_text()

TWO_POINT_SMALL = """\
[experiment]
name = tp_small
seed = 11
iterations = 300
replications = 50
checks = wgc, necessary, floor

[problem]
kind = two_point

[method]
kind = sgm
step = constant 0.5
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(args):
    return cli.main([str(a) for a in args])


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", sorted(CONFIGS_DIR.glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_shipped_configs_validate(cfg):
    assert run_cli(["validate", cfg]) == 0


def test_readme_config_example_validates(tmp_path):
    readme = (CONFIGS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config format"):]
    block = section[section.index("```ini\n") + 7:]
    block = block[:block.index("```")]
    assert run_cli(["validate", write_cfg(tmp_path, block)]) == 0


EXPERIMENT_OK = "name = x\nseed = 1\niterations = 60\nreplications = 2"


@pytest.mark.parametrize("section,body,fragment", [
    ("experiment", EXPERIMENT_OK + "\nbogus_key = 1",
     "unknown key 'bogus_key'"),
    ("experiment", EXPERIMENT_OK.replace("seed = 1", "seed = abc"),
     "'seed' must be an integer"),
    ("experiment", EXPERIMENT_OK + "\nchecks = rate, nope",
     "unknown check 'nope'"),
    ("experiment", EXPERIMENT_OK.replace("replications = 2",
                                         "replications = 0"), "must be >= 1"),
    ("experiment", "name = x\niterations = 60\nreplications = 2",
     "missing required key 'seed'"),
    ("problem", "kind = mystery", "unknown problem kind"),
    ("problem", "kind = two_point\nm = 4", "does not apply"),
    ("method", "kind = two_step\nstep = constant 0.5", "unknown method"),
    ("method", "kind = sgm\nstep = constant", "expected 'constant <gamma>'"),
    ("method", "kind = sgm\nstep = constant -0.5", "must be positive"),
    ("method", "kind = sgm\nstep = bisection 1", "unknown step policy"),
    ("method", "kind = sgm\nstep = constant 0.1\nx0 = a,b", "x0 must be"),
    ("method", "kind = psgm\nstep = constant 0.1\nset = ball",
     "only 'whole_space'"),
])
def test_config_errors_exit_2(tmp_path, capsys, section, body, fragment):
    # overlay the mutated section onto a minimal valid config
    base = {
        "experiment": EXPERIMENT_OK,
        "problem": "kind = two_point",
        "method": "kind = sgm\nstep = constant 0.5",
    }
    base[section] = body
    text = "\n\n".join(f"[{s}]\n{b}" for s, b in base.items())
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["validate", cfg]) == 2
    assert fragment in capsys.readouterr().err


def test_unknown_section_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL + "\n[extras]\nfoo = 1\n")
    assert run_cli(["validate", cfg]) == 2
    assert "unknown section" in capsys.readouterr().err


def test_missing_section_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nseed = 1\niterations = 50\n"
                              "replications = 1\n")
    assert run_cli(["validate", cfg]) == 2
    assert "missing required section" in capsys.readouterr().err


def test_error_messages_cite_line_numbers(tmp_path, capsys):
    text = TWO_POINT_SMALL.replace("kind = sgm", "kind = sgm\ntypo_key = 3")
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["validate", cfg]) == 2
    err = capsys.readouterr().err
    lineno = text.splitlines().index("typo_key = 3") + 1
    assert f":{lineno}:" in err


@pytest.mark.parametrize("old,new,bad,fragment", [
    ("iterations = 300", "iterations: 0", "iterations: 0",
     "'iterations' must be >= 1"),
    # configparser ends a key at its first "=" or ":", so "a=b: c" is the
    # value of 'name' under either delimiter
    ("name = tp_small", "name = a=b: c\nbogus: 1", "bogus: 1",
     "unknown key 'bogus'"),
    ("name = tp_small", "name: a=b: c\nbogus: 1", "bogus: 1",
     "unknown key 'bogus'"),
])
def test_colon_delimited_keys_cite_their_line(tmp_path, capsys, old, new,
                                              bad, fragment):
    text = TWO_POINT_SMALL.replace(old, new)
    cfg = write_cfg(tmp_path, text, name="colon.cfg")
    assert run_cli(["validate", cfg]) == 2
    lineno = text.splitlines().index(bad) + 1
    assert f"colon.cfg:{lineno}: {fragment}" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli(["validate", tmp_path / "absent.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TWO_POINT_SMALL.replace("tp_small", "café")
                    .encode("latin-1"))
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}: ")
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_construction_errors_exit_3(tmp_path, capsys):
    # prox_sgm on a problem with no built-in regularizer and none configured
    text = TWO_POINT_SMALL.replace("kind = sgm", "kind = prox_sgm")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    assert "regularizer" in capsys.readouterr().err
    # matrix file that does not exist
    text = TWO_POINT_SMALL.replace(
        "kind = two_point", "kind = custom_matrix_file\npath = nowhere.txt")
    assert run_cli(["validate", write_cfg(tmp_path, text, "m.cfg")]) == 3


@pytest.mark.parametrize("step,message", [
    ("recommend", "L, M and mu must all be positive"),
    ("inverse_t", "inverse_t without a coefficient needs a positive"),
])
def test_step_from_a_zero_mu_exits_3(tmp_path, capsys, monkeypatch, step,
                                     message):
    # no problem a config builds has mu = 0, but a step derived from mu must
    # still end in a construction error, never in a division by zero
    flat = replace(problems.make_two_point_quadratic(), strong_mu=0.0)
    monkeypatch.setattr(problems, "make_two_point_quadratic", lambda: flat)
    text = TWO_POINT_SMALL.replace("checks = wgc, necessary, floor\n", "")
    text = text.replace("step = constant 0.5", f"step = {step}")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    assert message in capsys.readouterr().err


def test_memory_error_during_construction_exits_3(tmp_path, capsys,
                                                  monkeypatch):
    def out_of_memory(**kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")
    monkeypatch.setattr(problems, "make_quadratic_l1", out_of_memory)
    cfg = write_cfg(tmp_path, QUADRATIC_L1_FLOOR)
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 3
        assert ("construction error: Unable to allocate"
                in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config,key,value,message", [
    ("kaczmarz_recommend", "m", 4611686018427387904,
     "m = 4611686018427387904 and d = 5: a 4611686018427387904 x 5 float "
     "array takes 184467440737095516160 bytes"),
    ("quadratic_l1_floor", "d", 3037000500,
     "d = 3037000500: a 3037000500 x 3037000500 float array takes "
     "73786976296002000000 bytes"),
    ("quadratic_l1_floor", "n", 461168601842738790,
     "n = 461168601842738790 and d = 10: a 461168601842738790 x 10 float "
     "array takes 36893488147419103200 bytes"),
], ids=["kaczmarz-m", "quadratic_l1-d", "quadratic_l1-n"])
def test_an_array_numpy_cannot_address_exits_3_naming_its_keys(
        tmp_path, capsys, monkeypatch, config, key, value, message):
    # each key is below numpy's axis limit, but the array they shape is not;
    # the check runs before any constructor, which must not be reached
    def unreachable(*args, **kwargs):
        raise AssertionError("the constructor ran")
    for name in ("make_random_kaczmarz_system", "make_quadratic_l1"):
        monkeypatch.setattr(problems, name, unreachable)
    text = (CONFIGS_DIR / f"{config}.cfg").read_text()
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    assert capsys.readouterr().err == (
        f"construction error: {message}, more than numpy can address "
        "(9223372036854775807)\n")


@pytest.mark.parametrize("config,constructor,sizes", [
    ("kaczmarz_recommend", "make_random_kaczmarz_system",
     "m = 1000000000000, d = 5"),
    ("quadratic_l1_floor", "make_quadratic_l1", "d = 10, n = 20"),
], ids=["kaczmarz", "quadratic_l1"])
def test_memory_error_during_construction_names_the_size_keys(
        tmp_path, capsys, monkeypatch, config, constructor, sizes):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 36.4 TiB")
    monkeypatch.setattr(problems, constructor, out_of_memory)
    text = (CONFIGS_DIR / f"{config}.cfg").read_text()
    text = text.replace("m = 20\n", "m = 1000000000000\n")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    assert capsys.readouterr().err == (
        "construction error: Unable to allocate 36.4 TiB (size keys: "
        f"{sizes})\n")


def test_memory_error_during_simulation_exits_3_with_a_record(
        tmp_path, capsys, monkeypatch):
    def out_of_memory(spec, replications):
        raise MemoryError("Unable to allocate 6.94 EiB")
    monkeypatch.setattr(solvers, "run_ensemble", out_of_memory)
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, QUADRATIC_L1_FLOOR)
    assert run_cli(["run", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err == ("simulation error: out of memory: Unable to allocate "
                   "6.94 EiB\n")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["reason"] == "out of memory: Unable to allocate 6.94 EiB"
    assert manifest["replications"] == 1000
    assert run_cli(["report", out]) == 3
    assert ("failed: out of memory: Unable to allocate 6.94 EiB"
            in capsys.readouterr().out)


@pytest.mark.parametrize("key", ["iterations", "replications"])
def test_a_size_numpy_cannot_allocate_exits_3_with_a_record(tmp_path, key):
    # validate only constructs, so it accepts the size; the run's first
    # allocation is refused before any memory is taken
    text = re.sub(rf"^{key} = .*$", f"{key} = 99999999999999999999",
                  TWO_POINT_SMALL, flags=re.M)
    cfg, out = write_cfg(tmp_path, text), tmp_path / "o"
    assert run_cli(["validate", cfg]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "sgmlab", "run", cfg, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(CONFIGS_DIR.parent / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("simulation error: out of memory: ")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest[key] == 99999999999999999999
    assert manifest["reason"] == proc.stderr.removeprefix(
        "simulation error: ").rstrip("\n")


SHIPPED_TEXT = {p.stem: p.read_text() for p in CONFIGS_DIR.glob("*.cfg")}


@pytest.mark.parametrize("config,old,new", [
    ("quadratic_l1_floor", "step = constant 0.002", "step = constant inf"),
    ("kaczmarz_classical", "kind = sgm\nstep = constant 1.0",
     "kind = resolvent_sgm\nstep = inverse_t inf"),
    ("kaczmarz_recommend", "mix = 0.5", "mix = 0.5\nnoise = inf"),
    ("quadratic_l1_floor", "l1_weight = 0.005", "l1_weight = inf"),
    ("quadratic_l1_floor", "l1_weight = 0.005", "l1_weight = nan"),
    ("kaczmarz_recommend", "mix = 0.5", "mix = nan"),
    ("quadratic_l1_floor", "x0 = zero", "x0 = nan"),
    ("quadratic_l1_floor", "x0 = zero", "x0 = 1 inf"),
])
def test_non_finite_numbers_exit_2_with_line(tmp_path, capsys, monkeypatch,
                                             config, old, new):
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = SHIPPED_TEXT[config].replace(old, new)
    cfg = write_cfg(tmp_path, text)
    bad_line = new.splitlines()[-1]
    lineno = text.splitlines().index(bad_line) + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert "must be a finite number" in err and f":{lineno}:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("x0", ["1 2", ", ".join(["0.5"] * 11)])
def test_wrong_length_x0_exits_2_with_line_and_dimension(tmp_path, capsys,
                                                         monkeypatch, x0):
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = SHIPPED_TEXT["quadratic_l1_floor"].replace("x0 = zero",
                                                      f"x0 = {x0}")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(f"x0 = {x0}") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert f":{lineno}: x0 has" in err and "d = 10" in err
    assert not (tmp_path / "o").exists()


PROX_TWO_POINT = TWO_POINT_SMALL.replace(
    "kind = sgm", "kind = prox_sgm\nregularizer = {spec}")


@pytest.mark.parametrize("method,spec,fragment", [
    ("prox_sgm", "l1 abc", "'regularizer' must be a number, got 'abc'"),
    ("prox_sgm", "l1 0", "positive"),
    ("prox_sgm", "l1 -0.5", "positive"),
    ("prox_sgm", "l1 inf", "finite"),
    ("prox_sgm", "constant nan", "finite"),
    ("prox_sgm", "constant", "unsupported regularizer"),
    ("prox_sgm", "zero 1", "unsupported regularizer"),
    ("prox_sgm", "l2 0.1", "unsupported regularizer"),
    ("sgm", "l1 0.1", "applies to prox_sgm only"),
    ("psgm", "zero", "applies to prox_sgm only"),
])
def test_regularizer_errors_exit_2_with_line(tmp_path, capsys, monkeypatch,
                                             method, spec, fragment):
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = PROX_TWO_POINT.format(spec=spec).replace("kind = prox_sgm",
                                                    f"kind = {method}")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(f"regularizer = {spec}") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert fragment in err and f":{lineno}:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec,parsed", [
    ("zero", ("zero",)),
    ("constant 3.7", ("constant", 3.7)),
    ("l1 0.25", ("l1", 0.25)),
])
def test_regularizer_spec_is_parsed(tmp_path, spec, parsed):
    # an l1 override moves the solution set, so it needs quadratic_l1
    text = PROX_TWO_POINT.format(spec=spec)
    if parsed[0] == "l1":
        text = text.replace("kind = two_point", "kind = quadratic_l1")
    cfg = cli.parse_config(write_cfg(tmp_path, text))
    assert cfg.regularizer_spec == parsed
    geom = cli.build_geometry(cfg, None)
    # g ≡ c has the identity prox, so it is built as the zero regularizer
    assert geom.kind == {"constant": "zero"}.get(parsed[0], parsed[0])
    if parsed[0] == "l1":
        assert geom.weight == 0.25


@pytest.mark.parametrize("problem", ["two_point", "kaczmarz"])
def test_l1_regularizer_off_quadratic_l1_exits_2_with_line(
        tmp_path, capsys, monkeypatch, problem):
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = PROX_TWO_POINT.format(spec="l1 0.1").replace(
        "kind = two_point", f"kind = {problem}")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index("regularizer = l1 0.1") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert "quadratic_l1" in err and f":{lineno}:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["sgm", "psgm", "resolvent_sgm"])
def test_l1_weight_off_prox_sgm_exits_2_with_line(tmp_path, capsys,
                                                   monkeypatch, method):
    # only prox_sgm applies the l1 term, so the weight would be ignored
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = QUADRATIC_L1_FLOOR.replace("kind = prox_sgm", f"kind = {method}")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index("l1_weight = 0.005") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert "'l1_weight' applies to prox_sgm only" in err
        assert f":{lineno}:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("consistent", [None, "true", "YES"])
def test_noise_on_a_consistent_system_exits_2_with_line(tmp_path, capsys,
                                                        monkeypatch,
                                                        consistent):
    # a consistent system never reads noise, so the run would claim a
    # perturbation sigma it does not have
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = SHIPPED_TEXT["kaczmarz_recommend"].replace(
        "consistent = true\n",
        "" if consistent is None else f"consistent = {consistent}\n")
    text = text.replace("mix = 0.5", "mix = 0.5\nnoise = 5")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index("noise = 5") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:{lineno}: 'noise' applies to consistent = "
            "false only\n")
    assert not (tmp_path / "o").exists()


def test_noise_on_an_inconsistent_system_is_read(tmp_path):
    text = SHIPPED_TEXT["kaczmarz_recommend"].replace(
        "consistent = true", "consistent = Off\nnoise = 5")
    params = cli.parse_config(write_cfg(tmp_path, text)).problem_params
    assert (params["consistent"], params["noise"]) == (False, 5.0)


def test_an_overflowing_generated_system_exits_3_naming_mix(tmp_path,
                                                            capsys):
    # numpy's overflow warning is an error under this suite's filter, so
    # it must not escape construction, nor reach stderr from the CLI
    text = SHIPPED_TEXT["kaczmarz_classical"].replace("mix = 0.5",
                                                      "mix = 1e300")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    assert capsys.readouterr().err == ("construction error: the generated "
                                       "system is not finite at mix = "
                                       "1e+300\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_residual_exits_3_naming_noise(tmp_path, capsys):
    # b is finite, but the norm of its least-squares residual overflows
    text = SHIPPED_TEXT["kaczmarz_classical"].replace(
        "consistent = true", "consistent = false\nnoise = 1e300")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    assert capsys.readouterr().err == ("construction error: the residual of "
                                       "the generated system overflows at "
                                       "noise = 1e+300\n")


@pytest.mark.parametrize("spec,parsed", [
    ("L1 0.5", ("l1", 0.5)),
    ("Zero", ("zero",)),
    ("CONSTANT 2", ("constant", 2.0)),
])
def test_regularizer_and_check_names_fold_case_like_every_keyword(
        tmp_path, spec, parsed):
    # kinds, step policies, x0 = zero, set and booleans always folded case
    text = (QUADRATIC_L1_FLOOR
            .replace("x0 = zero", f"x0 = ZERO\nregularizer = {spec}")
            .replace("checks = wgc, rate, floor", "checks = WGC, Rate, floor")
            .replace("step = constant", "step = Constant"))
    cfg = write_cfg(tmp_path, text)
    parsed_cfg = cli.parse_config(cfg)
    assert parsed_cfg.regularizer_spec == parsed
    assert parsed_cfg.checks == ("wgc", "rate", "floor")
    assert run_cli(["validate", cfg]) == 0


def test_readme_config_format_names_every_key():
    readme = (CONFIGS_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config format"):]
    section = section[:section.index("\n### ")]
    keys = set().union(*cli._SECTIONS.values())
    assert sorted(k for k in keys if f"| `{k}` |" not in section) == []


@pytest.mark.parametrize("method", ["sgm", "psgm", "resolvent_sgm"])
def test_quadratic_l1_off_prox_sgm_measures_distance_to_argmin_f(tmp_path,
                                                                 method):
    # these methods iterate on f alone, so their solution is f's minimizer,
    # not the l1_weight = 0.005 solution 1e-2 away from it
    text = (QUADRATIC_L1_FLOOR.replace("kind = prox_sgm", f"kind = {method}")
            .replace("l1_weight = 0.005\n", ""))
    problem = cli.build_problem(cli.parse_config(write_cfg(tmp_path, text)))
    xstar = problem.x_star
    assert np.allclose(xstar, problem.grad_zero_points[0], rtol=0, atol=1e-10)


def test_regularizer_override_measures_distance_to_its_own_solution(tmp_path):
    # prox_sgm with l1 = 0.5 converges to the l1 = 0.5 solution; measured
    # against the l1_weight = 0.005 solution the floor sat at 0.775
    text = (CONFIGS_DIR / "quadratic_l1_floor.cfg").read_text()
    text = (text.replace("iterations = 6000", "iterations = 3000")
            .replace("replications = 1000", "replications = 100")
            .replace("x0 = zero", "x0 = zero\nregularizer = l1 0.5"))
    cfg = write_cfg(tmp_path, text)
    problem = cli.build_problem(cli.parse_config(cfg))
    assert problem.regularizer.kind == "l1"
    assert problem.regularizer.weight == 0.5
    out = tmp_path / "o"
    run_cli(["run", cfg, "--out", out])
    rows = np.loadtxt(out / "trajectory_stats.csv", delimiter=",",
                      skiprows=1)
    assert rows[-(len(rows) // 10):, 1].mean() < 0.01


def test_threads_option_and_key_are_gone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL)
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", cfg, "--threads", 2])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    text = TWO_POINT_SMALL.replace("name = tp_small", "name = tp_small\n"
                                                      "threads = 2")
    cfg = write_cfg(tmp_path, text, "t.cfg")
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["sgm", "prox_sgm", "resolvent_sgm"])
@pytest.mark.parametrize("value", ["whole_space", "ball"])
def test_set_key_off_psgm_exits_2_with_line(tmp_path, capsys, monkeypatch,
                                            method, value):
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = TWO_POINT_SMALL.replace("kind = sgm",
                                   f"kind = {method}\nset = {value}")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(f"set = {value}") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert "'set' applies to psgm only" in err and f":{lineno}:" in err
    assert not (tmp_path / "o").exists()


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for code in range(5):
        assert f"{code} " in out
    assert "SGMLAB_OUTPUT_ROOT" in out


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL)
    out = tmp_path / "out"
    assert run_cli(["run", cfg, "--out", out]) == 0
    for fname in ("trajectory_stats.csv", "audit_trajectory.csv",
                  "summary.csv", "manifest.json", "growth.json"):
        assert (out / fname).exists(), fname
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "tp_small"
    assert set(manifest["checks"]) == {"wgc", "necessary", "floor"}
    assert all(c["status"] == "pass" for c in manifest["checks"].values())
    assert manifest["all_checks_passed"] is True
    console = capsys.readouterr().out
    for name in ("wgc", "necessary", "floor"):
        assert f"check {name}: pass" in console
    # stats CSV has T+1 rows plus a header
    lines = (out / "trajectory_stats.csv").read_text().splitlines()
    assert lines[0] == "t,mean_dist_sq,stderr"
    assert len(lines) == 302
    # audit CSV ends with an empty step/index (no step leaves iterate T)
    last = (out / "audit_trajectory.csv").read_text().splitlines()[-1]
    assert last.startswith("300,") and last.endswith(",,")


def test_audit_csv_chunks_keep_the_one_pass_text(tmp_path, monkeypatch):
    # T = 7 steps in chunks of 3, 3 and 1, then the stepless row T, against
    # the text formatted in one pass
    g = np.random.default_rng(5)
    traj = solvers.Trajectory(
        replication=0, point_steps=np.arange(8), points=np.zeros((8, 1)),
        dist_sq=g.random(8), sampled_indices=g.integers(0, 9, 7),
        step_values=g.random(7))
    monkeypatch.setattr(analysis, "_CSV_ROWS", 3)
    path = tmp_path / "audit.csv"
    cli._write_audit_csv(path, traj)
    dist = traj.dist_sq.tolist()
    rows = zip(dist, traj.step_values.tolist(), traj.sampled_indices.tolist())
    expected = ["t,dist_sq,gamma_t,sampled_index"]
    expected += [f"{t},{d!r},{gm!r},{i}" for t, (d, gm, i) in enumerate(rows)]
    expected.append(f"7,{dist[-1]!r},,")
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_run_without_checks_succeeds(tmp_path):
    text = TWO_POINT_SMALL.replace("checks = wgc, necessary, floor",
                                   "checks =")
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"] == {}
    assert not (out / "growth.json").exists()


def test_skipped_check_fails_the_run(tmp_path):
    text = TWO_POINT_SMALL.replace("checks = wgc, necessary, floor",
                                   "checks = inverse_t")
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    entry = manifest["checks"]["inverse_t"]
    assert entry["status"] == "skipped"
    assert "inverse_t" in entry["reason"]


@pytest.mark.parametrize("step", ["constant 0.5", "inverse_t"])
def test_necessary_skips_a_thinned_trajectory_before_the_step_kind(tmp_path,
                                                                  step):
    # T > 10 000 thins the audit trajectory; that skip comes first, also
    # for a decaying step, which the check would skip for its own reason
    text = TWO_POINT_SMALL.replace("iterations = 300", "iterations = 10001")
    text = text.replace("replications = 50", "replications = 2")
    text = text.replace("checks = wgc, necessary, floor", "checks = necessary")
    text = text.replace("step = constant 0.5", f"step = {step}")
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 1
    entry = json.loads((out / "manifest.json").read_text())["checks"][
        "necessary"]
    assert entry == {"status": "skipped",
                     "reason": "trajectory was thinned; rerun with T <= 10000"}


def test_inverse_t_check_on_a_short_inverse_t_run_exits_2_with_line(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    text = (CONFIGS_DIR / "quadratic_l1_inverse_t.cfg").read_text().replace(
        "iterations = 100000", "iterations = 400")
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index("checks = inverse_t") + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert "iterations >= 1000" in err and f":{lineno}:" in err
    assert not (tmp_path / "o").exists()


def test_divergence_exits_4(tmp_path, capsys):
    text = TWO_POINT_SMALL.replace("step = constant 0.5",
                                   "step = constant 1e10\nx0 = 1.0")
    text = text.replace("checks = wgc, necessary, floor", "checks =")
    assert run_cli(["run", write_cfg(tmp_path, text), "--out",
                    tmp_path / "o"]) == 4
    assert "diverged" in capsys.readouterr().err


def test_divergence_replaces_earlier_artifacts_with_a_record(tmp_path,
                                                              capsys):
    out = tmp_path / "o"
    cfg = CONFIGS_DIR / "two_point.cfg"
    assert run_cli(["run", cfg, "--out", out]) == 0
    text = cfg.read_text().replace("step = constant 0.5",
                                   "step = constant 1e10")
    capsys.readouterr()
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out,
                    "--seed", 3]) == 4
    err = capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "diverged"
    assert manifest["seed"] == 3
    assert "all_checks_passed" not in manifest and "checks" not in manifest
    assert (f"iterate diverged at step t={manifest['t']} in replication "
            f"{manifest['replication']}") in err
    assert run_cli(["report", out]) == 4
    assert (f"diverged at step t={manifest['t']} in replication "
            f"{manifest['replication']}") in capsys.readouterr().out


@pytest.mark.parametrize("below", [None, "sub"])
def test_unusable_output_directory_exits_2_before_simulating(
        tmp_path, capsys, monkeypatch, below):
    calls = []
    monkeypatch.setattr(solvers, "run_ensemble",
                        lambda *args: calls.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    out = blocker / below if below else blocker
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL)
    assert run_cli(["run", cfg, "--out", out]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert calls == []


def test_rerun_without_growth_checks_removes_stale_growth_report(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, TWO_POINT_SMALL),
                    "--out", out]) == 0
    assert (out / "growth.json").exists()
    text = TWO_POINT_SMALL.replace("checks = wgc, necessary, floor",
                                   "checks = floor")
    assert run_cli(["run", write_cfg(tmp_path, text, "floor.cfg"),
                    "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["checks"]) == {"floor"}
    assert not (out / "growth.json").exists()


def test_seed_override_changes_results(tmp_path):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli(["run", cfg, "--out", a])
    run_cli(["run", cfg, "--out", b, "--seed", 999])
    run_cli(["run", cfg, "--out", c, "--seed", 11])  # the config's own seed
    stats = lambda d: (d / "trajectory_stats.csv").read_bytes()
    assert stats(a) != stats(b)
    assert stats(a) == stats(c)


@pytest.mark.parametrize("command,seed", [
    ("validate", 2 ** 64),   # passed validation, then overflowed the rng
    ("run", 2 ** 64),        # died with an OverflowError traceback, exit 1
    ("run", -5),             # reached construction, exit 3
    ("validate", -5),
])
def test_seed_override_out_of_range_exits_2(tmp_path, capsys, command, seed):
    args = [command, write_cfg(tmp_path, TWO_POINT_SMALL), "--seed", seed]
    if command == "run":
        args += ["--out", tmp_path / "o"]
    assert run_cli(args) == 2
    # --seed goes through the same grammar entry as the config's seed
    bound = ">= 0" if seed < 0 else "<= 18446744073709551615"
    assert capsys.readouterr().err == (f"config error: '--seed' must "
                                       f"be {bound}, got {seed}\n")
    assert not (tmp_path / "o").exists()


KACZMARZ_SMALL = """\
[experiment]
name = kz_small
seed = 5
iterations = 400
replications = 20
checks = necessary, rate

[problem]
kind = kaczmarz
m = 20
d = 5
construction_seed = 5

[method]
kind = psgm
step = recommend
"""


@pytest.mark.parametrize("key,value", [
    ("seed", 2 ** 64), ("seed", -1), ("construction_seed", 2 ** 64)])
def test_config_seed_out_of_range_exits_2(tmp_path, capsys, key, value):
    text = KACZMARZ_SMALL.replace(f"\n{key} = 5\n", f"\n{key} = {value}\n")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 2
    assert f"'{key}' must be" in capsys.readouterr().err


def test_config_seed_range_is_inclusive(tmp_path):
    text = KACZMARZ_SMALL.replace("seed = 5", f"seed = {2 ** 64 - 1}")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 0


@pytest.mark.parametrize("text,old,line,fragment", [
    (QUADRATIC_L1_FLOOR, "l1_weight = 0.005", "l1_weight = 0",
     "'l1_weight' must be positive"),
    (QUADRATIC_L1_FLOOR, "l1_weight = 0.005", "l1_weight = -0.5",
     "'l1_weight' must be positive"),
    (QUADRATIC_L1_FLOOR, "n = 20", "n = 7", "'n' must be even"),
    (KACZMARZ_SMALL, "m = 20", "m = 4", "needs m >= d"),
], ids=["l1_weight_zero", "l1_weight_negative", "odd_n", "m_below_d"])
def test_unconstructible_problem_values_exit_2_with_line(
        tmp_path, capsys, monkeypatch, text, old, line, fragment):
    # each value is a config error, known before the problem is built
    monkeypatch.setattr(solvers, "run_ensemble", None)  # must not simulate
    assert old in text
    text = text.replace(old, line)
    cfg = write_cfg(tmp_path, text)
    lineno = text.splitlines().index(line) + 1
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path / "o"]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert fragment in err and f"{cfg}:{lineno}:" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_matrix_entry_exits_3_with_its_line(tmp_path, capsys,
                                                       entry):
    # rejected while the file is read: no SVD failure, no RuntimeWarning
    (tmp_path / "system.txt").write_text(f"2 2\n1 0 1\n0 {entry} 1\n")
    text = TWO_POINT_SMALL.replace(
        "kind = two_point", "kind = custom_matrix_file\npath = system.txt")
    assert run_cli(["validate", write_cfg(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    path = (tmp_path / "system.txt").resolve()
    assert err == f"construction error: {path}:3: non-finite value\n"


def test_audits_enumerate_successors_once_per_point(tmp_path, monkeypatch):
    # the necessary-condition check and the per-step contraction audit in
    # 'rate' must share one enumeration of each audit point's successors,
    # which visits the points block by block
    blocks, audited = [], []
    inner, inner_moments = growth.enumerate_successors, growth.successor_moments

    def counted(problem, geometry, gamma, Xp):
        blocks.append(np.array(Xp))
        return inner(problem, geometry, gamma, Xp)

    def recorded(problem, geometry, gamma, points):
        audited.append(np.array(points))
        return inner_moments(problem, geometry, gamma, points)

    monkeypatch.setattr(growth, "enumerate_successors", counted)
    monkeypatch.setattr(growth, "successor_moments", recorded)
    out = tmp_path / "o"
    # T = 400 is too short for the zero-floor part of 'rate' (exit 1); both
    # audits still run, which is what is counted here
    run_cli(["run", write_cfg(tmp_path, KACZMARZ_SMALL), "--out", out])
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert checks["necessary"]["status"] == "pass"
    assert checks["rate"]["contraction_violations"] == 0
    assert sum(len(block) for block in blocks) == 400 + 1
    # every point once, in order: the blocks tile the audited trajectory
    assert len(audited) == 1
    assert np.array_equal(np.concatenate(blocks), audited[0])


def test_growth_checks_share_one_probe_fit(tmp_path, monkeypatch):
    # 'wgc', 'sgc' and growth.json all read one fit of the probe set
    fits = []
    inner = growth.fit_wgc

    def counted(*args, **kwargs):
        fits.append(inner(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(growth, "fit_wgc", counted)
    text = TWO_POINT_SMALL.replace("checks = wgc, necessary, floor",
                                   "checks = wgc, sgc")
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 0
    assert len(fits) == 1
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert checks["wgc"]["M"] == fits[0].M_wgc
    assert checks["sgc"]["B"] == "inf" and math.isinf(fits[0].B_sgc)
    assert json.loads((out / "growth.json").read_text())["M"] == fits[0].M_wgc


def test_resolvent_run_solves_once_per_step_and_equals_sgm(tmp_path,
                                                            linalg_calls):
    # kaczmarz_classical as resolvent_sgm: the zero operator's resolvent
    # system is the identity, applied as a copy, so the run must reproduce
    # the sgm run byte for byte with no solve and no condition check
    cfg = CONFIGS_DIR / "kaczmarz_classical.cfg"
    text = cfg.read_text().replace("kind = sgm", "kind = resolvent_sgm")
    assert run_cli(["run", write_cfg(tmp_path, text), "--out",
                    tmp_path / "resolvent"]) == 0
    assert linalg_calls == {"solve": 0, "cond": 0}
    assert run_cli(["run", cfg, "--out", tmp_path / "sgm"]) == 0
    for fname in ("trajectory_stats.csv", "audit_trajectory.csv"):
        assert ((tmp_path / "resolvent" / fname).read_bytes()
                == (tmp_path / "sgm" / fname).read_bytes()), fname


def test_inverse_t_resolvent_run_neither_solves_nor_checks(tmp_path,
                                                          linalg_calls):
    # with a decaying step gamma changes at every step, so the system is
    # built and classified afresh each step; the identity still needs no
    # solve and no condition check, and the run equals the sgm run
    sgm = (CONFIGS_DIR / "kaczmarz_classical.cfg").read_text()
    for old, new in (("iterations = 800", "iterations = 200"),
                     ("checks = rate", ""),
                     ("step = constant 1.0", "step = inverse_t 1.0")):
        assert old in sgm
        sgm = sgm.replace(old, new)
    text = sgm.replace("kind = sgm", "kind = resolvent_sgm")
    assert run_cli(["run", write_cfg(tmp_path, text), "--out",
                    tmp_path / "resolvent"]) == 0
    assert linalg_calls == {"solve": 0, "cond": 0}
    assert run_cli(["run", write_cfg(tmp_path, sgm), "--out",
                    tmp_path / "sgm"]) == 0
    for fname in ("trajectory_stats.csv", "audit_trajectory.csv"):
        assert ((tmp_path / "resolvent" / fname).read_bytes()
                == (tmp_path / "sgm" / fname).read_bytes()), fname


def test_kaczmarz_recommend_audits_bit_for_bit_under_sgm_and_psgm(tmp_path):
    # sgm and psgm on the whole space are one iteration, so their artifacts
    # must agree in every byte, the exact audit's margins included, and the
    # method's name is the one field that may differ; resolvent_sgm steps
    # the same way, but its floor and rate rules are its own
    psgm = (CONFIGS_DIR / "kaczmarz_recommend.cfg").read_text()
    assert "iterations = 5000" in psgm and "set = whole_space\n" in psgm
    psgm = psgm.replace("iterations = 5000", "iterations = 2000")
    out, codes = {}, {}
    for method in ("psgm", "sgm", "resolvent_sgm"):
        text = psgm if method == "psgm" else psgm.replace(
            "kind = psgm", f"kind = {method}").replace(
                "set = whole_space\n", "")
        out[method] = tmp_path / method
        codes[method] = run_cli(["run", write_cfg(tmp_path, text,
                                                  f"{method}.cfg"),
                                 "--out", out[method]])
    for method in ("sgm", "resolvent_sgm"):
        for fname in ("trajectory_stats.csv", "audit_trajectory.csv"):
            assert ((out[method] / fname).read_bytes()
                    == (out["psgm"] / fname).read_bytes()), (method, fname)
    sgm, psgm = out["sgm"], out["psgm"]
    assert codes["sgm"] == codes["psgm"]
    assert (sgm / "growth.json").read_bytes() == (
        psgm / "growth.json").read_bytes()
    manifests = [json.loads((d / "manifest.json").read_text())
                 for d in (sgm, psgm)]
    assert [m.pop("method") for m in manifests] == ["sgm", "psgm"]
    assert manifests[0] == manifests[1]
    assert manifests[0]["checks"]["necessary"]["status"] == "pass"
    summaries = [[line.split(",") for line in
                  (d / "summary.csv").read_text().splitlines()]
                 for d in (sgm, psgm)]
    col = summaries[0][0].index("method")
    assert [s[1].pop(col) for s in summaries] == ["sgm", "psgm"]
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("method", ["psgm\nset = whole_space",
                                    "prox_sgm\nregularizer = zero",
                                    "prox_sgm\nregularizer = constant 3.7"],
                         ids=["psgm_whole_space", "prox_sgm_zero",
                              "prox_sgm_constant"])
def test_trivial_geometry_run_equals_sgm(tmp_path, method):
    # the CLI alone maps a method name to its geometry; each of these step
    # maps is the identity, so the run must reproduce the sgm run bytewise
    cfg = CONFIGS_DIR / "kaczmarz_classical.cfg"
    text = cfg.read_text().replace("kind = sgm", f"kind = {method}")
    assert run_cli(["run", write_cfg(tmp_path, text), "--out",
                    tmp_path / "other"]) == 0
    assert run_cli(["run", cfg, "--out", tmp_path / "sgm"]) == 0
    for fname in ("trajectory_stats.csv", "audit_trajectory.csv"):
        assert ((tmp_path / "other" / fname).read_bytes()
                == (tmp_path / "sgm" / fname).read_bytes()), fname


def test_output_root_env_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL)
    assert run_cli(["run", cfg]) == 0
    assert (tmp_path / "root" / "tp_small" / "manifest.json").exists()


@pytest.mark.parametrize("value", ["", ".", "..", "../escaped",
                                   "sub/dir", "/abs"])
def test_name_that_is_not_one_path_component_exits_2(tmp_path, capsys,
                                                     monkeypatch, value):
    # the name becomes a directory under the output root, so an empty name,
    # "." or ".." or one with a separator would write beside or above it
    root = tmp_path / "root"
    root.mkdir()
    (root / "manifest.json").write_text("{}")
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(root))
    text = TWO_POINT_SMALL.replace("name = tp_small", f"name = {value}")
    cfg = write_cfg(tmp_path, text)
    for command in (["validate", cfg], ["run", cfg]):
        assert run_cli(command) == 2
        err = capsys.readouterr().err
        assert f"exp.cfg:2: 'name' must be a single path component" in err
    assert sorted(f.relative_to(tmp_path).as_posix()
                  for f in tmp_path.rglob("*")) == [
        "exp.cfg", "root", "root/manifest.json"]
    assert (root / "manifest.json").read_text() == "{}"


def test_output_paths_stay_free_form(tmp_path):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL.replace(
        "name = tp_small", f"name = tp_small\noutput = {tmp_path}/a/b"))
    assert run_cli(["run", cfg]) == 0
    assert (tmp_path / "a" / "b" / "manifest.json").exists()
    assert run_cli(["run", cfg, "--out", tmp_path / "a" / ".." / "c"]) == 0
    assert (tmp_path / "c" / "manifest.json").exists()


def test_inverse_t_run_passes_check(tmp_path):
    text = TWO_POINT_SMALL.replace("step = constant 0.5", "step = inverse_t")
    text = text.replace("checks = wgc, necessary, floor", "checks = inverse_t")
    text = text.replace("iterations = 300", "iterations = 2000")
    text = text.replace("replications = 50", "replications = 200")
    text = text.replace("name = tp_small", "name = tp_invt")
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["inverse_t"]["status"] == "pass"
    assert -1.3 <= manifest["checks"]["inverse_t"]["slope"] <= -0.7


def test_custom_matrix_file_round_trip(tmp_path):
    # consistent 4x2 system written in the text format, solved at gamma = 1
    g = np.random.default_rng(0)
    A = g.normal(size=(4, 2))
    x_true = np.array([1.5, -2.0])
    b = A @ x_true
    sys_file = tmp_path / "system.txt"
    rows = ["4 2"] + [f"{float(A[i, 0])!r} {float(A[i, 1])!r} {float(b[i])!r}"
                      for i in range(4)]
    sys_file.write_text("\n".join(rows) + "\n")
    text = """\
[experiment]
name = custom
seed = 5
iterations = 400
replications = 30
checks = rate, sgc

[problem]
kind = custom_matrix_file
path = system.txt

[method]
kind = sgm
step = constant 1.0
"""
    out = tmp_path / "out"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["rate"]["status"] == "pass"
    assert manifest["checks"]["rate"]["rate_fit"] < 1.0
    assert manifest["checks"]["sgc"]["status"] == "pass"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_prints_check_statuses(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL)
    out = tmp_path / "out"
    run_cli(["run", cfg, "--out", out])
    capsys.readouterr()
    assert run_cli(["report", out]) == 0
    text = capsys.readouterr().out
    assert "experiment: tp_small" in text
    for name in ("wgc", "necessary", "floor"):
        assert f"{name}: pass" in text


def test_report_missing_directory_exits_2(tmp_path, capsys):
    assert run_cli(["report", tmp_path / "nope"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['[1, 2]', '{"checks": {"rate": 5}}',
                                     '{"checks": [1]}'])
def test_report_malformed_manifest_exits_2(tmp_path, capsys, content):
    (tmp_path / "manifest.json").write_text(content)
    assert run_cli(["report", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "not an sgmlab manifest" in err and len(err.splitlines()) == 1


def test_report_non_utf8_manifest_exits_2(tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(
        '{"experiment": "café", "checks": {}}'.encode("latin-1"))
    assert run_cli(["report", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {tmp_path / 'manifest.json'}: ")
    assert len(err.splitlines()) == 1


def test_report_propagates_failure(tmp_path, capsys):
    text = TWO_POINT_SMALL.replace("checks = wgc, necessary, floor",
                                   "checks = inverse_t")
    out = tmp_path / "out"
    run_cli(["run", write_cfg(tmp_path, text), "--out", out])
    capsys.readouterr()
    assert run_cli(["report", out]) == 1
    assert "inverse_t: skipped" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# determinism across invocations
# ---------------------------------------------------------------------------

def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, TWO_POINT_SMALL.replace(
        "replications = 50", "replications = 600"))
    dirs = [tmp_path / n for n in ("r1", "r2", "r3")]
    for d in dirs:
        assert run_cli(["run", cfg, "--out", d]) == 0
    for fname in ("trajectory_stats.csv", "audit_trajectory.csv",
                  "summary.csv", "manifest.json", "growth.json"):
        blobs = [(d / fname).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1] == blobs[2], fname


def test_memory_error_in_the_replication_worker_exits_3_with_a_record(
        tmp_path, capsys, monkeypatch):
    # R = 1 000 at d = 10 steps in two processes; only the forked worker
    # runs out of memory, and the CLI still exits 3 with a manifest
    if not hasattr(os, "fork"):
        pytest.skip("the two-process loop needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    caller, prox = os.getpid(), geometry.prox

    def prox_in_parent_only(g, gamma, x):
        if os.getpid() != caller:
            raise MemoryError("Unable to allocate 6.94 EiB")
        return prox(g, gamma, x)

    monkeypatch.setattr(geometry, "prox", prox_in_parent_only)
    text = re.sub(r"^iterations = .*$", "iterations = 50", QUADRATIC_L1_FLOOR,
                  flags=re.M)
    out = tmp_path / "o"
    assert run_cli(["run", write_cfg(tmp_path, text), "--out", out]) == 3
    assert capsys.readouterr().err == ("simulation error: out of memory: "
                                       "Unable to allocate 6.94 EiB\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reason"] == "out of memory: Unable to allocate 6.94 EiB"


def test_replication_worker_killed_by_a_signal_exits_3_with_a_record(
        tmp_path, capsys, monkeypatch):
    # the forked worker is killed from outside (here by itself, inside the
    # batch oracle) and so sends no report: the CLI exits 3, and the output
    # directory holds only a manifest naming the signal
    force_split(monkeypatch)
    caller, build_problem = os.getpid(), cli.build_problem

    def killable_problem(cfg):
        problem = build_problem(cfg)
        oracle = problem.batch_component_grad

        def grad(X, idx):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return oracle(X, idx)

        problem.batch_component_grad = grad
        return problem

    monkeypatch.setattr(cli, "build_problem", killable_problem)
    out = tmp_path / "o"
    out.mkdir()
    (out / "trajectory_stats.csv").write_text("an earlier run's file\n")
    assert run_cli(["run", write_cfg(tmp_path, TWO_POINT_SMALL),
                    "--out", out]) == 3
    reason = "the replication worker was killed by signal 9 without a report"
    assert capsys.readouterr().err == f"simulation error: {reason}\n"
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["reason"]) == ("error", reason)
    assert run_cli(["report", out]) == 3


def _live_group_members(pgid):
    """The pids of process group ``pgid`` that are not zombies, from /proc:
    a zombie has ended, and it is its new parent's to reap."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # ended meanwhile
            continue
        state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state not in "ZX":
            live.append(int(entry))
    return live


def _wait_for_group(pgid, done, seconds):
    deadline = time.monotonic() + seconds
    while not done(_live_group_members(pgid)):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.skipif(not (hasattr(os, "fork") and Path("/proc/self").is_dir()
                         and len(getattr(os, "sched_getaffinity",
                                         lambda pid: ())(0)) >= 2),
                    reason="needs os.fork, /proc and two CPUs")
@pytest.mark.parametrize("killed", [False, True], ids=["exit", "sigkill"])
def test_no_process_outlives_the_cli(tmp_path, killed):
    # a wide run (d·R = 10 000) steps in two processes; whether the CLI
    # ends on its own or is killed alone mid-run, its process group, which
    # holds the CLI and its worker, empties within seconds
    iterations = 100_000 if killed else 100
    text = re.sub(r"^iterations = .*$", f"iterations = {iterations}",
                  QUADRATIC_L1_FLOOR, flags=re.M)
    text = re.sub(r"^checks = .*$", "", text, flags=re.M)
    env = dict(os.environ, PYTHONPATH=str(CONFIGS_DIR.parent / "src"))
    with open(tmp_path / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sgmlab", "run",
             write_cfg(tmp_path, text), "--out", str(tmp_path / "o")],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err, start_new_session=True)
    try:
        if killed:
            assert _wait_for_group(proc.pid, lambda live: len(live) >= 2, 60)
            time.sleep(0.3)
            proc.kill()
            proc.wait(timeout=10)
        else:
            assert proc.wait(timeout=120) == 0, (
                (tmp_path / "stderr.txt").read_text())
        assert _wait_for_group(proc.pid, lambda live: not live, 5)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
