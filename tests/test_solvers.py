import os
import re
import signal
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import component_grad, force_split, run_one

from sgmlab import geometry as geo
from sgmlab import analysis, problems, solvers
from sgmlab.checks import recommend_step
from sgmlab.rng import IndexStream
from sgmlab.solvers import (
    ConstantStep,
    DivergenceError,
    InverseTStep,
    SolverRun,
    run_ensemble,
)


@pytest.fixture
def matrix_of(monkeypatch):
    """Rebuilds a run's (R, T+1) distance matrix from the blocks its step
    loop hands to ``analysis.reduce_block``: ``matrix_of(ens)``.

    Blocks are filed under the run's mean array, so runs on several threads
    at once each get their own matrix.
    """
    blocks = {}
    reduce_block = analysis.reduce_block

    def recording(block, mean, stderr):
        if mean.ctypes.data == mean.base.ctypes.data:  # a run's first block
            blocks[id(mean.base)] = []
        blocks[id(mean.base)].append(block.copy())
        reduce_block(block, mean, stderr)

    monkeypatch.setattr(analysis, "reduce_block", recording)
    return lambda ens: np.concatenate(blocks[id(ens.mean_dist_sq)], axis=1)


def parent_stats(D):
    """The per-t mean and standard error as numpy reduces a whole matrix."""
    R = D.shape[0]
    stderr = (D.std(axis=0, ddof=1) / np.sqrt(R) if R > 1
              else np.zeros(D.shape[1]))
    return D.mean(axis=0), stderr


def two_point_spec(**kw):
    p = problems.make_two_point_quadratic()
    defaults = dict(problem=p, step=ConstantStep(0.5), iters=50, seed=7)
    defaults.update(kw)
    return SolverRun(**defaults)


# ---------------------------------------------------------------------------
# step policies and run validation
# ---------------------------------------------------------------------------

def test_step_policies():
    assert ConstantStep(0.3).value(0) == 0.3
    assert ConstantStep(0.3).value(10**6) == 0.3
    s = InverseTStep(2.0)
    assert s.value(0) == 2.0
    assert s.value(3) == 0.5
    with pytest.raises(ValueError):
        ConstantStep(0.0)
    with pytest.raises(ValueError):
        InverseTStep(-1.0)


def test_method_geometry_pairing_is_validated(two_point):
    # a run's one method parameter is None or a Regularizer: a method's
    # name, a factory or an array in its place is refused
    for regularizer in ("psgm", geo.zero_regularizer, np.zeros(1)):
        with pytest.raises(ValueError, match="regularizer must be"):
            SolverRun(problem=two_point, step=ConstantStep(0.1), iters=10,
                      seed=0, regularizer=regularizer)


def test_default_x0_respects_geometry(two_point, kaczmarz_20x5):
    spec = two_point_spec()
    assert np.array_equal(spec.x0, np.zeros(1))
    # every method starts at zero, with a regularizer or without
    for regularizer in (None, geo.l1_regularizer(0.1)):
        spec = SolverRun(problem=kaczmarz_20x5, step=ConstantStep(0.1),
                         iters=10, seed=0, regularizer=regularizer)
        assert np.array_equal(spec.x0, np.zeros(5))


def test_explicit_x0_is_validated(two_point):
    with pytest.raises(ValueError):
        two_point_spec(x0=np.array([np.nan]))
    with pytest.raises(ValueError):
        two_point_spec(x0=np.zeros(3))  # wrong dimension


# ---------------------------------------------------------------------------
# single-step and trajectory semantics
# ---------------------------------------------------------------------------

def test_one_step_matches_manual_update(two_point):
    spec = two_point_spec(iters=1, x0=np.array([2.0]))
    traj = run_one(spec)
    i = int(traj.sampled_indices[0])
    manual = spec.x0 - 0.5 * component_grad(two_point, i, spec.x0)
    assert np.array_equal(traj.points[1], manual)
    assert traj.dist_sq[1] == float(manual @ manual)


def test_trajectory_shapes_and_steps(two_point):
    spec = two_point_spec(iters=30)
    traj = run_one(spec)
    assert traj.iters == 30
    assert np.array_equal(traj.point_steps, np.arange(31))
    assert traj.points.shape == (31, 1)
    assert traj.dist_sq.shape == (31,)
    assert traj.sampled_indices.shape == (30,)
    assert np.all(traj.step_values == 0.5)


def test_long_runs_thin_points_but_not_distances(two_point):
    spec = two_point_spec(iters=10_001)
    traj = run_one(spec)
    assert traj.dist_sq.shape == (10_002,)
    assert traj.point_steps[1] - traj.point_steps[0] == 2
    assert traj.points.shape == (len(traj.point_steps), 1)
    assert traj.point_steps[-1] == 10_000


def test_sampled_indices_follow_the_declared_substream(two_point):
    spec = two_point_spec(iters=40, seed=123, replication=5)
    traj = run_one(spec)
    expected = IndexStream(123, 5, 2, np.random.Philox()).next_block(40)
    assert np.array_equal(traj.sampled_indices, expected)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_rerun_is_bitwise_identical(two_point):
    a = run_one(two_point_spec(iters=200))
    b = run_one(two_point_spec(iters=200))
    assert np.array_equal(a.dist_sq, b.dist_sq)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.sampled_indices, b.sampled_indices)


def test_batch_width_does_not_change_results(kaczmarz_20x5, quadratic_l1,
                                             matrix_of):
    # R = 600 and T = 2000 span more than one index block (2**20 // 600
    # steps), and rows on both sides of 256 cover the old chunk boundary
    gamma, _ = recommend_step(kaczmarz_20x5.lipschitz_L,
                              kaczmarz_20x5.analytic_M,
                              kaczmarz_20x5.strong_mu)
    spec = SolverRun(problem=kaczmarz_20x5,
                     step=ConstantStep(gamma), iters=2000, seed=11)
    D = matrix_of(run_ensemble(spec, 600))
    for r in (0, 255, 256, 599):
        single = run_ensemble(replace(spec, replication=r), 1)
        assert np.array_equal(D[r], matrix_of(single)[0]), r
    # at d = 10 a one-column batch is where numpy would sum pairwise
    spec = SolverRun(problem=quadratic_l1,
                     step=ConstantStep(0.05), iters=300, seed=11,
                     regularizer=geo.l1_regularizer(0.005))
    D = matrix_of(run_ensemble(spec, 300))
    for r in (0, 7, 299):
        single = run_one(replace(spec, replication=r))
        assert np.array_equal(D[r], single.dist_sq), r


@pytest.mark.parametrize("threads", [None, 1, 2, 4])
def test_thread_count_does_not_change_results(kaczmarz_20x5, threads,
                                              matrix_of):
    # run_ensemble keeps no shared state, so callers that run the same spec
    # on several threads at once each get the calling thread's result
    gamma, _ = recommend_step(kaczmarz_20x5.lipschitz_L,
                              kaczmarz_20x5.analytic_M,
                              kaczmarz_20x5.strong_mu)
    spec = SolverRun(problem=kaczmarz_20x5,
                     step=ConstantStep(gamma), iters=150, seed=11)
    baseline = run_ensemble(spec, 600)
    if threads is None:
        results = [run_ensemble(spec, 600)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda _: run_ensemble(spec, 600),
                                    range(threads)))
    for ens in results:
        assert np.array_equal(matrix_of(ens), matrix_of(baseline))
        assert np.array_equal(ens.mean_dist_sq, baseline.mean_dist_sq)
        assert np.array_equal(ens.stderr, baseline.stderr)


def test_ensemble_rows_match_individual_runs(two_point, matrix_of):
    ens = run_ensemble(two_point_spec(iters=60), 10)
    D = matrix_of(ens)
    for r in range(10):
        single = run_one(two_point_spec(iters=60, replication=r))
        assert np.array_equal(D[r], single.dist_sq)
    # the audit trajectory is the first replication
    assert np.array_equal(ens.audit.dist_sq, D[0])


def test_replication_offset_shifts_substreams(two_point, matrix_of):
    ens = run_ensemble(two_point_spec(iters=60, replication=3), 4)
    base = run_ensemble(two_point_spec(iters=60, replication=0), 7)
    assert np.array_equal(matrix_of(ens), matrix_of(base)[3:])


@pytest.mark.parametrize("R,T", [
    (1, 40), (8, 4095), (8, 4096), (100, 326), (100, 654), (100, 655),
    (1000, 31), (1000, 64), (1000, 65)])
def test_streamed_statistics_equal_the_whole_matrix_reduction(
        kaczmarz_20x5, matrix_of, R, T):
    # T + 1 below one block, and one, two, or no columns past whole blocks
    # of max(2, 2**15 // R) columns
    spec = SolverRun(problem=kaczmarz_20x5, step=ConstantStep(0.05),
                     iters=T, seed=5)
    ens = run_ensemble(spec, R)
    D = matrix_of(ens)
    assert D.shape == (R, T + 1)
    mean, stderr = parent_stats(D)
    assert ens.mean_dist_sq.tobytes() == mean.tobytes()
    assert ens.stderr.tobytes() == stderr.tobytes()


def test_run_ensemble_holds_no_distance_matrix(two_point):
    R, T = 100, 20_000
    spec = two_point_spec(iters=T)
    tracemalloc.start()
    try:
        run_ensemble(spec, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < R * (T + 1) * 8


# ---------------------------------------------------------------------------
# index blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [256, 300, 2**17])
def test_indices_past_a_narrow_type_keep_their_value(n, matrix_of):
    # the block holds indices in the narrowest type that fits n − 1: uint8
    # at n = 256, uint16 at 300, uint32 at 2**17; 2 400 draws make indices
    # above 255 (n = 300) and 65 535 (n = 2**17) all but certain to occur
    p = problems.make_kaczmarz_problem(
        problems.make_random_kaczmarz_system(n, 2, 3, mix=0.5))
    spec = SolverRun(problem=p, step=ConstantStep(1.0), iters=600, seed=9)
    ens = run_ensemble(spec, 4)
    D = matrix_of(ens)
    drawn = []
    for r in range(4):
        expected = IndexStream(9, r, n, np.random.Philox()).next_block(600)
        single = run_one(replace(spec, replication=r))
        assert np.array_equal(single.sampled_indices, expected), r
        assert np.array_equal(D[r], single.dist_sq), r
        drawn.append(expected)
    assert np.array_equal(ens.audit.sampled_indices, drawn[0])
    assert ens.audit.sampled_indices.dtype == np.int64
    # the largest index that int8, uint8 and uint16 respectively cannot hold
    assert np.max(drawn) >= {256: 255, 300: 256, 2**17: 65_536}[n]


@pytest.mark.parametrize("R,T,split", [
    pytest.param(1, 50, False, id="1"), pytest.param(5, 50, False, id="5"),
    *(pytest.param(R, T, False, id=f"{R}-T{T}")
      for T in (4095, 4096, 4097) for R in (1, 3)),
    pytest.param(5, 50, True, id="5-split"),
    *(pytest.param(3, T, True, id=f"3-T{T}-split")
      for T in (4095, 4096, 4097))])
@pytest.mark.parametrize("block_steps", [1, 3])
@pytest.mark.parametrize("hist_points", [None, 4])
def test_index_block_length_does_not_change_results(kaczmarz_20x5,
                                                    monkeypatch, R, T, split,
                                                    block_steps, hist_points):
    # T = 50 ends in a partial index block of 2 steps when a block holds 3;
    # history blocks of 4 points straddle the index blocks.  The default
    # run draws at most 4 096 steps at a time, so at T = 4 097 a draw ends
    # inside the run, at T = 4 096 exactly at its end.  Split runs step
    # columns [R // 2, R) in a worker (widths 2 + 3 and 1 + 2) against the
    # one-process base
    spec = SolverRun(problem=kaczmarz_20x5, step=ConstantStep(1.0), iters=T,
                     seed=4)
    base = run_ensemble(spec, R)
    expected = IndexStream(4, 0, 20, np.random.Philox()).next_block(T)
    assert np.array_equal(base.audit.sampled_indices, expected)
    forks = force_split(monkeypatch) if split else []
    monkeypatch.setattr(solvers, "_INDEX_WORDS", block_steps * R)
    if hist_points is not None:
        monkeypatch.setattr(solvers, "_HISTORY_WORDS", hist_points * 5 * R)
    ens = run_ensemble(spec, R)
    assert ens.mean_dist_sq.tobytes() == base.mean_dist_sq.tobytes()
    assert ens.stderr.tobytes() == base.stderr.tobytes()
    assert ens.audit.dist_sq.tobytes() == base.audit.dist_sq.tobytes()
    assert np.array_equal(ens.audit.sampled_indices,
                          base.audit.sampled_indices)
    assert len(forks) == split


def test_index_block_is_held_in_a_narrow_type(two_point):
    # R = 1 000 and T = 2 000 fill a whole block of 2**20 indices; held as
    # int64 that block alone is 8 MB, as uint8 (n = 2) it is 1 MB
    tracemalloc.start()
    try:
        run_ensemble(two_point_spec(iters=2000), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 * 8


def test_index_draws_hold_no_buffer_that_grows_with_T():
    # R = 1 and T = 2**16: drawing all T indices at once held about 2.2 MB
    # of uint64 temporaries (11 MB at T = 2**18); draws of at most 4 096
    # steps, mapped in place, hold 64 KB.  What is left is the 512 KB
    # history block and the arrays that reduce it
    tracemalloc.start()
    try:
        ens = run_ensemble(two_point_spec(iters=2**16), 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ens.audit.sampled_indices) == 2**16
    assert peak - retained <= 2 * 2**20


@pytest.mark.parametrize("R", [1, 7, 300])
def test_run_ensemble_builds_one_generator_for_any_R(monkeypatch, R):
    spec = two_point_spec(iters=20)
    built, philox = [], np.random.Philox

    def counting(*args, **kwargs):
        built.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    run_ensemble(spec, R)
    assert len(built) == 1


def test_wide_short_run_holds_no_per_replication_generators():
    # R = 4 096, T = 4 on two_point: one Philox per replication and a second
    # (R, B) statistics buffer peaked at 2.9 MB; one shared generator, R
    # (seed, replication) keys and one 256 KB statistics buffer peak at
    # 1.2 MB.  The first run is untraced, so one-time allocations of a
    # cold process do not count
    spec = two_point_spec(iters=4)
    run_ensemble(spec, 4096)
    tracemalloc.start()
    try:
        run_ensemble(spec, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# two processes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("R", [2, 7, 600])
def test_split_batch_is_bitwise_the_one_process_batch(kaczmarz_20x5,
                                                      monkeypatch, matrix_of,
                                                      R):
    # the worker steps columns [h, R), h = R // 2: replications h − 1 and h
    # sit on either side of the split, and R = 7 gives halves of 3 and 4
    gamma, _ = recommend_step(kaczmarz_20x5.lipschitz_L,
                              kaczmarz_20x5.analytic_M,
                              kaczmarz_20x5.strong_mu)
    spec = SolverRun(problem=kaczmarz_20x5, step=ConstantStep(gamma),
                     iters=300, seed=11)
    base = run_ensemble(spec, R)
    forks = force_split(monkeypatch)
    ens = run_ensemble(spec, R)
    assert len(forks) == 1
    assert ens.mean_dist_sq.tobytes() == base.mean_dist_sq.tobytes()
    assert ens.stderr.tobytes() == base.stderr.tobytes()
    assert ens.audit.dist_sq.tobytes() == base.audit.dist_sq.tobytes()
    assert ens.audit.points.tobytes() == base.audit.points.tobytes()
    assert np.array_equal(ens.audit.sampled_indices,
                          base.audit.sampled_indices)
    D, h = matrix_of(ens), R // 2
    for r in sorted({0, h - 1, h, R - 1}):
        single = run_ensemble(replace(spec, replication=r), 1)
        assert np.array_equal(D[r], matrix_of(single)[0]), r
    assert len(forks) == 1  # a single replication never splits


def test_split_batch_draws_every_index_in_the_calling_process(two_point,
                                                              monkeypatch):
    # perfbench's traced rng.words and call counts see only the calling
    # process: every next_block call must happen there, T·R words in all,
    # through the one Philox of the run
    T, R, steps = 300, 7, 16
    forks = force_split(monkeypatch)
    monkeypatch.setattr(solvers, "_INDEX_WORDS", steps * R)
    caller, words, built = os.getpid(), [], []
    next_block, philox = IndexStream.next_block, np.random.Philox

    def counted(stream, k):
        if os.getpid() != caller:
            raise AssertionError("the worker drew indices")
        block = next_block(stream, k)
        words.append(len(block))
        return block

    def counting(*args, **kwargs):
        built.append(None)
        return philox(*args, **kwargs)

    monkeypatch.setattr(IndexStream, "next_block", counted)
    monkeypatch.setattr(np.random, "Philox", counting)
    run_ensemble(two_point_spec(problem=two_point, iters=T), R)
    assert len(forks) == 1
    assert sum(words) == T * R
    assert len(words) == R * -(-T // steps)
    assert len(built) == 1


@pytest.mark.parametrize("exc", [ZeroDivisionError("failed in the worker"),
                                 MemoryError("Unable to allocate 6.94 EiB")],
                         ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("at_call", [1, 40])
def test_worker_exception_reaches_the_caller(two_point, monkeypatch, exc,
                                             at_call):
    # at call 40, with index blocks of 2 steps, the parent may be writing an
    # index block when the worker exits: the report must still arrive
    forks = force_split(monkeypatch)
    monkeypatch.setattr(solvers, "_INDEX_WORDS", 2 * 8)
    caller, oracle = os.getpid(), two_point.batch_component_grad
    calls = []

    def grad(X, idx):
        calls.append(None)
        if os.getpid() != caller and len(calls) >= at_call:
            raise exc
        return oracle(X, idx)

    monkeypatch.setattr(two_point, "batch_component_grad", grad)
    with pytest.raises(type(exc), match=re.escape(str(exc))):
        run_ensemble(two_point_spec(problem=two_point, iters=200), 8)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # killed and reaped already
        os.waitpid(forks[0], os.WNOHANG)


@pytest.mark.parametrize("at_call", [1, 200], ids=["sending", "receiving"])
def test_worker_killed_by_a_signal_is_a_worker_error(two_point, monkeypatch,
                                                     at_call):
    # a worker killed from outside sends no report; the caller reaps it and
    # names the signal.  Killed at step 1, it is found dead by the caller's
    # next index block; at the last step, by the caller's wait for its rows
    forks = force_split(monkeypatch)
    monkeypatch.setattr(solvers, "_INDEX_WORDS", 2 * 8)
    caller, oracle = os.getpid(), two_point.batch_component_grad
    calls = []

    def grad(X, idx):
        calls.append(None)
        if os.getpid() != caller and len(calls) >= at_call:
            os.kill(os.getpid(), signal.SIGKILL)
        return oracle(X, idx)

    monkeypatch.setattr(two_point, "batch_component_grad", grad)
    with pytest.raises(solvers.WorkerError,
                       match=r"^the replication worker was killed by signal 9 "
                             r"without a report$"):
        run_ensemble(two_point_spec(problem=two_point, iters=200), 8)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # reaped already
        os.waitpid(forks[0], os.WNOHANG)


def test_unpicklable_worker_exception_keeps_its_type_name(two_point,
                                                          monkeypatch):
    class LocalError(Exception):  # pickled by reference, so unloadable
        pass

    force_split(monkeypatch)
    caller, oracle = os.getpid(), two_point.batch_component_grad

    def grad(X, idx):
        if os.getpid() != caller:
            raise LocalError("no way back")
        return oracle(X, idx)

    monkeypatch.setattr(two_point, "batch_component_grad", grad)
    with pytest.raises(RuntimeError, match="LocalError: no way back"):
        run_ensemble(two_point_spec(problem=two_point, iters=20), 4)


def test_split_divergence_names_the_earliest_escape_in_either_half(
        two_point, monkeypatch):
    # under seed 28 the earliest escape (t = 139, see the guard tests
    # below) is replication 381 alone, in the worker's half [200, 400)
    spec = two_point_spec(problem=two_point, step=ConstantStep(2.2),
                          iters=150, seed=28)
    with pytest.raises(DivergenceError) as one:
        run_ensemble(spec, 400)
    assert one.value.replication >= 200
    forks = force_split(monkeypatch)
    with pytest.raises(DivergenceError) as two:
        run_ensemble(spec, 400)
    assert (two.value.t, two.value.replication) == (one.value.t,
                                                    one.value.replication)
    # every replication escapes at t = 1, so both halves do at once
    spec = replace(spec, step=ConstantStep(1e10), x0=np.array([1e6]),
                   replication=3)
    with pytest.raises(DivergenceError) as both:
        run_ensemble(spec, 5)
    assert (both.value.t, both.value.replication) == (1, 3)
    assert len(forks) == 2


def _exit_code(pid, seconds=10):
    """The exit code of child ``pid`` once it ends, or None if it is still
    running after ``seconds`` (it is then killed)."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return None
        time.sleep(0.01)


@pytest.mark.parametrize("how", ["returns", "raises", "orphaned"])
def test_worker_process_ends_only_through_os_exit(how):
    # a worker that returned into its caller would run the rest of the
    # caller's code, here the os._exit(7) below; an orphaned worker, whose
    # parent's index end is closed, must end on its own
    if not hasattr(os, "fork"):
        pytest.skip("the two-process loop needs os.fork")
    caller = os.getpid()

    def serve(idx_fd, rows_fd):
        if how == "raises":
            raise ValueError("bad value in the worker")
        if how == "orphaned":
            solvers._read_exact(idx_fd, bytearray(1))

    worker = solvers._Worker(serve)
    if os.getpid() != caller:
        os._exit(7)
    if how == "orphaned":
        os.close(worker._idx)
        assert _exit_code(worker.pid) == 1
        os.close(worker._rows)
        return
    try:
        if how == "raises":
            with pytest.raises(ValueError, match="bad value in the worker"):
                worker.receive(np.empty(1))
        assert _exit_code(worker.pid) == {"returns": 0, "raises": 1}[how]
    finally:
        os.close(worker._idx)
        os.close(worker._rows)


# ---------------------------------------------------------------------------
# divergence guard
# ---------------------------------------------------------------------------

def test_divergence_raises_with_location(two_point):
    spec = two_point_spec(step=ConstantStep(1e10), iters=50,
                          x0=np.array([1.0]))
    with pytest.raises(DivergenceError) as err:
        run_one(spec)
    assert err.value.t >= 1
    assert err.value.replication == 0
    assert "diverged" in str(err.value)


def test_divergence_names_earliest_step_then_lowest_replication(two_point):
    # at gamma = 2.2 each replication escapes at its own step; under seed 28
    # the earliest escape (t = 139) is replication 381 alone, and every one
    # of replications 0..255 escapes later
    spec = two_point_spec(step=ConstantStep(2.2), iters=150, seed=28)
    R = 400
    escapes = []
    for r in range(R):
        try:
            run_one(replace(spec, replication=r))
        except DivergenceError as exc:
            escapes.append((exc.t, exc.replication))
    expected = min(escapes)
    assert expected[1] >= 256
    with pytest.raises(DivergenceError) as err:
        run_ensemble(spec, R)
    assert (err.value.t, err.value.replication) == expected


def per_step_escape(spec, R):
    """The (t, replication) that a guard on every step's row names, replayed
    step by step for an sgm run, or None."""
    p = spec.problem
    idx = np.array([IndexStream(spec.seed, spec.replication + r,
                                p.n_components, np.random.Philox())
                    .next_block(spec.iters)
                    for r in range(R)])
    X = np.repeat(spec.x0[:, None], R, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(spec.iters):
            gamma = spec.step.value(t)
            X = X - gamma * p.batch_component_grad(X, idx[:, t])
            bad = np.flatnonzero(~(((X - p.x_star[:, None]) ** 2).sum(axis=0)
                                   <= 1e24))
            if len(bad):
                return t + 1, spec.replication + int(bad[0])
    return None


def _block_for(where, t):
    """A history block length B >= 8 that puts point t where asked, and the
    horizon T to run."""
    fits = {"first_step": lambda b: True,
            "block_end": lambda b: (t + 1) % b == 0,
            "mid_block": lambda b: 0 < t % b < b - 1,
            # T = t + 1 ends in a partial block that holds t
            "final_partial": lambda b: (t + 1) % b and (t + 2) % b}[where]
    B = next(b for b in range(8, t + 9) if fits(b))
    return B, (t + 1 if where == "final_partial" else 400)


@pytest.mark.parametrize("R", [1, 5])
@pytest.mark.parametrize("where", ["first_step", "block_end", "mid_block",
                                   "final_partial"])
def test_block_guard_names_what_a_per_step_guard_names(two_point, monkeypatch,
                                                       where, R):
    # the guard runs once per history block, after the steps that follow a
    # divergence; it must still name the earliest t, then the lowest
    # replication.  Under seed 0, gamma = 2.2 escapes at t = 172 (R = 1) and
    # t = 143 in replication 4 (R = 5); gamma = 1e10 escapes at t = 1
    spec = two_point_spec(step=ConstantStep(2.2), iters=400, seed=0)
    if where == "first_step":
        spec = replace(spec, step=ConstantStep(1e10), x0=np.array([1e6]))
    t, r = per_step_escape(spec, R)
    assert (t == 1) == (where == "first_step")
    B, T = _block_for(where, t)
    monkeypatch.setattr(solvers, "_HISTORY_WORDS", B * R)  # d = 1
    with pytest.raises(DivergenceError) as err:
        run_ensemble(replace(spec, iters=T), R)
    assert (err.value.t, err.value.replication) == (t, r)


def test_start_point_is_not_guarded(two_point):
    # x0 lies 1e13 from x* = 0, outside the trust region; a full step
    # (gamma = 1) lands on a component's target, so nothing diverges
    traj = run_one(two_point_spec(step=ConstantStep(1.0), iters=5,
                                  x0=np.array([1e13])))
    assert traj.dist_sq.tolist() == [1e26] + [1.0] * 5


def test_trust_region_is_centred_on_the_solution_set(matrix_of):
    # f(x) = ½(x − c)² with c = 3e12: the iterates converge to c, far outside
    # ‖x‖ ≤ 1e12 but never farther than 1 from the solution
    c = 3e12
    p = problems.FiniteSumProblem(
        name="shifted", dim=1, n_components=1, lipschitz_L=1.0,
        strong_mu=1.0,
        x_star=np.array([c]),
        full_grad=lambda x: x - c,
        batch_component_grad=lambda X, idx: X - c,
        all_component_grads=lambda Xp: (Xp - c)[:, None, :],
        analytic_M=1.0, analytic_sigma_sq=0.0)  # n = 1: ∇f₁ = ∇f
    spec = SolverRun(problem=p, step=ConstantStep(0.5),
                     iters=20, seed=0, x0=np.array([c + 1.0]))
    D = matrix_of(run_ensemble(spec, 3))
    assert D[:, 0].tolist() == [1.0] * 3
    assert np.all(D[:, 1:] < 1.0)


# ---------------------------------------------------------------------------
# contraction behavior (smoke)
# ---------------------------------------------------------------------------

def test_recommended_step_contracts_on_kaczmarz(kaczmarz_20x5):
    p = kaczmarz_20x5
    gamma, rho = recommend_step(p.lipschitz_L, p.analytic_M, p.strong_mu)
    spec = SolverRun(problem=p, step=ConstantStep(gamma),
                     iters=200, seed=3)
    mean = run_ensemble(spec, 64).mean_dist_sq
    assert mean[-1] < mean[0] * (1 - rho) ** 200 * 3  # within 3x of the bound
    assert mean[-1] < mean[0]


def test_two_point_mean_follows_exact_recursion(two_point):
    # E dist^2 obeys m_{t+1} = (1-gamma)^2 m_t + gamma^2 exactly; check the
    # Monte Carlo mean tracks it within 5 standard errors at every step
    gamma, T, R = 0.5, 200, 4000
    spec = two_point_spec(step=ConstantStep(gamma), iters=T, seed=97,
                          x0=np.array([0.0]))
    ens = run_ensemble(spec, R)
    mean, se = ens.mean_dist_sq, ens.stderr
    exact = np.empty(T + 1)
    exact[0] = 0.0
    for t in range(T):
        exact[t + 1] = (1 - gamma) ** 2 * exact[t] + gamma ** 2
    assert np.all(np.abs(mean - exact) <= 5 * se + 1e-12)
