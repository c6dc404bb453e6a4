import math
import tracemalloc

import numpy as np
import pytest

from sgmlab import analysis, problems
from sgmlab.analysis import (
    RateFitError,
    StreamedStats,
    check_inverse_t_rate,
    estimate_floor,
    fit_linear_rate,
    format_float,
    predict_floor,
    reduce_block,
    write_stats_csv,
    write_summary_csv,
)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def whole(D):
    """(mean, stderr) of D reduced as one block."""
    mean, stderr = np.empty(D.shape[1]), np.empty(D.shape[1])
    reduce_block(D.copy(), mean, stderr)
    return mean, stderr


def test_reduce_block_mean_and_stderr(rng):
    D = rng.random((6, 11))
    mean, stderr = whole(D)
    assert np.allclose(mean, D.mean(axis=0), atol=1e-15)
    assert np.allclose(stderr, D.std(axis=0, ddof=1) / np.sqrt(6), atol=1e-15)


def parent_stats(D):
    """Per-t mean and standard error as numpy reduces the whole C-ordered
    matrix."""
    R = D.shape[0]
    stderr = (D.std(axis=0, ddof=1) / math.sqrt(R) if R > 1
              else np.zeros(D.shape[1]))
    return D.mean(axis=0), stderr


def streamed(D, m):
    """StreamedStats of D, handed m columns at a time as rows."""
    stats = StreamedStats(*D.shape)
    for lo in range(0, D.shape[1], m):
        stats.push_rows(D[:, lo:lo + m].T)
    return stats


@pytest.mark.parametrize("R", [1, 2, 7, 8, 100, 1000])
@pytest.mark.parametrize("extra", ["short", 0, 1, 2])
def test_streamed_statistics_equal_the_whole_matrix_reduction(rng, R, extra):
    # T + 1 below one block, or two whole blocks and `extra` columns; a
    # one-column last block is where numpy's own reduce sums pairwise.
    # Row blocks of one column, of 3 and width ± 1 columns (which straddle
    # statistics blocks), and of all n columns at once.
    width = max(2, analysis._STATS_WORDS // R)
    n = width // 2 + 1 if extra == "short" else 2 * width + extra
    D = rng.random((R, n)) * rng.choice([1e-8, 1.0, 1e8], size=(R, n))
    D[:, n // 2] = -0.0
    mean, stderr = parent_stats(D)
    results = [(s.mean, s.stderr) for s in
               (streamed(D, m) for m in (1, 3, width - 1, width + 1, n))]
    results.append(whole(D))
    for got_mean, got_stderr in results:
        assert got_mean.tobytes() == mean.tobytes()
        assert got_stderr.tobytes() == stderr.tobytes()
    assert not np.signbit(mean[n // 2])  # numpy's sum starts at +0.0
    if R == 1:
        assert np.all(stderr == 0.0)


def test_single_replication_has_zero_stderr(rng):
    _, stderr = whole(rng.random((1, 8)))
    assert np.all(stderr == 0.0)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_geometric_decay():
    T = 500
    mean = 4.0 * 0.9 ** np.arange(T + 1)
    fit = fit_linear_rate(mean)
    # subtracting the tail-mean floor estimate bends only the last decade
    # of the window, so the recovered rate is accurate to ~1e-4
    assert abs(fit.rate_per_iter - 0.9) < 5e-4
    assert fit.r_squared >= 0.9999
    assert fit.floor_estimate <= 1e-14


def test_fit_recovers_decay_above_a_floor():
    T = 500
    mean = 0.9 ** np.arange(T + 1) + 1e-4
    fit = fit_linear_rate(mean)
    assert abs(fit.floor_estimate - 1e-4) < 1e-6
    assert abs(fit.rate_per_iter - 0.9) < 1e-3
    # window stops once the curve is within 10x of the floor
    assert fit.fit_window[0] == 0
    assert mean[fit.fit_window[1]] < 10 * fit.floor_estimate


def test_fit_rate_is_capped_at_one():
    # rising during the decay-dominated window, then parked at the floor
    mean = np.full(201, 0.1)
    mean[:31] = 5.0 + np.arange(31) / 30.0
    fit = fit_linear_rate(mean)
    assert fit.rate_per_iter == 1.0


def test_fit_refuses_short_horizons():
    with pytest.raises(RateFitError):
        fit_linear_rate(np.ones(30))


def test_fit_refuses_noise_dominated_trajectories():
    mean = np.full(201, 0.42)  # flat at the floor from t = 0
    with pytest.raises(RateFitError, match="fewer than 10 points"):
        fit_linear_rate(mean)


def test_fit_survives_exact_zero_tail():
    # underflow to exact zero must not produce -inf logs
    mean = np.zeros(201)
    mean[:20] = 2.0 * 0.5 ** np.arange(20)
    fit = fit_linear_rate(mean)
    assert 0 < fit.rate_per_iter <= 1.0


# ---------------------------------------------------------------------------
# floors
# ---------------------------------------------------------------------------

def test_estimate_floor_uses_final_tenth():
    mean = np.concatenate([np.full(90, 7.0), np.full(10, 1.0)])
    # T = 99, window is the last 10 entries
    floor, se = estimate_floor(mean, np.zeros_like(mean))
    assert floor == 1.0
    assert se == 0.0


def test_estimate_floor_reports_conservative_stderr():
    mean = np.ones(100)
    _, se = estimate_floor(mean, np.full(100, 0.25))
    assert se == 0.25  # not reduced by the window length


def test_predict_floor_reference_value_and_homogeneity():
    assert np.isclose(predict_floor(0.1, 0.05, 1.0), 0.2, rtol=1e-12)
    base = predict_floor(0.03, 0.2, 1.7)
    assert np.isclose(predict_floor(0.03, 0.2, 3.4), 2 * base, rtol=1e-12)
    # quadratic in gamma at fixed rho
    assert np.isclose(predict_floor(0.06, 0.2, 1.7), 4 * base, rtol=1e-12)


def test_predict_floor_validates_inputs():
    with pytest.raises(ValueError):
        predict_floor(0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        predict_floor(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        predict_floor(0.1, 0.5, -1.0)


# ---------------------------------------------------------------------------
# O(1/t) slope check
# ---------------------------------------------------------------------------

def test_inverse_t_slope_detects_one_over_t():
    t = np.arange(2001, dtype=float)
    mean = 5.0 / (1.0 + t)
    passed, slope = check_inverse_t_rate(mean)
    assert passed
    assert abs(slope + 1.0) < 0.01


def test_inverse_t_slope_rejects_wrong_power():
    t = np.arange(2001, dtype=float)
    passed, slope = check_inverse_t_rate(5.0 / (1.0 + t) ** 2)
    assert not passed
    assert slope < -1.5


def test_inverse_t_check_validates_inputs():
    with pytest.raises(ValueError):
        check_inverse_t_rate(np.ones(500))


# ---------------------------------------------------------------------------
# formatting and files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.0, 1.0, 0.1, 1 / 3, 1e-300, 1e300,
                               2.0 ** -52, 123456.789])
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
    assert float(format_float(np.float64(x))) == x


def test_write_stats_csv_round_trip(tmp_path, rng):
    mean, stderr = whole(rng.random((4, 6)))
    path = tmp_path / "stats.csv"
    write_stats_csv(path, mean, stderr)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean_dist_sq,stderr"
    assert len(lines) == 7
    for t, line in enumerate(lines[1:]):
        f0, f1, f2 = line.split(",")
        assert int(f0) == t
        assert float(f1) == mean[t]
        assert float(f2) == stderr[t]


def test_write_stats_csv_chunks_keep_the_one_pass_text(tmp_path, rng,
                                                       monkeypatch):
    # T + 1 = 8 rows in chunks of 3, 3 and 2 against the text formatted in
    # one pass
    mean, stderr = whole(rng.random((4, 8)))
    monkeypatch.setattr(analysis, "_CSV_ROWS", 3)
    path = tmp_path / "stats.csv"
    write_stats_csv(path, mean, stderr)
    rows = zip(mean.tolist(), stderr.tolist())
    expected = "t,mean_dist_sq,stderr\n" + "".join(
        f"{t},{m!r},{s!r}\n" for t, (m, s) in enumerate(rows))
    assert path.read_bytes() == expected.encode()


def test_write_stats_csv_memory_is_bounded(tmp_path, rng):
    # formatting all 10⁵ rows into one string peaks near 18 MB; a chunk of
    # rows at a time stays below 4 MB
    n = 100_001
    mean, stderr = rng.random(n), rng.random(n)
    tracemalloc.start()
    try:
        write_stats_csv(tmp_path / "stats.csv", mean, stderr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_write_summary_csv(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(path, {"experiment": "x", "gamma": "0.5",
                             "check_rate": "pass"})
    lines = path.read_text().splitlines()
    assert lines == ["experiment,gamma,check_rate", "x,0.5,pass"]
