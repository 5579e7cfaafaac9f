import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rigalign import metrics
from rigalign.errors import DegenerateGeometry, InvalidInput
from rigalign.geometry import SimilarityTransform
from rigalign.metrics import (
    COMPACT_NODES,
    LEAFSIZE,
    QUERY_CHUNK,
    InFlight,
    MetricReport,
    NearestNeighborIndex,
    chamfer_distance,
    fit_similarity,
    icp_with_scaling,
    median_metrics,
    nearest,
)

import oracles
from oracles import chamfer_of_points, f_score_of_points, icp_per_start, random_unit_quaternions


def chamfer_oracle(a, b):
    """O(N^2) linear scan in cm^2."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return float((d2.min(axis=1).mean() + d2.min(axis=0).mean()) * 1e4)


def f_score_oracle(pred, gt, threshold):
    d2 = np.sum((pred[:, None, :] - gt[None, :, :]) ** 2, axis=-1)
    p = float(np.mean(np.sqrt(d2.min(axis=1)) <= threshold))
    r = float(np.mean(np.sqrt(d2.min(axis=0)) <= threshold))
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


class TestChamfer:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 3))
        assert chamfer_of_points(a, a.copy()) == 0.0

    def test_single_pair_arithmetic(self):
        # 1 cm apart: 1 cm^2 each direction
        assert chamfer_of_points(np.array([[0.0, 0, 0]]),
                                 np.array([[0.01, 0, 0]])) == pytest.approx(2.0, abs=1e-12)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.normal(size=(50, 3)) * 0.1
            b = rng.normal(size=(50, 3)) * 0.1
            assert chamfer_of_points(a, b) == pytest.approx(chamfer_oracle(a, b), abs=1e-9)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(80, 3))
        b = rng.normal(size=(80, 3))
        assert chamfer_of_points(a, b) == chamfer_of_points(b, a)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3))
        base = chamfer_of_points(a, b)
        for k in (0.5, 2.0, 7.3):
            assert chamfer_of_points(k * a, k * b) == pytest.approx(k * k * base, rel=1e-9)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput, match=r"same size \(3 vs 4\)"):
            chamfer_of_points(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_empty(self):
        with pytest.raises(DegenerateGeometry, match="needs non-empty clouds"):
            chamfer_of_points(np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("rows, n", [(1, 1), (7, 64), (33, 1000), (5, 4097)])
    def test_rows_reduce_like_single_arrays(self, rows, n):
        """A (B, n) pair reduces over its last axis, each row bit-equal to the
        same row given alone."""
        rng = np.random.default_rng(rows * n)
        d_ab = rng.random((rows, n)) * rng.choice([1e-4, 1e-2, 1.0], size=(rows, 1))
        d_ba = rng.random((rows, n)) * 0.01
        batched = chamfer_distance(d_ab, d_ba)
        assert batched.shape == (rows,)
        single = [chamfer_distance(a, b) for a, b in zip(d_ab, d_ba)]
        assert all(isinstance(v, float) for v in single)
        assert batched.tolist() == single

    def test_rows_size_checked_on_last_axis(self):
        with pytest.raises(InvalidInput, match=r"same size \(5 vs 6\)"):
            chamfer_distance(np.zeros((2, 5)), np.zeros((2, 6)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_rejected(self):
        """A squared distance of 1e304 m^2 is 1e308 cm^2, which fits a float;
        1e308 m^2 does not in cm^2, and 1e400 not at all."""
        assert chamfer_distance(np.full(3, 1e152), np.zeros(3)) == 1e308
        for d in (1e154, 1e200):
            with pytest.raises(DegenerateGeometry, match="Chamfer distance overflows"):
                chamfer_distance(np.zeros((2, 3)), np.full((2, 3), d))


class TestFScore:
    def test_identical_sets(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 3))
        assert f_score_of_points(a, a.copy(), 0.005) == (1.0, 1.0, 1.0)

    def test_hand_computed_example(self):
        pred = np.array([[0.0, 0, 0], [0.02, 0, 0]])
        gt = np.array([[0.0, 0, 0]])
        p, r, f = f_score_of_points(pred, gt, 0.010)
        assert (p, r) == (0.5, 1.0)
        assert f == pytest.approx(2 / 3, abs=1e-12)

    def test_no_inliers_is_zero_without_error(self):
        p, r, f = f_score_of_points(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]]), 0.01)
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_threshold_tie_counts_as_inlier(self):
        p, r, f = f_score_of_points(np.array([[0.0, 0, 0]]), np.array([[0.01, 0, 0]]), 0.01)
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pred = rng.normal(size=(50, 3)) * 0.01
            gt = rng.normal(size=(50, 3)) * 0.01
            for thr in (0.005, 0.01):
                got = f_score_of_points(pred, gt, thr)
                want = f_score_oracle(pred, gt, thr)
                assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(20, 3)) * 0.01
        gt = rng.normal(size=(20, 3)) * 0.01
        thresholds = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05]
        scores = [f_score_of_points(pred, gt, t)[2] for t in thresholds]
        assert all(b >= a for a, b in zip(scores, scores[1:]))


class TestNearestNeighborIndex:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(500, 3))
        index = NearestNeighborIndex(data)
        queries = rng.normal(size=(10000, 3))
        d, idx = index.query(queries)
        d2 = np.sum((queries[:, None, :] - data[None, :, :]) ** 2, axis=-1)
        assert np.array_equal(idx, np.argmin(d2, axis=1))
        assert np.allclose(d, np.sqrt(d2.min(axis=1)), atol=0)

    def test_matches_single_threaded_query(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(2000, 3))
        data = np.concatenate([data, data[:300]])  # duplicate points
        # queries near the points, as late ICP iterations make, and far off them
        queries = np.concatenate([data[rng.integers(len(data), size=10000)]
                                  + rng.normal(scale=1e-3, size=(10000, 3)),
                                  rng.normal(size=(20000, 3))])
        d, idx = NearestNeighborIndex(data).query(queries)
        d1, idx1 = cKDTree(data, leafsize=LEAFSIZE, compact_nodes=COMPACT_NODES).query(
            queries, k=1, workers=1)
        assert np.array_equal(d, d1)
        assert np.array_equal(idx, idx1)
        # scipy's default tree: the same distances and the same points;
        # an index may differ only between duplicates of one point
        d16, idx16 = cKDTree(data).query(queries, k=1, workers=1)
        assert np.array_equal(d, d16)
        assert np.array_equal(data[idx], data[idx16])


def thread_starts(monkeypatch) -> list:
    """Names of the threads started from now on, appended as they start."""
    started = []
    start = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


def query_case(seed: int, n_data: int = 3000, n_query: int = 3 * QUERY_CHUNK + 7):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_data, 3))
    return data, rng.normal(size=(n_query, 3))


def pooled_query_bytes(data, queries) -> bytes:
    d, i = nearest([(cKDTree(data), queries)])[0]
    return d.tobytes() + i.tobytes()


class TestNearest:
    """The pooled, chunked query gives the bytes of one single-threaded query."""

    @pytest.mark.parametrize("size", [0, 1, QUERY_CHUNK - 1, QUERY_CHUNK, QUERY_CHUNK + 1,
                                      3 * QUERY_CHUNK + 7])
    def test_equals_single_threaded_query(self, size):
        data, queries = query_case(30, n_query=size)
        tree = cKDTree(data)
        [(d, i)] = nearest([(tree, queries)])
        d1, i1 = tree.query(queries, k=1, workers=1)
        assert d.dtype == np.float64 and i.dtype == np.int64
        assert np.array_equal(d, d1) and np.array_equal(i, i1)

    def test_pairs_on_different_trees_keep_their_order(self):
        data_a, queries_a = query_case(31)
        data_b, queries_b = query_case(32, n_data=500, n_query=QUERY_CHUNK + 1)
        tree_a, tree_b = cKDTree(data_a), cKDTree(data_b, leafsize=LEAFSIZE)
        pairs = [(tree_a, queries_a), (tree_b, queries_b), (tree_a, queries_b)]
        for (d, i), (tree, queries) in zip(nearest(pairs), pairs):
            d1, i1 = tree.query(queries, k=1, workers=1)
            assert np.array_equal(d, d1) and np.array_equal(i, i1)

    def test_no_thread_per_query(self, monkeypatch):
        data, queries = query_case(33)
        index = NearestNeighborIndex(data)
        active = threading.active_count()
        started = thread_starts(monkeypatch)
        for _ in range(50):
            index.query(queries)
        assert len(started) <= metrics._WORKERS
        assert threading.active_count() - active <= metrics._WORKERS

    def test_one_worker_queries_inline(self, monkeypatch):
        monkeypatch.setattr(metrics, "_WORKERS", 1)
        data, queries = query_case(34)
        tree = cKDTree(data)
        started = thread_starts(monkeypatch)
        d, i = nearest([(tree, queries)])[0]
        assert started == []
        d1, i1 = tree.query(queries, k=1, workers=1)
        assert np.array_equal(d, d1) and np.array_equal(i, i1)

    def test_failed_chunk_leaves_no_chunk_behind(self, monkeypatch):
        """A chunk that raises reaches `pop`; leaving the block drops or waits
        for every other chunk, of that query and of the queries behind it."""
        data, queries = query_case(36, n_query=4 * QUERY_CHUNK)
        tree, pool, futures = cKDTree(data), metrics._executor(), []

        class FailingTree:
            def query(self, points, k):
                time.sleep(0.02)
                raise RuntimeError("chunk failed")

        class CountingPool:
            def submit(self, fn, *args):
                futures.append(pool.submit(fn, *args))
                return futures[-1]

        monkeypatch.setattr(metrics, "_WORKERS", 2)
        monkeypatch.setattr(metrics, "_executor", CountingPool)
        with pytest.raises(RuntimeError, match="chunk failed"):
            with InFlight() as flight:
                flight.put("failing", [(FailingTree(), queries)])
                flight.put("behind", [(tree, queries)])
                flight.pop()
        assert len(futures) == 8
        assert all(future.done() for future in futures)

    def test_forked_child_runs_its_own_pooled_query(self, monkeypatch):
        monkeypatch.setattr(metrics, "_WORKERS", 2)  # pooled whatever this host's CPUs
        data, queries = query_case(35)
        expected = pooled_query_bytes(data, queries)  # the pool exists before the fork
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(pooled_query_bytes, (data, queries)).get(timeout=60)
        assert got == expected


class TestFitSimilarity:
    def test_recovers_exact_transform(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(100, 3))
        q = random_unit_quaternions(1, seed=8)[0]
        gt = SimilarityTransform(q, rng.normal(size=3), 1.7)
        fit = fit_similarity(src, gt.apply(src))
        assert np.allclose(fit.matrix(), gt.matrix(), atol=1e-9)
        assert fit.scale == pytest.approx(1.7, rel=1e-9)
        assert np.allclose(fit.translation, gt.translation, atol=1e-9)

    def test_collinear_raises(self):
        src = np.outer(np.arange(10.0), np.array([1.0, 0, 0]))
        with pytest.raises(DegenerateGeometry):
            fit_similarity(src, src * 2)

    def test_targets_on_one_point_raise(self):
        """The rounded mean of one repeated point leaves rounding noise, whose
        singular values can pass a relative rank test; rank 0 is tested exactly."""
        src = np.random.default_rng(3).normal(size=(2000, 3)) * 0.02
        tgt = np.tile([0.05613317679893655, 0.015799398549931225, 0.3780043444300526], (2000, 1))
        assert not np.array_equal(tgt - tgt.mean(axis=0), np.zeros_like(tgt))
        with pytest.raises(DegenerateGeometry, match="rank-deficient"):
            fit_similarity(src, tgt)


class TestIcpWithScaling:
    def test_identity_for_equal_clouds(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(200, 3)) * 0.05
        res = icp_with_scaling(pts, pts.copy())
        assert res.rms < 1e-12
        assert np.allclose(res.transform.matrix(), np.eye(3), atol=1e-9)
        assert res.transform.scale == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.transform.translation, 0, atol=1e-9)

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(10)
        src = rng.normal(size=(1000, 3)) * np.array([0.05, 0.03, 0.02])
        q = random_unit_quaternions(1, seed=11)[0]
        gt = SimilarityTransform(q, rng.normal(size=3) * 0.2, 1.7)
        res = icp_with_scaling(src, gt.apply(src))
        assert np.allclose(res.transform.matrix(), gt.matrix(), atol=1e-6)
        assert res.transform.scale == pytest.approx(1.7, rel=1e-6)
        assert np.allclose(res.transform.translation, gt.translation, atol=1e-6)

    def test_noise_residual_bounded(self):
        rng = np.random.default_rng(12)
        src = rng.normal(size=(2000, 3)) * 0.05
        tgt = src + rng.normal(scale=0.001, size=src.shape)
        res = icp_with_scaling(src, tgt)
        assert res.rms <= 0.003

    def test_rms_monotone_nonincreasing(self):
        rng = np.random.default_rng(13)
        for k in range(8):
            src = rng.normal(size=(300, 3)) * 0.05
            q = random_unit_quaternions(1, seed=60 + k)[0]
            gt = SimilarityTransform(q, rng.normal(size=3) * 0.1, float(rng.uniform(0.5, 2.0)))
            tgt = gt.apply(src) + rng.normal(scale=0.002, size=src.shape)
            res = icp_with_scaling(src, tgt)
            hist = res.rms_history
            assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometry):
            icp_with_scaling(np.zeros((2, 3)), np.zeros((2, 3)))


def icp_case(seed: int, n: int = 400):
    """A source with distinct principal axes and a noisy similarity image of it."""
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(n, 3)) * np.array([0.05, 0.03, 0.02])
    q = random_unit_quaternions(1, seed=seed + 1000)[0]
    gt = SimilarityTransform(q, rng.normal(size=3) * 0.1, float(rng.uniform(0.5, 2.0)))
    return src, gt.apply(src) + rng.normal(scale=0.002, size=src.shape)


def assert_same_icp(a, b):
    assert a.rms_history == b.rms_history
    assert a.distances.tobytes() == b.distances.tobytes()
    assert np.array_equal(a.transform.rotation, b.transform.rotation)
    assert np.array_equal(a.transform.translation, b.transform.translation)
    assert a.transform.scale == b.transform.scale


class TestLockstepIcp:
    """The starts, each keeping one query in flight, give bitwise the result of
    running each start alone."""

    @pytest.mark.parametrize("max_iters", [1, 2, 8, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_per_start_oracle(self, seed, max_iters):
        src, tgt = icp_case(seed)
        assert_same_icp(icp_with_scaling(src, tgt, max_iters=max_iters),
                        icp_per_start(src, tgt, max_iters=max_iters))

    @pytest.mark.parametrize("max_iters", [1, 2, 8, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rms_is_that_of_the_returned_transform(self, seed, max_iters):
        """So are the distances, which the evaluation reuses."""
        src, tgt = icp_case(seed)
        result = icp_with_scaling(src, tgt, max_iters=max_iters)
        d, _ = NearestNeighborIndex(tgt).query(result.transform.apply(src))
        assert result.rms == float(np.sqrt(np.mean(d**2)))
        assert result.distances.tobytes() == d.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_iters", [1, 2, 8, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_per_start_oracle_on_set_workers(self, monkeypatch, seed, max_iters, workers):
        """One worker queries inline, two on the pool, whatever this host's CPUs."""
        src, tgt = icp_case(seed)
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        assert_same_icp(icp_with_scaling(src, tgt, max_iters=max_iters),
                        icp_per_start(src, tgt, max_iters=max_iters))

    def test_one_query_per_iteration_as_starts_finish(self, monkeypatch):
        """Each start keeps one query in flight: all five are put before the
        first pop, and a start's next query follows the pop of its last."""
        src, tgt = icp_case(5)
        runs, events, queued = [], [], []  # queued: the keys put and not yet popped
        make_run = metrics.IcpResult
        put, pop = InFlight.put, InFlight.pop

        def record_run(**fields):
            runs.append(make_run(**fields))
            return runs[-1]

        def spy_put(flight, key, pairs):
            pairs = list(pairs)
            assert [len(points) for _, points in pairs] == [len(src)]
            # the first query of each start comes in start order; every later
            # one refits the start whose query was popped last
            start = runs.index(key)
            assert start == (len(events) if len(events) < len(runs) else events[-1][1])
            assert key not in queued
            queued.append(key)
            events.append(("put", start, len(queued)))
            put(flight, key, pairs)

        def spy_pop(flight):
            key, results = pop(flight)
            assert key is queued.pop(0)  # the oldest
            events.append(("pop", runs.index(key), len(queued)))
            return key, results

        monkeypatch.setattr(metrics, "IcpResult", record_run)
        monkeypatch.setattr(InFlight, "put", spy_put)
        monkeypatch.setattr(InFlight, "pop", spy_pop)
        result = icp_with_scaling(src, tgt, max_iters=100)
        monkeypatch.undo()
        assert_same_icp(result, icp_per_start(src, tgt, max_iters=100))
        assert len(runs) == 5
        assert [kind for kind, _, _ in events[:6]] == ["put"] * 5 + ["pop"]
        assert queued == []
        puts = [start for kind, start, _ in events if kind == "put"]
        assert [puts.count(k) for k in range(5)] == [len(run.rms_history) for run in runs]
        assert max(in_flight for kind, _, in_flight in events if kind == "put") >= 2
        # the starts converge at three or more different iterations
        assert len({len(run.rms_history) for run in runs}) >= 3

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected_before_any_query(self, monkeypatch, max_iters):
        src, tgt = icp_case(5)

        def no_query(flight, key, pairs):
            raise AssertionError("queried")

        monkeypatch.setattr(InFlight, "put", no_query)
        with pytest.raises(InvalidInput, match=f"max_iters must be >= 1; got {max_iters}"):
            icp_with_scaling(src, tgt, max_iters=max_iters)

    def test_equals_per_start_oracle_on_the_pool(self, monkeypatch):
        """Queries of several chunks each, so that the starts' queries overlap
        on the pool."""
        monkeypatch.setattr(metrics, "_WORKERS", 2)
        for seed, max_iters in [(0, 8), (1, 100)]:
            src, tgt = icp_case(seed, n=2 * QUERY_CHUNK + 1)
            assert_same_icp(icp_with_scaling(src, tgt, max_iters=max_iters),
                            icp_per_start(src, tgt, max_iters=max_iters))

    def test_no_query_outlives_a_raising_call(self, monkeypatch):
        """A refit that raises mid-run leaves no chunk queued or running."""
        src, tgt = icp_case(8, n=2 * QUERY_CHUNK + 1)
        pool = metrics._executor()
        futures = []

        class SlowPool:  # every chunk takes 20 ms more, so that queries queue up
            def submit(self, fn, *args):
                def slow():
                    time.sleep(0.02)
                    return fn(*args)
                futures.append(pool.submit(slow))
                return futures[-1]

        fits = []

        def fit_then_fail(source, target):
            fits.append(source)
            if len(fits) == 3:
                raise RuntimeError("refit failed")
            return fit_similarity(source, target)

        monkeypatch.setattr(metrics, "_WORKERS", 2)
        monkeypatch.setattr(metrics, "_executor", SlowPool)
        monkeypatch.setattr(metrics, "fit_similarity", fit_then_fail)
        with pytest.raises(RuntimeError, match="refit failed"):
            icp_with_scaling(src, tgt, max_iters=8)
        assert len(futures) > 5 * 3
        assert all(future.done() for future in futures)

    @pytest.mark.parametrize("max_iters", [2, 8])
    def test_degenerate_target_raises_like_oracle(self, max_iters):
        rng = np.random.default_rng(6)
        src = rng.normal(size=(200, 3)) * np.array([0.05, 0.03, 0.02])
        tgt = np.outer(rng.uniform(-0.1, 0.1, size=200), np.array([1.0, 2.0, 0.5]))
        with pytest.raises(DegenerateGeometry) as expected:
            icp_per_start(src, tgt, max_iters=max_iters)
        with pytest.raises(DegenerateGeometry) as got:
            icp_with_scaling(src, tgt, max_iters=max_iters)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("max_iters", [2, 8])
    def test_every_start_failing_raises_the_last_starts_error(self, monkeypatch, max_iters):
        """Each start's refit fails with its own message; the last start's is raised."""
        src, tgt = icp_case(7)
        messages = []

        def failing_fit(source, target):
            messages.append(repr(target[:2].tolist()))
            raise DegenerateGeometry(messages[-1])

        monkeypatch.setattr(metrics, "fit_similarity", failing_fit)
        monkeypatch.setattr(oracles, "fit_similarity", failing_fit)
        with pytest.raises(DegenerateGeometry) as expected:
            icp_per_start(src, tgt, max_iters=max_iters)
        assert len(set(messages)) == 5
        with pytest.raises(DegenerateGeometry) as got:
            icp_with_scaling(src, tgt, max_iters=max_iters)
        assert str(got.value) == str(expected.value) == messages[-1]


class TestCollapsedIcp:
    """A start whose scale shrinks toward 0 maps the whole source onto one
    target point, where its one-sided RMS nears 0. Such a start fails like a
    degenerate refit instead of winning."""

    @staticmethod
    def collapsing_case(n=2000):
        from rigalign.evaluate import gt_points_for
        from rigalign.geometry import sample_mesh_surface
        from rigalign.seeding import derive_seed
        from rigalign.synthetic import SceneSpec, generate_synthetic_scene

        scene = generate_synthetic_scene(SceneSpec(frames=3, rotation_level=1, seed=10))
        gt = gt_points_for(scene.gt_mesh(2), n, derive_seed(10, 102, 2))
        wrong = SimilarityTransform(
            [0.36503671705908464, 0.4343944881393742, 0.8041218747838109, -0.1773066111768699],
            [0.05613317679893655, 0.015799398549931225, 0.3780043444300526], 0.7084487824244309)
        pred = wrong.apply(sample_mesh_surface(scene.mesh, n, derive_seed(10, 101)))
        return pred, gt, wrong

    # at 3 the collapsing start stops at the cap on pairs that all meet one
    # target point; at 8 its refit meets them
    @pytest.mark.parametrize("max_iters", [3, 8])
    def test_collapsed_start_does_not_win(self, max_iters):
        pred, gt, wrong = self.collapsing_case()
        result = icp_with_scaling(pred, gt, max_iters=max_iters)
        assert_same_icp(result, icp_per_start(pred, gt, max_iters=max_iters))
        assert result.transform.scale == pytest.approx(1 / wrong.scale, rel=0.02)
        assert result.rms > 1e-4

    def test_frame_report_scores_the_aligned_fit(self):
        from rigalign.evaluate import frame_report

        pred, gt, _ = self.collapsing_case()
        report = frame_report(pred, gt, icp_max_iters=8)
        assert report.f5 == report.f10 == 1.0 and report.chamfer_cm2 < 0.01


class TestBatchedQueryOrder:
    def test_permuted_batch_equals_direct_queries(self):
        """One query over several point sets, concatenated and permuted, gives
        each point bitwise the distance and index of querying its set alone."""
        rng = np.random.default_rng(17)
        data = rng.normal(size=(1500, 3))
        data = np.concatenate([data, data[:200], data[:50]])  # duplicated targets
        index = NearestNeighborIndex(data)
        sets = [data[rng.integers(len(data), size=3000)] + rng.normal(scale=s, size=(3000, 3))
                for s in (0.0, 1e-3, 0.1, 1.0)]
        batch = np.concatenate(sets)
        perm = rng.permutation(len(batch))
        d_perm, i_perm = index.query(batch[perm])
        d, i = np.empty(len(batch)), np.empty(len(batch), dtype=np.int64)
        d[perm], i[perm] = d_perm, i_perm
        start = 0
        for points in sets:
            d_own, i_own = index.query(points)
            assert np.array_equal(d[start:start + len(points)], d_own)
            assert np.array_equal(i[start:start + len(points)], i_own)
            start += len(points)


def report(cd, f5=0.5, f10=0.8):
    return MetricReport(
        chamfer_cm2=cd, f5=f5, f10=f10,
        precision_5mm=f5, recall_5mm=f5, precision_10mm=f10, recall_10mm=f10,
    )


class TestMedianMetrics:
    def test_single_report(self):
        r = report(3.0)
        assert median_metrics([r]) == r

    def test_odd_count(self):
        meds = median_metrics([report(1.0), report(5.0), report(100.0)])
        assert meds.chamfer_cm2 == 5.0

    def test_even_count_takes_lower_middle(self):
        meds = median_metrics([report(c) for c in (1.0, 3.0, 5.0, 100.0)])
        assert meds.chamfer_cm2 == 3.0

    def test_componentwise(self):
        reports = [report(1.0, f5=0.9), report(2.0, f5=0.1), report(3.0, f5=0.5)]
        meds = median_metrics(reports)
        assert meds.chamfer_cm2 == 2.0
        assert meds.f5 == 0.5

    def test_empty(self):
        with pytest.raises(InvalidInput, match="no reports to aggregate"):
            median_metrics([])

    def test_f_identity_on_frame_reports(self):
        p, r, f = f_score_of_points(np.array([[0.0, 0, 0], [0.02, 0, 0]]),
                                    np.array([[0.0, 0, 0]]), 0.01)
        assert abs(f - 2 * p * r / (p + r)) < 1e-12
