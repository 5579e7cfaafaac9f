import numpy as np
import pytest

from rigalign.errors import InvalidInput
from rigalign.viterbi import viterbi_decode

from conftest import const
from oracles import TooLarge, brute_force_decode, path_cost


class TestViterbiBasics:
    def test_worked_two_state_example(self):
        # emissions [[0,10],[10,0]], switch cost 1, stay 0: paths cost 10/1/21/10
        em = np.array([[0.0, 10.0], [10.0, 0.0]])
        tr = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = viterbi_decode(em, const(tr), 1.0)
        assert list(path.states) == [0, 1]
        assert path.total_cost == 1.0

    def test_zero_lambda_is_per_frame_argmin(self):
        rng = np.random.default_rng(0)
        em = rng.random((7, 5))
        tr = rng.random((5, 5)) * 100
        path = viterbi_decode(em, const(tr), 0.0)
        assert np.array_equal(path.states, em.argmin(axis=1))

    def test_single_frame_argmin(self):
        em = np.array([[3.0, 1.0, 2.0]])
        path = viterbi_decode(em, const(np.zeros((3, 3))), 1.0)
        assert list(path.states) == [1]
        assert path.total_cost == 1.0

    def test_single_state(self):
        em = np.ones((4, 1))
        path = brute_force_decode(em, const(np.zeros((1, 1))), 1.0)
        assert list(path.states) == [0, 0, 0, 0]

    def test_equal_transitions_reduce_to_argmin(self):
        rng = np.random.default_rng(1)
        em = rng.random((6, 4))
        path = viterbi_decode(em, const(np.full((4, 4), 2.5)), 3.0)
        assert np.array_equal(path.states, em.argmin(axis=1))

    def test_callable_transition(self):
        # the provider is called with exactly t = 1..T-1, in order
        em = np.array([[0.0, 10.0], [10.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        calls = []

        def transition(t):
            calls.append(t)
            return np.array([[0.0, 1.0], [1.0, 0.0]])

        path = viterbi_decode(em, transition, 1.0)
        assert calls == [1, 2, 3]
        assert list(path.states) == [0, 1, 1, 0]
        calls.clear()
        viterbi_decode(em[:1], transition, 1.0)
        assert calls == []

    def test_empty_table_rejected(self):
        with pytest.raises(InvalidInput, match=r"must be \(T >= 1, S >= 1\)"):
            viterbi_decode(np.zeros((0, 3)), const(np.zeros((3, 3))), 1.0)
        with pytest.raises(InvalidInput, match=r"must be \(T >= 1, S >= 1\)"):
            viterbi_decode(np.zeros((2, 0)), const(np.zeros((0, 0))), 1.0)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,), (1, 2, 2)])
    def test_step_of_wrong_shape_rejected(self, shape):
        em = np.zeros((3, 2))
        with pytest.raises(ValueError, match="must be"):
            viterbi_decode(em, const(np.zeros(shape)), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_step_rejected(self, bad):
        em = np.array([[0.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
        steps = np.zeros((2, 2, 2))
        steps[1, 0, 1] = bad  # only the second step is corrupt
        with pytest.raises(ValueError, match="finite and non-negative"):
            viterbi_decode(em, lambda t: steps[t - 1], 1.0)

    def test_emission_table_validation(self):
        with pytest.raises(ValueError, match="emission costs must be finite"):
            viterbi_decode(np.array([[np.inf, 0.0]]), const(np.zeros((2, 2))), 1.0)
        with pytest.raises(ValueError, match="emission costs must be non-negative"):
            viterbi_decode(np.array([[-1.0, 0.0]]), const(np.zeros((2, 2))), 1.0)
        # on a later frame too
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError):
                viterbi_decode(np.array([[bad, 0.0], [0.0, 1.0]]), const(np.zeros((2, 2))), 1.0)


class TestOracleAgreement:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = int(rng.integers(1, 6))
            s = int(rng.integers(1, 9))
            # small integer costs force frequent exact ties
            em = rng.integers(0, 4, size=(t, s)).astype(float)
            tr = rng.integers(0, 3, size=(s, s)).astype(float)
            lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            fast = viterbi_decode(em, const(tr), lam)
            slow = brute_force_decode(em, const(tr), lam)
            assert np.array_equal(fast.states, slow.states)
            assert fast.total_cost == slow.total_cost

    def test_matches_with_per_step_transitions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = int(rng.integers(2, 5))
            s = int(rng.integers(2, 6))
            em = rng.random((t, s)).round(2)
            tr = rng.random((t - 1, s, s)).round(2)
            fast = viterbi_decode(em, lambda k: tr[k - 1], 1.0)
            slow = brute_force_decode(em, lambda k: tr[k - 1], 1.0)
            assert np.array_equal(fast.states, slow.states)
            assert fast.total_cost == slow.total_cost

    def test_path_cost_recomputes_total(self):
        rng = np.random.default_rng(4)
        em = rng.random((5, 6))
        tr = rng.random((6, 6))
        path = viterbi_decode(em, const(tr), 0.7)
        assert path_cost(em, const(tr), 0.7, path.states) == path.total_cost

    def test_brute_force_size_guard(self):
        with pytest.raises(TooLarge, match="exceed the enumeration budget"):
            brute_force_decode(np.zeros((10, 20)), const(np.zeros((20, 20))), 1.0)


class TestOptimalityProperties:
    def test_dominates_per_frame_argmin(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            em = rng.random((6, 5))
            tr = rng.random((5, 5))
            for lam in (0.0, 0.3, 1.0, 5.0):
                decoded = viterbi_decode(em, const(tr), lam)
                greedy = em.argmin(axis=1)
                assert decoded.total_cost <= path_cost(em, const(tr), lam, greedy) + 1e-12

    def test_transition_component_monotone_in_lambda(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            em = rng.random((6, 5))
            tr = rng.random((5, 5))
            lambdas = [0.0, 0.2, 0.5, 1.0, 2.0, 10.0]
            raw = []
            for lam in lambdas:
                path = viterbi_decode(em, const(tr), lam)
                # unweighted transition sum along the decoded path
                raw.append(path_cost(np.zeros((6, 5)), const(tr), 1.0, path.states))
            assert all(b <= a + 1e-12 for a, b in zip(raw, raw[1:]))
