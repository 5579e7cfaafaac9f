"""Min-sum Viterbi decoding over discretized pose states.

Transition costs come from a per-step function: transition(t) returns the
(S, S) matrix a[i, j] of moving from state i at frame t-1 to state j at
frame t, and is called once for each t = 1..T-1, in order. Ties are broken
toward the lowest state index at every backward step, which selects the
minimal-cost path whose reversed state sequence is lexicographically
smallest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


@dataclass(eq=False)
class StatePath:
    """Decoded per-frame state indices plus the achieved objective value."""

    states: np.ndarray
    total_cost: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64).reshape(-1)


def _step_costs(transition, t: int, num_states: int) -> np.ndarray:
    """transition(t) as a checked (S, S) array of finite, non-negative costs."""
    a = np.asarray(transition(t), dtype=float)
    if a.shape != (num_states, num_states):
        raise InvalidInput(f"transition({t}) must be ({num_states}, {num_states}); got {a.shape}")
    if not (np.isfinite(a).all() and (a >= 0).all()):
        raise InvalidInput(f"transition({t}) costs must be finite and non-negative")
    return a


def viterbi_decode(emissions, transition, lam: float = 1.0) -> StatePath:
    """Exact min-sum dynamic program over the state trellis.

    Minimizes sum_t b[t, q_t] + lam * sum_t a_t[q_(t-1), q_t] in O(T * S^2)
    time with backpointers, where b is the (T frames, S states) array of
    finite, non-negative `emissions` and a_t = transition(t); deterministic
    lowest-index tie-breaking.
    """
    b = np.asarray(emissions, dtype=float)
    if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
        raise InvalidInput("emission table must be (T >= 1, S >= 1)")
    if not np.isfinite(b).all():
        raise InvalidInput("emission costs must be finite (substitute penalties first)")
    if (b < 0).any():
        raise InvalidInput("emission costs must be non-negative")
    if lam < 0:
        raise InvalidInput("transition weight must be >= 0")
    t_frames, s_states = b.shape
    v = b[0].copy()
    backptr = np.zeros((t_frames, s_states), dtype=np.int64)
    for t in range(1, t_frames):
        step = v[:, None] + lam * _step_costs(transition, t, s_states)
        best_i = np.argmin(step, axis=0)
        v = step[best_i, np.arange(s_states)] + b[t]
        backptr[t] = best_i
    last = int(np.argmin(v))
    states = np.empty(t_frames, dtype=np.int64)
    states[-1] = last
    for t in range(t_frames - 1, 0, -1):
        states[t - 1] = backptr[t, states[t]]
    return StatePath(states=states, total_cost=float(v[last]))
