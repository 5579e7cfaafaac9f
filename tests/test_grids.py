import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigalign.geometry import quat_to_matrix
from rigalign.grids import build_rotation_grid, build_translation_grid, rotation_state_count

from oracles import covering_radius, random_unit_quaternions, rodrigues_error, rotation_matrices


def rz(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


class TestRotationGrid:
    @pytest.mark.parametrize("level", range(6))
    def test_state_count_without_the_grid(self, level):
        assert rotation_state_count(level) == len(build_rotation_grid(level))

    def test_level0_is_eight_diagonal_quaternions(self):
        grid = build_rotation_grid(0)
        assert len(grid) == 8
        expected = {
            (0.5, x, y, z)
            for x in (-0.5, 0.5)
            for y in (-0.5, 0.5)
            for z in (-0.5, 0.5)
        }
        assert {tuple(np.round(q, 12)) for q in grid.quaternions} == expected

    def test_level0_contains_120deg_diagonal_rotation(self):
        grid = build_rotation_grid(0)
        q = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        match = np.abs(grid.quaternions @ q).max()
        assert match == pytest.approx(1.0, abs=1e-12)
        # axis-angle: w = cos(theta/2) = 1/2 -> theta = 120 deg about (1,1,1)/sqrt(3)
        theta = 2 * math.acos(0.5)
        assert theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
        axis = q[1:] / np.linalg.norm(q[1:])
        assert np.allclose(axis, np.ones(3) / math.sqrt(3))

    def test_entries_are_unit_and_canonical(self):
        for level in (0, 1, 2):
            q = build_rotation_grid(level).quaternions
            assert np.abs(np.linalg.norm(q, axis=1) - 1).max() < 1e-12
            # first nonzero component positive
            for row in q:
                first = row[np.abs(row) > 1e-12][0]
                assert first > 0

    def test_no_near_duplicate_entries(self):
        q = build_rotation_grid(1).quaternions
        dots = np.abs(q @ q.T)
        np.fill_diagonal(dots, 0.0)
        closest = 2 * np.arccos(np.clip(dots.max(), 0, 1))
        assert closest > 1e-6

    def test_count_strictly_increasing(self):
        counts = [len(build_rotation_grid(level)) for level in range(4)]
        assert counts == sorted(counts)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_construction_deterministic(self):
        a = build_rotation_grid(2).quaternions
        b = build_rotation_grid(2).quaternions
        assert np.array_equal(a, b)

    def test_covering_radius_decreases(self):
        radii = [covering_radius(build_rotation_grid(level), 100000, seed=77) for level in (0, 1, 2)]
        assert radii[0] > radii[1] > radii[2]


class TestTranslationGrid:
    def test_single_cell_is_center(self):
        g = build_translation_grid([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], (1, 1, 1))
        assert np.allclose(g.offsets, [[1, 2, 3]])

    def test_3x3x3_lattice(self):
        g = build_translation_grid(np.zeros(3), np.ones(3), (3, 3, 3))
        assert len(g) == 27
        vals = sorted(set(np.round(g.offsets[:, 0], 12)))
        assert vals == [-1.0, 0.0, 1.0]
        assert np.allclose(g.offsets.mean(axis=0), 0, atol=1e-12)

    def test_endpoint_lattice(self):
        g = build_translation_grid([0.5, 0, 0], [1.0, 0, 0], (2, 1, 1))
        got = sorted(map(tuple, np.round(g.offsets, 12)))
        assert got == [(-0.5, 0.0, 0.0), (1.5, 0.0, 0.0)]

    def test_scalar_broadcast(self):
        g = build_translation_grid(np.zeros(3), 0.05, 5)
        assert [len(np.unique(g.offsets[:, axis])) for axis in range(3)] == [5, 5, 5]
        assert np.allclose(g.offsets.max(axis=0), 0.05)
        assert len(g) == 125


class TestRodriguesError:
    def test_identical_rotations(self):
        assert rodrigues_error(np.eye(3), np.eye(3)) == 0.0

    def test_quarter_turn(self):
        assert rodrigues_error(np.eye(3), rz(math.pi / 2)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_half_turn(self):
        assert rodrigues_error(np.eye(3), rz(math.pi)) == pytest.approx(math.pi, abs=1e-12)

    def test_symmetry(self):
        qs = random_unit_quaternions(20, seed=3)
        for qa, qb in zip(qs[:10], qs[10:]):
            ra, rb = quat_to_matrix(qa), quat_to_matrix(qb)
            assert rodrigues_error(ra, rb) == pytest.approx(rodrigues_error(rb, ra), abs=1e-12)

    def test_triangle_inequality(self):
        qs = random_unit_quaternions(3000, seed=4).reshape(1000, 3, 4)
        for qa, qb, qc in qs:
            ra, rb, rc = (quat_to_matrix(q) for q in (qa, qb, qc))
            assert rodrigues_error(ra, rc) <= rodrigues_error(ra, rb) + rodrigues_error(rb, rc) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_quaternion_form(self, seed):
        qa, qb = random_unit_quaternions(2, seed=seed)
        mat_angle = rodrigues_error(quat_to_matrix(qa), quat_to_matrix(qb))
        quat_angle = 2 * math.acos(min(1.0, abs(float(qa @ qb))))
        assert mat_angle == pytest.approx(quat_angle, abs=1e-9)


class TestPairwiseAngles:
    def test_matches_rodrigues_on_grid(self):
        grid = build_rotation_grid(0)
        mats = rotation_matrices(grid)
        table = grid.pairwise_angles()
        for i in range(len(grid)):
            for j in range(len(grid)):
                assert table[i, j] == pytest.approx(rodrigues_error(mats[i], mats[j]), abs=1e-9)
