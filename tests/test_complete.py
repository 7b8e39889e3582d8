"""Closed forms and the 7D invariant-subspace model for complete graphs."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oscillwalk import (
    amp_ab,
    amp_ba,
    basis_arc_state,
    complete_graph,
    overlap,
    seven_dim_unitary,
    table_rows,
    walk_angle,
    walk_step,
)
from oscillwalk.complete import reference_table_note
from oscillwalk.verify import assert_closed_forms_match_simulation, assert_reference_table


# ---- the 7x7 matrix ------------------------------------------------------------------


def test_matrix_entries_at_n4():
    model = seven_dim_unitary(4)
    m = model.matrix
    assert m[0, 2] == pytest.approx(-1 / 3)  # start arc <- reversed arc
    assert m[2, 0] == pytest.approx(-1 / 3)
    assert m[0, 3] == pytest.approx(2 * math.sqrt(2) / 3)
    assert m[4, 0] == pytest.approx(2 * math.sqrt(2) / 3)
    assert m[6, 6] == pytest.approx(-1 / 3)  # (n-5)/(n-1)


@pytest.mark.parametrize("n", [4, 5, 16, 100])
def test_matrix_is_orthogonal(n):
    m = seven_dim_unitary(n).matrix
    assert_allclose(m.T @ m, np.eye(7), atol=1e-12)


def test_small_sizes_rejected():
    for n in (2, 3):
        with pytest.raises(ValueError):
            seven_dim_unitary(n)
        with pytest.raises(ValueError):
            amp_ab(n, 1)


# ---- the rotation angle ---------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 10, 100])
def test_angle_branch_and_defining_pair(n):
    theta = walk_angle(n)
    assert math.pi < theta < 1.5 * math.pi
    assert math.cos(theta) == pytest.approx(-1 / (n - 1), abs=1e-14)
    assert math.sin(theta) == pytest.approx(-math.sqrt(n * (n - 2)) / (n - 1), abs=1e-14)
    assert math.cos(theta) ** 2 + math.sin(theta) ** 2 == pytest.approx(1.0, abs=1e-14)


# ---- closed forms -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 8, 100])
def test_amplitude_base_cases(n):
    assert amp_ab(n, 0) == pytest.approx(1.0, abs=1e-14)
    assert abs(amp_ab(n, 1)) <= 1e-12  # exact cancellation at t = 1
    assert amp_ba(n, 0) == 0.0
    assert amp_ba(n, 2) == 0.0
    assert amp_ba(n, 1) == pytest.approx(-(n - 3) / (n - 1), abs=1e-14)


def test_reversed_amplitude_at_n100():
    assert amp_ba(100, 1) == pytest.approx(-97 / 99, abs=1e-14)
    assert amp_ba(100, 7) == pytest.approx(-0.979798, abs=5e-7)


def test_k4_third_step_against_full_simulation():
    g = complete_graph(4)
    current = basis_arc_state(g, 0, 1)
    for _ in range(3):
        current = walk_step(current)
    simulated = overlap(basis_arc_state(g, 1, 0), current).real
    assert simulated == pytest.approx(-1 / 3, abs=1e-12)
    assert amp_ba(4, 3) == pytest.approx(simulated, abs=1e-12)


def test_table_rows_spot_values():
    rows = table_rows(100, 6)
    assert rows[4].prob_ab == pytest.approx(0.999967, abs=5e-7)
    assert rows[6].prob_ab == pytest.approx(0.921671, abs=5e-7)
    for row in rows:
        if row.t % 2 == 0:
            assert row.prob_ba == 0.0
        assert row.prob_ab == pytest.approx(row.amp_ab**2, abs=1e-15)


def test_shipped_reference_rows_match_closed_forms():
    assert_reference_table()
    note = reference_table_note()
    assert "n=100" in note and "n=16" in note


# ---- consistency between the three routes -----------------------------------------------


@pytest.mark.parametrize("n", [4, 8, 16])
def test_closed_forms_match_full_simulation(n):
    assert_closed_forms_match_simulation(n, 40)


@pytest.mark.parametrize("n", [4, 16, 100])
def test_subspace_iteration_reproduces_closed_forms(n):
    model = seven_dim_unitary(n)
    vec = np.zeros(7)
    vec[0] = 1.0
    for t in range(30):
        assert vec[0] == pytest.approx(amp_ab(n, t), abs=1e-10)
        assert vec[2] == pytest.approx(amp_ba(n, t), abs=1e-10)
        vec = model.matrix @ vec


def _class_vectors(g):
    """The seven symmetry-class states on the arc space of K_n (a=0, b=1)."""
    n = g.n
    rest = range(2, n)
    scale = 1 / math.sqrt(n - 2)

    def lift(pairs, weight):
        amps = np.zeros(g.arc_count)
        for u, v in pairs:
            amps[g.arc_index(u, v)] = weight
        return amps

    cc_pairs = [(c, d) for c in rest for d in rest if c != d]
    return np.column_stack(
        [
            lift([(0, 1)], 1.0),
            lift([(0, c) for c in rest], scale),
            lift([(1, 0)], 1.0),
            lift([(1, c) for c in rest], scale),
            lift([(c, 0) for c in rest], scale),
            lift([(c, 1) for c in rest], scale),
            lift(cc_pairs, 1 / math.sqrt((n - 2) * (n - 3))),
        ]
    )


def test_subspace_matches_class_sums_of_full_simulation():
    n = 16
    g = complete_graph(n)
    classes = _class_vectors(g)
    model = seven_dim_unitary(n)
    vec = np.zeros(7)
    vec[0] = 1.0
    state = basis_arc_state(g, 0, 1)
    for _ in range(12):
        projected = classes.T @ state.amplitudes.real
        assert_allclose(projected, vec, atol=1e-10)
        state = walk_step(state)
        vec = model.matrix @ vec
