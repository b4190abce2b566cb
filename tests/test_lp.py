import dataclasses
import hashlib
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avalloc import lp as lp_module
from avalloc.errors import NumericalFailure, PivotLimit
from avalloc.generators import (
    gen_iid_lower_bound,
    gen_integrality_gap,
    gen_random,
    gen_random_iid_model,
)
from avalloc.lp import OPTIMAL, UNBOUNDED, LinearProgram, lp_to_text, solve_lp
from avalloc.lp_models import (
    build_bundle_lp,
    build_bundle_lp_budgeted,
    build_naive_lp,
    build_opton_lp,
    build_optoff_lp,
)
from reference_exact_simplex import reference_exact_revised_simplex

# the property tests replay the same examples on every run
PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def F(x):
    return Fraction(x)


def test_single_variable_box():
    lp = LinearProgram.from_rows(objective=[F(1)], rows=[({0: F(1)}, "<=", F(1))])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 1
    assert sol.exact_values == [1]


def test_degenerate_optimum_allowed():
    lp = LinearProgram.from_rows(objective=[F(1), F(1)],
                                 rows=[({0: F(1), 1: F(1)}, "<=", F(1))])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 1


def test_bundle_lp_of_gap_instance_solves_to_eleven_fifths():
    from avalloc.generators import gen_integrality_gap
    from avalloc.lp_models import build_bundle_lp

    lp = build_bundle_lp(gen_integrality_gap(3, Fraction(1, 10)))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == Fraction(11, 5)


def test_unbounded():
    lp = LinearProgram.from_rows(objective=[F(1)], rows=[({0: F(-1)}, "<=", F(1))])
    assert solve_lp(lp).status == UNBOUNDED


def test_upper_bounds():
    lp = LinearProgram.from_rows(
        objective=[F(1), F(1)],
        rows=[({0: F(1), 1: F(1)}, "<=", F(10))],
        upper_bounds=[F(2), None],
    )
    sol = solve_lp(lp)
    assert sol.exact_objective == 10
    assert sol.exact_values[0] <= 2


def test_weak_duality_certificates():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    lp = LinearProgram.from_rows(
        objective=[F(1), F(1)],
        rows=[({0: F(1), 1: F(2)}, "<=", F(4)), ({0: F(3), 1: F(1)}, "<=", F(6))],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    # any dual-feasible certificate upper-bounds the optimum: y^T b
    for cert in ((Fraction(2, 5), Fraction(1, 5)), (1, 1)):
        u, v = map(Fraction, cert)
        assert u + 3 * v >= 1 and 2 * u + v >= 1  # dual feasibility
        assert sol.exact_objective <= 4 * u + 6 * v
    assert sol.exact_objective == Fraction(14, 5)


def test_verification_reads_the_lp_rows():
    # the exact layer solves the standard form, a copy of the LP's stored
    # int rows; a wrong rhs in that copy must be caught against the LP's own
    lp = LinearProgram.from_rows(
        objective=[F(1), F(1)],
        rows=[({0: Fraction(1, 2), 1: Fraction(1, 3)}, "<=", F(1)), ({0: F(1)}, "<=", F(1))],
    )
    assert solve_lp(lp).exact_values == [0, 3]  # row 0 binds
    form = lp_module._standard_form(lp)
    assert form.cols_exact[:2] == [{0: 3, 1: 1}, {0: 2}] and form.b_exact == [6, 1]
    assert all(type(v) is int for col in form.cols_exact for v in col.values())
    standard_form = lp_module._standard_form

    def tampered(lp):
        form = standard_form(lp)
        form.b_exact[0] += 1  # 3x + 2y <= 7 in place of <= 6
        return form

    with mock.patch.object(lp_module, "_standard_form", tampered):
        with pytest.raises(NumericalFailure, match="violates a row"):
            solve_lp(lp)


def test_objective_scaling_preserves_argmax_face():
    lp = LinearProgram.from_rows(
        objective=[F(1), F(2)],
        rows=[({0: F(1), 1: F(1)}, "<=", F(3)), ({1: F(1)}, "<=", F(2))],
    )
    base = solve_lp(lp)
    scaled = LinearProgram.from_rows(
        objective=[3 * c for c in lp.objective],
        rows=lp.rows,
    )
    sol = solve_lp(scaled)
    assert sol.exact_objective == 3 * base.exact_objective
    # the unscaled vertex stays optimal under the scaled objective
    revalue = sum(3 * c * v for c, v in zip(lp.objective, base.exact_values))
    assert revalue == sol.exact_objective


def test_zero_variable_lp():
    for rows in ([], [({}, "<=", F(0))], [({}, "<=", F(1))]):
        sol = solve_lp(LinearProgram.from_rows(objective=[], rows=rows))
        assert sol.status == OPTIMAL
        assert sol.exact_values == [] and sol.exact_objective == 0


def test_solution_objective_matches_dot_product():
    lp = LinearProgram.from_rows(
        objective=[F(3), F(5)],
        rows=[({0: F(1)}, "<=", F(4)), ({1: F(2)}, "<=", F(12)),
              ({0: F(3), 1: F(2)}, "<=", F(18))],
    )
    sol = solve_lp(lp)
    dot = sum(c * v for c, v in zip(lp.objective, sol.exact_values))
    assert dot == sol.exact_objective == 36
    # rows hold exactly at the reported vertex
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(a * sol.exact_values[k] for k, a in coeffs.items())
        assert lhs <= rhs


def test_float_data_path_residuals():
    # floats are read as the decimals they print as, then solved exactly
    lp = LinearProgram.from_rows(objective=[1.0, 0.1], rows=[({0: 1.0, 1: 2.0}, "<=", 2.0)])
    assert lp.objective == [1, Fraction(1, 10)]
    assert lp.rows == [({0: 1, 1: 2}, "<=", 2)]
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 2
    assert sol.exact_values == [2, 0]


def test_validation_of_dimensions():
    with pytest.raises(ValueError):
        LinearProgram.from_rows(objective=[F(1)], rows=[({0: F(1), 1: F(2)}, "<=", F(1))])
    with pytest.raises(ValueError):
        LinearProgram.from_rows(objective=[F(1)], rows=[({-1: F(1)}, "<=", F(1))])
    with pytest.raises(ValueError):
        LinearProgram.from_rows(objective=[F(1)], rows=[({0: F(1)}, "<<", F(1))])
    with pytest.raises(ValueError):
        LinearProgram.from_rows(objective=[F(1)], rows=[], upper_bounds=[F(1), F(2)])
    with pytest.raises(ValueError):
        LinearProgram.from_rows(objective=[float("inf")], rows=[])
    with pytest.raises(ValueError):
        LinearProgram.from_rows(objective=[F(1)], rows=[({0: float("nan")}, "<=", F(1))])


def test_stored_rows_are_validated():
    # every check of the int constructor, on rows over 3 columns
    def make(row, owner=None):
        return LinearProgram(objective=[F(1)] * 3, int_rows=[row],
                             row_owner=None if owner is None else [owner])

    lp = make(((0, 2), (1, -3), 5, 2), owner=0)
    assert lp.rows == [({0: Fraction(1, 2), 2: Fraction(-3, 2)}, "<=", Fraction(5, 2))]
    make(((), (), 0, 1))
    for row, owner, match in [
        (((0,), (1,), -1, 1), None, "rhs >= 0"),               # negative rhs
        (((0,), (1,), 1, 0), None, "positive scale"),          # zero scale
        (((0,), (1,), 1, -2), None, "positive scale"),         # negative scale
        (((3,), (1,), 1, 1), None, "not increasing"),          # column past the last
        (((-1, 0), (1, 1), 1, 1), None, "not increasing"),     # negative column
        (((1, 1), (1, 1), 1, 1), None, "not increasing"),      # repeated column
        (((2, 1), (1, 1), 1, 1), None, "not increasing"),      # decreasing columns
        (((0, 1), (1, 0), 1, 1), None, "nonzero coefficient"),  # stored zero
        (((0, 1), (1,), 1, 1), None, "nonzero coefficient"),   # fewer ints than columns
        (((0,), (1, 2), 1, 1), None, "nonzero coefficient"),   # more ints than columns
        (((0, 1), (-1, -1), 0, 1), 0, "cannot own"),           # owner's coefficient < 0
        (((0, 1), (1, -1), 0, 1), 2, "cannot own"),            # owner not in the row
        (((0, 1), (1, 2), 0, 1), 0, "cannot own"),             # a second positive int
        (((0, 1), (1, -1), 0, 1), 3, "out of range"),          # owner past the last column
    ]:
        with pytest.raises(ValueError, match=match):
            make(row, owner)
    # the converter takes only <= rows
    with pytest.raises(ValueError, match="packing LP"):
        LinearProgram.from_rows(objective=[F(1)], rows=[({0: F(1)}, ">=", F(1))])
    with pytest.raises(ValueError, match="int columns"):
        LinearProgram.from_rows(objective=[F(1)], rows=[({"0": F(1)}, "<=", F(1))])


def test_only_packing_lps_are_accepted():
    # x = 0 must be feasible: <= rows with rhs >= 0 and upper bounds >= 0
    LinearProgram.from_rows(objective=[F(1)], rows=[({0: F(-1)}, "<=", F(0))], upper_bounds=[F(0)])
    for rows, upper_bounds in [
        ([({0: F(1)}, ">=", F(1))], None),
        ([({0: F(1)}, "==", F(1))], None),
        ([({0: F(1)}, "<=", F(-1))], None),
        ([], [F(-1)]),
    ]:
        with pytest.raises(ValueError, match="packing LP"):
            LinearProgram.from_rows(objective=[F(1)], rows=rows, upper_bounds=upper_bounds)


def test_rows_are_stored_sparse():
    lp = LinearProgram.from_rows(
        objective=[F(1), F(1), F(1)],
        rows=[({2: F(1), 0: F(-1), 1: F(0)}, "<=", 0)],
    )
    row, rel, rhs = lp.rows[0]
    assert list(row.items()) == [(0, -1), (2, 1)]  # zeros dropped, columns in order
    assert rel == "<=" and rhs == 0


def test_lp_text_export():
    lp = LinearProgram.from_rows(
        objective=[F(1), F(2)],
        rows=[({0: F(1), 1: F(1)}, "<=", F(3)), ({0: F(1), 1: F(-1)}, "<=", F(0))],
        upper_bounds=[F(1), None],
    )
    text = lp_to_text(lp)
    assert text.startswith("Maximize")
    assert " obj: 1.0 x0 + 2.0 x1" in text
    assert "Subject To" in text
    assert " c0: 1.0 x0 + 1.0 x1 <= 3.0" in text
    assert " c1: 1.0 x0 + -1.0 x1 <= 0.0" in text
    assert " 0 <= x0 <= 1.0" in text
    assert " 0 <= x1\n" in text
    assert text.rstrip().endswith("End")
    # a column with a key tuple is named by it
    keyed = LinearProgram.from_rows(objective=[F(1)], rows=[], var_keys=[("i", "b", "p")])
    assert " obj: 1.0 x[i,b,p]" in lp_to_text(keyed)


def test_against_external_solver_on_random_lps():
    # independent cross-check of the self-contained simplex
    import random

    import numpy as np
    from scipy.optimize import linprog

    rng = random.Random(0)
    for case in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        obj = [Fraction(rng.randint(-4, 9), rng.randint(1, 4)) for _ in range(n)]
        rows = []
        for _ in range(m):
            coeffs = [Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]
            rows.append((coeffs, "<=", Fraction(rng.randint(0, 12), rng.randint(1, 2))))
        sparse = [(dict(enumerate(coeffs)), rel, b) for coeffs, rel, b in rows]
        ubs = [Fraction(rng.randint(1, 6)) if rng.random() < 0.5 else None for _ in range(n)]
        lp = LinearProgram.from_rows(objective=obj, rows=sparse, upper_bounds=ubs)
        sol = solve_lp(lp)
        ref = linprog(
            c=np.array([-float(c) for c in obj]),
            A_ub=np.array([[float(a) for a in coeffs] for coeffs, _r, _b in rows]),
            b_ub=np.array([float(b) for _c, _r, b in rows]),
            bounds=[(0, None if u is None else float(u)) for u in ubs],
            method="highs",
        )
        if sol.status == OPTIMAL:
            assert ref.status == 0, case
            assert float(sol.exact_objective) == pytest.approx(-ref.fun, abs=1e-7), case
        else:
            assert (sol.status, ref.status) == (UNBOUNDED, 3), case


def test_exact_polish_handles_degenerate_float_stop():
    # a chain of degenerate ties that commonly stalls float pivoting one
    # step early; the exact layer must still certify the true optimum
    n = 6
    rows = []
    for k in range(n):
        coeffs = {k: F(1)}
        if k:
            coeffs[k - 1] = F(-1)
        rows.append((coeffs, "<=", F(0) if k else F(1)))
    lp = LinearProgram.from_rows(objective=[F(1)] * n, rows=rows)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == n


# -- pinned pivot path ---------------------------------------------------------

# Simplex iterations, pricing rounds, admitted columns and the sha256 of
# repr((basis, exact_values)) of each seeded LP.  A change to the float
# pivot sequence, to pricing or to the exact layer's repair changes the
# counts or the digest.  Basis entries are hashed as Python ints, so the
# digest does not depend on the integer type stored.  The naive LP owns no
# rows and is solved in one round.
PINNED_PIVOT_PATH = [
    ("bundle-12", lambda: build_bundle_lp(gen_random(12, 8, 1, unambiguous=True)),
     41, 3, 44, "4fcbd65cd0ae1980c8759344563ee25548d8dcdb1f370f31b578899efffb19e2"),
    ("bundle-20", lambda: build_bundle_lp(gen_random(20, 8, 1, unambiguous=True)),
     98, 6, 95, "8e84c34082c7ac90e3436c191b4905162a2514e535eacdb103489d309fdf0d7e"),
    ("bundle-32", lambda: build_bundle_lp(gen_random(32, 8, 1, unambiguous=True)),
     143, 12, 141, "1242a3105bcb0898361f6c17d5398b506d3e730799fb60bf3becbbd64524950f"),
    ("budgeted-20",
     lambda: build_bundle_lp_budgeted(
         gen_random(20, 6, 1, unambiguous=True, budget_resources=2)),
     48, 4, 88, "5e7f16c973a716959721918f6082a2501af62ce4d19252d5393268867a3fe605"),
    ("naive-20", lambda: build_naive_lp(gen_random(20, 8, 1)),
     20, 1, 0, "ed13fa98b38995c0b528b167ab23801f0a4da1002b1236a7e6bde26b3416ca3a"),
    ("opton-40", lambda: build_opton_lp(gen_iid_lower_bound(40)),
     41, 2, 39, "f2af8954edeb29ea15cba39464e1f6d8e7c391c438a77b8a479f2fa5b8c0d9b0"),
    ("optoff-40", lambda: build_optoff_lp(gen_iid_lower_bound(40), 1),
     57, 2, 39, "246860f6ab98206be765520034fda322230025ec1807d713edaae7a59c144329"),
]


@pytest.mark.parametrize("make, iterations, rounds, columns, digest",
                         [case[1:] for case in PINNED_PIVOT_PATH],
                         ids=[case[0] for case in PINNED_PIVOT_PATH])
def test_pivot_path_is_pinned(make, iterations, rounds, columns, digest):
    lp = make()
    sol = solve_lp(lp)
    # neither the builder nor the solve reads the rows' Fraction view
    assert "rows" not in lp.__dict__
    assert sol.status == OPTIMAL
    assert (sol.iterations, sol.rounds, sol.columns) == (iterations, rounds, columns)
    path = repr(([int(j) for j in sol.basis], sol.exact_values))
    assert hashlib.sha256(path.encode()).hexdigest() == digest


# -- Harris's ratio test and what it certifies -------------------------------------


def test_harris_ratio_test_takes_the_large_pivot():
    # x0 enters; row 0 has a = 1e-8 at b = 0 and row 1 has a = 1 at
    # b = 1e-10.  The textbook test pivots on the least ratio, 0 on row 0.
    # Harris's bound is (1e-10 + tol) / 1, which both ratios meet, and it
    # pivots on the larger a, row 1 at ratio 1e-10
    def tableau():
        T = np.array([[1e-8, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 1.0, 1e-10],
                      [-1.0, 0.0, 0.0, 0.0]])
        return T, [1, 2]

    T, basis = tableau()
    assert lp_module._simplex_phase(T, basis, lp_module.PIVOT_TOL, 10, 10) == (OPTIMAL, 1)
    assert basis == [1, 0]
    # under Bland's rule the ratio test is the textbook one
    T, basis = tableau()
    assert lp_module._simplex_phase(T, basis, lp_module.PIVOT_TOL, 10, 0) == (OPTIMAL, 1)
    assert basis == [0, 2]
    # ties: x0 and x1 price at -1 each, and Dantzig's rule enters x0, the
    # lowest column; with x1 at -5 Bland's rule still enters x0 first, the
    # first negative column, and Dantzig's enters x1
    for obj, bland_after, pivots in (([-1.0, -1.0], 10, [(0, 0)]),
                                     ([-1.0, -5.0], 0, [(0, 0), (0, 1)]),
                                     ([-1.0, -5.0], 10, [(0, 1)])):
        T = np.array([[1.0, 1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0, 2.0],
                      [*obj, 0.0, 0.0, 0.0]])
        assert _pivots(T, [2, 3], bland_after) == (OPTIMAL, pivots)
    # two rows at ratio 0 with a = 1 each: either test pivots on the row of
    # the lower basic column, row 1, not on the first row
    for bland_after in (10, 0):
        T = np.array([[1.0, 0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0, 0.0],
                      [-1.0, 0.0, 0.0, 0.0, 0.0]])
        assert _pivots(T, [3, 2], bland_after) == (OPTIMAL, [(1, 0)])


def _pivots(T, basis, bland_after):
    """The status of ``_simplex_phase`` on T and the (row, column) of each
    pivot it makes."""
    seen, pivot = [], lp_module._pivot

    def spy(T, basis, row, col):
        seen.append((row, col))
        pivot(T, basis, row, col)

    with mock.patch.object(lp_module, "_pivot", spy):
        status, _it = lp_module._simplex_phase(T, basis, lp_module.PIVOT_TOL, 10, bland_after)
    return status, seen


def _highs_objective(lp):
    """HiGHS's optimum of ``lp``, through scipy's linprog over sparse rows;
    0 for an LP without columns, which linprog does not take."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    if not lp.n_vars:
        return 0.0
    r, k, a = zip(*[(r, k, float(a)) for r, (coeffs, _rel, _b) in enumerate(lp.rows)
                    for k, a in coeffs.items()])
    ref = linprog(
        c=[-float(c) for c in lp.objective],
        A_ub=csr_matrix((a, (r, k)), shape=(lp.n_rows, lp.n_vars)),
        b_ub=[float(b) for _c, _r, b in lp.rows],
        bounds=[(0, None if u is None else float(u))
                for u in lp.upper_bounds or [None] * lp.n_vars],
        method="highs",
    )
    assert ref.status == 0, ref.message
    return -ref.fun


def _assert_certified_as_highs(lp, sol):
    assert sol.status == OPTIMAL and type(sol.exact_objective) is Fraction
    ref = _highs_objective(lp)
    assert abs(float(sol.exact_objective) - ref) <= 1e-9 * max(1.0, abs(ref))


# Under the textbook ratio test the float basis of each was singular in
# exact arithmetic, and the exact simplex ran past its 5000 pivots from
# the slack basis
@pytest.mark.parametrize("seed, p_density", [(5, 0.2), (2, 0.4)])
def test_budgeted_32_item_lps_certify_from_the_float_basis(seed, p_density):
    lp = build_bundle_lp_budgeted(gen_random(32, 6, seed, unambiguous=True,
                                             p_density=p_density, budget_resources=2))
    start = time.process_time()
    sol = solve_lp(lp)
    assert time.process_time() - start < 10.0
    _assert_certified_as_highs(lp, sol)
    assert (sol.exact_pivots, sol.restarted) == (0, False)


@settings(max_examples=64, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["bundle", "budgeted", "opton", "optoff"]), st.integers(8, 32),
       st.integers(0, 11), st.sampled_from([0.2, 0.4]))
@example("budgeted", 28, 10, 0.2)  # its float basis was singular under the textbook test
def test_generated_bundle_lps_certify_without_a_restart(kind, n, seed, p_density):
    if kind in ("opton", "optoff"):
        # V[ON] and V[OFF] of n arrival types over a horizon of 2n
        model = gen_random_iid_model(n, 6, 2 * n, seed)
        floor = min(model.probs[i] * model.horizon for i in model.types)
        lp = build_opton_lp(model) if kind == "opton" else build_optoff_lp(model, floor)
    else:
        inst = gen_random(n, 6, seed, unambiguous=True, p_density=p_density,
                          budget_resources=2 if kind == "budgeted" else 0)
        lp = build_bundle_lp(inst) if kind == "bundle" else build_bundle_lp_budgeted(inst)
    sol = solve_lp(lp)
    assert not sol.restarted
    _assert_certified_as_highs(lp, sol)


def test_64_item_bundle_lps_certify_within_the_cpu_bound():
    # 4934 columns, and 3797 at P-edge density 0.2, whose optimum is
    # fractional; each is solved by column generation and certified over
    # all of its columns
    for p_density, optimum in ((0.4, Fraction(8467, 100)), (0.2, Fraction(389491, 5250))):
        lp = build_bundle_lp(gen_random(64, 8, 1, unambiguous=True, p_density=p_density))
        start = time.process_time()
        sol = solve_lp(lp)
        assert time.process_time() - start < 10.0, p_density
        _assert_certified_as_highs(lp, sol)
        assert sol.exact_objective == optimum


# -- kernel properties -----------------------------------------------------------


def _gauss_jordan(cols, rhs):
    """Dense Fraction reference for B x = rhs, B given column-wise; None
    when B is singular."""
    m = len(rhs)
    a = [[cols[k].get(r, Fraction(0)) for k in range(m)] + [Fraction(rhs[r])]
         for r in range(m)]
    for k in range(m):
        piv = next((r for r in range(k, m) if a[r][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for r in range(m):
            if r != k and a[r][k]:
                f = a[r][k]
                a[r] = [v - f * w for v, w in zip(a[r], a[k])]
    return [a[r][m] for r in range(m)]


_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def _square_systems(draw):
    m = draw(st.integers(1, 7))
    dense = [[Fraction(draw(_ENTRIES)) for _ in range(m)] for _ in range(m)]
    shape = draw(st.sampled_from(["plain", "duplicate", "zero"]))
    if shape == "duplicate" and m > 1:
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        dense[j] = list(dense[i])
    elif shape == "zero":
        dense[draw(st.integers(0, m - 1))] = [Fraction(0)] * m
    keep_zeros = draw(st.booleans())
    cols = [{r: v for r, v in enumerate(col) if v or keep_zeros} for col in dense]
    rhs = [Fraction(draw(st.integers(-5, 5))) for _ in range(m)]
    return cols, rhs


def _as_int(v):
    return int(v) if v.denominator == 1 else v


@PROPERTY_SETTINGS
@given(_square_systems())
def test_solve_sparse_matches_dense_gauss_jordan(system):
    cols, rhs = system
    ref = _gauss_jordan(cols, rhs)
    assert lp_module._solve_sparse(cols, rhs) == ref
    # the same system with its integral entries as ints, as the exact layer
    # stores scaled rows: every division must still be a Fraction division
    int_cols = [{r: _as_int(v) for r, v in col.items()} for col in cols]
    got = lp_module._solve_sparse(int_cols, [_as_int(v) for v in rhs])
    assert got == ref
    assert got is None or all(type(v) is Fraction for v in got)


def _dense_pivot(T, basis, row, col):
    """Reference pivot: the full rank-one update of the whole tableau."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


_TABLEAU_ENTRIES = st.one_of(
    st.just(0.0), st.just(0.0), st.just(0.0),
    st.floats(-100, 100, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _tableau_pivots(draw):
    m = draw(st.integers(1, 8))
    width = draw(st.integers(1, 10))
    T = draw(arrays(np.float64, (m + 1, width + 1), elements=_TABLEAU_ENTRIES))
    row = draw(st.integers(0, m - 1))
    col = draw(st.integers(0, width - 1))
    if abs(T[row, col]) < 1e-6:
        # a usable pivot drawn directly: most entries are zero, so filtering
        # for one discards most examples
        T[row, col] = draw(st.floats(1e-6, 100) | st.floats(-100, -1e-6))
    return T, row, col


@PROPERTY_SETTINGS
@given(_tableau_pivots())
def test_sparse_pivot_matches_dense_update(case):
    T, row, col = case
    basis = list(range(T.shape[0] - 1))
    ref, ref_basis = T.copy(), list(basis)
    _dense_pivot(ref, ref_basis, row, col)
    # small chunk sizes split one pivot's block over several chunks
    for block in (lp_module._PIVOT_BLOCK, 1, 3, 8):
        got, got_basis = T.copy(), list(basis)
        with mock.patch.object(lp_module, "_PIVOT_BLOCK", block):
            lp_module._pivot(got, got_basis, row, col)
        assert np.array_equal(got, ref)
        assert got_basis == ref_basis


def _loop_simplex_phase(T, basis, tol, max_iter, bland_after, start_iter=0):
    """Reference simplex phase: per-entry scans and the dense pivot.  Under
    Dantzig's rule the ratio test is Harris's: the bound is the least
    (max(b, 0) + tol) / a, and the pivot the largest a among the rows whose
    ratio b / a is within it; under Bland's rule it is the least ratio."""
    m = T.shape[0] - 1
    it = start_iter
    while True:
        obj = T[-1, :-1]
        candidates = list(np.where(obj < -tol)[0])
        if not candidates:
            return OPTIMAL, it
        bland = it - start_iter >= bland_after
        if bland:
            col = min(candidates)
        else:
            col = min(candidates, key=lambda j: (obj[j], j))
        ratios = []
        for i in range(m):
            a = T[i, col]
            if a > tol:
                ratios.append((T[i, -1] / a, basis[i], i, a, (max(T[i, -1], 0.0) + tol) / a))
        if not ratios:
            return lp_module.UNBOUNDED, it
        if bland:
            _, _, row, _, _ = min(ratios, key=lambda t: (t[0], t[1]))
        else:
            bound = min(t[4] for t in ratios)
            _, _, row, _, _ = min((t for t in ratios if t[0] <= bound),
                                  key=lambda t: (-t[3], t[1]))
        _dense_pivot(T, basis, row, col)
        it += 1
        if it - start_iter > max_iter:
            raise lp_module.NumericalFailure("pivot limit exceeded")


@st.composite
def _small_lps(draw):
    n = draw(st.integers(1, 6))
    coeff = st.sampled_from([0, 0, 1, 2, -1, Fraction(1, 3), Fraction(5, 2)])
    obj = [draw(st.sampled_from([0, 1, 2, -1, Fraction(3, 2)])) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = {k: draw(coeff) for k in range(n)}
        rows.append((coeffs, "<=", draw(st.integers(0, 6))))
    ubs = [draw(st.sampled_from([None, 1, 3])) for _ in range(n)]
    return LinearProgram.from_rows(objective=obj, rows=rows, upper_bounds=ubs)


def _bland_after(phase, bland_after):
    """``phase`` with Bland's rule from pivot ``bland_after`` on (None keeps
    the solver's own switch point)."""
    def run(T, basis, tol, max_iter, default, start_iter=0):
        switch = default if bland_after is None else bland_after
        return phase(T, basis, tol, max_iter, switch, start_iter)
    return run


def _assert_float_phase_matches_loop_reference(lp, bland_after):
    # same status, basis, pivot count, pricing rounds and admitted columns as
    # per-entry scans with dense pivots, under Dantzig's rule, Bland's rule
    # and a switch between them
    with mock.patch.object(lp_module, "_simplex_phase",
                           _bland_after(lp_module._simplex_phase, bland_after)):
        got = lp_module._float_solve(lp)
    with mock.patch.object(lp_module, "_simplex_phase",
                           _bland_after(_loop_simplex_phase, bland_after)), \
            mock.patch.object(lp_module, "_pivot", _dense_pivot):
        ref = lp_module._float_solve(lp)
    assert got[:3] + got[4:] == ref[:3] + ref[4:]


@PROPERTY_SETTINGS
@given(_small_lps(), st.sampled_from([None, 0, 2]))
def test_float_phase_matches_loop_reference(lp, bland_after):
    _assert_float_phase_matches_loop_reference(lp, bland_after)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(["bundle", "budgeted"]), st.integers(8, 14), st.integers(3, 8),
       st.integers(0, 10 ** 6), st.sampled_from([0.2, 0.4]), st.sampled_from([None, 0, 2]))
def test_float_phase_matches_loop_reference_on_builder_lps(kind, n, m, seed, p_density,
                                                           bland_after):
    # the builders' LPs own their membership rows, so pricing admits
    # columns over several rounds
    inst = gen_random(n, m, seed, unambiguous=True, p_density=p_density,
                      budget_resources=2 if kind == "budgeted" else 0)
    lp = build_bundle_lp(inst) if kind == "bundle" else build_bundle_lp_budgeted(inst)
    _assert_float_phase_matches_loop_reference(lp, bland_after)


# -- exact simplex against its reference ---------------------------------------


_EXACT_COSTS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)])


@st.composite
def _exact_starts(draw):
    """(form, c, basis): the standard form of a random LP, costs and one
    of four kinds of starting basis:

    - slack: the slack basis, feasible, so the simplex pivots from it;
    - random: any columns, repeats allowed where the LP has too few;
    - singular: a column twice, which for a slack is two slacks claiming
      one row (an added row makes room for two);
    - infeasible: the slack basis under two added rows x_k <= 2 and
      x_k <= 1, with x_k basic in place of the first one's slack, so the
      second one's slack is -1.

    c is the objective on the structural columns, and on half the draws
    is drawn on the slacks too, so claimed rows carry nonzero duals."""
    lp = draw(_small_lps())
    n = lp.n_vars
    kind = draw(st.sampled_from(["slack", "random", "singular", "infeasible"]))
    rows = lp.rows
    if kind == "singular":
        rows = rows + [({0: F(1)}, "<=", F(1))]
    elif kind == "infeasible":
        k = draw(st.integers(0, n - 1))
        rows = rows + [({k: F(1)}, "<=", F(2)), ({k: F(1)}, "<=", F(1))]
    lp = LinearProgram.from_rows(objective=lp.objective, rows=rows, upper_bounds=lp.upper_bounds)
    form = lp_module._standard_form(lp)
    m, ncols = len(form.b_exact), form.ncols
    basis = form.slack.tolist()
    if kind == "random":
        basis = draw(st.permutations(range(ncols)))[:m]
        basis += [draw(st.integers(0, ncols - 1)) for _ in range(m - len(basis))]
    elif kind == "singular":
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        basis[i] = basis[j]
    elif kind == "infeasible":
        basis[len(rows) - 2] = k
    c = lp.objective + [F(0)] * (ncols - n)
    if draw(st.booleans()):
        c = lp.objective + [F(draw(_EXACT_COSTS)) for _ in range(ncols - n)]
    return form, c, basis


def _assert_fractions(result):
    _status, _basis, xB, y = result
    assert all(type(v) is Fraction for v in (xB or []) + (y or []))


@PROPERTY_SETTINGS
@given(_exact_starts())
def test_exact_simplex_matches_reference(start):
    # status, basis, x_B and y all equal the full-basis simplex's, for every
    # kind of starting basis, pivots included
    form, c, basis = start
    cols, b = form.cols_exact, form.b_exact
    got = lp_module._exact_revised_simplex(form, c, basis)
    assert got[:4] == reference_exact_revised_simplex(cols, b, c, basis, barred=set())
    _assert_fractions(got[:4])
    # the kernel is square unless two singletons claim one row
    peel = lp_module._PeeledBasis(cols, basis, len(b))
    assert peel.singular or len(peel.kcols) == len(peel.rows)


def test_exact_pivot_limit_is_typed():
    # max x0 + x1 with x0, x1 <= 1 takes two exact pivots from the slack basis
    lp = LinearProgram.from_rows(objective=[F(1), F(1)],
                       rows=[({0: F(1)}, "<=", F(1)), ({1: F(1)}, "<=", F(1))])
    form = lp_module._standard_form(lp)
    args = (form, lp.objective + [F(0), F(0)], form.slack.tolist())
    got = lp_module._exact_revised_simplex(*args)
    assert got == (OPTIMAL, [0, 1], [F(1), F(1)], [F(1), F(1)], 2)
    assert lp_module._exact_revised_simplex(*args, max_pivots=2) == got
    with pytest.raises(PivotLimit, match="exact pivot limit exceeded") as err:
        lp_module._exact_revised_simplex(*args, max_pivots=1)
    assert (err.value.pivots, err.value.limit) == (1, 1)
    assert isinstance(err.value, NumericalFailure)


def test_float_pivot_limit_is_typed():
    # the tableau of test_harris_ratio_test_takes_the_large_pivot takes one
    # pivot; a budget of none raises once that pivot is made
    T = np.array([[1e-8, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1e-10], [-1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(PivotLimit, match="pivot limit exceeded") as err:
        lp_module._simplex_phase(T, [1, 2], lp_module.PIVOT_TOL, 0, 10)
    assert (err.value.pivots, err.value.limit) == (1, 0)


@pytest.mark.parametrize("make, objective", [
    (lambda: build_bundle_lp(gen_integrality_gap(3, Fraction(1, 10))), Fraction(11, 5)),
    (lambda: build_bundle_lp(gen_random(8, 3, 4, unambiguous=True, p_density=0.2)),
     Fraction(31671, 4850)),
], ids=["gap3", "fractional"])
def test_singular_float_basis_restarts_from_the_slacks(make, objective):
    # a float basis with a column repeated is singular in exact arithmetic,
    # so solve_lp reruns the exact simplex from the slack basis
    float_solve, exact_simplex = lp_module._float_solve, lp_module._exact_revised_simplex
    starts = []

    def repeated(lp):
        status, basis, *rest = float_solve(lp)
        basis[-1] = basis[0]
        return (status, basis, *rest)

    def spy(form, c, basis, **kw):
        result = exact_simplex(form, c, basis, **kw)
        starts.append((list(basis), result[0]))
        return result

    lp = make()
    with mock.patch.object(lp_module, "_float_solve", repeated), \
            mock.patch.object(lp_module, "_exact_revised_simplex", spy):
        sol = solve_lp(lp)
    slack = lp_module._standard_form(lp).slack.tolist()
    assert [status for _basis, status in starts] == ["singular", OPTIMAL]
    assert starts[1][0] == slack
    assert sol.status == OPTIMAL and sol.exact_objective == objective
    assert sol.restarted and sol.exact_pivots > 0
    lp_module._verify_exact(lp, sol.exact_values, sol.exact_duals)


@PROPERTY_SETTINGS
@given(_small_lps())
def test_scaled_rows_are_the_lp_rows(lp):
    # the exact half of the standard form is the stored ints and scales,
    # bound rows included, in new lists; the rows view reads each stored
    # row over its scale, and is built once
    rows = lp.rows_with_bounds()
    form = lp_module._standard_form(lp)
    assert form.b_exact == [rhs for _c, _i, rhs, _s in rows]
    assert form.scales == [scale for _c, _i, _r, scale in rows]
    for r, (cols, ints, rhs, scale) in enumerate(rows):
        assert scale > 0 and all(type(v) is int for v in (*ints, rhs, scale))
        assert [form.cols_exact[k][r] for k in cols] == list(ints)
        assert form.cols_exact[lp.n_vars + r] == {r: scale}
    assert sum(map(len, form.cols_exact)) == sum(len(cols) + 1 for cols, *_r in rows)
    for (coeffs, _rel, rhs), (cols, ints, b, scale) in zip(lp.rows, lp.int_rows):
        assert list(coeffs.items()) == [(k, Fraction(a, scale)) for k, a in zip(cols, ints)]
        assert rhs == Fraction(b, scale)
    assert lp.rows is lp.rows


# -- exact dual certificate ----------------------------------------------------


def _dual_rows(lp):
    """The LP's rows, then one <= row per upper bound, as exact_duals lists them."""
    return lp.rows + [({k: F(1)}, "<=", u)
                      for k, u in enumerate(lp.upper_bounds or []) if u is not None]


def _certified_lp():
    # max x + 2y + 2z  s.t.  x + y + z <= 6,  z - y <= 1,  x - y <= 0,  y <= 2
    return LinearProgram.from_rows(
        objective=[F(1), F(2), F(2)],
        rows=[({0: F(1), 1: F(1), 2: F(1)}, "<=", F(6)), ({1: F(-1), 2: F(1)}, "<=", F(1)),
              ({0: F(1), 1: F(-1)}, "<=", F(0))],
        upper_bounds=[None, F(2), None],
    )


def test_exact_duals_certify_the_optimum():
    lp = _certified_lp()
    sol = solve_lp(lp)
    assert sol.exact_values == [1, 2, 3] and sol.exact_objective == 11
    ys = sol.exact_duals
    # the three rows, the third slack at the vertex, then the bound on y
    assert ys == [1, 1, 0, 2]
    lp_module._verify_exact(lp, sol.exact_values, ys)


def test_tampered_certificates_fail():
    lp = _certified_lp()
    sol = solve_lp(lp)
    xs, ys = sol.exact_values, sol.exact_duals
    for k in range(lp.n_vars):
        for step in (Fraction(1, 7), Fraction(-1, 7)):
            bad = list(xs)
            bad[k] += step
            with pytest.raises(NumericalFailure):
                lp_module._verify_exact(lp, bad, ys)
    for r in range(len(ys)):
        for bad_y in (ys[r] + Fraction(1, 3), ys[r] - Fraction(1, 3), -ys[r] or F(1)):
            bad = list(ys)
            bad[r] = bad_y
            with pytest.raises(NumericalFailure):
                lp_module._verify_exact(lp, xs, bad)
    with pytest.raises(NumericalFailure, match="wrong length"):
        lp_module._verify_exact(lp, xs, ys[:-1])


def test_each_dual_condition_is_checked_on_its_own():
    # max x  s.t.  x - y <= 0,  y <= 1: x = y = 1 with duals 1 and 1
    lp = LinearProgram.from_rows(objective=[F(1), F(0)],
                       rows=[({0: F(1), 1: F(-1)}, "<=", F(0)), ({1: F(1)}, "<=", F(1))])
    sol = solve_lp(lp)
    assert sol.exact_values == [1, 1] and sol.exact_duals == [1, 1]
    # the rhs-0 row's dual halved keeps b.y == c.x and breaks A^T y >= c on x
    with pytest.raises(NumericalFailure, match="violates a column"):
        lp_module._verify_exact(lp, [F(1), F(1)], [Fraction(1, 2), F(1)])
    # the second dual doubled keeps A^T y >= c and opens a gap
    with pytest.raises(NumericalFailure, match="gap"):
        lp_module._verify_exact(lp, [F(1), F(1)], [F(1), F(2)])
    # a feasible, non-optimal x with optimal duals
    with pytest.raises(NumericalFailure, match="gap"):
        lp_module._verify_exact(lp, [Fraction(1, 2), F(1)], [F(1), F(1)])


@pytest.mark.parametrize("rel, dual, ok", [("<=", -1, False), ("<=", 1, True)])
def test_dual_sign_follows_the_relation(rel, dual, ok):
    # an empty row with rhs 0 adds nothing to A^T y or to b.y, so only the
    # sign check can reject its dual
    lp = LinearProgram.from_rows(objective=[F(0)], rows=[({}, rel, F(0))])
    if ok:
        lp_module._verify_exact(lp, [F(0)], [F(dual)])
    else:
        with pytest.raises(NumericalFailure, match="wrong sign"):
            lp_module._verify_exact(lp, [F(0)], [F(dual)])


def test_upper_bound_dual_must_be_nonnegative():
    # x <= 0 with c = -1: y = -1 meets A^T y >= c and b.y == c.x, not the sign
    lp = LinearProgram.from_rows(objective=[F(-1)], rows=[], upper_bounds=[F(0)])
    lp_module._verify_exact(lp, [F(0)], [F(0)])
    with pytest.raises(NumericalFailure, match="wrong sign"):
        lp_module._verify_exact(lp, [F(0)], [F(-1)])


@PROPERTY_SETTINGS
@given(_small_lps())
def test_exact_duals_are_a_certificate_on_random_lps(lp):
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        assert sol.exact_duals is None
        return
    rows = _dual_rows(lp)
    assert len(sol.exact_duals) == len(rows)
    reduced = list(lp.objective)
    dual_obj = F(0)
    for (coeffs, _rel, rhs), y in zip(rows, sol.exact_duals):
        assert type(y) is Fraction and y >= 0
        dual_obj += rhs * y
        for k, a in coeffs.items():
            reduced[k] -= a * y
    assert all(d <= 0 for d in reduced)
    assert dual_obj == sol.exact_objective


# -- column generation ---------------------------------------------------------


def test_owned_rows_must_hold_at_a_zero_owner():
    def make(row, owner):
        return LinearProgram.from_rows(objective=[F(1), F(1)], rows=[row], row_owner=[owner])

    make(({0: F(1), 1: F(-2)}, "<=", F(0)), 0)
    make(({0: F(3)}, "<=", F(1)), 0)
    for row, owner in [
        (({0: F(1), 1: F(-2)}, ">=", F(0)), 0),   # >= row
        (({0: F(1), 1: F(-2)}, "==", F(0)), 0),   # == row
        (({0: F(1), 1: F(-2)}, "<=", F(-1)), 0),  # negative rhs
        (({0: F(1), 1: F(2)}, "<=", F(0)), 0),    # a second positive coefficient
        (({0: F(-1), 1: F(-2)}, "<=", F(0)), 0),  # negative owner coefficient
        (({1: F(-2)}, "<=", F(0)), 0),            # owner absent from the row
        (({0: F(1)}, "<=", F(0)), 2),             # owner out of range
    ]:
        with pytest.raises(ValueError):
            make(row, owner)
    with pytest.raises(ValueError, match="wrong length"):
        LinearProgram.from_rows(objective=[F(1)], rows=[], row_owner=[None])


@st.composite
def _bundle_shaped_lps(draw):
    """The bundle, budgeted and arrival LPs of small seeded draws."""
    kind = draw(st.sampled_from(["plain", "fractional", "budgeted", "opton", "optoff"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind in ("opton", "optoff"):
        model = gen_random_iid_model(draw(st.integers(1, 8)), draw(st.integers(1, 4)),
                                     draw(st.integers(3, 30)), seed)
        if kind == "opton":
            return build_opton_lp(model)
        floor = min(model.probs[i] * model.horizon for i in model.types)
        return build_optoff_lp(model, floor)
    n, m = draw(st.integers(0, 14)), draw(st.integers(1, 5))
    if kind == "budgeted":
        return build_bundle_lp_budgeted(
            gen_random(n, m, seed, unambiguous=True, budget_resources=draw(st.integers(1, 2))))
    return build_bundle_lp(
        gen_random(n, m, seed, unambiguous=True, p_density=0.2 if kind == "fractional" else 0.4))


@PROPERTY_SETTINGS
@given(_bundle_shaped_lps())
def test_column_generation_matches_one_round(lp):
    # solve_lp certifies both over the full LP; the vertex may differ
    sol = solve_lp(lp)
    ref = solve_lp(dataclasses.replace(lp, row_owner=None))
    assert sol.status == ref.status == OPTIMAL
    assert sol.exact_objective == ref.exact_objective
    assert (ref.rounds, ref.columns) == (1, 0)
    assert sol.columns <= sum(k is not None for k in lp.row_owner)


@st.composite
def _lps_with_owned_rows(draw):
    """Random packing LPs with upper bounds, with owned rows appended:
    each owns a random column, with a positive coefficient on it,
    nonpositive ones elsewhere and rhs >= 0."""
    lp = draw(_small_lps())
    n = lp.n_vars
    owned = []
    for owner in draw(st.lists(st.integers(0, n - 1), max_size=2 * n)):
        row = {k: F(draw(st.sampled_from([0, 0, -1, Fraction(-1, 2), -3]))) for k in range(n)}
        row[owner] = F(draw(st.sampled_from([1, 2, Fraction(1, 3)])))
        owned.append((row, "<=", F(draw(st.sampled_from([0, 0, 1, 2])))))
    return LinearProgram.from_rows(objective=lp.objective, rows=lp.rows + owned,
                         upper_bounds=lp.upper_bounds,
                         row_owner=[None] * lp.n_rows + [
                             next(k for k, a in row.items() if a > 0) for row, _r, _b in owned])


@PROPERTY_SETTINGS
@given(_lps_with_owned_rows())
def test_column_generation_on_random_lps_with_owned_rows(lp):
    # a restricted LP that is unbounded is unbounded in full
    sol = solve_lp(lp)
    ref = solve_lp(dataclasses.replace(lp, row_owner=None))
    assert sol.status == ref.status
    assert sol.exact_objective == ref.exact_objective


def _tampered_pricing(mode):
    """``_RestrictedTableau.price`` that drops the column of highest reduced
    cost from each round, or prices nothing after the first round."""
    price = lp_module._RestrictedTableau.price

    def tampered(self):
        new = price(self)
        if mode == "none":
            return new[:0]
        form = self.form
        e_rows, e_cols, e_vals = form.entries
        y = np.zeros(form.rhs.size)
        y[self.rows] = self.duals()
        d = self.c[:self.present.size] - np.bincount(
            e_cols, weights=e_vals * y[e_rows], minlength=self.present.size)
        return new[new != new[np.argmax(d[new])]] if new.size else new

    return tampered


@pytest.mark.parametrize("mode", ["drop-best", "none"])
@pytest.mark.parametrize("make", [
    lambda: build_bundle_lp(gen_random(8, 3, 4, unambiguous=True, p_density=0.2)),
    lambda: build_bundle_lp_budgeted(gen_random(8, 3, 1, unambiguous=True, budget_resources=1)),
    lambda: build_opton_lp(gen_iid_lower_bound(6)),
], ids=["fractional", "budgeted", "opton"])
def test_tampered_pricing_still_ends_certified(make, mode):
    lp = make()
    ref = solve_lp(lp)
    assert ref.rounds > 1  # the first restricted optimum is not optimal in full
    with mock.patch.object(lp_module._RestrictedTableau, "price", _tampered_pricing(mode)):
        sol = solve_lp(lp)  # its exact pricing and checks run over every column
    assert sol.status == OPTIMAL
    assert sol.exact_objective == ref.exact_objective
    lp_module._verify_exact(lp, sol.exact_values, sol.exact_duals)
    if mode == "none":
        assert (sol.rounds, sol.columns) == (1, 0)
