from fractions import Fraction

import pytest

from avalloc.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, lp_to_text, solve_lp


def F(x):
    return Fraction(x)


def test_single_variable_box():
    lp = LinearProgram(objective=[F(1)], rows=[({0: F(1)}, "<=", F(1))])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 1
    assert sol.exact_values == [1]


def test_degenerate_optimum_allowed():
    lp = LinearProgram(objective=[F(1), F(1)], rows=[({0: F(1), 1: F(1)}, "<=", F(1))])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 1


def test_bundle_lp_of_gap_instance_solves_to_eleven_fifths():
    from avalloc.generators import gen_integrality_gap
    from avalloc.lp_models import build_bundle_lp

    lp = build_bundle_lp(gen_integrality_gap(3, Fraction(1, 10)))
    sol = solve_lp(lp, tolerance=1e-9)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == Fraction(11, 5)


def test_infeasible():
    lp = LinearProgram(
        objective=[F(1)], rows=[({0: F(1)}, ">=", F(2)), ({0: F(1)}, "<=", F(1))]
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram(objective=[F(1)], rows=[({0: F(-1)}, "<=", F(1))])
    assert solve_lp(lp).status == UNBOUNDED


def test_equality_and_negative_rhs():
    # x + y == 2, -x <= -1 (i.e. x >= 1), maximize y
    lp = LinearProgram(
        objective=[F(0), F(1)],
        rows=[({0: F(1), 1: F(1)}, "==", F(2)), ({0: F(-1)}, "<=", F(-1))],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 1
    assert sol.exact_values == [1, 1]


def test_upper_bounds():
    lp = LinearProgram(
        objective=[F(1), F(1)],
        rows=[({0: F(1), 1: F(1)}, "<=", F(10))],
        upper_bounds=[F(2), None],
    )
    sol = solve_lp(lp)
    assert sol.exact_objective == 10
    assert sol.exact_values[0] <= 2


def test_weak_duality_certificates():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    lp = LinearProgram(
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


def test_objective_scaling_preserves_argmax_face():
    lp = LinearProgram(
        objective=[F(1), F(2)],
        rows=[({0: F(1), 1: F(1)}, "<=", F(3)), ({1: F(1)}, "<=", F(2))],
    )
    base = solve_lp(lp)
    scaled = LinearProgram(
        objective=[3 * c for c in lp.objective],
        rows=lp.rows,
    )
    sol = solve_lp(scaled)
    assert sol.exact_objective == 3 * base.exact_objective
    # the unscaled vertex stays optimal under the scaled objective
    revalue = sum(3 * c * v for c, v in zip(lp.objective, base.exact_values))
    assert revalue == sol.exact_objective


def test_zero_variable_lp():
    lp = LinearProgram(objective=[], rows=[])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 0
    bad = LinearProgram(objective=[], rows=[({}, "<=", F(-1))])
    assert solve_lp(bad).status == INFEASIBLE


def test_solution_objective_matches_dot_product():
    lp = LinearProgram(
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
    lp = LinearProgram(objective=[1.0, 0.1], rows=[({0: 1.0, 1: 2.0}, "<=", 2.0)])
    assert lp.objective == [1, Fraction(1, 10)]
    assert lp.rows == [({0: 1, 1: 2}, "<=", 2)]
    sol = solve_lp(lp, tolerance=1e-9)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 2
    assert sol.exact_values == [2, 0]
    assert sol.objective == 2.0


def test_tolerance_must_be_positive():
    lp = LinearProgram(objective=[F(1)], rows=[({0: F(1)}, "<=", F(1))])
    with pytest.raises(ValueError):
        solve_lp(lp, tolerance=0)


def test_validation_of_dimensions():
    with pytest.raises(ValueError):
        LinearProgram(objective=[F(1)], rows=[({0: F(1), 1: F(2)}, "<=", F(1))])
    with pytest.raises(ValueError):
        LinearProgram(objective=[F(1)], rows=[({-1: F(1)}, "<=", F(1))])
    with pytest.raises(ValueError):
        LinearProgram(objective=[F(1)], rows=[({0: F(1)}, "<<", F(1))])
    with pytest.raises(ValueError):
        LinearProgram(objective=[F(1)], rows=[], upper_bounds=[F(1), F(2)])
    with pytest.raises(ValueError):
        LinearProgram(objective=[float("inf")], rows=[])
    with pytest.raises(ValueError):
        LinearProgram(objective=[F(1)], rows=[({0: float("nan")}, "<=", F(1))])


def test_rows_are_stored_sparse():
    lp = LinearProgram(
        objective=[F(1), F(1), F(1)],
        rows=[({2: F(1), 0: F(-1), 1: F(0)}, "<=", 0)],
    )
    row, rel, rhs = lp.rows[0]
    assert list(row.items()) == [(0, -1), (2, 1)]  # zeros dropped, columns in order
    assert rel == "<=" and rhs == 0


def test_lp_text_export():
    lp = LinearProgram(
        objective=[F(1), F(2)],
        rows=[({0: F(1), 1: F(1)}, "<=", F(3)), ({0: F(1), 1: F(-1)}, ">=", F(0))],
        upper_bounds=[F(1), None],
        names=["a", "b"],
    )
    text = lp_to_text(lp)
    assert text.startswith("Maximize")
    assert " obj: 1.0 a + 2.0 b" in text
    assert "Subject To" in text
    assert " c0: 1.0 a + 1.0 b <= 3.0" in text
    assert " c1: 1.0 a + -1.0 b >= 0.0" in text
    assert " 0 <= a <= 1.0" in text
    assert text.rstrip().endswith("End")


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
        lp = LinearProgram(objective=obj, rows=sparse, upper_bounds=ubs)
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
        elif sol.status == UNBOUNDED:
            assert ref.status == 3, case
        else:
            assert ref.status == 2, case


def test_redundant_equality_rows():
    lp = LinearProgram(
        objective=[F(1), F(0)],
        rows=[({0: F(1), 1: F(1)}, "==", F(1)), ({0: F(2), 1: F(2)}, "==", F(2))],
    )
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == 1


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
    lp = LinearProgram(objective=[F(1)] * n, rows=rows)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.exact_objective == n
