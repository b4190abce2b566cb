"""Generic linear programs and a self-contained simplex solver.

Maximization LPs over nonnegative variables with optional upper bounds and
rows of the form  a.x {<=,==,>=} b, each row stored sparse as its nonzero
coefficients.  The solver runs a two-phase tableau simplex in floating
point (largest-coefficient pivoting, switching to Bland's rule after
10*(rows+cols) iterations to break cycles) and re-derives the final vertex
with a revised simplex over Fractions.  The exact layer certifies
optimality through exact reduced costs and repairs the rare case where the
float run stopped one degenerate pivot short, so callers can assert
objectives like 11/5 exactly.

The tableau is held in one float array, but a pivot updates only the block
of rows with a nonzero in the pivot column and columns with a nonzero in
the pivot row, so its cost follows the tableau's fill-in rather than its
size; the exact layer eliminates sparse Fraction rows in Markowitz order.
The bundle LP of 32 items and 8 buyers (1271 variables, 1303 rows) solves
in about a second; at 40 items (1973 variables, 2013 rows) fill-in leaves
the tableau about 20% dense and the solve takes about ten seconds.
``solve_lp`` is the seam to swap in an external solver.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import to_fraction
from .errors import NumericalFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELS = ("<=", "==", ">=")

# the float phase's pivot tolerance: reduced costs above -PIVOT_TOL count as
# optimal and ratio-test entries below PIVOT_TOL as zero
PIVOT_TOL = 1e-9


@dataclass
class LinearProgram:
    """objective: coefficients to maximize; rows: (coeffs, rel, rhs) with
    coeffs a {column: coefficient} mapping; upper_bounds: optional
    per-variable caps (None entries = unbounded); var_keys: opaque builder
    metadata identifying each column.

    Every number is converted with ``to_fraction``, so floats are read as
    the decimals they print as.  Each stored row keeps only its nonzero
    coefficients, in increasing column order.
    """

    objective: list
    rows: list
    upper_bounds: list | None = None
    names: list | None = None
    var_keys: list | None = None

    def __post_init__(self):
        n = len(self.objective)
        self.objective = [to_fraction(c) for c in self.objective]
        rows = []
        for coeffs, rel, rhs in self.rows:
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            row = {}
            for k, a in sorted(coeffs.items()):
                if not isinstance(k, int) or not 0 <= k < n:
                    raise ValueError(f"column {k} out of range for {n} variables")
                a = to_fraction(a)
                if a:
                    row[k] = a
            rows.append((row, rel, to_fraction(rhs)))
        self.rows = rows
        if self.upper_bounds is not None:
            if len(self.upper_bounds) != n:
                raise ValueError("upper bound vector has wrong length")
            self.upper_bounds = [
                None if u is None else to_fraction(u) for u in self.upper_bounds
            ]
        if self.names is None:
            self.names = [f"x{k}" for k in range(n)]

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass
class LpSolution:
    status: str
    values: list = field(default_factory=list)
    objective: float = 0.0
    exact_values: list | None = None
    exact_objective: Fraction | None = None
    basis: list | None = None
    iterations: int = 0

    def value_map(self, lp: LinearProgram) -> dict:
        """Map var_keys to the exact solution values."""
        if lp.var_keys is None:
            raise ValueError("LP carries no variable keys")
        return dict(zip(lp.var_keys, self.exact_values))


# ---------------------------------------------------------------------------
# standard form


def _standard_form(lp: LinearProgram):
    """Rows (incl. upper-bound rows) normalized to b >= 0, slack/surplus
    columns appended, then one artificial column per >=/== row.  Returns
    the float tableau (its last row left for the objective, its last column
    holding b) with its starting basis, the artificial columns, and the
    exact sparse columns and rhs used by the rational layer."""
    n = lp.n_vars
    rows = list(lp.rows)
    if lp.upper_bounds is not None:
        for k, u in enumerate(lp.upper_bounds):
            if u is not None:
                rows.append(({k: Fraction(1)}, "<=", u))
    norm = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs = {k: -a for k, a in coeffs.items()}
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((coeffs, rel, rhs))
    m = len(norm)
    ncols = n + sum(1 for _c, rel, _b in norm if rel != "==")
    n_art = sum(1 for _c, rel, _b in norm if rel != "<=")
    T = np.zeros((m + 1, ncols + n_art + 1))
    cols_exact = [dict() for _ in range(ncols)]
    b_exact = []
    basis = [None] * m
    art_cols = set()
    slack_col = n
    for r, (coeffs, rel, rhs) in enumerate(norm):
        for k, a in coeffs.items():
            T[r, k] = float(a)
            cols_exact[k][r] = a
        T[r, -1] = float(rhs)
        b_exact.append(rhs)
        if rel != "==":
            sign = 1 if rel == "<=" else -1
            T[r, slack_col] = sign
            cols_exact[slack_col][r] = Fraction(sign)
            if rel == "<=":
                basis[r] = slack_col
            slack_col += 1
        if rel != "<=":
            col = ncols + len(art_cols)
            T[r, col] = 1.0
            basis[r] = col
            art_cols.add(col)
    return T, basis, art_cols, cols_exact, b_exact, ncols


def _pivot(T, basis, row, col):
    """Pivot on T[row, col], updating only the rows with a nonzero in the
    pivot column and the columns with a nonzero in the pivot row.  Every
    skipped entry would have had f*0 or 0*r subtracted, so the stored values
    equal those of a full rank-one update up to the sign of a zero, which
    no comparison in the solver sees."""
    T[row] /= T[row, col]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(T[row])
    T[np.ix_(rows, cols)] -= np.outer(T[rows, col], T[row, cols])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _obj_row(T, basis, c):
    """Bottom row holding z_j - c_j, with z itself in the rhs slot."""
    r = np.zeros(T.shape[1])
    r[: len(c)] = -c
    for i, bcol in enumerate(basis):
        cb = c[bcol]
        if cb != 0.0:
            r += cb * T[i]
    return r


def _simplex_phase(T, basis, barred, tol, max_iter, bland_after, start_iter=0):
    """Dantzig's rule (most negative reduced cost, lowest column on ties)
    until ``bland_after`` pivots, then Bland's rule; the ratio test breaks
    ties on the lowest basic column."""
    m = T.shape[0] - 1
    barred = np.fromiter(barred, dtype=np.intp)
    it = start_iter
    while True:
        obj = T[-1, :-1].copy()
        obj[barred] = np.inf
        candidates = np.flatnonzero(obj < -tol)
        if not candidates.size:
            return OPTIMAL, it
        if it - start_iter >= bland_after:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(obj[candidates])])
        rows = np.flatnonzero(T[:m, col] > tol)
        if not rows.size:
            return UNBOUNDED, it
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios == ratios.min()]
        row = int(min(ties, key=lambda i: basis[i]))
        _pivot(T, basis, row, col)
        it += 1
        if it - start_iter > max_iter:
            raise NumericalFailure("pivot limit exceeded")


def _float_solve(lp: LinearProgram):
    T, basis, art_cols, cols_exact, b_exact, ncols = _standard_form(lp)
    n = lp.n_vars
    m = T.shape[0] - 1
    total = T.shape[1] - 1
    bland_after = 10 * (m + total)
    max_iter = max(2000, 60 * (m + total))
    iters = 0

    if art_cols:
        c1 = np.zeros(total)
        for col in art_cols:
            c1[col] = -1.0
        T[-1] = _obj_row(T, basis, c1)
        status, iters = _simplex_phase(T, basis, set(), PIVOT_TOL, max_iter, bland_after)
        if status != OPTIMAL:
            raise NumericalFailure("phase 1 did not terminate at an optimum")
        if -T[-1, -1] > 1e-7:
            return INFEASIBLE, basis, iters, cols_exact, b_exact, ncols
        for i in range(m):
            if basis[i] in art_cols and T[i, -1] <= 1e-9:
                for j in range(ncols):
                    if j not in art_cols and abs(T[i, j]) > 1e-8:
                        _pivot(T, basis, i, j)
                        break

    c2 = np.zeros(total)
    for k in range(n):
        c2[k] = float(lp.objective[k])
    T[-1] = _obj_row(T, basis, c2)
    status, iters = _simplex_phase(
        T, basis, art_cols, PIVOT_TOL, max_iter, bland_after, start_iter=iters
    )
    if status == UNBOUNDED:
        return UNBOUNDED, basis, iters, cols_exact, b_exact, ncols
    return OPTIMAL, basis, iters, cols_exact, b_exact, ncols


# ---------------------------------------------------------------------------
# exact layer: sparse Gaussian elimination and revised simplex on Fractions


def _solve_sparse(cols, rhs):
    """Solve B x = rhs, B given column-wise as {row: Fraction} dicts.
    Markowitz-style pivoting keeps slack-heavy bases cheap: each step
    eliminates the active column with the fewest rows (lowest index on
    ties), found through a lazy heap of (row count, column) entries.
    Returns None when B is singular."""
    m = len(rhs)
    rows = [dict() for _ in range(m)]
    for k, col in enumerate(cols):
        for r, v in col.items():
            if v:
                rows[r][k] = v
    b = list(rhs)
    col_rows = [set() for _ in range(m)]
    for r in range(m):
        for k in rows[r]:
            col_rows[k].add(r)
    active = [True] * m
    heap = [(len(col_rows[c]), c) for c in range(m)]
    heapq.heapify(heap)
    elim = []
    while heap:
        count, k = heapq.heappop(heap)
        if not active[k] or count != len(col_rows[k]):
            continue
        if not count:
            return None
        r = min(col_rows[k], key=lambda rr: (len(rows[rr]), rr))
        piv = rows[r][k]
        elim.append((r, k))
        active[k] = False
        for kk in rows[r]:
            col_rows[kk].discard(r)
        for rr in list(col_rows[k]):
            f = rows[rr][k] / piv
            target = rows[rr]
            for kk, v in rows[r].items():
                if kk == k:
                    continue
                old = target.get(kk)
                nv = (old - f * v) if old is not None else (-f * v)
                if nv:
                    target[kk] = nv
                    if old is None:
                        col_rows[kk].add(rr)
                else:
                    if old is not None:
                        del target[kk]
                        col_rows[kk].discard(rr)
            del target[k]
            col_rows[k].discard(rr)
            if f:
                b[rr] -= f * b[r]
        # only the columns of the pivot row changed their row sets
        for kk in rows[r]:
            if active[kk]:
                heapq.heappush(heap, (len(col_rows[kk]), kk))
    x = [Fraction(0)] * m
    for r, k in reversed(elim):
        s = b[r]
        for kk, v in rows[r].items():
            if kk != k:
                s -= v * x[kk]
        x[k] = s / rows[r][k]
    return x


def _transpose_cols(bcols, m):
    t = [dict() for _ in range(m)]
    for pos, col in enumerate(bcols):
        for r, v in col.items():
            t[r][pos] = v
    return t


def _exact_revised_simplex(cols, b, c, basis, barred, max_pivots=2000):
    """Exact revised simplex with Bland's rule from a starting basis.

    Returns (status, basis, x_basic) where x_basic aligns with basis rows;
    status may also be 'singular' or 'infeasible-basis' when the starting
    basis is unusable."""
    m = len(b)
    basis = list(basis)
    for _ in range(max_pivots):
        bcols = [cols[j] for j in basis]
        xB = _solve_sparse(bcols, b)
        if xB is None:
            return "singular", basis, None
        if any(v < 0 for v in xB):
            return "infeasible-basis", basis, None
        cB = [c[j] for j in basis]
        y = _solve_sparse(_transpose_cols(bcols, m), cB)
        if y is None:
            return "singular", basis, None
        entering = None
        in_basis = set(basis)
        for j in range(len(cols)):
            if j in in_basis or j in barred:
                continue
            rj = c[j] - sum(y[r] * v for r, v in cols[j].items())
            if rj > 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL, basis, xB
        d = _solve_sparse(bcols, _col_dense(cols[entering], m))
        if d is None:
            return "singular", basis, None
        best = None
        for i in range(m):
            if d[i] > 0:
                key = (xB[i] / d[i], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED, basis, None
        basis[best[1]] = entering
    raise NumericalFailure("exact pivot limit exceeded")


def _col_dense(col, m):
    out = [Fraction(0)] * m
    for r, v in col.items():
        out[r] = v
    return out


def _exact_from_scratch(cols, b, c, barred):
    """Exact two-phase solve: artificial columns appended, driven out, then
    the real objective optimized with artificials barred."""
    m = len(b)
    total = len(cols)
    c1 = [Fraction(0)] * total
    basis = []
    for r in range(m):
        cols.append({r: Fraction(1)})
        c1.append(Fraction(-1))
        basis.append(total + r)
    c_full = list(c) + [Fraction(0)] * m
    status, basis, xB = _exact_revised_simplex(
        cols, b, c1, basis, barred=set(barred), max_pivots=5000
    )
    if status != OPTIMAL:
        raise NumericalFailure(f"exact phase 1 failed: {status}")
    art_cols = set(range(total, total + m))
    if any(xB[i] > 0 and basis[i] in art_cols for i in range(m)):
        return INFEASIBLE, basis, None
    status, basis, xB = _exact_revised_simplex(
        cols, b, c_full, basis, barred=set(barred) | art_cols, max_pivots=5000
    )
    if status == UNBOUNDED:
        return UNBOUNDED, basis, None
    if status != OPTIMAL:
        raise NumericalFailure(f"exact phase 2 failed: {status}")
    return OPTIMAL, basis, xB


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a maximization LP.

    The float phase pivots with tolerance ``PIVOT_TOL``; its final vertex is
    re-derived and certified exactly, populating ``exact_values`` and
    ``exact_objective``.
    """
    n = lp.n_vars
    status, basis, iters, cols_exact, b_exact, ncols = _float_solve(lp)
    if status in (INFEASIBLE, UNBOUNDED):
        return LpSolution(status=status, iterations=iters)

    c_exact = lp.objective + [Fraction(0)] * (ncols - n)
    st = "restart"
    eb = xB = None
    if all(col is not None and col < ncols for col in basis):
        st, eb, xB = _exact_revised_simplex(
            [dict(c) for c in cols_exact], b_exact, c_exact, basis, barred=set()
        )
    if st in ("singular", "infeasible-basis", "restart"):
        st, eb, xB = _exact_from_scratch(
            [dict(c) for c in cols_exact], b_exact, c_exact, barred=set()
        )
    if st in (INFEASIBLE, UNBOUNDED):
        return LpSolution(status=st, iterations=iters)
    if st != OPTIMAL:
        raise NumericalFailure(f"exact layer failed: {st}")
    full = [Fraction(0)] * (max(eb) + 1 if eb else 0)
    for i, col in enumerate(eb):
        full[col] = xB[i]
    exact_values = (full + [Fraction(0)] * n)[:n]
    exact_obj = sum((c * v for c, v in zip(lp.objective, exact_values)), Fraction(0))
    _verify_exact(lp, exact_values)
    return LpSolution(
        status=OPTIMAL,
        values=[float(v) for v in exact_values],
        objective=float(exact_obj),
        exact_values=exact_values,
        exact_objective=exact_obj,
        basis=list(eb),
        iterations=iters,
    )


def _verify_exact(lp, xs):
    for k, v in enumerate(xs):
        if v < 0:
            raise NumericalFailure("exact vertex has a negative coordinate")
        if lp.upper_bounds is not None and lp.upper_bounds[k] is not None:
            if v > lp.upper_bounds[k]:
                raise NumericalFailure("exact vertex violates an upper bound")
    for coeffs, rel, rhs in lp.rows:
        lhs = sum((a * xs[k] for k, a in coeffs.items()), Fraction(0))
        if (
            (rel == "<=" and lhs > rhs)
            or (rel == ">=" and lhs < rhs)
            or (rel == "==" and lhs != rhs)
        ):
            raise NumericalFailure("exact vertex violates a row")


def lp_to_text(lp: LinearProgram) -> str:
    """Render the LP in CPLEX-style text (grammar documented in the README)."""

    def num(v):
        return repr(float(v))

    out = ["Maximize"]
    terms = " + ".join(
        f"{num(c)} {lp.names[k]}" for k, c in enumerate(lp.objective) if float(c) != 0
    )
    out.append(f" obj: {terms if terms else '0'}")
    out.append("Subject To")
    relmap = {"<=": "<=", ">=": ">=", "==": "="}
    for r, (coeffs, rel, rhs) in enumerate(lp.rows):
        terms = " + ".join(
            f"{num(a)} {lp.names[k]}" for k, a in coeffs.items() if float(a) != 0
        )
        out.append(f" c{r}: {terms if terms else '0'} {relmap[rel]} {num(rhs)}")
    out.append("Bounds")
    for k in range(lp.n_vars):
        ub = None if lp.upper_bounds is None else lp.upper_bounds[k]
        if ub is None:
            out.append(f" 0 <= {lp.names[k]}")
        else:
            out.append(f" 0 <= {lp.names[k]} <= {num(ub)}")
    out.append("End")
    return "\n".join(out) + "\n"
