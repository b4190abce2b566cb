"""Generic linear programs and a self-contained simplex solver.

Maximization LPs over nonnegative variables with optional upper bounds and
rows of the form  a.x {<=,==,>=} b, each row stored sparse as its nonzero
coefficients.  The solver runs a two-phase tableau simplex in floating
point (largest-coefficient pivoting, switching to Bland's rule after
10*(rows+cols) iterations to break cycles) and re-derives the final vertex
with an exact revised simplex.  The exact layer certifies optimality
through exact reduced costs and repairs the rare case where the float run
stopped one degenerate pivot short, so callers can assert objectives like
11/5 exactly; the vertex is then checked against the LP's own rows.

The tableau is held in one float array, but a pivot updates only the block
of rows with a nonzero in the pivot column and columns with a nonzero in
the pivot row, so its cost follows the tableau's fill-in rather than its
size.  It gathers and scatters that block through flat indices into the
tableau, at most ``_PIVOT_BLOCK`` entries at a time.  The exact layer works
on the standard form with each row multiplied by the lcm of its
denominators, so its columns and rhs are Python ints.  It eliminates sparse
rows in Markowitz order with Fraction divisions, prices reduced costs in
ints with y over one common denominator, and the final check reads each
row of the LP in ints.  The bundle LP of 32 items and 8 buyers (1271
variables, 1303 rows) solves in about half a second; at 40 items (1973
variables, 2013 rows) fill-in leaves the tableau about 20% dense and the
solve takes about five seconds.  ``solve_lp`` is the seam to swap in an
external solver.
"""

from __future__ import annotations

import heapq
import math
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

# tableau entries per chunk of a pivot's block update; a chunk spans
# max(1, _PIVOT_BLOCK // block width) rows, which bounds its temporaries
_PIVOT_BLOCK = 1 << 16


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


def _common_denominator(values):
    """(ints, den) with values[i] == ints[i] / den, den the lcm of the
    values' denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _standard_form(lp: LinearProgram):
    """Rows (incl. upper-bound rows) normalized to b >= 0, slack/surplus
    columns appended, then one artificial column per >=/== row.  Returns
    the float tableau (its last row left for the objective, its last column
    holding b) with its starting basis, the artificial columns, and the
    exact sparse columns, rhs and row scales used by the rational layer.

    The exact layer multiplies each normalized row, its slack included, by
    the lcm of the row's denominators, so its columns and rhs hold Python
    ints.  Scaling rows leaves every basic solution, direction and reduced
    cost as it was and divides the row's dual by its scale.  The float
    tableau holds the unscaled coefficients."""
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
    width = ncols + n_art + 1
    cols_exact = [dict() for _ in range(ncols)]
    b_exact = []
    scales = []
    basis = [None] * m
    art_cols = set()
    # the float tableau's nonzeros, written by one assignment at the end
    t_rows, t_cols, t_vals = [], [], []
    slack_col = n
    for r, (coeffs, rel, rhs) in enumerate(norm):
        ints, scale = _common_denominator([*coeffs.values(), rhs])
        scales.append(scale)
        # a_int / scale is the correctly rounded a, as float(a) is
        t_rows += [r] * len(ints)
        t_cols += [*coeffs, width - 1]
        t_vals += [a_int / scale for a_int in ints]
        for k, a_int in zip(coeffs, ints):
            cols_exact[k][r] = a_int
        b_exact.append(ints[-1])
        if rel != "==":
            sign = 1 if rel == "<=" else -1
            t_rows.append(r)
            t_cols.append(slack_col)
            t_vals.append(sign)
            cols_exact[slack_col][r] = sign * scale
            if rel == "<=":
                basis[r] = slack_col
            slack_col += 1
        if rel != "<=":
            col = ncols + len(art_cols)
            t_rows.append(r)
            t_cols.append(col)
            t_vals.append(1.0)
            basis[r] = col
            art_cols.add(col)
    T = np.zeros((m + 1, width))
    T[t_rows, t_cols] = t_vals
    return T, basis, art_cols, cols_exact, b_exact, scales, ncols


def _pivot(T, basis, row, col):
    """Pivot on T[row, col] (T C-contiguous), updating only the rows with
    a nonzero in the pivot column and the columns with a nonzero in the
    pivot row.  Every skipped entry would have had f*0 or 0*r subtracted,
    so the stored values equal those of a full rank-one update up to the
    sign of a zero, which no comparison in the solver sees.  The block is
    gathered and scattered through flat indices into T, a chunk of rows
    at a time; each entry x becomes x - f*r as in the full update."""
    T[row] /= T[row, col]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    cols = np.flatnonzero(T[row])
    r = T[row, cols]
    flat = T.reshape(-1)
    step = max(1, _PIVOT_BLOCK // max(cols.size, 1))
    for start in range(0, rows.size, step):
        part = rows[start:start + step]
        idx = (part * T.shape[1])[:, None] + cols
        flat[idx] -= T[part, col][:, None] * r
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
    T, basis, art_cols, cols_exact, b_exact, scales, ncols = _standard_form(lp)
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
            return INFEASIBLE, basis, iters, cols_exact, b_exact, scales, ncols
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
        return UNBOUNDED, basis, iters, cols_exact, b_exact, scales, ncols
    return OPTIMAL, basis, iters, cols_exact, b_exact, scales, ncols


# ---------------------------------------------------------------------------
# exact layer: sparse Gaussian elimination and revised simplex over ints and
# Fractions


def _solve_sparse(cols, rhs):
    """Solve B x = rhs, B given column-wise as {row: int or Fraction} dicts.
    Markowitz-style pivoting keeps slack-heavy bases cheap: each step
    eliminates the active column with the fewest rows (lowest index on
    ties), found through a lazy heap of (row count, column) entries.
    Every division is a Fraction division, so x holds only Fractions even
    when B and rhs hold ints.  Returns None when B is singular."""
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
            f = Fraction(rows[rr][k], piv)
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
        x[k] = Fraction(s, rows[r][k])
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
        # y = Y / den; c_j - y.a_j > 0 iff c_j's numerator * den exceeds
        # c_j's denominator * Y.a_j, all in ints for int columns
        Y, den = _common_denominator(y)
        entering = None
        in_basis = set(basis)
        for j, col in enumerate(cols):
            if j in in_basis or j in barred:
                continue
            cj = c[j]
            if cj.numerator * den > cj.denominator * sum(Y[r] * v for r, v in col.items()):
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
    out = [0] * m
    for r, v in col.items():
        out[r] = v
    return out


def _exact_from_scratch(cols, b, scales, c, barred):
    """Exact two-phase solve: artificial columns appended to a copy of
    ``cols``, driven out, then the real objective optimized with artificials
    barred.  Row r's artificial has coefficient scales[r], which is 1 in
    the unscaled row."""
    m = len(b)
    cols = list(cols)
    total = len(cols)
    c1 = [Fraction(0)] * total
    basis = []
    for r in range(m):
        cols.append({r: scales[r]})
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
    status, basis, iters, cols_exact, b_exact, scales, ncols = _float_solve(lp)
    if status in (INFEASIBLE, UNBOUNDED):
        return LpSolution(status=status, iterations=iters)

    c_exact = lp.objective + [Fraction(0)] * (ncols - n)
    st = "restart"
    eb = xB = None
    if all(col is not None and col < ncols for col in basis):
        st, eb, xB = _exact_revised_simplex(cols_exact, b_exact, c_exact, basis, barred=set())
    if st in ("singular", "infeasible-basis", "restart"):
        st, eb, xB = _exact_from_scratch(cols_exact, b_exact, scales, c_exact, barred=set())
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
    """Check x >= 0, the upper bounds and every row of ``lp`` itself, never
    the standard form the vertex came from.  Rows are checked in ints: x
    over one common denominator, each row times the lcm of its own
    denominators."""
    for k, v in enumerate(xs):
        if v < 0:
            raise NumericalFailure("exact vertex has a negative coordinate")
        if lp.upper_bounds is not None and lp.upper_bounds[k] is not None:
            if v > lp.upper_bounds[k]:
                raise NumericalFailure("exact vertex violates an upper bound")
    X, den = _common_denominator(xs)
    for coeffs, rel, rhs in lp.rows:
        ints, _scale = _common_denominator([*coeffs.values(), rhs])
        lhs = sum(a * X[k] for k, a in zip(coeffs, ints))
        rhs = ints[-1] * den
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
