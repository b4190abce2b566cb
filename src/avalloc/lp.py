"""Packing linear programs and a self-contained, certified simplex solver.

Maximization LPs over nonnegative variables with optional upper bounds
u >= 0 and rows a.x <= b with b >= 0.  A row is stored once, as ints over
a positive scale: (cols, ints, rhs, scale) reads sum ints[t]/scale *
x[cols[t]] <= rhs/scale, its nonzeros only, the builders' rows in their
instance's scaled integers.  Every relaxation of the toolkit has this
packing form, so x = 0 is feasible and the slack basis starts every
simplex.  A row may be owned by a column (``LinearProgram.row_owner``):
its only positive coefficient is on its owner, so that the owner at 0
satisfies it.  The bundle builders own each membership row
x_ijp <= cap * x_pjp by its member x_ijp.

The float phase is a tableau simplex (largest-coefficient pivoting with
Harris's ratio test, then Bland's rule with the textbook one after
10*(rows+cols) pivots) run by delayed column generation (Gilmore &
Gomory, OR 1961).  It starts from the slack basis
over the columns that own no row and every unowned row.  At each optimum
it prices every absent column at once, c - A^T y in numpy with y read off
the objective row at the slack columns, and admits the best ``_CG_BATCH``
of each row with b > 0 (the item rows) and overall, with the rows they
own.  The rounds are warm: a column enters as B^-1 a, with B^-1 read off
the slack columns, and a row enters with its slack basic once the basic
columns are eliminated from it, so the simplex goes on from the same
basis.  An LP that owns no rows takes one round over all of its columns.

When no column prices in, the restricted basis plus the slacks of the rows
never admitted is a basis of the full LP.  An exact revised simplex
re-derives it and prices every column of the full LP, pivoting on any the
floats missed; should the float basis be singular or infeasible in exact
arithmetic, the exact simplex starts over from the slack basis instead.
The y of its last iteration gives exact duals.  The vertex and the duals
are then checked against the LP's own rows: x feasible, y >= 0,
A^T y >= c on every column and b.y == c.x (the float-then-verify scheme
of Applegate, Cook, Dash & Espinoza, ORL 2007), so an optimum like 11/5 is
proven, not trusted.

A pivot updates only the block of rows with a nonzero in the pivot column
and columns with a nonzero in the pivot row, a few entries, so it costs
what its numpy calls cost: one argmin (Dantzig) or first True (Bland)
enters a column, a lone eligible row leaves without ratio arithmetic, and
one copy of the pivot column gives the rows to update and their factors;
the block goes through flat indices, ``_PIVOT_BLOCK`` entries at a time.

The exact layer works on the stored ints, each row times its scale, so
its columns and rhs are Python ints.  Each iteration peels the basis
first: a column with one nonzero (a slack, a one-entry structural) claims
the row of that nonzero, and only the kernel, the other columns over the
unclaimed rows, is eliminated, sparse and in Markowitz order with Fraction
divisions (the bump of Suhl & Suhl, ORSA J. Computing 1990).  A claimed
row's value and dual then take one division each, so the work follows the
structural part of the basis and not the row count.  Pricing sums A^T y
in ints over the rows whose dual is nonzero, each the LP's stored row and
its slack, with y over one common denominator.

On a 2-core Xeon the bundle LP of 32 items and 8 buyers (1271 columns,
1303 rows) solves in about 0.03 s of CPU over 143 pivots in 12 rounds, on
a tableau of at most 270 x 507 entries; at 64 items (4934 columns) in
0.2 s, and 0.33 s at P-edge density 0.2 (3797 columns, fractional).

No step calls BLAS.  ``solve_lp`` is the seam to swap in an external
solver.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import to_fraction
from .errors import NumericalFailure, PivotLimit

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

# the float phase's pivot tolerance: reduced costs above -PIVOT_TOL count as
# optimal and ratio-test entries below PIVOT_TOL as zero
PIVOT_TOL = 1e-9

# tableau entries per chunk of a pivot's block update; a chunk spans
# max(1, _PIVOT_BLOCK // block width) rows, which bounds its temporaries
_PIVOT_BLOCK = 1 << 16

# columns each pricing round admits per priced row, and overall
_CG_BATCH = 4


@dataclass
class LinearProgram:
    """objective: coefficients to maximize; int_rows: one (cols, ints, rhs,
    scale) per row, sum ints[t]/scale * x[cols[t]] <= rhs/scale, with cols
    strictly increasing, ints nonzero and rhs >= 0, all Python ints, and
    scale > 0; upper_bounds: optional per-variable caps >= 0 (None =
    unbounded); var_keys: optional builder metadata, a tuple per column,
    which also names it in lp_to_text; row_owner: optional per-row owning
    column (None = unowned).  Any other row or cap raises ValueError, so
    x = 0 is always feasible.  A column that owns a row is left out of the
    solve, with its rows, until pricing admits it, so an owned row's only
    positive coefficient is on its owner: x_owner = 0 then satisfies it.
    The objective and the caps go through ``to_fraction``; ``from_rows``
    converts rows of numbers.
    """

    objective: list
    int_rows: list
    upper_bounds: list | None = None
    var_keys: list | None = None
    row_owner: list | None = None

    def __post_init__(self):
        n = len(self.objective)
        self.objective = [to_fraction(c) for c in self.objective]
        for r, (cols, ints, rhs, scale) in enumerate(self.int_rows):
            if rhs < 0 or scale <= 0:
                raise ValueError(f"row {r} has rhs {rhs} over scale {scale}; a packing LP "
                                 "takes only rhs >= 0 over a positive scale")
            if len(ints) != len(cols) or 0 in ints:
                raise ValueError(f"row {r} needs one nonzero coefficient per column")
            if cols and not (0 <= cols[0] and cols[-1] < n
                             and all(map(operator.lt, cols, cols[1:]))):
                raise ValueError(f"row {r}: columns {cols} are not increasing "
                                 f"in range for {n} variables")
        if self.upper_bounds is not None:
            if len(self.upper_bounds) != n:
                raise ValueError("upper bound vector has wrong length")
            self.upper_bounds = [None if u is None else to_fraction(u) for u in self.upper_bounds]
            if any(u is not None and u < 0 for u in self.upper_bounds):
                raise ValueError("a packing LP takes only upper bounds >= 0")
        if self.row_owner is not None:
            if len(self.row_owner) != len(self.int_rows):
                raise ValueError("row owner vector has wrong length")
            for r, (k, (cols, ints, *_)) in enumerate(zip(self.row_owner, self.int_rows)):
                if k is None:
                    continue
                if not isinstance(k, int) or not 0 <= k < n:
                    raise ValueError(f"row {r} owned by column {k}, out of range for {n} variables")
                # the owner's coefficient is the one positive int
                if k not in cols or ints[cols.index(k)] < 0 or sum(map((0).__lt__, ints)) != 1:
                    raise ValueError(f"row {r} is not satisfied by x{k} = 0, so column {k} "
                                     "cannot own it")

    @classmethod
    def from_rows(cls, objective, rows, upper_bounds=None, var_keys=None, row_owner=None):
        """The LP of rows (coeffs, "<=", rhs), coeffs a {column: number}
        mapping.  Every number is converted with ``to_fraction``, so floats
        are read as the decimals they print as, and each row is stored over
        the lcm of its denominators, zeros dropped and columns sorted."""
        int_rows = []
        for r, (coeffs, rel, rhs) in enumerate(rows):
            if rel != "<=" or not all(isinstance(k, int) for k in coeffs):
                raise ValueError(f"row {r} is {rel} over columns {list(coeffs)}; a packing "
                                 "LP takes only <= rows over int columns")
            terms = [(k, a) for k, a in sorted((k, to_fraction(a)) for k, a in coeffs.items())
                     if a]
            ints, scale = _common_denominator([*(a for _k, a in terms), to_fraction(rhs)])
            int_rows.append((tuple(k for k, _a in terms), tuple(ints[:-1]), ints[-1], scale))
        return cls(objective, int_rows, upper_bounds, var_keys, row_owner)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.int_rows)

    @cached_property
    def rows(self) -> list:
        """int_rows as (coeffs, "<=", rhs), coeffs a {column: Fraction} dict
        in column order: a view for readers, which the solver never builds."""
        return [({k: Fraction(a, scale) for k, a in zip(cols, ints)}, "<=", Fraction(rhs, scale))
                for cols, ints, rhs, scale in self.int_rows]

    def rows_with_bounds(self) -> list:
        """int_rows, then one row x_k <= u per upper bound u, in column
        order, in the same stored form."""
        return self.int_rows + [((k,), (u.denominator,), u.numerator, u.denominator)
                                for k, u in enumerate(self.upper_bounds or []) if u is not None]


@dataclass
class LpSolution:
    status: str
    exact_values: list | None = None
    exact_objective: Fraction | None = None
    # one per row of the LP, then one per upper bound in column order
    exact_duals: list | None = None
    basis: list | None = None
    iterations: int = 0
    # restricted LPs solved, and columns admitted by pricing
    rounds: int = 0
    columns: int = 0
    # pivots of the exact layer after the float phase, a restart's included,
    # and whether the float basis was dropped for the slack basis
    exact_pivots: int = 0
    restarted: bool = False


# ---------------------------------------------------------------------------
# standard form


class _StandardForm(NamedTuple):
    """The LP's rows, then one row per upper bound, each with its slack:
    row r's slack is column n + r.  The exact half holds each row times its
    stored scale (``scales[r]``): sparse int columns, structural then slack
    (``ncols`` in all), and the int rhs; ``int_rows`` are the same rows
    as the LP stores them, slacks left out.  The float half holds the
    structural nonzeros as (row, column, value) arrays and the rhs.
    ``slack[r]`` is row r's slack column, ``owner[r]`` the column that owns
    row r, or -1, and ``priced`` marks the unowned rows with b > 0, the rows
    each pricing round draws from."""

    entries: tuple
    int_rows: list
    cols_exact: list
    b_exact: list
    scales: list
    ncols: int
    rhs: np.ndarray
    slack: np.ndarray
    owner: np.ndarray
    priced: np.ndarray


def _common_denominator(values):
    """(ints, den) with values[i] == ints[i] / den, den the lcm of the
    values' denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _standard_form(lp: LinearProgram) -> _StandardForm:
    """The standard form of ``lp``, over all of its columns, read off its
    stored rows; its lists are new, never the LP's own.

    Scaling rows leaves every basic solution, direction and reduced cost
    as it was and divides the row's dual by its scale.  Each float entry is
    ``a_int / scale``, an int true division, so the correctly rounded
    unscaled coefficient, as ``float(a)`` is."""
    n = lp.n_vars
    rows = lp.rows_with_bounds()
    m = len(rows)
    owner = list(lp.row_owner or [None] * lp.n_rows) + [None] * (m - lp.n_rows)
    cols, ints, b_exact, scales = (list(t) for t in zip(*rows)) if rows else ([],) * 4
    cols_exact = [dict() for _ in range(n)]
    for r, (row_cols, row_ints) in enumerate(zip(cols, ints)):
        for k, a in zip(row_cols, row_ints):
            cols_exact[k][r] = a
    rhs = np.array([b / scale for b, scale in zip(b_exact, scales)], dtype=float)
    entries = (np.repeat(np.arange(m, dtype=np.intp), list(map(len, cols))),
               np.fromiter(chain.from_iterable(cols), np.intp),
               np.array([a / scale for row_ints, scale in zip(ints, scales) for a in row_ints],
                        dtype=float))
    owner = np.array([-1 if k is None else k for k in owner], dtype=np.intp)
    return _StandardForm(entries, rows,
                         cols_exact + [{r: scale} for r, scale in enumerate(scales)],
                         b_exact, scales, n + m, rhs, n + np.arange(m, dtype=np.intp), owner,
                         (rhs > 0) & (owner < 0))


def _pivot(T, basis, row, col):
    """Pivot on T[row, col] (T C-contiguous), updating only the rows with
    a nonzero in the pivot column and the columns with a nonzero in the
    pivot row.  Every skipped entry would have had f*0 or 0*r subtracted,
    so the stored values equal those of a full rank-one update up to the
    sign of a zero, which no comparison in the solver sees.  The factors f,
    one copy of the pivot column zeroed at the pivot row, also give the
    rows to update; each entry x of the block becomes x - f*r, a chunk of
    rows at a time, through flat indices into T."""
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    rows, = f.nonzero()
    cols, = T[row].nonzero()
    r = T[row, cols]
    flat = T.reshape(-1)
    step = max(1, _PIVOT_BLOCK // cols.size)
    for start in range(0, rows.size, step):
        part = rows[start:start + step]
        flat[(part * T.shape[1])[:, None] + cols] -= f[part][:, None] * r
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _simplex_phase(T, basis, tol, max_iter, bland_after, start_iter=0):
    """Dantzig's rule (most negative reduced cost, lowest column on ties)
    with Harris's ratio test (Math. Programming 1973) until ``bland_after``
    pivots, then Bland's rule with the textbook one, so that a cycle ends.
    Harris bounds the step by the least (max(b_i, 0) + tol) / a_i over the
    rows with a_i > tol, then pivots on the largest a_i among the rows with
    b_i / a_i within it, so a degenerate vertex yields a sizable pivot, not
    the tiny one at the least ratio.  Ties go to the lowest basic column.
    A lone eligible row is the pivot under either test."""
    m = T.shape[0] - 1
    it = start_iter
    obj = T[-1, :-1]
    while obj.size:
        bland = it - start_iter >= bland_after
        # Bland's column is the first True, Dantzig's the first minimum
        col = int((obj < -tol).argmax() if bland else obj.argmin())
        if not obj[col] < -tol:
            break
        rows, = (T[:m, col] > tol).nonzero()
        if not rows.size:
            return UNBOUNDED, it
        row = int(rows[0])
        if rows.size > 1:
            alpha, b = T[rows, col], T[rows, -1]
            ratios = b / alpha
            if bland:
                ties = rows[ratios == ratios.min()]
            else:
                near = ratios <= ((np.maximum(b, 0.0) + tol) / alpha).min()
                ties = rows[near][alpha[near] == alpha[near].max()]
            row = int(ties[0]) if ties.size == 1 else min(ties.tolist(), key=basis.__getitem__)
        _pivot(T, basis, row, col)
        it += 1
        if it - start_iter > max_iter:
            raise PivotLimit("pivot", it - start_iter, max_iter)
    return OPTIMAL, it


class _RestrictedTableau:
    """The float tableau of the standard form over a subset of its
    structural columns and the rows they leave present: every unowned row
    and the owned rows of the present columns.  Columns are the present
    structurals and the slacks of the present rows, in that order at the
    start, with the columns of each admission appended after them; b is the
    last column and the objective row of the costs ``c`` (over the standard
    form's columns) the last row.  ``rows`` and ``cols`` map each tableau
    row and column to its row and column in the full standard form, and
    ``units[i]`` is the slack that held row i's unit vector at the start,
    so ``T[:m, units]`` is the inverse of the current basis."""

    def __init__(self, form: _StandardForm, present, c):
        self.form, self.present, self.c = form, present, c
        self.iterations, self.rounds, self.columns = 0, 1, 0
        # an unowned row (owner -1) reads the True appended to present
        rows = np.flatnonzero(np.append(present, True)[form.owner])
        self.rows = rows
        self.row_pos = np.full(form.rhs.size, -1, dtype=np.intp)
        self.row_pos[rows] = np.arange(rows.size)
        self.cols = np.concatenate([np.flatnonzero(present), form.slack[rows]])
        self.col_pos = np.full(form.ncols, -1, dtype=np.intp)
        self.col_pos[self.cols] = np.arange(self.cols.size)
        m, width = rows.size, self.cols.size + 1
        T = np.zeros((m + 1, width))
        e_rows, e_cols, e_vals = form.entries
        keep = (self.row_pos[e_rows] >= 0) & present[e_cols]
        T[self.row_pos[e_rows[keep]], self.col_pos[e_cols[keep]]] = e_vals[keep]
        T[:m, -1] = form.rhs[rows]
        basis = list(range(width - 1 - m, width - 1))
        T[np.arange(m), basis] = 1.0
        T[-1, :-1] = -c[self.cols]  # z_j - c_j with every slack at cost 0
        self.T, self.basis, self.units = T, basis, list(basis)

    def duals(self):
        """y over the present rows, read off the objective row: the unit
        column of row i has reduced cost y_i - c."""
        units = np.array(self.units, dtype=np.intp)
        return self.T[-1, units] + self.c[self.cols[units]]

    def price(self):
        """The absent structural columns admitted this round: those with
        reduced cost c_j - y.a_j above ``PIVOT_TOL``, the best
        ``_CG_BATCH`` of each priced row and overall, ties to the lowest
        column."""
        form, present = self.form, self.present
        e_rows, e_cols, e_vals = form.entries
        y = np.zeros(form.rhs.size)  # absent rows have dual 0
        y[self.rows] = self.duals()
        n = present.size
        d = self.c[:n] - np.bincount(e_cols, weights=e_vals * y[e_rows], minlength=n)
        cand = ~present & (d > PIVOT_TOL)
        best = np.flatnonzero(cand)
        admit = np.zeros(n, dtype=bool)
        admit[best[np.lexsort((best, -d[best]))][:_CG_BATCH]] = True
        sel = form.priced[e_rows] & cand[e_cols]
        r, k = e_rows[sel], e_cols[sel]
        order = np.lexsort((k, -d[k], r))
        r, k = r[order], k[order]
        rank = np.arange(r.size) - np.searchsorted(r, r)
        admit[k[rank < _CG_BATCH]] = True
        return np.flatnonzero(admit)

    def admit(self, new):
        """Add the structural columns ``new`` and the rows they own.  A
        column enters as B^-1 a with reduced cost y.a - c, so the basis and
        its values stay as they were; each new row enters with its slack
        basic, once the basic columns are eliminated from it, at b - a_B x_B
        (cap * x_opener in a membership row), clipped at 0."""
        form, T = self.form, self.T
        m, width = T.shape[0] - 1, T.shape[1]
        k = new.size
        e_rows, e_cols, e_vals = form.entries
        new_pos = np.full(self.present.size + 1, -1, dtype=np.intp)
        new_pos[new] = np.arange(k)
        # an unowned row (owner -1) reads the -1 past the last column
        new_rows = np.flatnonzero(new_pos[form.owner] >= 0)
        q = new_rows.size
        # B^-1 a summed over the few nonzeros of a in the present rows, each
        # adding its multiple of a column of B^-1: no dense product, which
        # would call BLAS (its threads and buffers cost more than the sums)
        keep = (new_pos[e_cols] >= 0) & (self.row_pos[e_rows] >= 0)
        ri, ci, vals = self.row_pos[e_rows[keep]], new_pos[e_cols[keep]], e_vals[keep]
        units = np.array(self.units, dtype=np.intp)
        T2 = np.zeros((m + q + 1, width + k + q))
        T2[:m, :width - 1] = T[:m, :-1]
        np.add.at(T2[:m, width - 1:width - 1 + k].T, ci, T[:m, units[ri]].T * vals[:, None])
        T2[:m, -1] = T[:m, -1]
        T2[-1, :width - 1] = T[-1, :-1]
        T2[-1, width - 1:width - 1 + k] = np.bincount(
            ci, weights=self.duals()[ri] * vals, minlength=k) - self.c[new]
        T2[-1, -1] = T[-1, -1]
        self.present[new] = True
        self.cols = np.concatenate([self.cols, new, form.slack[new_rows]])
        self.col_pos[self.cols[width - 1:]] = np.arange(width - 1, self.cols.size)
        self.rows = np.concatenate([self.rows, new_rows])
        self.row_pos[new_rows] = m + np.arange(q)
        # the new rows over the grown tableau, then the basic columns eliminated
        keep = (self.row_pos[e_rows] >= m) & self.present[e_cols]
        rows = np.zeros((q, T2.shape[1]))
        rows[self.row_pos[e_rows[keep]] - m, self.col_pos[e_cols[keep]]] = e_vals[keep]
        slacks = width - 1 + k + np.arange(q)
        rows[np.arange(q), slacks] = 1.0
        rows[:, -1] = form.rhs[new_rows]
        basis = np.array(self.basis, dtype=np.intp)
        nq, ni = np.nonzero(rows[:, basis])
        np.add.at(rows, nq, -rows[nq, basis[ni]][:, None] * T2[ni])
        T2[m:m + q] = rows
        np.maximum(T2[m:m + q, -1], 0.0, out=T2[m:m + q, -1])
        self.T = T2
        self.basis += slacks.tolist()
        self.units += slacks.tolist()

    def solve(self, max_iter, bland_after):
        """Optimize over the present columns, price, admit, and go on from
        the same basis until no absent column prices in; returns OPTIMAL,
        or UNBOUNDED, which a restricted LP shares with the full one."""
        while True:
            status, self.iterations = _simplex_phase(
                self.T, self.basis, PIVOT_TOL, max_iter, bland_after,
                start_iter=self.iterations)
            if status != OPTIMAL:
                return status
            new = self.price()
            if not new.size:
                return OPTIMAL
            self.admit(new)
            self.rounds += 1
            self.columns += int(new.size)

    def full_basis(self):
        """The basis of the full standard form: each present row's basic
        column, and the slack of each absent row."""
        basis = self.form.slack.tolist()
        for r, j in zip(self.rows.tolist(), self.basis):
            basis[r] = int(self.cols[j])
        return basis


def _float_solve(lp: LinearProgram):
    """Float simplex by delayed column generation from the slack basis:
    start from the columns that own no row, and at each optimum price
    every absent column at once and admit the best, until none prices in.
    Returns (status, basis of the full standard form, iterations, the
    standard form, rounds, columns admitted)."""
    form = _standard_form(lp)
    n = lp.n_vars
    present = np.ones(n, dtype=bool)
    present[form.owner[form.owner >= 0]] = False
    c = np.zeros(form.ncols)
    c[:n] = [float(v) for v in lp.objective]
    tab = _RestrictedTableau(form, present, c)
    size = form.rhs.size + form.ncols
    status = tab.solve(max(2000, 60 * size), 10 * size)
    return status, tab.full_basis(), tab.iterations, form, tab.rounds, tab.columns


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


class _PeeledBasis:
    """A basis B of ``cols`` split for exact solves.  Each singleton column
    (one nonzero: a slack or a one-entry structural) claims
    the row of its nonzero; the kernel is the other columns over the
    unclaimed rows, so it is square.  With claimed rows and singletons
    first, B is block upper triangular, [[D, C], [0, K]] with D diagonal,
    so B is nonsingular iff K is, and each solve with B or B^T is one
    ``_solve_sparse`` with K or K^T plus a division per claimed row.
    ``singular`` is set when two singletons claim one row."""

    def __init__(self, cols, basis, m):
        self.m = m
        self.singular = False
        self.claims = {}  # claimed row -> (basis position, value)
        self.kernel = []  # basis positions of the kernel columns
        for i, j in enumerate(basis):
            col = cols[j]
            if len(col) == 1:
                (r, v), = col.items()
                if v:
                    if r in self.claims:
                        self.singular = True
                        return
                    self.claims[r] = (i, v)
                    continue
            self.kernel.append(i)
        self.rows = [r for r in range(m) if r not in self.claims]
        pos = {r: q for q, r in enumerate(self.rows)}
        # K column-wise and row-wise over the kernel rows, and C as
        # (kernel column, claimed row, value)
        self.kcols = []
        self.krows = [{} for _ in self.rows]
        self.coupling = []
        for p, i in enumerate(self.kernel):
            kcol = {}
            for r, v in cols[basis[i]].items():
                q = pos.get(r)
                if q is None:
                    self.coupling.append((p, r, v))
                else:
                    kcol[q] = v
                    self.krows[q][p] = v
            self.kcols.append(kcol)

    def solve(self, rhs):
        """x with B x = rhs, aligned with the basis, or None when K is
        singular: x_K from K, then each claimed row's value from its rhs
        less the kernel columns' terms, summed in ints over x_K's common
        denominator."""
        xk = _solve_sparse(self.kcols, [rhs[r] for r in self.rows])
        if xk is None:
            return None
        X, den = _common_denominator(xk)
        rest = {r: rhs[r] * den for r in self.claims}
        for p, r, v in self.coupling:
            rest[r] -= v * X[p]
        x = [None] * self.m
        zero = Fraction(0)
        for r, (i, v) in self.claims.items():
            x[i] = Fraction(rest[r], v * den) if rest[r] else zero
        for i, v in zip(self.kernel, xk):
            x[i] = v
        return x

    def solve_transposed(self, cB):
        """y with B^T y = cB, one per row: c/v on each claimed row, a
        shared zero where c = 0, then the kernel rows from K^T with the
        claimed rows' terms moved to the rhs.  K must be nonsingular."""
        y = [Fraction(0)] * self.m
        for r, (i, v) in self.claims.items():
            if cB[i]:
                y[r] = Fraction(cB[i], v)
        rhs = [cB[i] for i in self.kernel]
        for p, r, v in self.coupling:
            if y[r]:
                rhs[p] -= v * y[r]
        for r, v in zip(self.rows, _solve_sparse(self.krows, rhs)):
            y[r] = v
        return y


def _exact_revised_simplex(form, c, basis, max_pivots=2000):
    """Exact revised simplex with Bland's rule from a starting basis, over
    the exact half of the standard form ``form`` with costs ``c``.

    Each iteration peels the basis (``_PeeledBasis``) and factors only its
    kernel, for x_B, for y and for the entering column's direction, so
    the work follows the structural part of the basis, not the row count.
    Pricing sums A^T y in ints over the rows with y != 0 only, each read
    from its stored row plus its slack, and enters the lowest-index
    column with c_j > y.a_j; the ratio test breaks ties on the lowest
    basic column.

    Returns (status, basis, x_basic, y, pivots) where x_basic aligns with
    basis rows, y, the duals of the rows of ``form.b_exact`` at an
    optimum, solves B^T y = c_B on the last iteration, and pivots counts
    the pivots made; status may also be 'singular' or 'infeasible-basis'
    when the starting basis is unusable.  At most ``max_pivots`` pivots
    are made; PivotLimit is raised when the basis after the last of them
    is not optimal."""
    cols, b, rows = form.cols_exact, form.b_exact, form.int_rows
    m, n = len(b), len(cols) - len(b)
    basis = list(basis)
    c_ints = [(cj.numerator, cj.denominator) for cj in c]
    for pivots in range(max_pivots + 1):
        peel = _PeeledBasis(cols, basis, m)
        xB = None if peel.singular else peel.solve(b)
        if xB is None:
            return "singular", basis, None, None, pivots
        if any(v.numerator < 0 for v in xB):
            return "infeasible-basis", basis, None, None, pivots
        y = peel.solve_transposed([c[j] for j in basis])
        # y = Y / den over the rows with y != 0; c_j - y.a_j > 0 iff c_j's
        # numerator * den exceeds c_j's denominator * Y.a_j, all in ints
        # for int columns.  A basic column prices at exactly 0.
        support = [r for r, v in enumerate(y) if v]
        Y, den = _common_denominator([y[r] for r in support])
        ya = [0] * len(cols)
        for r, w in zip(support, Y):
            row_cols, row_ints, _rhs, scale = rows[r]
            for j, v in zip(row_cols, row_ints):
                ya[j] += w * v
            ya[n + r] += w * scale
        entering = next((j for j, ((num, dnm), s) in enumerate(zip(c_ints, ya))
                         if num * den > dnm * s), None)
        if entering is None:
            return OPTIMAL, basis, xB, y, pivots
        if pivots == max_pivots:
            break
        d = peel.solve([cols[entering].get(r, 0) for r in range(m)])
        best = None
        for i in range(m):
            if d[i].numerator > 0:
                key = (xB[i] / d[i], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED, basis, None, None, pivots
        basis[best[1]] = entering
    raise PivotLimit("exact pivot", max_pivots, max_pivots)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a maximization LP.

    The float phase pivots with tolerance ``PIVOT_TOL`` over the columns
    that column generation admits; the basis it ends at, completed by the
    slacks of the rows no admitted column owns, is re-derived and priced
    exactly over every column of the LP, populating ``exact_values``,
    ``exact_objective`` and ``exact_duals``, and then checked against the
    LP's own rows and columns.  A basis that is singular or infeasible in
    exact arithmetic is dropped for the slack basis, which is feasible
    because b >= 0, and the exact simplex gets 5000 pivots from there
    before ``PivotLimit``.  ``status`` is OPTIMAL or UNBOUNDED.
    """
    n = lp.n_vars
    status, basis, iters, form, rounds, columns = _float_solve(lp)
    counters = {"iterations": iters, "rounds": rounds, "columns": columns}
    if status == UNBOUNDED:
        return LpSolution(status=status, **counters)
    c_exact = lp.objective + [Fraction(0)] * (form.ncols - n)
    st, eb, xB, y, pivots = _exact_revised_simplex(form, c_exact, basis)
    # an unusable start is rejected before any pivot, so the restart's
    # pivots are all the exact layer makes
    restarted = st in ("singular", "infeasible-basis")
    if restarted:
        st, eb, xB, y, pivots = _exact_revised_simplex(form, c_exact, form.slack.tolist(),
                                                       max_pivots=5000)
    counters.update(exact_pivots=pivots, restarted=restarted)
    if st == UNBOUNDED:
        return LpSolution(status=st, **counters)
    exact_values = [Fraction(0)] * n
    for col, v in zip(eb, xB):
        if col < n:
            exact_values[col] = v
    exact_obj = sum((c * v for c, v in zip(lp.objective, exact_values) if v), Fraction(0))
    # y is per scaled row; the dual of the LP's own row undoes the scale
    exact_duals = [scale * v if v else v for scale, v in zip(form.scales, y)]
    _verify_exact(lp, exact_values, exact_duals)
    return LpSolution(
        status=OPTIMAL,
        exact_values=exact_values,
        exact_objective=exact_obj,
        exact_duals=exact_duals,
        basis=list(eb),
        **counters,
    )


def _verify_exact(lp, xs, ys):
    """Check the primal x and the dual y against ``lp`` itself, never the
    standard form they came from.  x: x >= 0 and every row, each upper
    bound read as a row x_k <= u.  y, one per row and then per bound:
    y >= 0, A^T y >= c on every column and b.y == c.x, which proves x
    optimal.  Rows are read in the LP's stored ints, with x and the row
    duals divided by the rows' scales each over one common denominator."""
    if any(v.numerator < 0 for v in xs):
        raise NumericalFailure("exact vertex has a negative coordinate")
    rows = lp.rows_with_bounds()
    if len(ys) != len(rows):
        raise NumericalFailure("exact dual has the wrong length")
    X, den = _common_denominator(xs)
    scaled = []
    for (cols, ints, rhs, scale), y in zip(rows, ys):
        if sum(a * X[k] for k, a in zip(cols, ints)) > rhs * den:
            raise NumericalFailure("exact vertex violates a row")
        if y.numerator < 0:
            raise NumericalFailure("exact dual has the wrong sign")
        if y:
            scaled.append((cols, ints, rhs, Fraction(y) / scale))
    W, wden = _common_denominator([w for *_row, w in scaled])
    lhs = [0] * lp.n_vars  # (A^T y)_k * wden
    dual_obj = 0
    for (cols, ints, rhs, _w), w in zip(scaled, W):
        for k, a in zip(cols, ints):
            lhs[k] += a * w
        dual_obj += rhs * w
    if any(c.numerator * wden > c.denominator * s for c, s in zip(lp.objective, lhs)):
        raise NumericalFailure("exact dual violates a column")
    primal_obj = sum((c * v for c, v in zip(lp.objective, xs) if v), Fraction(0))
    if Fraction(dual_obj, wden) != primal_obj:
        raise NumericalFailure("exact duality gap is not zero")


def lp_to_text(lp: LinearProgram) -> str:
    """Render the LP in CPLEX-style text (grammar documented in the README)."""

    def num(v):
        return repr(float(v))

    if lp.var_keys is None:
        names = [f"x{k}" for k in range(lp.n_vars)]
    else:
        names = [f"x[{','.join(map(str, key))}]" for key in lp.var_keys]
    out = ["Maximize"]
    terms = " + ".join(
        f"{num(c)} {names[k]}" for k, c in enumerate(lp.objective) if float(c) != 0
    )
    out.append(f" obj: {terms if terms else '0'}")
    out.append("Subject To")
    # a / scale is float(Fraction(a, scale)): both are int true divisions
    for r, (cols, ints, rhs, scale) in enumerate(lp.int_rows):
        terms = " + ".join(f"{num(a / scale)} {names[k]}"
                           for k, a in zip(cols, ints) if a / scale != 0)
        out.append(f" c{r}: {terms if terms else '0'} <= {num(rhs / scale)}")
    out.append("Bounds")
    for k in range(lp.n_vars):
        ub = None if lp.upper_bounds is None else lp.upper_bounds[k]
        if ub is None:
            out.append(f" 0 <= {names[k]}")
        else:
            out.append(f" 0 <= {names[k]} <= {num(ub)}")
    out.append("End")
    return "\n".join(out) + "\n"
