"""The exact revised simplex over the whole basis: the reference the
peeled simplex in ``avalloc.lp``, which factors only the basis kernel, is
compared with.

This is lp._exact_revised_simplex as it ran before it peeled singleton
columns: every iteration solves B x = b and B^T y = c_B by sparse
elimination over all m rows, prices every column in ints over every row of
y, and solves B d = a for the entering column.
"""

from avalloc.errors import NumericalFailure
from avalloc.lp import OPTIMAL, UNBOUNDED, _common_denominator, _solve_sparse


def _col_dense(col, m):
    out = [0] * m
    for r, v in col.items():
        out[r] = v
    return out


def _transpose_cols(bcols, m):
    t = [dict() for _ in range(m)]
    for pos, col in enumerate(bcols):
        for r, v in col.items():
            t[r][pos] = v
    return t


def reference_exact_revised_simplex(cols, b, c, basis, barred, max_pivots=2000):
    """Exact revised simplex with Bland's rule from a starting basis.

    Returns (status, basis, x_basic, y) where x_basic aligns with basis
    rows and y, the duals of the rows of ``b`` at an optimum, solves
    B^T y = c_B on the last iteration; status may also be 'singular' or
    'infeasible-basis' when the starting basis is unusable."""
    m = len(b)
    basis = list(basis)
    for _ in range(max_pivots):
        bcols = [cols[j] for j in basis]
        xB = _solve_sparse(bcols, b)
        if xB is None:
            return "singular", basis, None, None
        if any(v < 0 for v in xB):
            return "infeasible-basis", basis, None, None
        cB = [c[j] for j in basis]
        y = _solve_sparse(_transpose_cols(bcols, m), cB)
        if y is None:
            return "singular", basis, None, None
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
            return OPTIMAL, basis, xB, y
        d = _solve_sparse(bcols, _col_dense(cols[entering], m))
        if d is None:
            return "singular", basis, None, None
        best = None
        for i in range(m):
            if d[i] > 0:
                key = (xB[i] / d[i], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED, basis, None, None
        basis[best[1]] = entering
    raise NumericalFailure("exact pivot limit exceeded")
