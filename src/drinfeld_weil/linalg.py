"""Dense exact linear algebra over an arbitrary coefficient field.

Matrices are lists of rows, rows are lists of field elements.  The field
object only needs ``zero()`` / ``one()`` and elements supporting
``+ - * /`` and ``==``.  Everything is small and runs in plain Gaussian
elimination; inputs are never mutated.
"""

from __future__ import annotations


def rref(mat, field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in mat]
    zero = field.zero()
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat, field):
    return len(rref(mat, field)[1])


def nullspace(mat, field):
    """Basis of {x : mat @ x = 0}, one vector per free column."""
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = rref(mat, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(mat, rhs, field):
    """One solution of mat @ x = rhs, or None if inconsistent."""
    if not mat:
        return None
    ncols = len(mat[0])
    aug = [list(r) + [b] for r, b in zip(mat, rhs)]
    rows, pivots = rref(aug, field)
    zero = field.zero()
    # inconsistent if a pivot lands in the augmented column
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def inverse(mat, field):
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [list(r) + [field.one() if i == j else field.zero() for j in range(n)]
           for i, r in enumerate(mat)]
    rows, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]

