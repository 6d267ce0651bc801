"""Exact feasibility over integer rows and nonnegative variables.

A program is given in integers: every coefficient and right-hand side
is an ``int``, and so is every number handed back (a witness as
numerators over one positive denominator, a Farkas certificate as
coprime multipliers).  A caller with rational rows scales each row to
integers itself.  Every variable is nonnegative, x >= 0: each program
this package builds asks for nonnegative shares, flows, lottery
weights or the two parts of a direction.  A program asks only whether
it is feasible: :func:`solve` finds a point or proves that there is
none, in three steps:

1. A program of equalities alone, with no more columns than rows, is
   first eliminated whole, fraction-free (Bareiss, "Sylvester's
   identity and multistep integer-preserving Gaussian elimination",
   Math. Comp. 22, 1968), one pivot per column and no artificial
   columns.  If every column gets a pivot, every row left over has
   right-hand side 0 and the point is nonnegative, that point is the
   program's only feasible one.  A row 0 = b with b != 0 leaves the
   program to the simplex before any pivot.
   Any other program goes to an exact presolve (Andersen & Andersen,
   "Presolving in linear programming", Math. Programming 71, 1995),
   which removes what x >= 0 already decides.  An equality with
   right-hand side 0 whose coefficients on the remaining columns share
   one sign fixes those columns at 0, so the row and the columns go;
   this repeats until nothing changes.  A ``>=`` row with right-hand side <= 0 and
   nonnegative coefficients, or a ``<=`` row with right-hand side >= 0
   and nonpositive ones, is implied and dropped.
2. A dense phase-1 simplex minimises the artificial mass of the
   reduced program on a fraction-free integer tableau (Bareiss-style
   exact division), which is an order of magnitude faster in CPython
   than a Fraction tableau.  Mass 0 gives a feasible point, read off
   the final basis, where any artificial left in it sits at 0; a
   positive mass gives the Farkas certificate, read off the prices.
   A pivot rewrites only the rows with a nonzero in the pivot column;
   every other row keeps the determinant its entries are exact at and
   is scaled up to the current one only where its entries are read as
   numbers (:class:`_IntTableau`).
   Pricing is Dantzig's largest coefficient, and a ratio-test tie lets
   an artificial leave first; after ``DEGENERATE_LIMIT`` consecutive
   degenerate pivots it switches to Bland's rule until a pivot makes
   progress, so the solver is cycle-free and fully deterministic.
3. The outcome is lifted back to the original program and verified
   there, in integers: a witness as numerators over the elimination's
   or the tableau's determinant against the constraints; an infeasible
   outcome's Farkas certificate (multiplier 0 on each dropped row, and
   on each fixing row, latest first, the multiplier that brings the
   column sums of the columns it fixed to <= 0) against the whole
   system.  A failed check raises :class:`~mtra.errors.SoundnessError`,
   which ``python -O`` does not strip.  Both outcomes are checked, so
   nothing the solver decides is taken on trust.

Programs in this package are a few hundred rows by a few hundred
columns, so the tableau stays dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Sequence

from .errors import SoundnessError

LE, EQ, GE = "<=", "=", ">="

# consecutive degenerate Dantzig pivots before pricing falls back to Bland
DEGENERATE_LIMIT = 50


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int, ...]
    rel: str
    rhs: int


@dataclass(frozen=True)
class LinearProgram:
    """The constraints on x >= 0, all in integers: :func:`solve` decides
    whether some x satisfies them."""

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError("constraint arity does not match variable count")
            if c.rel not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {c.rel!r}")
            # the tableau divides exactly only on integers: a Fraction
            # would be floored, not refused
            if not {type(c.rhs), *map(type, c.coeffs)} <= {int}:
                raise TypeError("constraint entries must be ints")


@dataclass(frozen=True)
class LpOutcome:
    """An exact result, verified before :func:`solve` hands it back.  A
    feasible program's point is ``witness[k] / det``; an infeasible
    program has Farkas row multipliers in ``certificate``, coprime once
    verified."""

    status: str  # "optimal" (feasible) | "infeasible"
    witness: tuple[int, ...] | None = None
    det: int = 1
    certificate: tuple[int, ...] | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _IntTableau:
    """Integer simplex tableau with lazy row scaling: the true values of
    row i are its entries divided by ``at[i]``, the determinant at which
    they were last made exact.  A row that the current ``det`` has not
    reached scales up by ``det / at[i]``, which is an integer multiple of
    each entry by Sylvester's identity; :meth:`row` does that, and is
    called only where entries are read as numbers.  Pricing, the ratio
    test and every zero test read stored entries: they compare entries
    of one row, cross-multiply two rows' entries, or test a sign, and a
    positive factor per row changes none of those results.

    The row after the constraints is the phase-1 row, the z - c form of
    "minimise the artificial mass", scaled like everything else; it is
    pivoted alongside the constraints so reduced costs never need
    re-pricing.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int, art_start: int):
        self.rows = rows
        self.at = [1] * len(rows)  # per row, the det its entries are exact at
        self.basis = basis  # per constraint row
        self.ncols = ncols
        self.art_start = art_start  # columns from here on are artificial
        self.det = 1

    def row(self, i: int) -> list[int]:
        """Row i with its entries exact at ``det``."""
        row, at, det = self.rows[i], self.at[i], self.det
        if at != det:
            row = self.rows[i] = [a * det // at for a in row]
            self.at[i] = det
        return row

    def pivot(self, r: int, c: int) -> None:
        rows, at = self.rows, self.at
        prow = self.row(r)
        piv = prow[c]
        if piv < 0:
            # reached only by the elimination; a row negation keeps the
            # determinant positive and the system equal
            prow = rows[r] = [-v for v in prow]
            piv = -piv
        # a row with f = 0 keeps its entries and its at[i]; any other row
        # becomes (piv * a - f * b) / at[i], exact at piv
        nonzero = None
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                d = at[i]
                if piv == d:
                    # entries where the pivot row is zero keep their value
                    if nonzero is None:
                        nonzero = [k for k, b in enumerate(prow) if b]
                    for k in nonzero:
                        row[k] -= f * prow[k] // d
                else:
                    rows[i] = [(piv * a - f * b) // d for a, b in zip(row, prow)]
                    at[i] = piv
        self.det = at[r] = piv
        self.basis[r] = c

    def run(self) -> None:
        """Phase-1 simplex steps, driven by the last row, until no reduced
        cost is positive.  The artificial mass is bounded below by 0, so
        every entering column has a leaving row; a missing one raises
        :class:`~mtra.errors.SoundnessError`.

        Dantzig pricing, with ratio-test ties broken in favour of an
        artificial leaving the basis, then by the smallest basis index.
        Once a run of degenerate pivots reaches DEGENERATE_LIMIT, Bland's
        rule (smallest entering column, smallest leaving index) takes
        over until a pivot makes progress, so no basis repeats."""
        rows = self.rows
        ncols = self.ncols
        basis = self.basis
        art = self.art_start
        degenerate = 0
        while True:
            obj = rows[-1]
            bland = degenerate >= DEGENERATE_LIMIT
            if bland:
                enter = next((c for c in range(ncols) if obj[c] > 0), -1)
                if enter < 0:
                    return
            else:
                best = max(obj[:ncols], default=0)
                if best <= 0:
                    return
                enter = obj.index(best)
            leave = -1
            best_num = best_den = 0
            for i in range(len(basis)):
                a = rows[i][enter]
                if a > 0:
                    num = rows[i][ncols]
                    if leave < 0 or num * best_den < best_num * a:
                        best_num, best_den, leave = num, a, i
                    elif num * best_den == best_num * a:
                        b, held = basis[i], basis[leave]
                        if bland or (b >= art) == (held >= art):
                            better = b < held
                        else:
                            better = b >= art
                        if better:
                            leave = i
            if leave < 0:
                raise SoundnessError("phase 1 is bounded, yet no row leaves")
            degenerate = degenerate + 1 if best_num == 0 else 0
            self.pivot(leave, enter)


def _simplex(constraints: Sequence[Constraint], n: int) -> LpOutcome:
    """Phase-1 simplex on integer constraints over n nonnegative
    variables.  The result is not yet verified."""
    m = len(constraints)
    n_slack = sum(1 for c in constraints if c.rel != EQ)
    art_start = n + n_slack
    ncols = art_start + m
    tab_rows: list[list[int]] = []
    signs: list[int] = []
    slack_i = 0
    for i, c in enumerate(constraints):
        coeffs, rel, b = list(c.coeffs), c.rel, c.rhs
        sign = -1 if b < 0 else 1
        if sign < 0:
            coeffs = [-a for a in coeffs]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        row = coeffs + [0] * (n_slack + m) + [b]
        if rel != EQ:
            row[n + slack_i] = 1 if rel == LE else -1
            slack_i += 1
        row[art_start + i] = 1
        tab_rows.append(row)
        signs.append(sign)

    # phase-1 row: z - c for "minimize artificial mass", which initially
    # is the column sum of the constraint rows with artificial entries
    # zeroed
    phase1 = [sum(col) for col in zip(*tab_rows)] if m else [0] * (ncols + 1)
    phase1[art_start:ncols] = [0] * m
    tab_rows.append(phase1)

    tab = _IntTableau(tab_rows, list(range(art_start, ncols)), ncols, art_start)
    tab.run()
    phase1 = tab.row(m)
    if phase1[ncols] != 0:
        # Phase 1 keeps the z-c row of "minimize artificial mass": at the
        # artificial column of row i it now holds y_i - 1 (times det) with
        # y the dual prices of the sign-normalized integer rows; det > 0
        # is dropped and the row signs are undone.
        y = tuple((phase1[art_start + i] + tab.det) * signs[i] for i in range(m))
        return LpOutcome("infeasible", certificate=y)
    # mass 0: an artificial still in the basis sits at 0
    nums = [0] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            nums[b] = tab.row(i)[ncols]
    return LpOutcome("optimal", witness=tuple(nums), det=tab.det)


def _eliminated(lp: LinearProgram) -> LpOutcome | None:
    """The one feasible point of an all-equality program with
    independent columns, by fraction-free elimination (module docstring,
    step 1); None for any other program, which the simplex decides."""
    cons = lp.constraints
    n = lp.num_vars
    if n > len(cons) or any(c.rel != EQ for c in cons):
        return None
    if any(c.rhs and not any(c.coeffs) for c in cons):
        return None  # 0 = b != 0: inconsistent before any pivot
    rows = [[*c.coeffs, c.rhs] for c in cons]
    tab = _IntTableau(rows, [0] * len(rows), n, n)
    at = tab.at
    for c in range(n):
        r = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if r is None:
            return None  # column c depends on the ones before it
        rows[c], rows[r] = rows[r], rows[c]
        at[c], at[r] = at[r], at[c]
        tab.pivot(c, c)
    nums = [tab.row(i)[n] for i in range(n)]
    if any(row[n] for row in rows[n:]) or any(v < 0 for v in nums):
        return None
    return LpOutcome("optimal", witness=tuple(nums), det=tab.det)


def _presolved_simplex(lp: LinearProgram) -> LpOutcome:
    """Presolve the program (module docstring, step 1), run the simplex
    on what is left and lift the result back to ``lp``."""
    cons = lp.constraints
    rows = [c.coeffs for c in cons]
    n = lp.num_vars
    support = [[j for j, a in enumerate(row) if a] for row in rows]
    live = [True] * n
    active = list(range(len(rows)))
    fixings: list[tuple[int, list[int]]] = []  # (row, columns it fixed)
    changed = True
    while changed:
        changed = False
        keep = []
        for i in active:
            row, rel, b = rows[i], cons[i].rel, cons[i].rhs
            cols = [j for j in support[i] if live[j]]
            pos = any(row[j] > 0 for j in cols)
            neg = any(row[j] < 0 for j in cols)
            if rel == EQ and b == 0 and not (pos and neg):
                for j in cols:
                    live[j] = False
                fixings.append((i, cols))
                changed = changed or bool(cols)
            elif not (rel == GE and b <= 0 and not neg or rel == LE and b >= 0 and not pos):
                keep.append(i)
        active = keep
    if len(active) == len(rows):
        return _simplex(cons, n)

    cols = [j for j in range(n) if live[j]]
    reduced = [Constraint(tuple(rows[i][j] for j in cols), cons[i].rel, cons[i].rhs) for i in active]
    out = _simplex(reduced, len(cols))
    if out.optimal:
        nums = [0] * n
        for k, j in enumerate(cols):
            nums[j] = out.witness[k]
        return replace(out, witness=tuple(nums))
    y = [0] * len(rows)
    colsum = [0] * n
    for k, i in enumerate(active):
        y[i] = out.certificate[k]
        if y[i]:
            for j in support[i]:
                colsum[j] += y[i] * rows[i][j]
    for i, fixed in reversed(fixings):
        row = rows[i]
        if not fixed:
            continue
        if row[fixed[0]] > 0:
            y[i] = min(-colsum[j] // row[j] for j in fixed)
        else:
            y[i] = max(-(colsum[j] // row[j]) for j in fixed)
        for j in support[i]:
            colsum[j] += y[i] * row[j]
    return replace(out, certificate=tuple(y))


def _verified(lp: LinearProgram, out: LpOutcome) -> LpOutcome:
    """``out`` checked against the original program, with its
    certificate's multipliers made coprime."""
    if out.optimal:
        _verify_witness(lp, out.witness, out.det)
        return out
    _verify_certificate(lp, out.certificate)
    g = math.gcd(*out.certificate)
    return replace(out, certificate=tuple(v // g for v in out.certificate))


def solve(lp: LinearProgram) -> LpOutcome:
    """A verified feasible point of the program, or a verified Farkas
    certificate that it has none."""
    return _verified(lp, _eliminated(lp) or _presolved_simplex(lp))


def _verify_witness(lp: LinearProgram, nums: Sequence[int], det: int) -> None:
    """The point nums / det (det > 0) is nonnegative and satisfies every
    original constraint."""
    for i, c in enumerate(lp.constraints):
        lhs = sum(map(mul, c.coeffs, nums))
        b = c.rhs * det
        ok = lhs <= b if c.rel == LE else lhs >= b if c.rel == GE else lhs == b
        if not ok:
            raise SoundnessError(f"witness violates constraint {i}")
    if any(v < 0 for v in nums):
        raise SoundnessError("witness violates nonnegativity")


def _verify_certificate(lp: LinearProgram, y: Sequence[int]) -> None:
    """Farkas: y^T A <= 0 on every column, each multiplier signed to its
    relation, and y^T b > 0, so no x >= 0 satisfies the original
    constraints."""
    cons = lp.constraints
    if len(y) != len(cons):
        raise SoundnessError("certificate has the wrong length")
    for j, col in enumerate(zip(*(c.coeffs for c in cons))):
        total = sum(map(mul, y, col))
        if total > 0:
            raise SoundnessError(f"certificate fails on column {j}")
    for i, c in enumerate(cons):
        if c.rel == LE and y[i] > 0 or c.rel == GE and y[i] < 0:
            raise SoundnessError(f"certificate sign clash on constraint {i}")
    if sum(y[i] * c.rhs for i, c in enumerate(cons)) <= 0:
        raise SoundnessError("certificate does not separate")
