import ast
import dataclasses
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import constraint, max_is
from mtra import axioms, build_instance, check_decomposability, mgd, mps, mrp, mrp_decompose, spaces
from mtra import lp as lp_module
from mtra.errors import SoundnessError
from mtra.lp import Constraint, LinearProgram, solve
from mtra.model import FractionalAssignment, from_discrete

F = Fraction


def point(out):
    return tuple(F(v, out.det) for v in out.witness)


def test_box_maximum():
    cons = (constraint([1], "<=", 1), constraint([1], ">=", 0))
    out = solve(LinearProgram(1, cons))
    assert out.status == "optimal"
    assert 0 <= point(out)[0] <= 1
    assert max_is(1, cons, (1,), 1)
    # neither a value below the maximum nor one above it is taken
    assert not max_is(1, cons, (1,), F(1, 2)) and not max_is(1, cons, (1,), 2)


def test_infeasible_with_certificate():
    lp = LinearProgram(1, (constraint([1], ">=", 1), constraint([1], "<=", 0)))
    out = solve(lp)
    assert out.status == "infeasible"
    assert out.certificate is not None  # verified inside the solver


def test_empty_constraints_feasible():
    out = solve(LinearProgram(3, ()))
    assert out.status == "optimal"
    assert point(out) == (0,) * 3


def test_variables_are_nonnegative():
    # x >= -5 is implied by x >= 0, so the least x is 0
    cons = (constraint([1], ">=", -5),)
    lp = LinearProgram(1, cons)
    out = solve(lp)
    assert point(out) == (0,) and max_is(1, cons, (-1,), 0)
    with pytest.raises(SoundnessError, match="nonnegativity"):
        lp_module._verified(lp, lp_module.LpOutcome("optimal", witness=(-1,)))


def test_blands_rule_survives_degeneracy(monkeypatch):
    # a classic cycling-prone instance (Beale); its maximum is 1/20, which
    # is 5 for the objective scaled by 100, under Dantzig's pricing and
    # under Bland's rule from the first pivot
    cons = (
        constraint([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
        constraint([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
        constraint([0, 0, 1, 0], "<=", 1),
    )
    for limit in (lp_module.DEGENERATE_LIMIT, 0):
        monkeypatch.setattr(lp_module, "DEGENERATE_LIMIT", limit)
        assert max_is(4, cons, (75, -15000, 2, -600), 5)
        assert not max_is(4, cons, (75, -15000, 2, -600), 6)


def test_determinism():
    rng = random.Random(0)
    cons = tuple(
        constraint([rng.randint(-3, 3) for _ in range(4)], rng.choice(["<=", ">="]), rng.randint(0, 5))
        for _ in range(6)
    )
    lp = LinearProgram(4, cons)
    first = solve(lp)
    second = solve(lp)
    assert first == second


def _holds(c, x):
    lhs = sum(map(operator.mul, c.coeffs, x))
    return lhs <= c.rhs if c.rel == "<=" else lhs >= c.rhs if c.rel == ">=" else lhs == c.rhs


def _tight_point(rows):
    """The one point at which the square system of ``rows`` is tight, by
    Gauss-Jordan elimination in Fractions; None if it is singular."""
    a = [[F(v) for v in (*c.coeffs, c.rhs)] for c in rows]
    n = len(a)
    for col in range(n):
        r = next((i for i in range(col, n) if a[i][col]), None)
        if r is None:
            return None
        a[col], a[r] = a[r], a[col]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col] / a[col][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _brute_force(num_vars, cons, obj):
    """Vertex enumeration: is some vertex feasible, and the largest
    obj.x over the feasible vertices.  A program whose rows bound it, or
    that asks x >= 0 and is bounded in obj, has its maximum there."""
    best = None
    for rows in itertools.combinations(cons, num_vars):
        x = _tight_point(rows)
        if x is not None and all(_holds(c, x) for c in cons):
            value = sum(map(operator.mul, obj, x))
            best = value if best is None else max(best, value)
    return best is not None, best


def _shifted(cons, bound):
    """The rows of a 2-variable program whose variables are bounded below
    by -bound, as rows over x' = x + bound >= 0: each row a.x rel b
    becomes a.x' rel b + bound * sum(a)."""
    return tuple(Constraint(c.coeffs, c.rel, c.rhs + bound * sum(c.coeffs)) for c in cons)


def test_random_2var_lps_match_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(120):
        cons = [
            constraint(
                [rng.randint(-3, 3), rng.randint(-3, 3)],
                rng.choice(["<=", ">=", "="]),
                rng.randint(-4, 4),
            )
            for _ in range(4)
        ]
        cons += [
            constraint([1, 0], "<=", 10),
            constraint([0, 1], "<=", 10),
            constraint([1, 0], ">=", -10),
            constraint([0, 1], ">=", -10),
        ]
        obj = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = _shifted(cons, 10)
        out = solve(LinearProgram(2, shifted))
        feasible, best = _brute_force(2, cons, obj)
        if out.status == "optimal":
            assert feasible and max_is(2, shifted, obj, best + 10 * sum(obj))
        else:
            assert out.status == "infeasible" and not feasible


def test_random_2var_fractional_coefficients():
    # rows with denominators other than one, scaled to integers by
    # constraint(), and objectives scaled by their own lcm
    rng = random.Random(7)
    for _ in range(80):
        cons = [
            constraint(
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)],
                rng.choice(["<=", ">=", "="]),
                F(rng.randint(-8, 8), rng.randint(1, 3)),
            )
            for _ in range(4)
        ]
        cons += [
            constraint([1, 0], "<=", 9),
            constraint([0, 1], "<=", 9),
            constraint([1, 0], ">=", -9),
            constraint([0, 1], ">=", -9),
        ]
        obj = (F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.randint(-3, 3), rng.randint(1, 2)))
        scale = math.lcm(obj[0].denominator, obj[1].denominator)
        scaled = tuple(int(v * scale) for v in obj)
        shifted = _shifted(cons, 9)
        out = solve(LinearProgram(2, shifted))
        feasible, best = _brute_force(2, cons, obj)
        if out.status == "optimal":
            assert feasible and max_is(2, shifted, scaled, best * scale + 9 * sum(scaled))
        else:
            assert out.status == "infeasible" and not feasible


def test_duality_spot_check():
    # max c.x st Ax <= b, x >= 0  vs  min b.y st A^T y >= c, y >= 0: both
    # reach the value vertex enumeration finds, or the primal grows along
    # a column of zeros and the dual is infeasible
    rng = random.Random(3)
    for _ in range(40):
        nv, nc = rng.randint(2, 4), rng.randint(2, 4)
        A = [[rng.randint(0, 4) for _ in range(nv)] for _ in range(nc)]
        b = [rng.randint(1, 6) for _ in range(nc)]
        c = [rng.randint(0, 4) for _ in range(nv)]
        primal = [constraint(A[i], "<=", b[i]) for i in range(nc)]
        dual = tuple(constraint([A[i][j] for i in range(nc)], ">=", c[j]) for j in range(nv))
        if any(c[j] and not any(A[i][j] for i in range(nc)) for j in range(nv)):
            assert solve(LinearProgram(nc, dual)).status == "infeasible"
            continue
        nonnegative = [constraint([int(k == j) for k in range(nv)], ">=", 0) for j in range(nv)]
        feasible, best = _brute_force(nv, primal + nonnegative, c)
        assert feasible
        assert max_is(nv, tuple(primal), c, best)
        assert max_is(nc, dual, [-v for v in b], -best)


def test_dominance_lp_on_reference_instance(opposed_trio):
    # the efficiency oracle's direction program at the uniform matrix is
    # feasible, and its largest step gives the dominating assignment
    from mtra import fixtures
    from mtra.axioms import _sd_efficiency_lp, sd_compare

    uniform = fixtures.assignment_5()
    report = _sd_efficiency_lp(opposed_trio, uniform)
    assert not report.passed
    assert report.witness == fixtures.assignment_6()
    for j in range(3):
        assert sd_compare(opposed_trio.orders[j], report.witness.row(j), uniform.row(j)).p_dominates_q


def test_arity_validation():
    with pytest.raises(ValueError):
        LinearProgram(2, (constraint([1], "<=", 1),))
    with pytest.raises(ValueError):
        LinearProgram(1, (constraint([1], "<>", 1),))
    # an upper bound is written as its negated lower bound
    with pytest.raises(ValueError, match="^unknown relation '<='$"):
        LinearProgram(1, (Constraint((1,), "<=", 1),))


# -- presolve -----------------------------------------------------------------


def _plain(prog):
    """The same simplex on the whole program, without presolve: the
    reference the presolved path must agree with."""
    return lp_module._verified(prog, lp_module._simplex(prog.constraints, prog.num_vars))


def _planted_lp(rng):
    """A random LP with rows the presolve acts on: one-sign
    zero-rhs equalities, some one-sign only after an earlier row fixed
    their mixed-sign columns, implied >=/<= rows, rows that become
    contradictory once their columns are fixed, and plain random rows."""
    n = rng.randint(3, 8)
    cols = list(range(n))
    cons = []

    def row(support, lo, hi):
        coeffs = [0] * n
        for j in support:
            coeffs[j] = rng.choice([v for v in range(lo, hi + 1) if v]) if lo < hi else lo
        return coeffs

    fixed = rng.sample(cols, rng.randint(0, 2))
    if fixed:
        sign = rng.choice([1, -1])
        cons.append(constraint([sign * v for v in row(fixed, 1, 3)], "=", 0))
        # mixed signs only on already fixed columns: one-sign after the fix
        rest = [j for j in cols if j not in fixed]
        later = rng.sample(rest, rng.randint(0, min(2, len(rest))))
        coeffs = row(later, 1, 3)
        for j in fixed:
            coeffs[j] = -rng.randint(1, 3)
        cons.insert(0, constraint(coeffs, "=", 0))  # listed before its enabler
        fixed += later
    for _ in range(rng.randint(0, 2)):
        support = rng.sample(cols, rng.randint(1, n))
        if rng.random() < 0.5:
            cons.append(constraint(row(support, 0, 3), ">=", -rng.randint(0, 3)))
        else:
            cons.append(constraint(row(support, -3, 0), "<=", rng.randint(0, 3)))
    if fixed and rng.random() < 0.3:
        # infeasible only because presolve fixes its support
        cons.append(constraint(row(rng.sample(fixed, 1), 1, 2), ">=", rng.randint(1, 3)))
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(cols, rng.randint(1, n))
        coeffs = [F(v, rng.randint(1, 3)) for v in row(support, -3, 3)]
        cons.append(constraint(coeffs, rng.choice(["<=", ">=", "="]), F(rng.randint(-4, 6), rng.randint(1, 2))))
    cons.append(constraint([1] * n, "<=", rng.randint(3, 9)))
    rng.shuffle(cons)
    return LinearProgram(n, tuple(cons))


def _planted_lps(count, seed):
    rng = random.Random(seed)
    return [_planted_lp(rng) for _ in range(count)]


def _certifies(prog, cert):
    """Independent Fraction check of a Farkas certificate on the whole
    system, fixed columns included."""
    for j in range(prog.num_vars):
        if sum(y * c.coeffs[j] for y, c in zip(cert, prog.constraints)) > 0:
            return False
    for y, c in zip(cert, prog.constraints):
        if (c.rel == "<=" and y > 0) or (c.rel == ">=" and y < 0):
            return False
    return sum(y * c.rhs for y, c in zip(cert, prog.constraints)) > 0


def test_presolve_matches_plain_simplex():
    statuses = set()
    for prog in _planted_lps(300, 11):
        out, ref = solve(prog), _plain(prog)
        assert out.status == ref.status
        statuses.add(out.status)
        if out.status == "infeasible":
            assert _certifies(prog, out.certificate) and _certifies(prog, ref.certificate)
    assert statuses == {"optimal", "infeasible"}


def _equality_lp(rng, kind):
    """A seeded all-equality program of the given kind: "unique" (one
    nonnegative point), "negative" (one point, a coordinate below 0),
    "inconsistent", "dependent" (one column a multiple of another) or
    "wide" (more columns than rows)."""
    n = rng.randint(2 if kind == "dependent" else 1, 5)
    m = n + rng.randint(0, 3) if kind != "wide" else rng.randint(1, n)
    n += kind == "wide"
    den = rng.randint(1, 4)
    x = [rng.randint(0, 5) for _ in range(n)]
    if kind == "negative":
        x[rng.randrange(n)] = -rng.randint(1, 5)
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if kind == "dependent":
            j, k = rng.sample(range(n), 2)
            scale = rng.randint(1, 2)
            for row in a:
                row[j] = scale * row[k]
        rank = _rank(a)
        if rank == n or kind in ("dependent", "wide"):
            break
    rows = [Constraint(tuple(den * v for v in row), "=", sum(map(operator.mul, row, x))) for row in a]
    if kind == "inconsistent":
        # a mix of two rows with its right-hand side moved off by one
        r, t = rng.randrange(m), rng.randrange(m)
        mixed = [u + 2 * v for u, v in zip(rows[r].coeffs, rows[t].coeffs)]
        rows.append(Constraint(tuple(mixed), "=", rows[r].rhs + 2 * rows[t].rhs + rng.choice([-1, 1])))
    return LinearProgram(n, tuple(rows))


def _rank(a):
    rows = [[F(v) for v in row] for row in a]
    rank = 0
    for c in range(len(rows[0])):
        r = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("kind", ["unique", "negative", "inconsistent", "dependent", "wide"])
def test_elimination_matches_presolved_simplex(kind):
    # the presolved simplex is the reference the elimination ahead of it
    # must agree with, on every all-equality program
    rng = random.Random(f"elimination-{kind}")
    statuses, eliminated = set(), 0
    for _ in range(150):
        prog = _equality_lp(rng, kind)
        out = solve(prog)
        ref = lp_module._verified(prog, lp_module._presolved_simplex(prog))
        assert out.status == ref.status
        statuses.add(out.status)
        if out.optimal:
            assert point(out) == point(ref)
        assert out.certificate == ref.certificate
        eliminated += lp_module._eliminated(prog) is not None
    if kind == "unique":
        assert statuses == {"optimal"} and eliminated == 150
    else:
        # the elimination leaves each of these to the simplex
        assert eliminated == 0
        if kind in ("dependent", "wide"):
            # planted at a point x >= 0
            assert statuses == {"optimal"}
        else:
            assert statuses == {"infeasible"}


def test_elimination_decides_independent_lotteries(monkeypatch, mixed_pair):
    # with the simplex switched off, a P over independent supported
    # assignments is still decided; a rank-deficient one is not
    def no_simplex(self):
        raise RuntimeError("simplex reached")

    monkeypatch.setattr(lp_module._IntTableau, "run", no_simplex)
    discrete = next(iter(mixed_pair._discrete_assignments))
    P = from_discrete(mixed_pair, discrete)
    assert check_decomposability(mixed_pair, P).passed
    P = mrp(mixed_pair).assignment
    assert P.den > 1 and len(mrp_decompose(mixed_pair).entries) == 2
    assert check_decomposability(mixed_pair, P).passed
    blank = {"kind": "partial", "edges": []}
    uniform = build_instance(
        {"agents": 3, "types": [{"name": "F", "items": ["1F", "2F", "3F"]}], "preferences": [blank] * 3}
    )
    # the 6 permutation matrices of order 3 span a space of dimension 5
    with pytest.raises(RuntimeError, match="simplex reached"):
        check_decomposability(uniform, FractionalAssignment(((1, 1, 1),) * 3, 3))


def test_presolve_fixes_chained_rows():
    # row 0 is mixed-sign until row 1 fixes x0; then it fixes x1 and x2,
    # and the >= row on x2 makes the program infeasible
    prog = LinearProgram(
        4,
        (
            constraint([-1, 1, 2, 0], "=", 0),
            constraint([3, 0, 0, 0], "=", 0),
            constraint([0, 0, 1, 1], ">=", 1),
            constraint([0, 0, 1, 0], ">=", F(1, 2)),
            constraint([0, 1, 0, -1], "<=", 0),
        ),
    )
    out = solve(prog)
    assert out.status == "infeasible" and _certifies(prog, out.certificate)
    assert out.certificate[4] == 0  # the implied row is not used
    relaxed = LinearProgram(4, prog.constraints[:3] + prog.constraints[4:])
    out = solve(relaxed)
    assert out.optimal and point(out) == (0, 0, 0, 1)
    assert max_is(4, relaxed.constraints, (1, 1, 1, -1), -1)


def test_presolve_matches_highs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for prog in _planted_lps(150, 12):
        out = solve(prog)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for c in prog.constraints:
            coeffs = [float(v) for v in c.coeffs]
            if c.rel == "=":
                a_eq.append(coeffs)
                b_eq.append(float(c.rhs))
            else:
                sign = 1 if c.rel == "<=" else -1
                a_ub.append([sign * v for v in coeffs])
                b_ub.append(sign * float(c.rhs))
        res = scipy_optimize.linprog(
            [0.0] * prog.num_vars,
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=(0, None),
            method="highs",
        )
        assert {0: "optimal", 2: "infeasible"}[res.status] == out.status


# -- lazy row scaling -----------------------------------------------------------


def _eager_pivot(tab, r, c):
    """The reference pivot, without lazy row scaling: every row but the
    pivot row is rewritten, so every row stays exact at det."""
    rows = tab.rows
    prow = rows[r]
    piv = prow[c]
    if piv < 0:
        prow = rows[r] = [-v for v in prow]
        piv = -piv
    det = tab.det
    if piv == det:
        nonzero = [k for k, b in enumerate(prow) if b]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for k in nonzero:
                    row[k] -= f * prow[k] // det
    else:
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(piv * a - f * b) // det for a, b in zip(row, prow)]
            else:
                rows[i] = [(piv * a) // det for a in row]
    tab.det = piv
    tab.at[:] = [piv] * len(rows)
    tab.basis[r] = c


@pytest.fixture(scope="module")
def package_programs():
    """Seeded programs of every kind the package builds, by kind:
    lottery LPs (decomposability and ex-post efficiency), trade LPs and
    the efficiency programs with their >= rows (direction programs, and
    programs over Q for an invalid P)."""
    programs = {"lottery": [], "trade": [], "efficiency": []}
    real = axioms.solve
    kind = []

    def recording(prog):
        programs[kind[-1]].append(prog)
        return real(prog)

    def tagged(name, fn):
        def wrapper(*args):
            kind.append(name)
            try:
                return fn(*args)
            finally:
                kind.pop()

        return wrapper

    rng = random.Random("lazy-programs")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "solve", recording)
        mp.setattr(axioms, "_cyclic_sd_efficiency", tagged("trade", axioms._cyclic_sd_efficiency))
        mp.setattr(axioms, "_sd_efficiency_lp", tagged("efficiency", axioms._sd_efficiency_lp))
        kind.append("lottery")
        for n, p in ((2, 2), (3, 1), (3, 2), (4, 1)):
            for k in ("general", "cpnet", "independent"):
                inst = spaces.random_profile(rng, n, p, k)
                outputs = [mps(inst)[0], mgd(inst), mrp(inst).assignment]
                # a mixture of random shares: an invalid P more often than not
                rows = [[rng.randint(0, 2) for _ in range(inst.m)] for _ in range(n)]
                outputs.append(FractionalAssignment(tuple(map(tuple, rows)), max(map(sum, rows)) or 1))
                for P in outputs:
                    axioms.check_decomposability(inst, P)
                    axioms.check_sd_efficiency(inst, P)
                    axioms._sd_efficiency_lp(inst, P)
                    if (n, p) != (3, 2):
                        axioms.check_ex_post_efficiency(inst, P)
    return programs


def _inequality_lp(rng):
    """A random program of <= and >= rows, often infeasible; a <= row is
    its negated >= row."""
    n = rng.randint(2, 6)
    rows = [
        (tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice([-1, 1]), rng.randint(-4, 6))
        for _ in range(rng.randint(2, 6))
    ]
    return LinearProgram(n, tuple(Constraint(tuple(s * a for a in c), ">=", s * b) for c, s, b in rows))


def _differential_programs(package_programs):
    rng = random.Random("lazy-random")
    return [
        *(prog for progs in package_programs.values() for prog in progs),
        *_planted_lps(120, 17),
        *(_inequality_lp(rng) for _ in range(200)),
        *(_equality_lp(rng, kind) for kind in ("unique", "negative", "inconsistent", "dependent") for _ in range(30)),
    ]


def test_lazy_tableau_matches_the_eager_one(monkeypatch, package_programs):
    # status, witness, det and certificate all equal
    assert all(len(progs) >= 20 for progs in package_programs.values())
    assert any(c.rel == ">=" for prog in package_programs["efficiency"] for c in prog.constraints)
    programs = _differential_programs(package_programs)
    lazy = [solve(prog) for prog in programs]
    monkeypatch.setattr(lp_module._IntTableau, "pivot", _eager_pivot)
    eager = [solve(prog) for prog in programs]
    assert lazy == eager
    assert {out.status for out in lazy} == {"optimal", "infeasible"}


def test_blands_rule_from_the_first_pivot_decides_the_same(monkeypatch, package_programs):
    # with DEGENERATE_LIMIT 0 phase 1 prices by Bland's rule throughout;
    # every program the package builds gets the same status as under
    # Dantzig's pricing.  A program with more than one feasible point or
    # certificate may get another one, which solve() verifies all the same.
    programs = [prog for progs in package_programs.values() for prog in progs]
    dantzig = [solve(prog).status for prog in programs]
    monkeypatch.setattr(lp_module, "DEGENERATE_LIMIT", 0)
    assert [solve(prog).status for prog in programs] == dantzig
    assert set(dantzig) == {"optimal", "infeasible"}


def test_every_row_brought_up_to_date_equals_the_eager_row(monkeypatch, package_programs):
    lazy_pivot = lp_module._IntTableau.pivot
    seen = {"pivots": 0, "stale": 0, "stale_rewrites": 0}

    def checked(tab, r, c):
        det = tab.det
        ref = SimpleNamespace(
            rows=[[a * det // d for a in row] for row, d in zip(tab.rows, tab.at)],
            at=list(tab.at),
            det=det,
            basis=list(tab.basis),
        )
        _eager_pivot(ref, r, c)
        seen["stale_rewrites"] += sum(1 for i, row in enumerate(tab.rows) if i != r and row[c] and tab.at[i] != det)
        lazy_pivot(tab, r, c)
        assert (tab.det, tab.basis) == (ref.det, ref.basis)
        for row, d, want in zip(tab.rows, tab.at, ref.rows):
            assert all(a * tab.det % d == 0 for a in row)
            assert [a * tab.det // d for a in row] == want
            seen["stale"] += d != tab.det
        seen["pivots"] += 1

    monkeypatch.setattr(lp_module._IntTableau, "pivot", checked)
    for prog in _differential_programs(package_programs):
        solve(prog)
    # rows were left stale, and stale rows with a nonzero in the pivot
    # column were rewritten straight from their own determinant
    assert seen["pivots"] > 1000 and seen["stale"] > 1000 and seen["stale_rewrites"] > 100, seen


def test_elimination_leaves_a_zero_row_to_the_simplex_without_pivoting(monkeypatch, package_programs):
    # a row 0 = b with b != 0 makes the program infeasible before any
    # pivot; the simplex then finds the same certificate as without
    # the elimination
    rng = random.Random("zero-row")
    programs = [
        prog for prog in package_programs["lottery"] if any(c.rhs and not any(c.coeffs) for c in prog.constraints)
    ]
    assert programs
    for _ in range(40):
        prog = _equality_lp(rng, rng.choice(["unique", "negative", "dependent"]))
        rows = list(prog.constraints)
        rows.insert(rng.randrange(len(rows) + 1), Constraint((0,) * prog.num_vars, "=", rng.choice([-2, -1, 1, 3])))
        programs.append(LinearProgram(prog.num_vars, tuple(rows)))

    def no_pivot(tab, r, c):
        raise RuntimeError("pivoted")

    for prog in programs:
        ref = lp_module._verified(prog, lp_module._presolved_simplex(prog))
        assert ref.status == "infeasible"
        with monkeypatch.context() as mp:
            mp.setattr(lp_module._IntTableau, "pivot", no_pivot)
            assert lp_module._eliminated(prog) is None
        assert solve(prog) == ref


_TAMPER = """
import dataclasses
import sys
from mtra import lp
from mtra.errors import MtraError, SoundnessError

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
real = lp._simplex


def tampered(*args, **kwargs):
    out = real(*args, **kwargs)
    if out.optimal:
        return dataclasses.replace(out, witness=tuple(v + out.det for v in out.witness))
    return dataclasses.replace(out, certificate=tuple(-v for v in out.certificate))


lp._simplex = tampered
feasible = lp.LinearProgram(2, (lp.Constraint((-1, -1), ">=", -1),))
infeasible = lp.LinearProgram(1, (lp.Constraint((1,), ">=", 1), lp.Constraint((-1,), ">=", 0)))
for prog in (feasible, infeasible):
    try:
        lp.solve(prog)
    except SoundnessError as exc:
        print("caught:", exc)
    else:
        print("missed")
"""


_ELIMINATION_TAMPER = """
import dataclasses
import sys
from mtra import lp
from mtra.errors import MtraError, SoundnessError

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
real = lp._eliminated


def tampered(prog):
    out = real(prog)
    if out is None:
        sys.exit("the elimination did not decide the program")
    nums = list(out.witness)
    nums[0] += 1
    return dataclasses.replace(out, witness=tuple(nums))


lp._eliminated = tampered
# x0 + x1 = 3, x0 - x1 = 1: the one point (2, 1)
prog = lp.LinearProgram(2, (lp.Constraint((1, 1), "=", 3), lp.Constraint((1, -1), "=", 1)))
try:
    lp.solve(prog)
except SoundnessError as exc:
    print("caught:", exc)
else:
    print("missed")
"""


def test_elimination_check_survives_python_O():
    src = str(Path(lp_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _ELIMINATION_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["caught: witness violates constraint 0"]


_ROW_TAMPER = """
import random
import sys
from mtra import check_decomposability, lp, mps, spaces
from mtra.errors import MtraError, SoundnessError

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
inst = spaces.random_profile(random.Random(0), 3, 1, "general")
P = mps(inst)[0]
if not check_decomposability(inst, P).passed:
    sys.exit("the lottery LP is feasible untampered")
# stale rows read as if they were exact at the current determinant
lp._IntTableau.row = lambda self, i: self.rows[i]
try:
    check_decomposability(inst, P)
except SoundnessError as exc:
    print("caught:", exc)
else:
    print("missed")
"""


def test_stale_rows_are_caught_under_python_O():
    src = str(Path(lp_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _ROW_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["caught: witness violates constraint 0"]


def test_soundness_checks_survive_python_O():
    src = str(Path(lp_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == ["caught: witness violates constraint 0", "caught: certificate sign clash on constraint 0"]


def test_no_assert_statements_in_src():
    # Soundness checks must raise explicitly, since python -O strips asserts.
    package = Path(lp_module.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_environment_read_in_src():
    # results are pure functions of the inputs: no module reads a setting
    # from the process environment
    package = Path(lp_module.__file__).resolve().parent
    names = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
        and node.attr in names
        or isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name in names for a in node.names)
    ]
    assert found == []


def test_src_imports_only_the_standard_library():
    # numpy, scipy and hypothesis are installed for the tests, so only this
    # keeps them out of the runtime
    package = Path(lp_module.__file__).resolve().parent
    allowed = sys.stdlib_module_names | {"mtra"}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import is mtra itself
            found.extend(f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed)
    assert found == []


def test_src_imports_no_private_checker_or_mechanism_names():
    # a private helper of axioms.py, mechanisms.py or model.py is used in
    # its own module only
    package = Path(lp_module.__file__).resolve().parent
    modules = {(1, name) for name in ("axioms", "mechanisms", "model")}
    modules |= {(0, "mtra." + name) for name in ("axioms", "mechanisms", "model")}
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in modules
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_checkers_import_no_private_mechanism_names():
    # the checkers and the CPT search re-run mechanisms through the public
    # interface of mechanisms.py, `reruns` above all
    package = Path(lp_module.__file__).resolve().parent
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name in ("axioms.py", "manipulation.py")
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "mechanisms"), (0, "mtra.mechanisms"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_witness_runs_and_the_digit_bound_have_one_owner():
    # the checkers' from-scratch witness run is `_Reruns.fresh`, and the
    # common-denominator bound is kept by `model.FractionalAssignment.from_pairs`
    package = Path(lp_module.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name == "with_preference" and path.name in ("axioms.py", "manipulation.py"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
            if name == "DIGIT_BOUND" and path.name != "model.py":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []


def test_lp_imports_nothing_from_fractions():
    # the solver takes and returns integers only
    tree = ast.parse(Path(lp_module.__file__).read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    ]
    assert found == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: LinearProgram(1, (Constraint((F(-1, 2),), ">=", -1),)),
        lambda: LinearProgram(1, (Constraint((-1,), ">=", F(-1, 2)),)),
    ],
    ids=["coefficient", "rhs"],
)
def test_linear_program_refuses_a_fraction(make):
    # the integer tableau would floor a Fraction instead of using it
    with pytest.raises(TypeError):
        make()


def test_a_linear_program_is_its_rows_alone():
    # the solver decides feasibility only: no objective to set
    assert [f.name for f in dataclasses.fields(LinearProgram)] == ["num_vars", "constraints"]
    assert [f.name for f in dataclasses.fields(lp_module.LpOutcome)] == ["status", "witness", "det", "certificate"]


def test_no_process_cache_keyed_by_an_instance():
    # A process-wide cache keyed by an instance keeps every instance it has
    # seen alive; a memo on an instance goes with it.
    package = Path(lp_module.__file__).resolve().parent

    def is_cache(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        return name in ("lru_cache", "cache")

    def names_instance(annotation):
        return any(
            isinstance(node, ast.Name) and node.id == "Instance"
            or isinstance(node, ast.Constant) and "Instance" in str(node.value)
            for node in ast.walk(annotation)
        )

    found = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(is_cache(d) for d in node.decorator_list)
        and any(
            arg.annotation is not None and names_instance(arg.annotation)
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
    ]
    assert found == []
