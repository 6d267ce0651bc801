import math
from fractions import Fraction

import pytest

from mtra import fixtures
from mtra import preferences as prefs
from mtra.io import build_instance
from mtra.lp import Constraint, LinearProgram, solve


def constraint(coeffs, rel, rhs):
    """A row with rational entries, scaled to integers by the lcm of
    their denominators."""
    fracs = [Fraction(v) for v in (*coeffs, rhs)]
    scale = math.lcm(*(v.denominator for v in fracs))
    ints = [int(v * scale) for v in fracs]
    return Constraint(tuple(ints[:-1]), rel, ints[-1])


def max_is(num_vars, constraints, c, v):
    """Is the largest c.x over x >= 0 and the integer ``constraints``
    exactly v?  Two feasibility programs decide it, each solved and
    verified by :func:`mtra.lp.solve`, so no optimum is taken on trust:

    * the constraints with c.x >= v added: some x reaches v;
    * the dual certificate, y with A^T y >= c and b.y <= v, y_i >= 0 on a
      <= row, y_i <= 0 on a >= row and free on an equality: every
      feasible x has c.x <= y.Ax <= y.b <= v.

    ``c`` and ``v`` may be Fractions; the added rows are scaled to
    integers.  A free y_i is split into two nonnegative columns."""
    reached = solve(LinearProgram(num_vars, (*constraints, constraint(c, ">=", v))))
    signs = {"<=": (1,), ">=": (-1,), "=": (1, -1)}
    cols = [(row, s) for row in constraints for s in signs[row.rel]]
    dual = [constraint([s * row.coeffs[j] for row, s in cols], ">=", c[j]) for j in range(num_vars)]
    dual.append(constraint([s * row.rhs for row, s in cols], "<=", v))
    bounded = solve(LinearProgram(len(cols), tuple(dual)))
    return reached.optimal and bounded.optimal


def independent_net(orders):
    """The CP-net with no dependencies in which type t ranks its items
    as ``orders[t]``, best first."""
    orders = [tuple(order) for order in orders]
    return prefs.CPNet(tuple(map(len, orders)), ((),) * len(orders), tuple((((), order),) for order in orders))


@pytest.fixture(scope="session")
def mixed_pair():
    return fixtures.mixed_pair()


@pytest.fixture(scope="session")
def dependent_pair():
    return fixtures.dependent_pair()


@pytest.fixture(scope="session")
def blank_vs_chain():
    return fixtures.blank_vs_chain()


@pytest.fixture(scope="session")
def three_chains():
    return fixtures.three_chains()


@pytest.fixture(scope="session")
def opposed_trio():
    return fixtures.opposed_trio()


@pytest.fixture(scope="session")
def own_items_first():
    """150 agents over one type, agent j ranking item j above all the
    others.  Every agent gets its own item in every priority order, so
    each set of served agents is one state of the exact-MRP pass: its
    depth k holds C(150, k) states taking C(150, k) * (150 - k) turns,
    and depths 0 to 2 need 150 + 22 350 + 1 653 900 = 1 676 400."""
    items = [f"{i}F" for i in range(1, 151)]
    return build_instance(
        {
            "agents": 150,
            "types": [{"name": "F", "items": items}],
            "preferences": [
                {"kind": "partial", "edges": [[own, x] for x in items if x != own]}
                for own in items
            ],
        }
    )
