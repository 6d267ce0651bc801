import pytest

from mtra import fixtures
from mtra import preferences as prefs
from mtra.io import build_instance


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
