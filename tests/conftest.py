import pytest

from dexchange import CutSetOracle, ProblemInstance, preset_instance


@pytest.fixture(scope="session")
def demo():
    """The bundled three-user, six-packet raw-packet instance."""
    return preset_instance("example1")


@pytest.fixture()
def demo_oracle(demo):
    return CutSetOracle(demo)


@pytest.fixture(scope="session")
def demo19():
    """Same instance over GF(19), the field used by the reference trace."""
    return preset_instance("example1", q=19)


@pytest.fixture(scope="session")
def short_user():
    """Two users over GF(2) with ranks 3 and 5 on N = 5 packets: user 0
    lacks 2 packets, so every budget below 2 is infeasible, and the minimum
    sum rate is 2."""
    return ProblemInstance.from_json_dict({
        "q": 2,
        "N": 5,
        "users": [
            {"rows": [[1, 0, 1, 1, 1], [0, 1, 1, 0, 1], [0, 1, 0, 1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 1, 0]]},
            {"rows": [[1, 0, 0, 1, 1], [1, 0, 0, 1, 0], [1, 1, 0, 0, 1], [1, 0, 1, 1, 0], [1, 0, 0, 0, 1]]},
        ],
    })
