import pytest

from gframes import GFrameFamily, MeasureSpace


@pytest.fixture
def space2():
    return MeasureSpace([1.0, 1.0])


@pytest.fixture
def lam_family(space2):
    """Blocks ([1], [0]) on a one-dimensional domain."""
    return GFrameFamily(space=space2, domain_dim=1, blocks=([1.0], [0.0]))


@pytest.fixture
def theta_family(space2):
    """Blocks ([1], [1]) on a one-dimensional domain."""
    return GFrameFamily(space=space2, domain_dim=1, blocks=([1.0], [1.0]))


@pytest.fixture
def ortho_family(space2):
    """Blocks ([0], [1]); strongly disjoint from lam_family."""
    return GFrameFamily(space=space2, domain_dim=1, blocks=([0.0], [1.0]))


@pytest.fixture
def identity_family(space2):
    """Rows of the 2x2 identity, one per atom; Parseval and Riesz-type."""
    return GFrameFamily(
        space=space2, domain_dim=2, blocks=([[1.0, 0.0]], [[0.0, 1.0]])
    )
