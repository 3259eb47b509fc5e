import numpy as np
import pytest

from euler3d import AnisotropyMatrix, FrameSet, TruncationSpec, build_lattice, random_divfree_state


@pytest.fixture(scope="session")
def modes1():
    return build_lattice(TruncationSpec(1), AnisotropyMatrix())


@pytest.fixture(scope="session")
def frames1(modes1):
    return FrameSet(modes1)


@pytest.fixture(scope="session")
def modes2():
    return build_lattice(TruncationSpec(2), AnisotropyMatrix())


@pytest.fixture(scope="session")
def frames2(modes2):
    return FrameSet(modes2)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def df_state1(modes1):
    return random_divfree_state(modes1, seed=7, amplitude=1.0)


@pytest.fixture
def df_state2(modes2):
    return random_divfree_state(modes2, seed=7, amplitude=1.0)


@pytest.fixture(scope="session")
def modes_box2():
    # an anisotropic box: the y wavenumbers are not exact floats
    return build_lattice(TruncationSpec(2), AnisotropyMatrix(1.0, 0.3, 1.0))


@pytest.fixture(scope="session")
def frames_box2(modes_box2):
    return FrameSet(modes_box2)


AXIS_REFERENCES = {
    "+x": (1.0, 0, 0), "-x": (-1.0, 0, 0), "+y": (0, 1.0, 0),
    "-y": (0, -1.0, 0), "+z": (0, 0, 1.0), "-z": (0, 0, -1.0),
}


@pytest.fixture(scope="session", params=list(AXIS_REFERENCES.values()), ids=list(AXIS_REFERENCES))
def frames_box2_axis(modes_box2, request):
    # the anisotropic box under each of the six axis references
    return FrameSet(modes_box2, np.array(request.param))
