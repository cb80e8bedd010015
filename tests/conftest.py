import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from spherejoin import SimplicialComplex, build_complex, simplex_boundary_on
from spherejoin.catalog import build_catalog


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture
def square():
    return build_complex([{0, 1}, {1, 2}, {2, 3}, {3, 0}], 4)


@pytest.fixture
def pentagon():
    return build_complex([{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}], 5)


@pytest.fixture
def octahedron():
    k = simplex_boundary_on([0, 1]).join(simplex_boundary_on([2, 3]))
    return k.join(simplex_boundary_on([4, 5]))


def cycle(k):
    return build_complex([{i, (i + 1) % k} for i in range(k)], k)


@st.composite
def complexes(draw, max_vertices=6):
    m = draw(st.integers(min_value=1, max_value=max_vertices))
    n_faces = draw(st.integers(min_value=0, max_value=6))
    faces = [
        draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1, max_size=m))
        for _ in range(n_faces)
    ]
    faces.extend({v} for v in range(m))  # cover every vertex
    return SimplicialComplex(faces, vertices=range(m))
