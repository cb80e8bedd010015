import sys
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from spherejoin import (
    SimplicialComplex,
    boundary_of_simplex,
    build_complex,
    reconstruct_from_non_faces,
    simplex_boundary_on,
)
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


def octahedron_on_pairs():
    k = simplex_boundary_on([0, 1]).join(simplex_boundary_on([2, 3]))
    return k.join(simplex_boundary_on([4, 5]))


@pytest.fixture
def octahedron():
    return octahedron_on_pairs()


def pinched_octahedron():
    """The octahedron with the opposite triangles {0,2,4} and {1,3,5}
    stellar-subdivided and the two new vertices identified, as vertex 0.

    A strongly connected pseudomanifold, not a sphere: the link of vertex 0
    is two disjoint triangles.
    """
    k = octahedron_on_pairs().stellar_subdivide({0, 2, 4}).stellar_subdivide({1, 3, 5})
    rename = {6: 0, 7: 0, **{v: v + 1 for v in range(6)}}
    return SimplicialComplex([{rename[v] for v in f} for f in k.maximal_faces])


def pinched_cylinder():
    """Vertex 0 coned over two tetrahedron boundaries, on a = [1, 2, 3, 4]
    and b = [5, 6, 7, 8], which the staircase triangulation of the boundary
    of a tetrahedron times an interval joins: for i < j < k, the tetrahedra
    {a_i,a_j,a_k,b_k}, {a_i,a_j,b_j,b_k} and {a_i,b_i,b_j,b_k}.

    A strongly connected pseudomanifold whose vertex 0 has a link that is
    not: two disjoint tetrahedron boundaries.  Its first codimension-2 face
    with a long link, the edge {1, 2} with a 6-cycle, lies outside the star
    of vertex 0.
    """
    a, b = [1, 2, 3, 4], [5, 6, 7, 8]
    faces = [{0, *t} for part in (a, b) for t in combinations(part, 3)]
    for i, j, k in combinations(range(4), 3):
        faces += [{a[i], a[j], a[k], b[k]}, {a[i], a[j], b[j], b[k]}, {a[i], b[i], b[j], b[k]}]
    return build_complex(faces, 9)


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


@st.composite
def subdivided_boundaries(draw, max_vertices):
    """The boundary of a simplex after a few stellar subdivisions of facets."""
    k = boundary_of_simplex(draw(st.integers(min_value=1, max_value=min(4, max_vertices - 1))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if k.dim < 1 or k.vertex_count >= max_vertices:
            break
        k = k.stellar_subdivide(draw(st.sampled_from(k.maximal_faces)))
    return k


@st.composite
def spheres(draw, max_vertices=8):
    """Pseudomanifolds near the criteria's positives: subdivided simplex
    boundaries, their joins and the pinched octahedron, randomly relabelled."""
    kind = draw(st.sampled_from(["subdivided", "join", "pinch"]))
    if kind == "pinch":
        k = pinched_octahedron()
    else:
        k = draw(subdivided_boundaries(max_vertices))
        room = max_vertices - k.vertex_count
        if kind == "join" and room >= 2:
            other = draw(subdivided_boundaries(room))
            k = k.join(other.relabel({v: v + k.vertex_count for v in other.vertices}))
    perm = draw(st.permutations(list(k.vertices)))
    return k.relabel(dict(zip(k.vertices, perm)))


def wedge(k, sizes):
    """The simplicial wedge k(sizes): vertex i of k, in vertex order, becomes
    a run of sizes[i] consecutive vertices, and the minimal non-faces are
    k's, each vertex replaced by its run."""
    start = list(accumulate([0, *sizes]))
    runs = {v: range(start[i], start[i + 1]) for i, v in enumerate(k.vertices)}
    lifted = [{u for v in nf for u in runs[v]} for nf in k.minimal_non_faces()]
    return reconstruct_from_non_faces(range(start[-1]), lifted)


@st.composite
def wedges(draw, max_vertices=11):
    """Wedges of `complexes` and `spheres` draws with runs of 1-3 vertices,
    randomly relabelled, so that twins need not be neighbours."""
    k = draw(st.one_of(complexes(max_vertices=5), spheres(max_vertices=5)))
    sizes = []
    for _ in k.vertices:
        room = max_vertices - sum(sizes) - (k.vertex_count - len(sizes) - 1)
        sizes.append(draw(st.integers(min_value=1, max_value=min(3, room))))
    k = wedge(k, sizes)
    perm = draw(st.permutations(list(k.vertices)))
    return k.relabel(dict(zip(k.vertices, perm)))
