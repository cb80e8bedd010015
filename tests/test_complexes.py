import json
import tracemalloc
from itertools import chain, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from spherejoin import (
    IndexOutOfRangeError,
    InternalInvariantError,
    InvalidDimensionError,
    InvalidParameterError,
    NotAFaceError,
    NotMaximalError,
    SimplicialComplex,
    UncoveredVertexError,
    boundary_of_simplex,
    build_complex,
    cycle_length,
    double,
    dual_boundary_complex,
    gen_simplex,
    gen_truncated,
    incidence_from_hv,
    is_pseudomanifold,
    reconstruct_from_non_faces,
    simplex_boundary_on,
)
from spherejoin import complexes as complexes_module
from spherejoin.complexes import _minimal_transversals, bits, compress_masks, face_levels

from conftest import complexes, cycle, spheres
from oracle import (
    all_faces,
    compress_masks_reference,
    double_oracle,
    down_closure,
    minimal_non_faces_oracle,
    minimal_transversals_oracle,
)


def faces_of(k):
    return {frozenset(f) for f in k.maximal_faces}


class TestBuild:
    def test_triangle_graph(self):
        k = build_complex([{0, 1}, {1, 2}, {2, 0}], 3)
        assert k.dim == 1
        assert k.f_vector() == [3, 3]

    def test_domination_removed(self):
        k = build_complex([{0, 1, 2}, {0, 1}, {2}], 3)
        assert faces_of(k) == {frozenset({0, 1, 2})}

    def test_uncovered_vertex(self):
        with pytest.raises(UncoveredVertexError):
            build_complex([{0}], 2)

    def test_vertex_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            build_complex([{0, 3}], 3)
        with pytest.raises(IndexOutOfRangeError):
            build_complex([{-1, 0}], 2)

    def test_bool_vertex_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            build_complex([[True, 0], [1, 2], [0, 2]], 3)
        data = json.loads('{"m": 3, "maximal_faces": [[true, 0], [1, 2], [0, 2]]}')
        with pytest.raises(IndexOutOfRangeError):
            SimplicialComplex.from_json_dict(data)

    @pytest.mark.parametrize("m", ["true", "1.7", '"1"', "null", "3.0"])
    def test_json_m_must_be_integer(self, m):
        data = json.loads(f'{{"m": {m}, "maximal_faces": [[0]]}}')
        with pytest.raises(InvalidParameterError):
            SimplicialComplex.from_json_dict(data)

    def test_huge_uncovered_vertex_count(self):
        data = {"m": 10**6, "maximal_faces": [[0, 1]]}
        with pytest.raises(UncoveredVertexError) as info:
            SimplicialComplex.from_json_dict(data)
        assert str(info.value) == (
            "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] (of 999998) appear in no face"
        )

    def test_empty_complex(self):
        k = SimplicialComplex([])
        assert k.dim == -1
        assert k.is_empty
        assert k.f_vector() == []
        assert frozenset() in k


class TestConstructorErrors:
    """Each constructor's typed error and exact message, one fault per input."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: SimplicialComplex([{0, 1}], vertices=[1, 0, 1]),
                IndexOutOfRangeError,
                "duplicate vertex ids in (0, 1, 1)",
            ),
            (
                lambda: SimplicialComplex([{0, 1}], vertices=[0, 1, 2, 3]),
                UncoveredVertexError,
                "vertices [2, 3] appear in no face",
            ),
            (
                lambda: SimplicialComplex([{0, 1}, {1, 4}], vertices=[0, 1]),
                IndexOutOfRangeError,
                "faces use vertices [4] outside the declared set",
            ),
            (
                lambda: SimplicialComplex([{0, 1}], labels=["a"]),
                IndexOutOfRangeError,
                "got 1 labels for 2 vertices",
            ),
            (lambda: build_complex([[0, 3]], 3), IndexOutOfRangeError, "vertex 3 outside range [0, 3)"),
            (lambda: build_complex([[0, -1]], 3), IndexOutOfRangeError, "vertex -1 outside range [0, 3)"),
            (lambda: build_complex([[0, True]], 3), IndexOutOfRangeError, "vertex True outside range [0, 3)"),
            # an entry equal to an earlier one in its face is checked too
            (lambda: build_complex([[0, 1], [1, True]], 2), IndexOutOfRangeError, "vertex True outside range [0, 2)"),
            (lambda: build_complex([[0, 1], [1, 1.0]], 2), IndexOutOfRangeError, "vertex 1.0 outside range [0, 2)"),
            (lambda: build_complex([[0]], -1), IndexOutOfRangeError, "vertex_count must be non-negative"),
            (
                lambda: build_complex([[0]], 11),
                UncoveredVertexError,
                "vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] appear in no face",
            ),
            (
                lambda: build_complex([[0, 5]], 13),
                UncoveredVertexError,
                "vertices [1, 2, 3, 4, 6, 7, 8, 9, 10, 11] (of 11) appear in no face",
            ),
            (
                lambda: build_complex([[0, 1]], 2, labels=["a", "b", "c"]),
                IndexOutOfRangeError,
                "got 3 labels for 2 vertices",
            ),
            (
                lambda: simplex_boundary_on([3, 3]),
                InvalidDimensionError,
                "a simplex boundary needs at least 2 vertices",
            ),
        ],
    )
    def test_single_fault(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message

    def test_huge_declared_count_stays_small(self):
        # coverage is counted before any vertex becomes a bit: a mask of bit
        # 10**9 - 1 alone would take 125 MB
        tracemalloc.start()
        try:
            with pytest.raises(UncoveredVertexError) as info:
                build_complex([[10**9 - 1]], 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "vertices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] (of 999999999) appear in no face"
        )
        assert peak < 1 << 20


class TestBasicInvariants:
    def test_dimension_and_f_vector(self, square):
        assert boundary_of_simplex(2).f_vector() == [3, 3]
        assert square.dim == 1 and square.f_vector() == [4, 4]
        assert boundary_of_simplex(3).f_vector() == [4, 6, 4]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(complexes(), spheres()))
    @example(build_complex([{0, 1, 2}, {2, 3}, {4}], 5))
    @example(SimplicialComplex([]))
    def test_faces_by_dim_matches_powerset_oracle(self, k):
        by_dim = k.faces_by_dim()
        assert len(by_dim) == k.dim + 1
        for d, level in enumerate(by_dim):
            assert level == sorted(set(level))
            assert all(f.bit_count() == d + 1 for f in level)
        got = {tuple(sorted(k._unmask(f))) for level in by_dim for f in level}
        assert got == all_faces(k.maximal_faces) - {()}

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(complexes(), spheres(), spheres().map(double)))
    @example(double(cycle(5)))
    @example(double(cycle(6)))
    @example(SimplicialComplex([]))
    def test_face_levels_match_down_closure(self, k):
        # bottom-up from the minimal non-faces, level by level, the lists
        # the reference gets top-down from the maximal faces
        by_dim = down_closure(k._max_masks)
        non_faces = [k._mask(nf) for nf in k.minimal_non_faces()]
        start = {0: k._full_mask}
        for n in range(len(by_dim) + 2):
            levels = list(islice(face_levels(non_faces, start), n))
            assert [sorted(level) for level in levels] == by_dim[:n]
        levels = list(face_levels(non_faces, start))
        # each level's masks name the faces of the next one, and going on
        # from a level gives the next, masks and all
        for above, level in zip([start, *levels], [*by_dim, []]):
            assert sorted(f | v for f, e in above.items() for v in bits(e)) == level
        for above, after in zip(levels, [*levels[1:], None]):
            assert next(face_levels(non_faces, above), None) == after
        yielded = list(chain.from_iterable(levels))
        assert len(yielded) == len(set(yielded)) == sum(map(len, by_dim))
        assert not set(yielded) & set(non_faces)
        assert k.faces_by_dim() == by_dim

    def test_membership(self, square):
        assert {0, 1} in square
        assert {0, 2} not in square
        assert frozenset() in square
        assert {0} in square

    def test_equality_ignores_labels(self):
        a = build_complex([{0, 1}], 2)
        b = build_complex([{0, 1}], 2, labels=["x", "y"])
        assert a == b
        assert hash(a) == hash(b)


class TestLink:
    def test_square_vertex_link(self, square):
        lk = square.link({0})
        assert faces_of(lk) == {frozenset({1}), frozenset({3})}

    def test_tetrahedron_ridge_link(self):
        lk = boundary_of_simplex(3).link({0, 1})
        assert faces_of(lk) == {frozenset({2}), frozenset({3})}

    def test_join_link_is_cycle(self):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        lk = k.link({0})
        # brute force: cofaces of {0} in the join, minus {0}
        expect = {frozenset(f) - {0} for f in k.maximal_faces if 0 in f}
        assert faces_of(lk) == expect
        assert cycle_length(lk) == 4

    def test_link_of_empty_face_is_identity(self, square):
        assert square.link(frozenset()) is square

    def test_link_records_ambient(self):
        two_triangles = build_complex([{0, 1, 2}, {0, 1, 3}], 4)
        lk = two_triangles.link({2})
        assert lk.vertices == (0, 1)
        assert lk.ambient_vertices == (0, 1, 3)

    def test_not_a_face(self, square):
        with pytest.raises(NotAFaceError):
            square.link({0, 2})


@st.composite
def supported_masks(draw):
    """A support mask, up to 130 bits so that runs cross machine words, and
    masks inside it."""
    support = draw(st.integers(min_value=0, max_value=(1 << 130) - 1))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << 130) - 1), max_size=8))
    return [t & support for t in masks], support


class TestCompressMasks:
    @settings(max_examples=200, deadline=None)
    @given(supported_masks())
    # no support, one run from bit 0, one run above it, runs of one bit
    @example(([0], 0))
    @example(([0b101, 0b111], 0b111))
    @example(([0b11000, 0b01000], 0b11000))
    @example(([0b1010101, 0b1000001], 0b1010101))
    def test_matches_bit_by_bit_reference(self, case):
        masks, support = case
        assert compress_masks(masks, support) == compress_masks_reference(masks, support)


class TestFullSubcomplex:
    def test_square_diagonal(self, square):
        sub = square.full_subcomplex({0, 2})
        assert faces_of(sub) == {frozenset({0}), frozenset({2})}
        assert sub.vertices == (0, 2)

    def test_triangle_edge(self):
        sub = boundary_of_simplex(2).full_subcomplex({0, 1})
        assert faces_of(sub) == {frozenset({0, 1})}

    def test_join_restriction(self):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        sub = k.full_subcomplex({2, 4})
        assert faces_of(sub) == {frozenset({2, 4})}

    def test_empty_subset(self, square):
        sub = square.full_subcomplex(set())
        assert sub.is_empty

    def test_identity_and_monotone(self, square):
        assert square.full_subcomplex(square.vertices) == square
        w2 = {0, 1, 2}
        w1 = {0, 2}
        assert square.full_subcomplex(w1) == square.full_subcomplex(w2).full_subcomplex(w1)


class TestJoin:
    def test_square_as_join(self, square):
        j = simplex_boundary_on([0, 2]).join(simplex_boundary_on([1, 3]))
        assert j == square

    def test_prism_dual(self):
        j = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        assert j.vertex_count == 5
        assert j.f_vector()[-1] == 6 and j.dim == 2

    def test_octahedron(self, octahedron):
        assert octahedron.f_vector() == [6, 12, 8]

    def test_disjointness_required(self, square):
        with pytest.raises(IndexOutOfRangeError):
            square.join(square)

    def test_dim_additivity(self, square, octahedron):
        k = square.relabel({v: v + 10 for v in square.vertices})
        j = octahedron.join(k)
        assert j.dim == octahedron.dim + square.dim + 1


class TestRelabel:
    def test_non_injective_map_rejected(self, square):
        with pytest.raises(IndexOutOfRangeError, match="not injective"):
            square.relabel({0: 5, 1: 5, 2: 6, 3: 7})
        with pytest.raises(IndexOutOfRangeError, match="not injective"):
            square.relabel({0: 5, 1: 6, 2: 7, 3: 5, 9: 8})

    def test_injective_on_the_vertices_with_extra_keys(self, square):
        # a key off the vertex set may repeat a value: the map is injective
        # where it is read
        k = square.relabel({0: 5, 1: 6, 2: 7, 3: 8, 9: 5})
        assert k == SimplicialComplex([{5, 6}, {6, 7}, {7, 8}, {8, 5}])

    def test_unmapped_vertices_rejected(self):
        k = build_complex([{0, 1}, {1, 2}, {0, 2}], 3)
        with pytest.raises(IndexOutOfRangeError, match=r"misses vertices \[1, 2\]"):
            k.relabel({0: 5})


class TestBoundaryOfSimplex:
    def test_small_cases(self):
        assert faces_of(boundary_of_simplex(1)) == {frozenset({0}), frozenset({1})}
        assert boundary_of_simplex(2).f_vector() == [3, 3]
        assert boundary_of_simplex(3).f_vector() == [4, 6, 4]

    def test_rejects_zero(self):
        with pytest.raises(InvalidDimensionError):
            boundary_of_simplex(0)

    def test_is_simplex_boundary(self, square):
        assert boundary_of_simplex(3).is_simplex_boundary()
        assert not square.is_simplex_boundary()
        assert double(simplex_boundary_on([0, 1])).is_simplex_boundary()


class TestMinimalNonFaces:
    def test_square_diagonals(self, square):
        assert [sorted(f) for f in square.minimal_non_faces()] == [[0, 2], [1, 3]]

    def test_join_parts(self):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        assert [sorted(f) for f in k.minimal_non_faces()] == [[0, 1, 2], [3, 4]]

    def test_pentagon_diagonals(self, pentagon):
        assert [sorted(f) for f in pentagon.minimal_non_faces()] == [
            [0, 2],
            [0, 3],
            [1, 3],
            [1, 4],
            [2, 4],
        ]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_against_oracle(self, k):
        c = cycle(k)
        assert set(c.minimal_non_faces()) == minimal_non_faces_oracle(
            c.vertices, c.maximal_faces
        )

    @settings(max_examples=80, deadline=None)
    @given(complexes(max_vertices=8))
    def test_random_complexes_against_oracle(self, k):
        assert set(k.minimal_non_faces()) == minimal_non_faces_oracle(
            k.vertices, k.maximal_faces
        )

    def test_simplex_has_none(self):
        assert build_complex([{0, 1, 2}], 3).minimal_non_faces() == ()
        assert SimplicialComplex([]).minimal_non_faces() == ()

    def test_reconstruct_round_trip(self, octahedron, pentagon):
        for k in (octahedron, pentagon, boundary_of_simplex(3)):
            rebuilt = reconstruct_from_non_faces(k.vertices, k.minimal_non_faces())
            assert rebuilt == k

    def test_reconstruct_rejects_a_vertex_in_no_face(self):
        # a one-vertex non-face leaves that vertex in no face
        with pytest.raises(UncoveredVertexError):
            reconstruct_from_non_faces([0, 1, 2], [{0}])


@st.composite
def edge_families(draw):
    """(vertex count, edges as bitmasks), with duplicate, nested and empty
    edges derived from the drawn ones."""
    n = draw(st.integers(min_value=0, max_value=10))
    full = (1 << n) - 1
    edges = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=7))
    if edges:
        # base & mask: mask = full duplicates an edge, mask = 0 gives the empty one
        derived = st.tuples(st.sampled_from(edges), st.integers(min_value=0, max_value=full))
        edges += [e & mask for e, mask in draw(st.lists(derived, max_size=3))]
    return n, draw(st.permutations(edges))


def facet_complements(k):
    """(vertex count, the complements of the maximal faces as masks)."""
    return k.vertex_count, [k._full_mask & ~f for f in k._max_masks]


def truncation_chain(d, m):
    """The dual complex of the d-simplex, truncated at vertex 0 until it has m vertices."""
    inc = incidence_from_hv(*gen_simplex(d))
    for _ in range(m - d - 1):
        inc = gen_truncated(inc, 0)
    return dual_boundary_complex(inc)


class TestMinimalTransversals:
    @settings(max_examples=300, deadline=None)
    @given(edge_families())
    @example((0, []))
    @example((3, [0]))
    @example((4, [0b0011, 0b0011, 0b0111, 0b1100]))
    @example((5, [0b11111, 0b00001, 0b00110, 0b00010, 0]))
    # the facet complements of complexes: their minimal transversals are
    # the minimal non-faces, many more than the random families reach
    @example(facet_complements(cycle(13)))
    @example(facet_complements(truncation_chain(4, 12)))
    def test_against_powerset_oracle(self, family):
        n, edges = family
        got = _minimal_transversals(edges)
        assert len(got) == len(set(got))
        assert set(got) == minimal_transversals_oracle(n, edges)


class TestPseudomanifold:
    def test_sphere(self):
        rep = is_pseudomanifold(boundary_of_simplex(3))
        assert rep.holds and rep.is_pure and rep.strongly_connected
        assert rep.ridge_violations == ()

    def test_disk_has_boundary_ridges(self):
        rep = is_pseudomanifold(build_complex([{0, 1, 2}, {0, 1, 3}], 4))
        assert not rep.holds
        assert {tuple(sorted(r)) for r in rep.ridge_violations} == {
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
        }

    def test_pentagon_is_pseudomanifold(self, pentagon):
        assert is_pseudomanifold(pentagon).holds

    def test_dim_zero_rejected(self):
        with pytest.raises(InvalidDimensionError):
            is_pseudomanifold(simplex_boundary_on([0, 1]))

    def test_disconnected(self):
        k = build_complex([{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}], 6)
        rep = is_pseudomanifold(k)
        assert rep.is_pure and not rep.strongly_connected and not rep.holds


class TestStellarSubdivide:
    def test_triangle_edge_gives_square(self):
        k = boundary_of_simplex(2).stellar_subdivide({0, 1})
        assert cycle_length(k) == 4

    def test_square_edge_gives_pentagon(self, square):
        assert cycle_length(square.stellar_subdivide({0, 1})) == 5

    def test_tetrahedron_facet(self):
        k = boundary_of_simplex(3).stellar_subdivide({0, 1, 2})
        assert k.f_vector() == [5, 9, 6]
        assert is_pseudomanifold(k).holds
        # combinatorially this is the dual of the triangular prism
        assert k == boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))

    def test_not_maximal(self, square):
        with pytest.raises(NotMaximalError):
            square.stellar_subdivide({0})

    def test_preserves_pseudomanifold(self, octahedron):
        for sigma in octahedron.maximal_faces[:3]:
            assert is_pseudomanifold(octahedron.stellar_subdivide(sigma)).holds


class TestDouble:
    def test_edge_boundary_doubles_to_tetrahedron(self):
        d = double(simplex_boundary_on([0, 1]))
        assert d.is_simplex_boundary()
        assert d.vertex_count == 4

    def test_dimension_shift(self, square, pentagon, octahedron):
        for k in (square, pentagon, octahedron, boundary_of_simplex(2)):
            assert double(k).dim == k.vertex_count + k.dim

    def test_square_double_non_faces(self, square):
        d = double(square)
        assert [sorted(f) for f in d.minimal_non_faces()] == [
            [0, 1, 4, 5],
            [2, 3, 6, 7],
        ]

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_vertices=6))
    def test_double_non_faces_are_lifted(self, k):
        lifted = {
            frozenset().union(*({2 * v, 2 * v + 1} for v in nf))
            for nf in minimal_non_faces_oracle(k.vertices, k.maximal_faces)
        }
        assert set(double(k).minimal_non_faces()) == lifted

    def test_labels_suffixed(self):
        d = double(simplex_boundary_on([0, 1]))
        assert d.labels == ("v0", "v0'", "v1", "v1'")

    @staticmethod
    def _assert_lift_lemma(k):
        d = double(k)
        assert faces_of(d) == double_oracle(k.vertices, k.maximal_faces)
        assert d.vertices == tuple(range(2 * k.vertex_count))
        # the stored non-faces are the ones an enumeration finds, in order
        fresh = SimplicialComplex(d.maximal_faces, vertices=d.vertices)
        assert fresh.minimal_non_faces() == d.minimal_non_faces()

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_vertices=5))
    # a triangle with a pendant edge: facets of two sizes
    @example(build_complex([{0, 1, 2}, {2, 3}], 4))
    def test_lift_lemma_matches_definition(self, k):
        self._assert_lift_lemma(k)

    def test_lift_lemma_on_catalog(self, catalog):
        small = [e.complex for e in catalog if e.complex.vertex_count <= 6]
        assert small
        for k in small:
            self._assert_lift_lemma(k)

    def test_wrong_non_faces_raise(self, square):
        # one of the square's two diagonals dropped: the lifted family
        # round-trips on the doubled side, but not against the square
        square._minimal_non_faces = (0b0101,)
        with pytest.raises(InternalInvariantError):
            double(square)

    def test_nested_non_faces_raise(self, square):
        # a listed non-face inside another defines the same square, but
        # its lift would not be the double's minimal non-faces
        square._minimal_non_faces = square._non_face_masks() + (0b0111,)
        with pytest.raises(InternalInvariantError):
            double(square)

    def test_no_dualization_over_doubled_vertices(self, monkeypatch, pentagon):
        rebuilt, widest = [], []
        reconstruct = complexes_module.reconstruct_from_non_faces
        transversals = complexes_module._minimal_transversals

        def spy_reconstruct(vertices, non_faces):
            rebuilt.append(tuple(vertices))
            return reconstruct(vertices, non_faces)

        def spy_transversals(edges):
            out = transversals(edges)
            widest.append(max(edges + out).bit_length())
            return out

        monkeypatch.setattr(complexes_module, "reconstruct_from_non_faces", spy_reconstruct)
        monkeypatch.setattr(complexes_module, "_minimal_transversals", spy_transversals)
        d = double(pentagon)
        d.minimal_non_faces()
        assert rebuilt == [pentagon.vertices]
        assert widest and max(widest) <= pentagon.vertex_count


class TestSerialization:
    def test_round_trip(self, square):
        data = json.loads(square.to_json())
        assert data == {"m": 4, "maximal_faces": [[0, 1], [0, 3], [1, 2], [2, 3]]}
        assert SimplicialComplex.from_json_dict(data) == square

    def test_canonical_face_order(self):
        a = build_complex([{2, 3}, {0, 1}, {1, 2}, {3, 0}], 4)
        b = build_complex([{0, 1}, {1, 2}, {2, 3}, {3, 0}], 4)
        assert a.to_json() == b.to_json()

    def test_labels_preserved(self):
        k = build_complex([{0, 1}], 2, labels=["a", "b"])
        again = SimplicialComplex.from_json_dict(json.loads(k.to_json()))
        assert again.labels == ("a", "b")

    @pytest.mark.parametrize(
        "text",
        [
            '"maximal_faces"',
            "5",
            '{"m": 2, "maximal_faces": 5}',
            '{"m": 2, "maximal_faces": [0, 1]}',
            '{"m": 1, "maximal_faces": [[[0]]]}',
            '{"m": 2, "maximal_faces": [[0, 1]], "labels": "ab"}',
            '{"maximal_faces": [[0]]}',
            '{"m": 2, "maximal_faces": [[0, 1]], "labels": [1, "b"]}',
            '{"m": 2, "maximal_faces": [[0, 1]], "labels": ["a", ["b"]]}',
        ],
    )
    def test_wrong_shape_rejected(self, text):
        with pytest.raises(InvalidParameterError):
            SimplicialComplex.from_json_dict(json.loads(text))
