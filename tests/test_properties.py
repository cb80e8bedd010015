import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherejoin import (
    Field,
    InvalidDimensionError,
    PreconditionViolatedError,
    SimplicialComplex,
    build_complex,
    check_simplex_link,
    check_two_face,
    decompose_by_non_faces,
    double,
    hochster_rank_via_double,
    hochster_total_rank,
    is_pseudomanifold,
    recognize_recursive,
    reconstruct_from_non_faces,
    reduced_betti,
    simplex_boundary_on,
)

from conftest import complexes, cycle, pinched_cylinder, pinched_octahedron, spheres
from oracle import (
    canonical_faces_oracle,
    complex_reference,
    double_reference,
    decompose_by_non_faces_reference,
    pseudomanifold_reference,
    recursive_reference,
    simplex_link_reference,
    two_face_reference,
)


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_link_round_trip(k):
    for sigma in k.maximal_faces:
        for tau in k.link(sigma).maximal_faces:
            assert tau | sigma in k


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_full_subcomplex_identity_and_monotone(k):
    assert k.full_subcomplex(k.vertices) == k
    verts = list(k.vertices)
    w2 = set(verts[: max(1, len(verts) - 1)])
    for size in range(len(w2) + 1):
        for w1 in combinations(sorted(w2), size):
            a = k.full_subcomplex(set(w1))
            b = k.full_subcomplex(w2).full_subcomplex(set(w1))
            assert a == b


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_reconstruct_identity(k):
    assert reconstruct_from_non_faces(k.vertices, k.minimal_non_faces()) == k


@settings(max_examples=40, deadline=None)
@given(complexes(max_vertices=4), complexes(max_vertices=4))
def test_join_properties(a, b):
    shift = {v: v + 10 for v in b.vertices}
    b = b.relabel(shift)
    j = a.join(b)
    assert j.dim == a.dim + b.dim + 1
    # f-vector of a join is the convolution of extended f-vectors
    fa = [1] + a.f_vector()
    fb = [1] + b.f_vector()
    fj = [1] + j.f_vector()
    for d in range(len(fj)):
        assert fj[d] == sum(
            fa[i] * fb[d - i] for i in range(len(fa)) if 0 <= d - i < len(fb)
        )
    # minimal non-faces of a join split over the factors
    expect = set(a.minimal_non_faces()) | set(b.minimal_non_faces())
    assert set(j.minimal_non_faces()) == expect


@settings(max_examples=20, deadline=None)
@given(complexes(max_vertices=3), complexes(max_vertices=3), complexes(max_vertices=3))
def test_join_associative(a, b, c):
    b = b.relabel({v: v + 10 for v in b.vertices})
    c = c.relabel({v: v + 20 for v in c.vertices})
    assert a.join(b).join(c) == a.join(b.join(c))


@settings(max_examples=40, deadline=None)
@given(complexes(max_vertices=5))
def test_kunneth_total_multiplicativity(a):
    b = a.relabel({v: v + 10 for v in a.vertices})
    j = a.join(b)
    for field in (Field.GF2, Field.RATIONAL):
        ta = reduced_betti(a, field).total
        tj = reduced_betti(j, field).total
        assert tj == ta * ta


class TestCatalogInvariants:
    def test_field_independence(self, catalog):
        for entry in catalog:
            gf2 = hochster_total_rank(entry.complex, Field.GF2)
            rat = hochster_total_rank(entry.complex, Field.RATIONAL)
            assert gf2 == rat, entry.name

    def test_hochster_multiplicative_over_joins(self, catalog):
        small = [e.complex for e in catalog if e.complex.vertex_count <= 6]
        for a in small[:6]:
            for b in small[:6]:
                if a.vertex_count + b.vertex_count > 12:
                    continue
                shifted = b.relabel({v: v + 100 for v in b.vertices})
                j = a.join(shifted)
                assert hochster_total_rank(j, Field.GF2) == hochster_total_rank(
                    a, Field.GF2
                ) * hochster_total_rank(b, Field.GF2)

    def test_double_identity_small(self, catalog):
        for entry in catalog:
            if entry.complex.vertex_count > 6:
                continue
            assert hochster_rank_via_double(
                entry.complex, Field.GF2
            ) == hochster_total_rank(entry.complex, Field.GF2), entry.name

    def test_stellar_preserves_pseudomanifold(self, catalog):
        for entry in catalog:
            k = entry.complex
            if k.dim < 1 or k.vertex_count > 9:
                continue
            subdivided = k.stellar_subdivide(k.maximal_faces[0])
            assert is_pseudomanifold(subdivided).holds, entry.name

    def test_simplex_link_criterion_passes_to_links(self, catalog):
        for entry in catalog:
            if not check_simplex_link(entry.complex).verdict:
                continue
            for v in entry.complex.vertices:
                link = entry.complex.link({v})
                if not link.is_empty:
                    assert check_simplex_link(link).verdict, (entry.name, v)

    def test_double_of_catalog_entries_decomposes_consistently(self, catalog):
        for entry in catalog:
            k = entry.complex
            if k.vertex_count > 8:
                continue
            own, _ = decompose_by_non_faces(k)
            dd, _ = decompose_by_non_faces(double(k))
            assert (own is not None) == (dd is not None), entry.name


def test_double_identity_holds_off_catalog_with_torsion():
    # the doubled-sweep identity is topological, so it must survive a
    # non-polytopal input whose totals differ between the two fields
    rp2 = SimplicialComplex(
        [
            {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
            {1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {1, 3, 5}, {1, 3, 4},
        ],
        vertices=range(6),
    )
    assert hochster_total_rank(rp2, Field.GF2) == 34
    assert hochster_total_rank(rp2, Field.RATIONAL) == 32
    assert hochster_rank_via_double(rp2, Field.GF2) == 34


class TestCriterionAgreement:
    def test_polygon_entries_agree(self, catalog):
        # the polygon rows not exercised by the acceptance negatives
        for entry in catalog:
            if not entry.name.startswith("polygon:"):
                continue
            from spherejoin import recognize_all

            rep = recognize_all(entry.complex)
            assert rep.agreement, entry.name
            ran = [r.verdict for r in rep.reports if not r.skipped]
            assert all(v == entry.is_sphere_join for v in ran), entry.name


class TestRelabelingInvariance:
    def _relabeled(self, k, rng):
        perm = list(k.vertices)
        rng.shuffle(perm)
        return k.relabel(dict(zip(k.vertices, perm)))

    def test_two_face_invariant(self, catalog):
        rng = random.Random(42)
        for entry in catalog:
            k = entry.complex
            if k.dim < 1:
                continue
            base = check_two_face(k).verdict
            for _ in range(5):
                assert check_two_face(self._relabeled(k, rng)).verdict == base, entry.name

    def test_decomposition_and_recursion_invariant(self, catalog):
        rng = random.Random(43)
        for entry in catalog:
            k = entry.complex
            base = decompose_by_non_faces(k)[0] is not None
            for _ in range(3):
                shuffled = self._relabeled(k, rng)
                assert (decompose_by_non_faces(shuffled)[0] is not None) == base
                if k.dim >= 1:
                    assert recognize_recursive(shuffled).verdict == base

    def test_recursion_matches_reference_relabelled(self, catalog):
        # the walk runs in bit order, which a relabelling permutes, so the
        # witness path must still be the reference's first failure
        rng = random.Random(44)
        inputs = [(e.name, e.complex) for e in catalog]
        inputs += [(name, k) for name, (k, _, _) in RECURSIVE_DEEP_FAILURES.items()]
        for name, k in inputs:
            for _ in range(3):
                shuffled = self._relabeled(k, rng)
                assert recognize_recursive(shuffled) == recursive_reference(shuffled), name


def _outcome(criterion, k):
    """The report, or the type of the typed error the criterion raised."""
    try:
        return criterion(k)
    except (InvalidDimensionError, PreconditionViolatedError) as exc:
        return type(exc)


def suspended(k, times=1):
    """k joined with `times` point pairs on new vertices above its own."""
    for _ in range(times):
        m = max(k.vertices) + 1
        k = k.join(simplex_boundary_on([m, m + 1]))
    return k


def pinch_below_root():
    """A point pair below the suspended pinched octahedron: the link of
    vertex 0 is strongly connected, that of {0, 2} is two triangles
    suspended, which is not."""
    k = suspended(pinched_octahedron())
    return simplex_boundary_on([0, 1]).join(k.relabel({v: v + 2 for v in k.vertices}))


# Recursive witnesses below the root (path length in brackets):
# not_pseudomanifold [1] and [2], link_not_short_cycle [1], [2] and [3];
# in the pinched cylinder TwoFace's witness lies past the star of Recursive's
RECURSIVE_DEEP_FAILURES = {
    "suspended pinched octahedron": (suspended(pinched_octahedron()), "not_pseudomanifold", 1),
    "pinched cylinder": (pinched_cylinder(), "not_pseudomanifold", 1),
    "pinch below the root": (pinch_below_root(), "not_pseudomanifold", 2),
    "suspended pentagon": (suspended(cycle(5)), "link_not_short_cycle", 1),
    "twice suspended pentagon": (suspended(cycle(5), 2), "link_not_short_cycle", 2),
    "thrice suspended hexagon": (suspended(cycle(6), 3), "link_not_short_cycle", 3),
}


def test_deep_failure_examples_reach_their_witness():
    for name, (k, kind, depth) in RECURSIVE_DEEP_FAILURES.items():
        witness = recognize_recursive(k).witness
        assert (witness["kind"], len(witness["path"])) == (kind, depth), name


def _with_examples(test):
    for k, _, _ in RECURSIVE_DEEP_FAILURES.values():
        test = example(k)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(st.one_of(complexes(max_vertices=7), spheres()))
@_with_examples
def test_criteria_match_references(k):
    # the library criteria skip work the pseudomanifold structure fixes;
    # reports, witnesses included, must equal the plain versions'
    assert _outcome(check_simplex_link, k) == simplex_link_reference(k)
    # on masks alone: the criterion builds no frozenset view of the faces
    lazy = SimplicialComplex._from_masks(k.vertices, k._max_masks)
    assert check_simplex_link(lazy) == simplex_link_reference(k)
    assert lazy._maximal_faces is None
    assert _outcome(check_two_face, k) == _outcome(two_face_reference, k)
    assert _outcome(recognize_recursive, k) == _outcome(recursive_reference, k)
    assert _outcome(is_pseudomanifold, k) == _outcome(pseudomanifold_reference, k)


def _certificate_matches_reference(k):
    dec, witness = decompose_by_non_faces(k)
    assert (dec, witness) == decompose_by_non_faces_reference(k)
    if dec is not None:
        assert dec.rebuild() == k


@settings(max_examples=150, deadline=None)
@given(st.one_of(complexes(max_vertices=7), spheres(), spheres().map(double)))
def test_join_certificate_matches_reference(k):
    # the mask certificate against joins of simplex boundaries built as complexes
    _certificate_matches_reference(k)


def test_join_certificate_matches_reference_on_catalog(catalog):
    for entry in catalog:
        _certificate_matches_reference(entry.complex)
        _certificate_matches_reference(double(entry.complex))


@st.composite
def face_lists(draw):
    """Non-pure face lists with duplicates, nested chains and empty faces."""
    faces = draw(
        st.lists(st.frozensets(st.integers(min_value=0, max_value=6)), min_size=1, max_size=8)
    )
    for f in list(faces):
        if f:
            faces.append(draw(st.frozensets(st.sampled_from(sorted(f)))))
    return faces + faces[:2] + [frozenset()]


@settings(max_examples=100, deadline=None)
@given(face_lists())
def test_canonical_faces_match_brute_force(faces):
    assert SimplicialComplex(faces).maximal_faces == canonical_faces_oracle(faces)


@pytest.mark.parametrize(
    "faces",
    [
        [set()],
        [set(), {3}],
        [{0}, {0, 1}, {0, 1, 2}, {1, 2}, {0, 1, 2}],
        [{0, 1, 2}, {2, 3}, {3, 4}, {3}, {5}, {0, 5}],
    ],
)
def test_canonical_faces_fixed_chains(faces):
    assert SimplicialComplex(faces).maximal_faces == canonical_faces_oracle(faces)


@st.composite
def sparse_face_lists(draw):
    """`face_lists` moved onto distinct vertex ids spread over a wide
    range: non-contiguous, some negative, in an order unlike 0..6."""
    faces = draw(face_lists())
    ids = draw(st.lists(st.integers(min_value=-20, max_value=60), min_size=7, max_size=7, unique=True))
    return [frozenset(ids[v] for v in f) for f in faces]


@settings(max_examples=150, deadline=None)
@given(sparse_face_lists(), sparse_face_lists())
def test_mask_constructor_matches_frozenset_reference(faces, other):
    k = SimplicialComplex(faces)
    verts, maximal = complex_reference(faces)
    assert (k.vertices, k.maximal_faces) == (verts, maximal)
    # a complex built from the masks builds the same view on first read
    lazy = SimplicialComplex._from_masks(k.vertices, k._max_masks)
    assert lazy._maximal_faces is None
    assert lazy.maximal_faces == maximal
    assert lazy == k and hash(lazy) == hash(k)
    # repeated, dominated and reordered faces build an equal complex
    again = SimplicialComplex([*reversed(faces), *maximal, frozenset()])
    assert again == k and hash(again) == hash(k)
    assert (SimplicialComplex(other) == k) is (complex_reference(other) == (verts, maximal))


def _view_on_first_read(k, faces):
    # no constructor builds the frozenset view; the first read builds the
    # canonical order of the faces the complex was built from
    assert k._maximal_faces is None
    assert k.maximal_faces == complex_reference(faces)[1]


@settings(max_examples=100, deadline=None)
@given(st.one_of(complexes(), spheres()))
def test_every_constructor_leaves_the_view_to_its_first_read(k):
    faces = [sorted(f) for f in reversed(k.maximal_faces)]
    # a generator of generators, a set of frozensets, and dominated faces
    for given_faces in (
        ((v for v in f) for f in faces),
        {frozenset(f) for f in faces},
        faces + [f[:1] for f in faces],
    ):
        built = SimplicialComplex(given_faces, vertices=k.vertices)
        _view_on_first_read(built, faces)
        assert built == k
    positional = k.to_json_dict()["maximal_faces"]
    _view_on_first_read(build_complex((iter(f) for f in positional), k.vertex_count), positional)
    if k.vertex_count >= 2:
        facets = list(combinations(k.vertices, k.vertex_count - 1))
        _view_on_first_read(simplex_boundary_on(iter(k.vertices)), facets)


def _double_matches_reference(k):
    d = double(k)
    faces, labels, non_faces = double_reference(k)
    # the double is built on masks; its frozenset view waits for a read
    assert d._maximal_faces is None
    assert d.vertices == tuple(range(2 * k.vertex_count))
    assert (d.maximal_faces, d.labels, d.minimal_non_faces()) == (faces, labels, non_faces)
    assert d == SimplicialComplex(faces, vertices=d.vertices)


@settings(max_examples=80, deadline=None)
@given(st.one_of(complexes(), spheres()), st.data())
def test_double_matches_frozenset_reference(k, data):
    m = k.vertex_count
    ids = data.draw(st.lists(st.integers(min_value=-20, max_value=60), min_size=m, max_size=m, unique=True))
    k = k.relabel(dict(zip(k.vertices, ids)))
    if data.draw(st.booleans()):
        k = SimplicialComplex(k.maximal_faces, labels=[f"x{i}" for i in range(m)])
    _double_matches_reference(k)


def test_double_matches_frozenset_reference_on_fixed_inputs(catalog):
    fixed = [
        SimplicialComplex([]),
        # facets of two sizes
        SimplicialComplex([{0, 1, 2}, {2, 3}]),
        *(e.complex for e in catalog if e.complex.vertex_count <= 6),
    ]
    for k in fixed:
        _double_matches_reference(k)


@settings(max_examples=100, deadline=None)
@given(spheres())
def test_pseudomanifold_links_inherit_purity_and_ridges(k):
    # why Recursive tests only strong connectivity below the root: the link
    # of every face sigma of a pure pseudomanifold of dimension n is pure of
    # dimension n - |sigma|, with every ridge in exactly two top faces
    if k.dim < 2 or not is_pseudomanifold(k):
        return
    for level in k.faces_by_dim()[:-1]:
        for sigma in level:
            link = k.link(k._unmask(sigma))
            assert link.dim == k.dim - sigma.bit_count()
            if link.dim >= 1:
                rep = is_pseudomanifold(link)
                assert rep.is_pure and not rep.ridge_violations
