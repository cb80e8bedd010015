import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherejoin import (
    CRITERIA,
    CapExceededError,
    Field,
    IndexOutOfRangeError,
    PreconditionViolatedError,
    RecognitionReport,
    SimplicialComplex,
    SphereJoinDecomposition,
    UncoveredVertexError,
    boundary_of_simplex,
    build_complex,
    check_double,
    check_simplex_link,
    check_two_face,
    cycle_length,
    decompose_by_non_faces,
    double,
    hochster_rank_via_double,
    hochster_total_rank,
    is_pseudomanifold,
    recognize_all,
    recognize_recursive,
    simplex_boundary_on,
)
from spherejoin import complexes as complexes_module, homology, recognition
from spherejoin.catalog import polytope_bundle
from spherejoin.cli import main
from spherejoin.geometry import polytope_from_spec

from conftest import complexes, cycle, pinched_cylinder, pinched_octahedron, spheres


@pytest.fixture
def prism_dual():
    return boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))


@pytest.fixture
def pentagon_prism_dual(pentagon):
    return pentagon.join(simplex_boundary_on([5, 6]))


@pytest.fixture
def product_333():
    """The dual of product:3,3,3, the join of three tetrahedron boundaries."""
    k = simplex_boundary_on(range(4)).join(simplex_boundary_on(range(4, 8)))
    return k.join(simplex_boundary_on(range(8, 12)))


class TestDecompose:
    def test_square(self, square):
        dec, witness = decompose_by_non_faces(square)
        assert witness is None
        assert dec.parts == ((0, 2), (1, 3))
        assert dec.dims == (1, 1)

    def test_prism_dual_part_order(self, prism_dual):
        dec, _ = decompose_by_non_faces(prism_dual)
        assert dec.parts == ((3, 4), (0, 1, 2))
        assert dec.dims == (1, 2)

    def test_pentagon_overlap_witness(self, pentagon):
        dec, witness = decompose_by_non_faces(pentagon)
        assert dec is None
        assert witness == {
            "kind": "non_face_overlap",
            "non_faces": [[0, 2], [0, 3]],
            "vertex": 0,
        }

    def test_full_simplex_has_uncovered_vertices(self):
        k = build_complex([{0, 1, 2}], 3)
        dec, witness = decompose_by_non_faces(k)
        assert dec is None
        assert witness == {"kind": "uncovered_vertices", "vertices": [0, 1, 2]}

    def test_certificate_rebuilds_exactly(self, catalog):
        for entry in catalog:
            dec, _ = decompose_by_non_faces(entry.complex)
            if dec is not None:
                assert dec.rebuild() == entry.complex

    @pytest.mark.parametrize(
        "parts, error",
        [
            (((0, 1), (1, 2)), IndexOutOfRangeError),
            (((0, 1), (2,)), UncoveredVertexError),
            (((), (0, 1)), UncoveredVertexError),
        ],
    )
    def test_rebuild_rejects_malformed_parts(self, parts, error):
        with pytest.raises(error):
            SphereJoinDecomposition(parts).rebuild()

    @staticmethod
    def _multisets(total, minimum=2):
        if total == 0:
            yield ()
            return
        for first in range(minimum, total + 1):
            for rest in TestDecompose._multisets(total - first, first):
                yield (first,) + rest

    def test_join_of_boundaries_recovers_parts(self):
        # every multiset of part sizes >= 2 with sum <= 10
        all_sizes = [s for n in range(2, 11) for s in self._multisets(n)]
        assert len(all_sizes) > 30
        for sizes in all_sizes:
            start = 0
            k = None
            expected = []
            for s in sizes:
                part = list(range(start, start + s))
                expected.append(tuple(part))
                piece = simplex_boundary_on(part)
                k = piece if k is None else k.join(piece)
                start += s
            dec, _ = decompose_by_non_faces(k)
            assert dec is not None, sizes
            assert sorted(dec.parts) == sorted(expected)


class TestSimplexLink:
    def test_prism_dual(self, prism_dual):
        assert check_simplex_link(prism_dual).verdict

    def test_square(self, square):
        assert check_simplex_link(square).verdict

    def test_pentagon_witness(self, pentagon):
        rep = check_simplex_link(pentagon)
        assert rep.verdict is False
        assert rep.witness == {
            "kind": "restriction_not_simplex",
            "sigma": [0, 1],
            "complement": [2, 3, 4],
        }

    def test_holds_on_links_of_positives(self, catalog):
        # once the criterion holds, it holds for every vertex link
        for entry in catalog:
            if not entry.is_sphere_join or entry.complex.dim < 1:
                continue
            assert check_simplex_link(entry.complex).verdict
            for v in entry.complex.vertices:
                link = entry.complex.link({v})
                if link.is_empty:
                    continue
                assert check_simplex_link(link).verdict, (entry.name, v)


class TestTwoFace:
    def test_octahedron(self, octahedron):
        assert check_two_face(octahedron).verdict

    def test_square(self, square):
        assert check_two_face(square).verdict

    def test_pentagon_prism_witness(self, pentagon_prism_dual):
        rep = check_two_face(pentagon_prism_dual)
        assert rep.verdict is False
        assert rep.witness["kind"] == "long_codim2_link"
        eta = frozenset(rep.witness["eta"])
        link = pentagon_prism_dual.link(eta)
        assert cycle_length(link) == rep.witness["cycle_length"] == 5

    def test_precondition(self):
        with pytest.raises(PreconditionViolatedError):
            check_two_face(build_complex([{0, 1, 2}, {0, 1, 3}], 4))

    def test_two_points(self):
        assert check_two_face(simplex_boundary_on([0, 1])).verdict
        with pytest.raises(PreconditionViolatedError):
            check_two_face(build_complex([{0}, {1}, {2}], 3))


class TestRecursive:
    def test_octahedron(self, octahedron):
        assert recognize_recursive(octahedron).verdict

    def test_pentagon(self, pentagon):
        rep = recognize_recursive(pentagon)
        assert rep.verdict is False
        assert rep.witness["cycle_length"] == 5

    def test_two_points_base(self):
        assert recognize_recursive(simplex_boundary_on([0, 1])).verdict

    def test_agrees_with_decomposition_on_subdivided_tetrahedron(self):
        k = boundary_of_simplex(3).stellar_subdivide({0, 1, 2})
        rec = recognize_recursive(k).verdict
        dec, _ = decompose_by_non_faces(k)
        assert rec == (dec is not None)

    def test_deep_negative(self, pentagon):
        k = pentagon.join(simplex_boundary_on([5, 6])).join(simplex_boundary_on([7, 8]))
        rep = recognize_recursive(k)
        assert rep.verdict is False


class TestDouble:
    def test_triangle_boundary(self):
        rep = check_double(boundary_of_simplex(2))
        assert rep.verdict
        d = double(boundary_of_simplex(2))
        assert d.is_simplex_boundary() and d.vertex_count == 6

    def test_pentagon(self, pentagon):
        rep = check_double(pentagon)
        assert rep.verdict is False
        assert rep.witness["kind"] == "double_decompose_failed"

    def test_square_part_sizes(self, square):
        d = double(square)
        dec, _ = decompose_by_non_faces(d)
        assert sorted(len(p) for p in dec.parts) == [4, 4]

    def test_cap(self, pentagon):
        with pytest.raises(CapExceededError):
            check_double(pentagon, cap=9)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(complexes(), spheres()))
    def test_double_decompose_consistency(self, k):
        # check_double trusts `double` to make the double's parts the
        # input's parts lifted, vertex i of the input becoming the pair
        # 2i, 2i+1; this holds it to that
        own, _ = decompose_by_non_faces(k)
        dd, _ = decompose_by_non_faces(double(k))
        assert (own is None) == (dd is None)
        assert check_double(k).verdict == (own is not None)
        if own is not None:
            pair = {v: (2 * i, 2 * i + 1) for i, v in enumerate(k.vertices)}
            lifted = {frozenset(u for v in p for u in pair[v]) for p in own.parts}
            assert {frozenset(p) for p in dd.parts} == lifted


class TestRecognizeAll:
    def test_prism_dual_positive(self, prism_dual):
        rep = recognize_all(prism_dual)
        assert rep.agreement and rep.positive
        assert rep.decomposition.parts == ((3, 4), (0, 1, 2))
        assert set(rep.verdicts) == {
            "NonFacePartition",
            "SimplexLink",
            "TwoFace",
            "Recursive",
            "Double",
            "HochsterGF2",
            "HochsterQ",
        }
        assert all(v is True for v in rep.verdicts.values())

    def test_pentagon_negative_agreement(self, pentagon):
        rep = recognize_all(pentagon)
        assert rep.agreement and not rep.positive
        assert all(v is False for v in rep.verdicts.values())
        assert rep.decomposition is None

    def test_pentagon_prism_witnesses(self, pentagon_prism_dual):
        rep = recognize_all(pentagon_prism_dual)
        assert rep.agreement
        by_name = {r.criterion: r for r in rep.reports}
        assert by_name["TwoFace"].witness["cycle_length"] == 5

    def test_double_skipped_over_cap(self, pentagon_prism_dual):
        rep = recognize_all(pentagon_prism_dual, cap=13)
        by_name = {r.criterion: r for r in rep.reports}
        assert by_name["Double"].skipped
        ran = [r for r in rep.reports if not r.skipped]
        assert rep.agreement and all(r.verdict is False for r in ran)

    def test_two_face_skipped_on_non_pseudomanifold(self):
        k = build_complex([{0, 1, 2}, {0, 1, 3}], 4)
        rep = recognize_all(k)
        by_name = {r.criterion: r for r in rep.reports}
        assert by_name["TwoFace"].skipped

    def test_cap_refusal(self, pentagon):
        with pytest.raises(CapExceededError):
            recognize_all(pentagon, cap=4)

    @pytest.mark.parametrize(
        "fields", [{Field.GF2}, {Field.RATIONAL}, {Field.GF2, Field.RATIONAL}]
    )
    @pytest.mark.parametrize(
        "make, cap",
        [
            (lambda: boundary_of_simplex(2).join(simplex_boundary_on([3, 4])), 20),
            (lambda: build_complex([{0, 1, 2}, {0, 1, 3}], 4), 20),  # TwoFace skipped
            (pinched_octahedron, 20),
            (lambda: build_complex([{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}], 5), 9),  # Double skipped
        ],
    )
    def test_reports_in_criteria_order(self, fields, make, cap):
        # every report is appended in CRITERIA order, skipped ones included
        rep = recognize_all(make(), fields=fields, cap=cap)
        hochster = {"HochsterGF2": Field.GF2, "HochsterQ": Field.RATIONAL}
        ran = [
            c for c in CRITERIA
            if c != "Dihedral" and (c not in hochster or hochster[c] in fields)
        ]
        assert [r.criterion for r in rep.reports] == ran

    def test_json_shape(self, square):
        data = recognize_all(square).to_json_dict()
        assert data["agreement"] is True
        assert data["decomposition"] == {"parts": [[0, 2], [1, 3]], "dims": [1, 1]}
        for item in data["criteria"]:
            assert set(item) == {"criterion", "verdict", "witness"}

    def test_one_dissenting_criterion_is_reported(self, monkeypatch, capsys, prism_dual):
        # SimplexLink made to answer no on a product: the report must say the
        # criteria disagree, give no decomposition, and --assert exit 3
        dissent = RecognitionReport("SimplexLink", False, {"kind": "injected"})
        monkeypatch.setattr(recognition, "check_simplex_link", lambda k: dissent)
        rep = recognize_all(prism_dual)
        assert rep.verdicts["SimplexLink"] is False and rep.verdicts["NonFacePartition"] is True
        assert not rep.agreement and not rep.positive and rep.decomposition is None
        data = rep.to_json_dict()
        assert data["agreement"] is False and data["decomposition"] is None
        assert main(["recognize", "--gen", "product:2,1", "--assert"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["agreement"] is False and out["decomposition"] is None


class TestWitnessKinds:
    """Exact witnesses of the SimplexLink, TwoFace and Recursive criteria."""

    def test_link_intersection_not_simplex(self):
        # the complement {2, 3} of {0, 1} is an edge, but 0 sees it as a hollow triangle
        k = build_complex([{0, 1}, {0, 2}, {0, 3}, {2, 3}], 4)
        assert check_simplex_link(k).witness == {
            "kind": "link_intersection_not_simplex",
            "sigma": [0, 1],
            "vertex": 0,
            "support": [2, 3],
        }

    def test_codim2_link_not_cycle(self):
        rep = check_two_face(pinched_octahedron())
        assert rep.verdict is False
        assert rep.witness == {"kind": "codim2_link_not_cycle", "eta": [0]}

    def test_codim2_link_not_cycle_above_dimension_two(self):
        k = pinched_octahedron().join(simplex_boundary_on([7, 8]))
        assert check_two_face(k).witness == {"kind": "codim2_link_not_cycle", "eta": [0, 7]}

    def test_bad_zero_dim_link(self):
        rep = recognize_recursive(build_complex([{0}, {1}, {2}], 3))
        assert rep.witness == {"kind": "bad_zero_dim_link", "path": [], "vertex_count": 3}

    def test_link_not_short_cycle(self, pentagon_prism_dual):
        assert recognize_recursive(pentagon_prism_dual).witness == {
            "kind": "link_not_short_cycle",
            "path": [5],
            "cycle_length": 5,
        }

    def test_link_not_short_cycle_of_two_cycles(self):
        assert recognize_recursive(pinched_octahedron()).witness == {
            "kind": "link_not_short_cycle",
            "path": [0],
            "cycle_length": None,
        }

    def test_not_pseudomanifold_at_root(self):
        k = build_complex([{0, 1, 2}, {2, 3}], 4)
        assert recognize_recursive(k).witness == {
            "kind": "not_pseudomanifold",
            "path": [],
            "pure": False,
            "ridge_violations": [[0, 1], [0, 2], [1, 2]],
            "strongly_connected": True,
        }

    def test_not_pseudomanifold_in_a_link(self):
        # the link of vertex 0 is the suspension of two disjoint triangles
        k = pinched_octahedron().join(simplex_boundary_on([7, 8]))
        assert recognize_recursive(k).witness == {
            "kind": "not_pseudomanifold",
            "path": [0],
            "pure": True,
            "ridge_violations": [],
            "strongly_connected": False,
        }

    def test_two_face_witness_past_the_recursive_failure(self):
        # Recursive fails at vertex 0, whose link is two disjoint tetrahedron
        # boundaries; TwoFace's first long link lies outside that star
        k = pinched_cylinder()
        recursive = {
            "kind": "not_pseudomanifold",
            "path": [0],
            "pure": True,
            "ridge_violations": [],
            "strongly_connected": False,
        }
        two_face = {"kind": "long_codim2_link", "eta": [1, 2], "cycle_length": 6}
        assert recognize_recursive(k).witness == recursive
        assert check_two_face(k).witness == two_face
        by_name = {r.criterion: r.witness for r in recognize_all(k).reports}
        assert (by_name["TwoFace"], by_name["Recursive"]) == (two_face, recursive)


def _count_calls(monkeypatch, method):
    """Record each call of a SimplicialComplex method, by its arguments."""
    calls = []
    original = getattr(SimplicialComplex, method)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, method, counted)
    return calls


class TestWorkCounts:
    """Work the criteria skip because the complex already fixes the answer,
    counted in calls rather than timed."""

    @staticmethod
    def _recursive_work(monkeypatch, k):
        """Run Recursive on k, which must pass; return the dimensions given
        to the full pseudomanifold test, the number of link keys, the number
        of connectivity tests and the complexes built."""
        tested, keys, connected = [], [], []
        core = recognition.pseudomanifold_masks
        key = recognition.relabelled_masks
        grow = recognition._star_connected

        def counted(masks, n, cofacets=None):
            tested.append(n)
            return core(masks, n, cofacets)

        def counted_key(masks, support):
            keys.append(len(masks))
            return key(masks, support)

        def counted_connected(star, adjacent):
            connected.append(star)
            return grow(star, adjacent)

        monkeypatch.setattr(recognition, "pseudomanifold_masks", counted)
        monkeypatch.setattr(recognition, "relabelled_masks", counted_key)
        monkeypatch.setattr(recognition, "_star_connected", counted_connected)
        built = _count_calls(monkeypatch, "_store")
        assert recognize_recursive(k).verdict
        return tested, len(keys), len(connected), built

    def test_recursive_memo_up_to_relabelling(self, monkeypatch, product_333):
        tested, keys, connected, built = self._recursive_work(monkeypatch, product_333)
        # the full pseudomanifold test runs on the root alone; below it, one
        # key per face with a link of dimension >= 2 whose parent's link was
        # not already recognized, and one connectivity test per new key; the
        # 1-dimensional links are decided by their star size
        assert tested == [8]
        assert keys == 144
        assert connected == 35
        # every link is a star bitmask, never a complex
        assert built == []

    @pytest.mark.parametrize(
        "spec, keys, connected",
        [("product:1,1,1,1,1,1,1,1,1,1", 98, 7), ("product:4,4,4", 360, 80)],
    )
    def test_recursive_work_at_the_cap(self, monkeypatch, spec, keys, connected):
        k = polytope_bundle(*polytope_from_spec(spec))["complex"]
        work = self._recursive_work(monkeypatch, k)
        assert work == ([k.dim], keys, connected, [])

    def test_double_builds_no_frozenset_face(self, monkeypatch, catalog, product_333):
        doubles = []
        build = recognition.double

        def kept(k):
            doubles.append(build(k))
            return doubles[-1]

        monkeypatch.setattr(recognition, "double", kept)
        public = _count_calls(monkeypatch, "__init__")
        inputs = [e.complex for e in catalog if 2 * e.complex.vertex_count <= 24]
        for k in [*inputs, product_333]:
            check_double(k, cap=24)
        assert len(doubles) == len(inputs) + 1
        # every double lives on masks: the frozenset constructor never runs,
        # and no double's frozenset view is built
        assert public == []
        assert all(d._maximal_faces is None for d in doubles)

    def test_two_face_builds_no_link_on_products(self, monkeypatch, catalog, product_333):
        products = [e.complex for e in catalog if e.is_sphere_join] + [product_333]
        links = _count_calls(monkeypatch, "link")
        for k in products:
            assert check_two_face(k).verdict
            assert recognize_all(k).positive
        assert links == []

    def test_recognize_all_tests_pseudomanifold_once(self, monkeypatch, catalog, pentagon):
        tested = []
        core = complexes_module.pseudomanifold_masks

        def counted(masks, n, cofacets=None):
            tested.append(n)
            return core(masks, n, cofacets)

        # both bindings: `is_pseudomanifold` calls it through its own module
        monkeypatch.setattr(complexes_module, "pseudomanifold_masks", counted)
        monkeypatch.setattr(recognition, "pseudomanifold_masks", counted)
        inputs = [e.complex for e in catalog] + [pentagon, pinched_octahedron(), pinched_cylinder()]
        for k in inputs:
            tested.clear()
            recognize_all(k)
            # a 0-dimensional input is decided by its vertex count alone
            assert tested == ([k.dim] if k.dim > 0 else [])

    def test_simplex_link_tests_no_edge_by_membership(self, monkeypatch, product_333):
        tested = _count_calls(monkeypatch, "__contains__")
        assert check_simplex_link(product_333).verdict
        # every face test is a bit test against the minimal non-faces
        assert tested == []

    @pytest.mark.parametrize("n", [5, 8, 10])
    def test_double_ranks_what_its_input_ranks(self, monkeypatch, n):
        # the double of the n-cycle is swept on its twin quotient, a copy
        # of the n-cycle: it ranks the restrictions the n-cycle ranks, with
        # the same matrices, not their doubles
        ranked, matrices = [], []
        betti, rank = homology._gf2_betti, homology.gf2_rank
        monkeypatch.setattr(
            homology, "_gf2_betti", lambda rows, jmask: ranked.append(jmask) or betti(rows, jmask)
        )
        monkeypatch.setattr(homology, "gf2_rank", lambda rows: matrices.append(rows) or rank(rows))
        hochster_total_rank(cycle(n), Field.GF2)
        fresh = (list(ranked), list(matrices))
        ranked.clear()
        matrices.clear()
        hochster_rank_via_double(cycle(n), Field.GF2, cap=2 * n)
        assert len(ranked) == len(fresh[0]) > 0
        assert (ranked, matrices) == fresh

    @pytest.mark.parametrize("k", range(1, 7))
    def test_simplex_boundary_certified_without_ranks(self, monkeypatch, k):
        # a simplex boundary is recognized from its masks, with no homology
        ranked = []
        betti = homology._gf2_betti
        monkeypatch.setattr(
            homology, "_gf2_betti", lambda rows, jmask: ranked.append(jmask) or betti(rows, jmask)
        )
        assert homology._certify_sphere(boundary_of_simplex(k))
        assert ranked == []

    @pytest.mark.parametrize("pure", [True, False])
    def test_pseudomanifold_enumerates_no_faces(self, pure):
        faces = [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]
        k = build_complex(faces if pure else faces[:3] + [{3, 4}], 4 if pure else 5)
        assert k._faces[0] == []
        assert is_pseudomanifold(k).holds is pure
        assert k._faces[0] == []
