import json
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from oracle import incidence_from_hv_oracle
from spherejoin import (
    InfeasibleVertexError,
    InvalidParameterError,
    NotSimpleError,
    PolytopeHRep,
    PolytopeVRep,
    RedundantInequalityError,
    SphereJoinError,
    VertexFacetIncidence,
    boundary_of_simplex,
    check_simple,
    dihedral_nonobtuse_check,
    dual_boundary_complex,
    gen_polygon,
    gen_product_of_simplices,
    gen_simplex,
    gen_truncated,
    incidence_from_hv,
    is_pseudomanifold,
    product_polytope,
    simplex_boundary_on,
    truncate_all_vertices,
)
from spherejoin import geometry, linalg
from spherejoin.geometry import polytope_from_json_dict, polytope_from_spec, polytope_to_json_dict

F = Fraction


def unit_square():
    h = PolytopeHRep(
        dim=2,
        inequalities=(
            ((F(1), F(0)), F(0)),
            ((F(0), F(1)), F(0)),
            ((F(-1), F(0)), F(-1)),
            ((F(0), F(-1)), F(-1)),
        ),
    )
    v = PolytopeVRep(
        dim=2,
        vertices=((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))),
    )
    return h, v


def square_pyramid():
    # apex (0,0,1) over the square [-1,1]^2; apex lies on the four slanted facets
    h = PolytopeHRep(
        dim=3,
        inequalities=(
            ((F(0), F(0), F(1)), F(0)),
            ((F(-1), F(0), F(-1)), F(-1)),
            ((F(1), F(0), F(-1)), F(-1)),
            ((F(0), F(-1), F(-1)), F(-1)),
            ((F(0), F(1), F(-1)), F(-1)),
        ),
    )
    v = PolytopeVRep(
        dim=3,
        vertices=(
            (F(-1), F(-1), F(0)),
            (F(1), F(-1), F(0)),
            (F(1), F(1), F(0)),
            (F(-1), F(1), F(0)),
            (F(0), F(0), F(1)),
        ),
    )
    return h, v


class TestIncidence:
    def test_unit_square(self):
        inc = incidence_from_hv(*unit_square())
        assert all(len(s) == 2 for s in inc.vertex_facets)
        assert inc.facet_count == 4

    def test_cube(self):
        inc = incidence_from_hv(*gen_product_of_simplices(1, 1, 1))
        assert len(inc.vertex_facets) == 8
        assert all(len(s) == 3 for s in inc.vertex_facets)

    def test_triangle(self):
        inc = incidence_from_hv(*gen_simplex(2))
        assert inc.facet_count == 3
        assert check_simple(inc, 2)

    def test_pyramid_not_simple(self):
        with pytest.raises(NotSimpleError):
            incidence_from_hv(*square_pyramid())

    def test_infeasible_vertex(self):
        h, v = unit_square()
        bad = PolytopeVRep(dim=2, vertices=v.vertices + ((F(2), F(0)),))
        with pytest.raises(InfeasibleVertexError):
            incidence_from_hv(h, bad)

    def test_duplicate_inequality(self):
        h, v = unit_square()
        doubled = PolytopeHRep(
            dim=2, inequalities=h.inequalities + (((F(2), F(0)), F(0)),)
        )
        with pytest.raises(RedundantInequalityError):
            incidence_from_hv(doubled, v)

    def test_facet_affine_rank_validated(self, catalog):
        # every catalog facet's incident vertex set spans dimension n-1,
        # which incidence_from_hv would otherwise reject
        for entry in catalog:
            if entry.hrep is not None:
                assert incidence_from_hv(entry.hrep, entry.vrep) == entry.incidence


def _outcome(incidence, h, v):
    try:
        return incidence(h, v)
    except SphereJoinError as err:
        return type(err), str(err)


def _agrees_with_reference(h, v):
    got = _outcome(incidence_from_hv, h, v)
    assert got == _outcome(incidence_from_hv_oracle, h, v)
    return got


_BASES = [
    gen_simplex(1),
    gen_simplex(3),
    *(gen_polygon(k) for k in range(3, 9)),
    gen_product_of_simplices(2, 1),
    gen_product_of_simplices(1, 1, 1),
    product_polytope(*gen_polygon(5), *gen_simplex(1)),
]
_POSITIVE = st.builds(F, st.integers(1, 30), st.integers(1, 12))
_NONZERO = st.builds(lambda sign, x: sign * x, st.sampled_from([-1, 1]), _POSITIVE)


@st.composite
def polytope_variants(draw):
    """A small polytope under a rational change of coordinates x -> c*x + t
    per axis (mixed denominators), its rows positively rescaled and
    permuted, and at most one change: rows repeated as positive multiples,
    rows of zero normal added, a vertex dropped or a drawn point added."""
    h, v = draw(st.sampled_from(_BASES))
    n = h.dim
    c = draw(st.lists(_NONZERO, min_size=n, max_size=n))
    t = draw(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=n, max_size=n))
    verts = [tuple(ck * x + tk for ck, x, tk in zip(c, p, t)) for p in v.vertices]
    ineqs = []
    for normal, offset in h.inequalities:
        # a.x >= b iff (a/c).y >= b + (a/c).t for y = c*x + t
        a = tuple(x / ck for x, ck in zip(normal, c))
        s = draw(_POSITIVE)
        ineqs.append((tuple(s * x for x in a), s * (offset + sum(x * tk for x, tk in zip(a, t)))))
    change = draw(st.sampled_from(["none", "repeat", "zero", "drop", "add"]))
    if change == "repeat":
        for i, s in draw(st.lists(st.tuples(st.integers(0, len(ineqs) - 1), _POSITIVE), max_size=2)):
            ineqs.append((tuple(s * x for x in ineqs[i][0]), s * ineqs[i][1]))
    elif change == "zero":
        ineqs += [((F(0),) * n, F(b)) for b in draw(st.lists(st.sampled_from([-1, 0, 1]), max_size=2))]
    verts = draw(st.permutations(verts))
    if change == "drop":
        del verts[draw(st.integers(0, len(verts) - 1))]
    elif change == "add":
        verts.append(tuple(draw(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=n, max_size=n))))
    return (
        PolytopeHRep(dim=n, inequalities=tuple(draw(st.permutations(ineqs)))),
        PolytopeVRep(dim=n, vertices=tuple(verts)),
    )


class TestAgainstFractionReference:
    """`incidence_from_hv` on primitive integer rows against the Fraction
    reference: the same incidence, or the same error type and message."""

    def test_catalog(self, catalog):
        for entry in catalog:
            if entry.hrep is not None:
                assert _agrees_with_reference(entry.hrep, entry.vrep) == entry.incidence

    @settings(max_examples=150, deadline=None)
    @given(polytope_variants())
    def test_variants(self, hv):
        got = _agrees_with_reference(*hv)
        event("incidence" if isinstance(got, VertexFacetIncidence) else got[0].__name__)

    def test_first_duplicate_pair_in_combinations_order(self):
        h, v = unit_square()
        a, b = h.inequalities[0], h.inequalities[1]
        rows = (a, (tuple(2 * x for x in b[0]), 2 * b[1]), b, (tuple(F(1, 3) * x for x in a[0]), a[1]))
        got = _agrees_with_reference(PolytopeHRep(dim=2, inequalities=rows), v)
        assert got == (RedundantInequalityError, "inequalities 0 and 3 are positive multiples")

    def test_all_zero_rows_are_no_multiples(self):
        h, v = unit_square()
        zero = ((F(0), F(0)), F(0))
        got = _agrees_with_reference(
            PolytopeHRep(dim=2, inequalities=(zero,) + h.inequalities + (zero,)), v
        )
        assert got == (NotSimpleError, "vertex 0 lies on 4 facets, expected 2")

    def test_infeasible_vertex_message(self):
        h, v = unit_square()
        bad = PolytopeVRep(dim=2, vertices=v.vertices + ((F(5, 2), F(1, 3)),))
        got = _agrees_with_reference(h, bad)
        assert got == (InfeasibleVertexError, "vertex 4 violates inequality 2: -5/2 < -1")

    def test_not_full_dimensional(self):
        h, _ = unit_square()
        v = PolytopeVRep(dim=2, vertices=((F(0), F(0)), (F(1), F(1))))
        got = _agrees_with_reference(h, v)
        assert got == (RedundantInequalityError, "vertex set is not full-dimensional")

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_vertices(self, n):
        h = PolytopeHRep(dim=n, inequalities=())
        _agrees_with_reference(h, PolytopeVRep(dim=n, vertices=()))

    def test_int_coordinates(self):
        h, v = unit_square()
        hi = PolytopeHRep(
            dim=2, inequalities=tuple((tuple(map(int, a)), int(b)) for a, b in h.inequalities)
        )
        vi = PolytopeVRep(dim=2, vertices=tuple(tuple(map(int, p)) for p in v.vertices))
        assert _agrees_with_reference(hi, vi) == incidence_from_hv(h, v)

    def test_one_rational_rank_kernel(self):
        assert not hasattr(linalg, "fraction_rank")
        assert not hasattr(geometry, "_proportional_positive")


class TestDualComplex:
    def test_square_is_cycle(self):
        inc = incidence_from_hv(*unit_square())
        dual = dual_boundary_complex(inc)
        assert dual == simplex_boundary_on([0, 2]).join(simplex_boundary_on([1, 3]))

    def test_cube_is_octahedron(self, octahedron):
        inc = incidence_from_hv(*gen_product_of_simplices(1, 1, 1))
        dual = dual_boundary_complex(inc)
        assert dual.f_vector() == [6, 12, 8]
        assert is_pseudomanifold(dual).holds

    def test_prism_dual_pattern(self):
        inc = incidence_from_hv(*gen_product_of_simplices(2, 1))
        dual = dual_boundary_complex(inc)
        assert dual == boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))

    def test_segment(self):
        inc = incidence_from_hv(*gen_simplex(1))
        assert dual_boundary_complex(inc).f_vector() == [2]

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_below_one_refused(self, n):
        inc = VertexFacetIncidence(dim=n, facet_count=0, vertex_facets=(frozenset(),))
        with pytest.raises(NotSimpleError, match=f"dimension at least 1, got {n}$"):
            dual_boundary_complex(inc)

    def test_product_dual_is_join_of_duals(self, catalog):
        by_name = {e.name: e for e in catalog}
        a = by_name["polygon:4"]
        b = by_name["product:2"]
        h, v = product_polytope(a.hrep, a.vrep, b.hrep, b.vrep)
        dual = dual_boundary_complex(incidence_from_hv(h, v))
        shifted = b.complex.relabel(
            {w: w + a.complex.vertex_count for w in b.complex.vertices}
        )
        assert dual == a.complex.join(shifted)


class TestGenerators:
    def test_simplex_normals(self):
        h, _ = gen_simplex(2)
        assert h.inequalities[0][0] == (F(1), F(0))
        assert h.inequalities[1][0] == (F(0), F(1))
        assert h.inequalities[2][0] == (F(-1), F(-1))

    @pytest.mark.parametrize("k", range(3, 9))
    def test_polygons_simple_convex(self, k):
        h, v = gen_polygon(k)
        inc = incidence_from_hv(h, v)
        assert inc.facet_count == k
        dual = dual_boundary_complex(inc)
        assert dual.f_vector() == [k, k]

    def test_polygon_out_of_catalog(self):
        with pytest.raises(InvalidParameterError):
            gen_polygon(9)
        with pytest.raises(InvalidParameterError):
            gen_simplex(0)

    @pytest.mark.parametrize(
        "spec, direct",
        [
            ("simplex:3", lambda: gen_simplex(3)),
            ("polygon:5", lambda: gen_polygon(5)),
            ("product:2,1,1", lambda: gen_product_of_simplices(2, 1, 1)),
            ("prism:6", lambda: product_polytope(*gen_polygon(6), *gen_simplex(1))),
        ],
    )
    def test_spec_is_the_generator_call(self, spec, direct):
        assert polytope_from_spec(spec) == direct()

    def test_product_counts(self):
        h, v = gen_product_of_simplices(2, 1)
        assert h.facet_count == 5
        assert len(v.vertices) == 6

    def test_truncation_is_stellar_subdivision(self):
        inc = incidence_from_hv(*gen_simplex(3))
        dual = dual_boundary_complex(inc)
        for vertex in range(len(inc.vertex_facets)):
            cut = gen_truncated(inc, vertex)
            sigma = inc.vertex_facets[vertex]
            assert dual_boundary_complex(cut) == dual.stellar_subdivide(sigma)

    def test_truncate_all_counts(self):
        inc = incidence_from_hv(*gen_product_of_simplices(1, 1, 1))
        t = truncate_all_vertices(inc)
        assert t.facet_count == 14
        assert len(t.vertex_facets) == 24
        assert is_pseudomanifold(dual_boundary_complex(t)).holds


class TestDihedral:
    def test_cube_all_orthogonal(self):
        h, v = gen_product_of_simplices(1, 1, 1)
        rep = dihedral_nonobtuse_check(h, incidence_from_hv(h, v))
        assert rep.verdict

    def test_products_pass(self, catalog):
        for entry in catalog:
            if entry.name.startswith("product:"):
                rep = dihedral_nonobtuse_check(entry.hrep, entry.incidence)
                assert rep.verdict, entry.name

    def test_pentagon_fails_with_positive_product(self):
        h, v = gen_polygon(5)
        rep = dihedral_nonobtuse_check(h, incidence_from_hv(h, v))
        assert rep.verdict is False
        assert Fraction(rep.witness["inner_product"]) > 0
        i, j = rep.witness["facets"]
        normal_i = h.inequalities[i][0]
        normal_j = h.inequalities[j][0]
        dot = sum(a * b for a, b in zip(normal_i, normal_j))
        assert str(dot) == rep.witness["inner_product"]

    def test_scaling_invariance(self):
        h, v = gen_polygon(5)
        scaled = PolytopeHRep(
            dim=2,
            inequalities=tuple(
                (tuple(F(3, 7) * x for x in normal), F(3, 7) * offset)
                for normal, offset in h.inequalities
            ),
        )
        inc = incidence_from_hv(h, v)
        assert incidence_from_hv(scaled, v) == inc
        a = dihedral_nonobtuse_check(h, inc)
        b = dihedral_nonobtuse_check(scaled, inc)
        assert a.verdict == b.verdict
        assert a.witness["facets"] == b.witness["facets"]

    def test_segment(self):
        h, v = gen_simplex(1)
        rep = dihedral_nonobtuse_check(h, incidence_from_hv(h, v))
        assert rep.verdict  # no adjacent pairs at all


class TestCheckSimple:
    def test_square(self):
        inc = incidence_from_hv(*unit_square())
        assert check_simple(inc, 2)
        assert not check_simple(inc, 3)


class TestPolytopeJson:
    def test_round_trip(self):
        h, v = gen_polygon(5)
        data = polytope_to_json_dict(h, v)
        h2, v2 = polytope_from_json_dict(data)
        assert h2 == h and v2 == v

    def test_fraction_strings(self):
        h = PolytopeHRep(dim=1, inequalities=(((F(1, 3),), F(-2, 5)),))
        v = PolytopeVRep(dim=1, vertices=((F(7),),))
        data = polytope_to_json_dict(h, v)
        assert data["inequalities"][0]["normal"] == ["1/3"]
        assert data["inequalities"][0]["offset"] == "-2/5"
        assert data["vertices"] == [["7"]]

    @pytest.mark.parametrize("value", ["true", "2.9", '"2"', "null", "2.0"])
    def test_dim_must_be_integer(self, value):
        data = polytope_to_json_dict(*gen_polygon(4))
        data["dim"] = json.loads(value)
        with pytest.raises(InvalidParameterError):
            polytope_from_json_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("inequalities", 5),
            ("inequalities", [5]),
            ("inequalities", [{"normal": 1, "offset": "0"}]),
            ("inequalities", [{"normal": ["1"]}]),
            ("vertices", [["1"], 2]),
            ("dim", None),
        ],
    )
    def test_wrong_shape_rejected(self, key, value):
        data = polytope_to_json_dict(*gen_polygon(4))
        if value is None:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(InvalidParameterError):
            polytope_from_json_dict(data)
        with pytest.raises(InvalidParameterError):
            polytope_from_json_dict([data])


class TestIncidenceJson:
    def test_round_trip(self):
        data = incidence_from_hv(*gen_polygon(5)).to_json_dict()
        assert VertexFacetIncidence.from_json_dict(data).to_json_dict() == data

    @pytest.mark.parametrize("key", ["n", "facets"])
    @pytest.mark.parametrize("value", ["true", "2.9", '"2"', "null", "2.0"])
    def test_counts_must_be_integers(self, key, value):
        data = incidence_from_hv(*gen_polygon(4)).to_json_dict()
        data[key] = json.loads(value)
        with pytest.raises(InvalidParameterError) as info:
            VertexFacetIncidence.from_json_dict(data)
        assert str(info.value).startswith(f'"{key}" must be an integer')

    @pytest.mark.parametrize(
        "text",
        [
            "4",
            '{"n": 2, "facets": 3, "vertex_facets": 4}',
            '{"n": 2, "facets": 3, "vertex_facets": [[[1]]]}',
            '{"n": 2, "vertex_facets": [[0, 1]]}',
        ],
    )
    def test_wrong_shape_rejected(self, text):
        with pytest.raises(InvalidParameterError):
            VertexFacetIncidence.from_json_dict(json.loads(text))

    def test_repeated_facet_id_rejected(self):
        # a set alone would read the last row as [0, 2], which passes as simple
        data = {"n": 2, "facets": 3, "vertex_facets": [[0, 1], [1, 2], [2, 0, 0]]}
        with pytest.raises(InvalidParameterError, match=r"row 2 repeats a facet: \[2, 0, 0\]"):
            VertexFacetIncidence.from_json_dict(data)

    def test_out_of_range_facet_id_unchanged(self):
        data = incidence_from_hv(*gen_polygon(4)).to_json_dict()
        data["vertex_facets"][0][1] = 7
        with pytest.raises(NotSimpleError, match="some facet contains no vertex"):
            dual_boundary_complex(VertexFacetIncidence.from_json_dict(data))
