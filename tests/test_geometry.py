import json
from fractions import Fraction

import pytest

from spherejoin import (
    InfeasibleVertexError,
    InvalidParameterError,
    NotSimpleError,
    PolytopeHRep,
    PolytopeVRep,
    RedundantInequalityError,
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
from spherejoin.geometry import polytope_from_json_dict, polytope_to_json_dict

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
