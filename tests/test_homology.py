import functools
import gc
import weakref
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherejoin import (
    CapExceededError,
    Field,
    InternalInvariantError,
    InvalidDimensionError,
    SimplicialComplex,
    bigraded_betti,
    boundary_of_simplex,
    build_complex,
    check_rank_lower_bounds,
    double,
    gen_polygon,
    gluing_euler_characteristic,
    hochster_graded_ranks,
    hochster_rank_criterion,
    hochster_rank_via_double,
    hochster_total_rank,
    incidence_from_hv,
    recognize_all,
    reduced_betti,
    simplex_boundary_on,
)

from spherejoin import complexes as complexes_module
from spherejoin import homology

from conftest import complexes, cycle, pinched_octahedron, spheres
from oracle import (
    euler_floor_oracle,
    has_cone_apex_oracle,
    hochster_total_oracle,
    reduced_betti_oracle,
)

BOTH = (Field.GF2, Field.RATIONAL)


def projective_plane():
    return build_complex(
        [
            {0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
            {1, 2, 4}, {2, 4, 5}, {2, 3, 5}, {1, 3, 5}, {1, 3, 4},
        ],
        6,
    )


def brute_force_tables(k):
    """(|J|, degree) tables from every full subcomplex, with no cone skip and
    no GF(2)-to-Q shortcut: each restriction is ranked over both fields."""
    tables = {Field.GF2: {}, Field.RATIONAL: {}}
    verts = k.vertices
    for j in chain.from_iterable(combinations(verts, r) for r in range(len(verts) + 1)):
        faces = k.full_subcomplex(j).maximal_faces
        for field, tag in ((Field.GF2, "gf2"), (Field.RATIONAL, "q")):
            for d, b in reduced_betti_oracle(faces, tag).items():
                if b:
                    table = tables[field]
                    table[(len(j), d)] = table.get((len(j), d), 0) + b
    return tables


def sweep_tables(k):
    return {field: homology._sweep_table(k, field, k.vertex_count) for field in BOTH}


class TestReducedBetti:
    def test_pentagon_circle(self, pentagon):
        b = reduced_betti(pentagon, Field.GF2)
        assert b.reduced == {-1: 0, 0: 0, 1: 1}
        assert b.total == 1

    def test_two_points(self):
        b = reduced_betti(build_complex([{0}, {1}], 2), Field.RATIONAL)
        assert b.reduced == {-1: 0, 0: 1}

    def test_octahedron_sphere(self, octahedron):
        b = reduced_betti(octahedron, Field.GF2)
        assert b.reduced == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_empty_complex(self):
        b = reduced_betti(SimplicialComplex([]), Field.GF2)
        assert b.reduced == {-1: 1}

    @pytest.mark.parametrize("field", BOTH)
    def test_against_oracle(self, field, octahedron, pentagon):
        samples = [
            pentagon,
            octahedron,
            boundary_of_simplex(3),
            build_complex([{0, 1, 2}, {0, 1, 3}, {3, 4}], 5),
            build_complex([{0, 1, 2}, {2, 3}, {3, 0}, {4}], 5),
        ]
        tag = "q" if field is Field.RATIONAL else "gf2"
        for k in samples:
            expect = reduced_betti_oracle(k.maximal_faces, tag)
            got = reduced_betti(k, field).reduced
            for d in set(expect) | set(got):
                assert got.get(d, 0) == expect.get(d, 0), (k, d)

    def test_projective_plane_torsion_separates_fields(self):
        # 6-vertex projective plane: rank 1 in degrees 1 and 2 over GF(2),
        # rank 0 over the rationals; the two fields must not be conflated
        rp2 = projective_plane()
        assert reduced_betti(rp2, Field.GF2).reduced == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_betti(rp2, Field.RATIONAL).reduced == {-1: 0, 0: 0, 1: 0, 2: 0}
        for tag, field in (("gf2", Field.GF2), ("q", Field.RATIONAL)):
            assert reduced_betti(rp2, field).reduced == {
                d: b for d, b in reduced_betti_oracle(rp2.maximal_faces, tag).items()
            }


class TestHochsterTotal:
    def test_square(self, square):
        assert hochster_total_rank(square, Field.GF2) == 4

    def test_triangle(self):
        assert hochster_total_rank(boundary_of_simplex(2), Field.GF2) == 2

    def test_pentagon(self, pentagon):
        assert hochster_total_rank(pentagon, Field.GF2) == 12
        assert hochster_total_rank(pentagon, Field.RATIONAL) == 12

    def test_matches_brute_force(self, square):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        for complex_ in (square, k, cycle(5)):
            assert hochster_total_rank(complex_, Field.RATIONAL) == hochster_total_oracle(
                complex_.vertices, complex_.maximal_faces, "q"
            )

    def test_matches_literal_subset_sum(self, square, pentagon):
        # the sweep (with its acyclic-cone shortcut) must agree with the
        # definition spelled out through full_subcomplex and reduced_betti
        from itertools import chain, combinations

        for k in (square, pentagon, boundary_of_simplex(3)):
            verts = k.vertices
            subsets = chain.from_iterable(
                combinations(verts, r) for r in range(len(verts) + 1)
            )
            literal = sum(
                reduced_betti(k.full_subcomplex(set(j)), Field.GF2).total
                for j in subsets
            )
            assert hochster_total_rank(k, Field.GF2) == literal

    def test_cap(self, square):
        with pytest.raises(CapExceededError):
            hochster_total_rank(square, Field.GF2, cap=3)

    def test_kgon_table(self):
        totals = [hochster_total_rank(cycle(k), Field.GF2) for k in range(3, 9)]
        assert totals == [2, 4, 12, 36, 100, 260]


class TestSubsetSweep:
    @settings(max_examples=40, deadline=None)
    @given(complexes(max_vertices=5))
    def test_tables_match_brute_force(self, k):
        tables = sweep_tables(k)
        assert tables == brute_force_tables(k)
        for table in tables.values():
            assert list(table) == sorted(table)

    @staticmethod
    def check_cone_bit_test(k):
        inside = homology._non_faces_inside(
            k.vertex_count, [k._mask(nf) for nf in k.minimal_non_faces()]
        )
        assert inside.itemsize * 8 >= k.vertex_count
        for jmask in range(1, 1 << k.vertex_count):
            j = k._unmask(jmask)
            assert (inside[jmask] != jmask) == has_cone_apex_oracle(k.maximal_faces, j)

    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_cone_bit_test_matches_maximal_faces(self, k):
        self.check_cone_bit_test(k)

    def test_cone_bit_test_wide_table(self):
        # 10 vertices need two bytes per table entry
        self.check_cone_bit_test(cycle(10))

    def test_mixed_parity_restriction_falls_back(self, monkeypatch):
        # RP^2 restricted to all six vertices has GF(2) homology in degrees
        # 1 and 2, so the parity certificate must refuse and elimination
        # over Q must decide that restriction
        rp2 = projective_plane()
        fallback = []
        original = homology._rational_betti

        def spy(by_dim, jmask):
            fallback.append(jmask)
            return original(by_dim, jmask)

        monkeypatch.setattr(homology, "_rational_betti", spy)
        gf2 = homology._sweep_table(rp2, Field.GF2, 6)
        assert fallback == []  # GF(2) alone never needs elimination over Q
        rational = homology._sweep_table(rp2, Field.RATIONAL, 6)
        assert 0b111111 in fallback
        assert gf2[(6, 1)] == 1 + rational.get((6, 1), 0)
        assert gf2[(6, 2)] == 1
        assert (6, 2) not in rational
        assert sweep_tables(rp2) == brute_force_tables(rp2)

    def test_one_sweep_serves_both_fields(self, monkeypatch, pentagon):
        calls = []
        original = homology._subset_sweep
        monkeypatch.setattr(
            homology, "_subset_sweep", lambda *args: calls.append(args[0]) or original(*args)
        )
        for field in BOTH:
            hochster_total_rank(pentagon, field)
            bigraded_betti(pentagon, field)
            hochster_graded_ranks(pentagon, field)
            hochster_rank_criterion(pentagon, field)
        assert calls == [pentagon]

    @pytest.mark.parametrize("field", BOTH)
    def test_swept_complex_is_released(self, field):
        # a complex no other test sweeps: a cache keyed by an equal complex
        # swept earlier would otherwise hide a cache that keeps its keys
        k = build_complex([{0, 1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}], 6)
        hochster_total_rank(k, field)
        ref = weakref.ref(k)
        del k
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("sweep", [hochster_total_rank, bigraded_betti, hochster_graded_ranks])
    def test_cap_message(self, sweep, square):
        with pytest.raises(CapExceededError) as info:
            sweep(square, Field.RATIONAL, cap=3)
        assert str(info.value) == "subset sweep over 4 vertices exceeds cap 3"


class TestRankCriterion:
    def test_square_true(self, square):
        assert hochster_rank_criterion(square, Field.GF2)

    def test_pentagon_false(self, pentagon):
        assert not hochster_rank_criterion(pentagon, Field.GF2)

    def test_prism_dual_true(self):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        assert hochster_rank_criterion(k, Field.GF2)
        assert hochster_total_rank(k, Field.GF2) == 4


class TestBoundedTotal:
    """`stop_above`: exact up to the bound, a lower bound past it, and a
    pass that stops caches nothing."""

    @staticmethod
    def check_bound(k, field, bound):
        def fresh():
            return SimplicialComplex(k.maximal_faces, vertices=k.vertices)

        exact = hochster_total_rank(fresh(), field)
        bounded = fresh()
        got = hochster_total_rank(bounded, field, stop_above=bound)
        if exact <= bound:
            assert got == exact
        else:
            assert bound < got <= exact
        # a pass that stopped cached nothing, one that ended complete tables
        if bounded._sweep_tables is None:
            assert exact > bound
        else:
            assert sweep_tables(bounded) == sweep_tables(fresh())

    @settings(max_examples=40, deadline=None)
    @given(complexes(), st.data())
    def test_exact_up_to_bound(self, k, data):
        for field in BOTH:
            exact = hochster_total_rank(k, field)
            bound = data.draw(st.integers(min_value=0, max_value=exact + 1))
            self.check_bound(k, field, bound)

    @pytest.mark.parametrize("field, exact", [(Field.GF2, 34), (Field.RATIONAL, 32)])
    def test_projective_plane_every_bound(self, field, exact):
        # the GF(2) total exceeds the rational one by the torsion of RP^2, so
        # a rational pass must not read its total off the GF(2) ranks
        rp2 = projective_plane()
        assert hochster_total_rank(rp2, field) == exact
        for bound in range(exact + 2):
            self.check_bound(rp2, field, bound)

    @pytest.mark.parametrize("field", BOTH)
    def test_negative_criterion_caches_nothing(self, field):
        for k in (cycle(7), projective_plane()):
            exact = hochster_total_oracle(k.vertices, k.maximal_faces, field.value)
            assert not hochster_rank_criterion(k, field)
            assert k._sweep_tables is None
            assert hochster_total_rank(k, field) == exact
            assert k._sweep_tables is not None

    def test_negative_criterion_ranks_no_subset(self, monkeypatch):
        # the Euler floor of the 13-cycle, its exact total, passes 2^11 from
        # face counts alone, and the certificate decides a cycle directly
        ranked = []
        original = homology.gf2_rank
        monkeypatch.setattr(
            homology, "gf2_rank", lambda rows: ranked.append(rows) or original(rows)
        )
        rows, cones = spy(monkeypatch, "_boundary_rows"), spy(monkeypatch, "_non_faces_inside")
        k = cycle(13)
        assert not hochster_rank_criterion(k, Field.GF2)
        assert ranked == rows == cones == []
        assert k._rank_floor == 18436
        assert hochster_total_rank(k, Field.GF2) == 18436
        assert ranked

    @pytest.mark.parametrize("field", BOTH)
    def test_positive_criterion_sweeps_once(self, monkeypatch, field):
        # a join of three simplex boundaries: the sweep runs once on each
        # factor, never on the join, and later calls sweep nothing more
        factors = [
            boundary_of_simplex(2), simplex_boundary_on([3, 4]), simplex_boundary_on([5, 6])
        ]
        k = factors[0].join(factors[1]).join(factors[2])
        calls = []
        original = homology._subset_sweep
        monkeypatch.setattr(
            homology, "_subset_sweep", lambda *args: calls.append(args[0]) or original(*args)
        )
        assert hochster_rank_criterion(k, field)
        assert calls == factors
        for other in BOTH:
            assert hochster_total_rank(k, other) == 1 << (k.vertex_count - k.dim - 1)
            assert hochster_rank_criterion(k, other)
        assert calls == factors


def spy(monkeypatch, name):
    """Replace `homology.<name>` by a wrapper that records its first argument."""
    calls = []
    original = getattr(homology, name)
    monkeypatch.setattr(homology, name, lambda *args: calls.append(args[0]) or original(*args))
    return calls


@functools.lru_cache(maxsize=None)
def oracle_total(vertices, maximal_faces, field):
    """`hochster_total_oracle`, once per complex: hypothesis draws RP^2 often."""
    return hochster_total_oracle(vertices, maximal_faces, field.value)


class TestOneBoundedPass:
    """A bounded pass leaves a floor, certified for both fields, that decides
    both criteria; it never eliminates over Q."""

    @pytest.mark.parametrize("make", [lambda: cycle(13), projective_plane])
    def test_recognize_all_sweeps_once(self, monkeypatch, make):
        k = make()
        swept = spy(monkeypatch, "_subset_sweep")
        verdicts = {r.criterion: r.verdict for r in recognize_all(k).reports}
        assert verdicts["HochsterGF2"] is False
        assert verdicts["HochsterQ"] is False
        assert len(swept) == 1 and swept[0] is k

    def test_rational_criterion_eliminates_nothing(self, monkeypatch, catalog):
        cube = next(e.complex for e in catalog if e.name == "truncated:cube")

        def fresh():
            return SimplicialComplex(cube.maximal_faces, vertices=cube.vertices)

        k = fresh()
        eliminated = spy(monkeypatch, "_rational_betti")
        assert not hochster_rank_criterion(k, Field.RATIONAL)
        assert eliminated == []
        assert hochster_total_rank(k, Field.RATIONAL) == hochster_total_rank(
            fresh(), Field.RATIONAL
        )

    @pytest.mark.parametrize("first, second", [BOTH, BOTH[::-1]])
    def test_floor_answers_lower_bounds_without_sweeping(self, monkeypatch, first, second):
        k = cycle(13)
        bound = 1 << (k.vertex_count - k.dim - 1)
        swept = spy(monkeypatch, "_subset_sweep")
        floor = hochster_total_rank(k, first, stop_above=bound)
        assert floor > bound
        for field in (second, first):
            assert hochster_total_rank(k, field, stop_above=bound) == floor
            assert hochster_total_rank(k, field, stop_above=0) == floor
        assert swept == [k]
        assert k._sweep_tables is None
        # an unbounded call ignores the floor
        assert hochster_total_rank(k, second) == 18436
        assert swept == [k, k]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(complexes(), st.builds(projective_plane)), st.data())
    def test_interleaved_fields_on_one_complex(self, k, data):
        exact = {f: oracle_total(k.vertices, k.maximal_faces, f) for f in BOTH}
        complete = sweep_tables(SimplicialComplex(k.maximal_faces, vertices=k.vertices))
        order = data.draw(st.permutations(BOTH))
        for field in (*order, *reversed(order)):
            bound = data.draw(st.integers(min_value=0, max_value=exact[field] + 1))
            got = hochster_total_rank(k, field, stop_above=bound)
            if exact[field] <= bound:
                assert got == exact[field]
            else:
                assert bound < got <= exact[field]
            if k._sweep_tables is not None:
                # complete tables, read through a copy so that `k` keeps its state
                copy = SimplicialComplex(k.maximal_faces, vertices=k.vertices)
                copy._sweep_tables = k._sweep_tables
                assert sweep_tables(copy) == complete
        for field in BOTH:
            assert hochster_total_rank(k, field) == exact[field]


POINT = SimplicialComplex([{0}])  # a one-vertex simplex; joined on, a cone apex


@st.composite
def joins(draw, max_vertices=6):
    """Joins of two or three draws of `complexes` (often not pure) and
    `spheres`, none a simplex, on disjoint vertices, sometimes with a cone
    apex."""
    k = SimplicialComplex([])  # the empty complex, the unit of the join
    parts = draw(st.integers(min_value=2, max_value=3))
    for _ in range(parts):
        room = max_vertices - k.vertex_count
        if room < 2:
            break
        part = draw(
            st.one_of(complexes(max_vertices=min(4, room)), spheres(max_vertices=room))
            .filter(lambda s: s.minimal_non_faces() and s.vertex_count <= room)
        )
        k = join_after(k, part)
    if k.vertex_count < max_vertices and draw(st.booleans()):
        k = join_after(k, POINT)
    return k


def join_after(k, part):
    """The join of `k` and `part`, with `part` relabelled past `k`'s vertices."""
    offset = k.vertex_count
    return k.join(part.relabel({v: offset + i for i, v in enumerate(part.vertices)}))


@functools.lru_cache(maxsize=None)
def oracle_tables(vertices, maximal_faces):
    """`brute_force_tables`, once per complex."""
    return brute_force_tables(SimplicialComplex(maximal_faces, vertices=vertices))


class TestJoinFactors:
    """The sweep runs once per join component of the minimal non-faces and
    convolves; every figure must still match the unfactored oracle."""

    @settings(max_examples=30, deadline=None)
    @given(joins(), st.data())
    def test_joins_match_oracle(self, k, data):
        expected = oracle_tables(k.vertices, k.maximal_faces)
        for field in BOTH:
            table = expected[field]
            total = sum(table.values())
            bigraded, graded = {}, {}
            for (size, degree), b in table.items():
                key = (size - degree - 1, 2 * size)
                bigraded[key] = bigraded.get(key, 0) + b
                graded[degree + 1] = graded.get(degree + 1, 0) + b
            fresh = SimplicialComplex(k.maximal_faces, vertices=k.vertices)
            assert hochster_total_rank(fresh, field) == total
            assert bigraded_betti(fresh, field).entries == bigraded
            assert hochster_graded_ranks(fresh, field) == graded
            assert homology._sweep_table(fresh, field, fresh.vertex_count) == table
            bound = data.draw(st.integers(min_value=0, max_value=total + 1))
            got = hochster_total_rank(k, field, stop_above=bound)
            if total <= bound:
                assert got == total
            else:
                assert bound < got <= total
        for field in BOTH:
            assert hochster_total_rank(k, field) == sum(expected[field].values())

    def test_factors_are_full_subcomplexes(self):
        parts = [boundary_of_simplex(2), simplex_boundary_on([3, 4]), simplex_boundary_on([6, 7])]
        k = parts[0].join(parts[1]).join(POINT.relabel({0: 5})).join(parts[2])
        factors = homology._join_factors(k)
        assert factors == tuple(parts)
        for factor in factors:
            assert factor.minimal_non_faces() == (frozenset(factor.vertices),)
        assert homology._join_factors(factors[0])[0] is factors[0]

    def test_factors_run_no_dualization(self, monkeypatch):
        k = join_after(boundary_of_simplex(2).join(simplex_boundary_on([3, 4])), cycle(5))
        k.minimal_non_faces()
        calls = []
        transversals = complexes_module._minimal_transversals
        monkeypatch.setattr(
            complexes_module,
            "_minimal_transversals",
            lambda edges: calls.append(edges) or transversals(edges),
        )
        for field in BOTH:
            assert hochster_total_rank(k, field) == 2 * 2 * 12
        assert len(homology._join_factors(k)) == 3
        assert calls == []

    def test_bounded_pass_stops_on_the_floor_product(self):
        # the square's total 4 divides the cycle's bound by 4, and the cycle's
        # Euler floor is its exact total: every restriction of a cycle has
        # its homology in one degree
        k = simplex_boundary_on([0, 1]).join(simplex_boundary_on([2, 3]))
        k = join_after(k, cycle(13))
        bound = 1 << (k.vertex_count - k.dim - 1)
        got = hochster_total_rank(k, Field.GF2, stop_above=bound)
        assert got == 4 * 18436
        assert bound < got <= hochster_total_rank(
            SimplicialComplex(k.maximal_faces, vertices=k.vertices), Field.GF2
        )
        assert k._rank_floor == got and k._sweep_tables is None

    @pytest.mark.parametrize("field, exact", [(Field.GF2, 136), (Field.RATIONAL, 128)])
    def test_bounded_pass_after_torsion_factor(self, field, exact):
        # RP^2's floor is its rational total 32, not its GF(2) total 34; the
        # square after it must get the bound divided by 32
        k = join_after(projective_plane(), cycle(4))
        assert hochster_total_rank(k, field) == exact
        for bound in range(exact + 2):
            TestBoundedTotal.check_bound(k, field, bound)

    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_dropped_non_face_raises(self, drop):
        # without one factor's non-face its vertices look like cone apexes,
        # and the factors' facets no longer multiply to the join's
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4])).join(
            simplex_boundary_on([5, 6])
        )
        nfs = list(k.minimal_non_faces())
        del nfs[drop]
        k._minimal_non_faces = tuple(nfs)
        for field in BOTH:
            with pytest.raises(InternalInvariantError):
                hochster_total_rank(k, field)
        assert k._sweep_tables is None

    def test_dropped_non_face_raises_in_bounded_pass(self):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        k._minimal_non_faces = k.minimal_non_faces()[:1]
        with pytest.raises(InternalInvariantError):
            hochster_rank_criterion(k, Field.GF2)


def torus():
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return build_complex(
        [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
        + [{i, (i + 2) % 7, (i + 3) % 7} for i in range(7)],
        7,
    )


def copy_of(k, sphere):
    """A fresh copy of `k`, with nothing swept, whose `_sphere` slot holds
    `sphere`; False makes the sweep visit every subset."""
    out = SimplicialComplex(k.maximal_faces, vertices=k.vertices)
    out._sphere = sphere
    return out


class TestSphereCertificate:
    """`_certify_sphere` accepts exactly the GF(2) homology spheres, and a
    double or a join factor inherits the answer instead of recomputing it."""

    @pytest.mark.parametrize(
        "k",
        [boundary_of_simplex(d) for d in range(1, 6)]
        + [cycle(n) for n in range(3, 9)]
        + [
            boundary_of_simplex(3).stellar_subdivide({0, 1, 2}),
            boundary_of_simplex(2).join(cycle(5).relabel({v: v + 3 for v in range(5)})),
            cycle(4).join(cycle(6).relabel({v: v + 4 for v in range(6)})),
        ],
    )
    def test_accepts_spheres(self, k):
        assert homology._certify_sphere(k)

    def test_accepts_catalog_and_joins(self, catalog):
        entries = [entry.complex for entry in catalog]
        for k in entries:
            assert homology._certify_sphere(copy_of(k, None)), k
        small = [k for k in entries if k.vertex_count <= 5]
        for a, b in combinations(small, 2):
            assert homology._certify_sphere(join_after(a, b))

    @pytest.mark.parametrize(
        "k",
        [
            projective_plane(),
            torus(),
            pinched_octahedron(),
            SimplicialComplex([{0, 1, 2}]),  # a simplex
            SimplicialComplex([{0}]),
            SimplicialComplex([]),  # the empty complex
            build_complex([{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}], 6),
            build_complex([{0, 1, 2}, {2, 3}, {3, 0}], 4),  # not pure
            build_complex([{0}, {1}, {2}], 3),  # three points
            build_complex([{0, 1}, {1, 2}], 3),  # a path
            build_complex([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}], 4),  # a disk
        ],
    )
    def test_refuses_non_spheres(self, k):
        assert not homology._certify_sphere(k)

    def test_doubles_inherit_what_they_would_compute(self, catalog):
        # the double is a sphere iff its input is, whichever way it is decided
        inputs = [entry.complex for entry in catalog] + [
            projective_plane(),
            SimplicialComplex([{0, 1, 2}]),
            build_complex([{0, 1, 2}, {2, 3}, {3, 0}], 4),
            build_complex([{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}], 6),
        ]
        for k in inputs:
            if 2 * k.vertex_count > 12:
                continue
            expected = homology._certify_sphere(k)
            inherited = double(copy_of(k, None))
            assert inherited._sphere is not None
            assert homology._is_sphere(inherited) is expected
            assert homology._certify_sphere(double(k)) is expected, k

    @pytest.mark.parametrize("field", BOTH)
    def test_via_double_certifies_at_m_vertices(self, monkeypatch, catalog, field):
        inputs = [entry.complex for entry in catalog] + [
            join_after(cycle(5), POINT),  # a cone: no sphere, but a sphere factor
        ]
        if field is Field.GF2:
            # over Q its double needs a slow elimination of all 12 vertices
            inputs.append(projective_plane())
        certified = spy(monkeypatch, "_certify_sphere")
        for k in inputs:
            if 2 * k.vertex_count > 14:
                continue
            k = copy_of(k, None)
            certified.clear()
            hochster_rank_via_double(k, field)
            assert certified == [k]

    def test_join_factors_inherit(self):
        k = boundary_of_simplex(2).join(cycle(5).relabel({v: v + 3 for v in range(5)}))
        for sphere in (None, True, False):
            factors = homology._join_factors(copy_of(k, sphere))
            assert len(factors) == 2
            assert all(f._sphere is sphere for f in factors)

    @pytest.mark.parametrize(
        "k",
        [
            cycle(8),
            cycle(9),
            boundary_of_simplex(3).stellar_subdivide({0, 1, 2}),
            projective_plane(),
        ],
    )
    def test_visited_subsets(self, monkeypatch, k):
        # a sphere's pass visits one of J and V - J, and only the one
        # without the top vertex bit when they are the same size; without
        # the certificate every subset that is not a cone is visited.  A
        # visited J makes one GF(2) rank per dimension of K_J from 1 up
        m = k.vertex_count
        inside = homology._non_faces_inside(m, [k._mask(nf) for nf in k.minimal_non_faces()])
        non_cone = [j for j in range(1, 1 << m) if inside[j] == j]
        half = [
            j for j in non_cone
            if 2 * j.bit_count() < m or (2 * j.bit_count() == m and not j >> (m - 1) & 1)
        ]

        def ranks(subsets):
            return sum(max(0, max((t & j).bit_count() for t in k._max_masks) - 1) for j in subsets)

        ranked = []
        original = homology.gf2_rank
        monkeypatch.setattr(
            homology, "gf2_rank", lambda rows: ranked.append(rows) or original(rows)
        )
        for sphere in (False, homology._certify_sphere(k)):
            copy = copy_of(k, sphere)
            ranked.clear()
            homology._subset_sweep(copy, None)
            assert len(ranked) == ranks(half if sphere else non_cone)


class TestAlexanderDuality:
    """On a certified sphere the sweep visits about half the subsets and
    credits each to its complement; every figure must stay the same."""

    # The brute-force reference ranks every restriction over Q with sympy,
    # about 10 ms per face of K at m = 8; it runs on complexes up to this
    # many faces.  Every complex is compared with the sweep that visits
    # every subset, which the tests above hold to that reference.
    ORACLE_FACES = 50

    @classmethod
    def check(cls, k):
        plain = copy_of(k, False)
        tables = sweep_tables(k)
        assert tables == sweep_tables(plain)
        if k.vertex_count <= 8 and sum(k.f_vector()) <= cls.ORACLE_FACES:
            assert tables == oracle_tables(k.vertices, k.maximal_faces)
        for field in BOTH:
            assert hochster_rank_criterion(copy_of(k, k._sphere), field) == (
                hochster_rank_criterion(copy_of(k, False), field)
            )
            assert hochster_graded_ranks(k, field) == hochster_graded_ranks(plain, field)
            assert bigraded_betti(k, field).entries == bigraded_betti(plain, field).entries

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(spheres(), complexes()))
    def test_random_complexes(self, k):
        self.check(k)

    def test_catalog_and_projective_plane(self, catalog):
        for k in [entry.complex for entry in catalog] + [projective_plane()]:
            self.check(copy_of(k, None))

    def test_doubles_of_catalog(self, catalog):
        for entry in catalog:
            if 2 * entry.complex.vertex_count <= 14:
                self.check(double(copy_of(entry.complex, None)))


class TestBettiKernel:
    """`reduced_betti` and the sweep read the same kernel per field: both
    must match the sympy reference, and each other on the row of K itself,
    which on a certified sphere the sweep credits by duality instead."""

    @staticmethod
    def check(k):
        m, degrees = k.vertex_count, range(-1, k.dim + 1)
        tables = sweep_tables(copy_of(k, None))
        for field, tag in ((Field.GF2, "gf2"), (Field.RATIONAL, "q")):
            got = reduced_betti(k, field).reduced
            assert list(got) == list(degrees)
            assert got == {i: tables[field].get((m, i), 0) for i in degrees}
            if sum(k.f_vector()) <= TestAlexanderDuality.ORACLE_FACES:
                assert got == reduced_betti_oracle(k.maximal_faces, tag)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(complexes(), spheres()))
    def test_random_complexes(self, k):
        self.check(k)

    @pytest.mark.parametrize(
        "k", [projective_plane(), torus(), SimplicialComplex([]), SimplicialComplex([{0}])]
    )
    def test_fixed_complexes(self, k):
        self.check(k)


class TestEulerFloor:
    """The sum of |reduced Euler characteristic| over all restrictions, from
    two subset transforms of face counts, is the brute-force sum and a floor
    under both fields' totals; on a certified sphere half the table gives it."""

    @staticmethod
    def check(k):
        floor = homology._euler_floor(k, False)
        assert floor == euler_floor_oracle(k.vertices, k.maximal_faces)
        for field in BOTH:
            assert floor <= hochster_total_rank(copy_of(k, None), field)
        if homology._is_sphere(copy_of(k, None)):
            assert homology._euler_floor(k, True) == floor

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(complexes(), spheres(), joins()))
    def test_random_complexes(self, k):
        self.check(k)

    def test_catalog_and_projective_plane(self, catalog):
        for k in [entry.complex for entry in catalog] + [projective_plane()]:
            self.check(k)

    @pytest.mark.parametrize(
        "k, faces, width",
        [
            # 254 faces and the empty one fit 8-bit fields
            (boundary_of_simplex(7), 254, 1),
            # 255 faces and the empty one do not
            (SimplicialComplex([range(8)]), 255, 2),
            # 256 odd-dimensional faces with the empty one, at J = V
            (boundary_of_simplex(8), 510, 2),
        ],
    )
    def test_field_width_at_the_byte_boundary(self, monkeypatch, k, faces, width):
        assert sum(k.f_vector()) == faces
        self.check(k)
        widths = []
        transform = homology._subset_transform

        def spy(*args, **kwargs):
            out = transform(*args, **kwargs)
            widths.append(out.itemsize)
            return out

        monkeypatch.setattr(homology, "_subset_transform", spy)
        homology._euler_floor(k, False)
        assert widths == [width, width]


class TestViaDouble:
    def test_edge_boundary(self):
        assert hochster_rank_via_double(simplex_boundary_on([0, 1]), Field.GF2) == 2

    def test_square(self, square):
        assert hochster_rank_via_double(square, Field.GF2) == 4

    def test_pentagon(self, pentagon):
        assert hochster_rank_via_double(pentagon, Field.GF2) == 12

    def test_cap(self, pentagon):
        with pytest.raises(CapExceededError):
            hochster_rank_via_double(pentagon, Field.GF2, cap=9)


class TestBigraded:
    def test_square_entries(self, square):
        table = bigraded_betti(square, Field.GF2)
        assert table.entries == {(0, 0): 1, (1, 4): 2, (2, 8): 1}
        assert table.to_json_dict() == {"(0,0)": 1, "(-1,4)": 2, "(-2,8)": 1}

    def test_triangle_boundary(self):
        table = bigraded_betti(boundary_of_simplex(2), Field.GF2)
        assert table.entries == {(0, 0): 1, (1, 6): 1}

    def test_total_matches_hochster(self, catalog):
        for entry in catalog:
            if entry.complex.vertex_count > 9:
                continue
            table = bigraded_betti(entry.complex, Field.GF2)
            assert table.total == hochster_total_rank(entry.complex, Field.GF2)
            assert table.entries[(0, 0)] == 1

    def test_degree_bound(self, pentagon):
        table = bigraded_betti(pentagon, Field.GF2)
        for (i, j2), value in table.entries.items():
            j = j2 // 2
            assert value >= 0
            assert j - i - 1 <= pentagon.dim


class TestGluingEuler:
    @pytest.mark.parametrize(
        "k, chi", [(3, 2), (4, 0), (5, -8), (6, -32), (7, -96), (8, -256)]
    )
    def test_polygons(self, k, chi):
        inc = incidence_from_hv(*gen_polygon(k))
        assert gluing_euler_characteristic(inc) == chi

    def test_matches_graded_alternating_sum(self, catalog):
        for entry in catalog:
            if entry.incidence is None or entry.complex.vertex_count > 10:
                continue
            graded = hochster_graded_ranks(entry.complex, Field.GF2)
            alt = sum((-1) ** d * b for d, b in graded.items())
            assert gluing_euler_characteristic(entry.incidence) == alt, entry.name


class TestRankLowerBounds:
    def test_pentagon(self, pentagon):
        rep = check_rank_lower_bounds(pentagon, Field.GF2)
        assert rep.holds
        assert rep.total_rank == 12 and rep.total_bound == 8
        assert all(b.m_v == 2 and b.rank == 2 and b.bound == 2 for b in rep.per_link)
        assert all(b.link_dim == 0 and b.m_v <= pentagon.vertex_count - 1 for b in rep.per_link)

    def test_square_equality(self, square):
        rep = check_rank_lower_bounds(square, Field.GF2)
        assert rep.holds and rep.total_rank == rep.total_bound == 4

    def test_tetrahedron_equality(self):
        rep = check_rank_lower_bounds(boundary_of_simplex(3), Field.GF2)
        assert rep.holds and rep.total_rank == rep.total_bound == 2
        assert all(b.rank == b.bound == 2 for b in rep.per_link)

    def test_short_link_refused_before_any_sweep(self, monkeypatch):
        # the isolated vertex 3 has an empty link, too small for dimension 2
        swept = spy(monkeypatch, "_subset_sweep")
        k = build_complex([{0, 1, 2}, {3}], 4)
        with pytest.raises(InvalidDimensionError) as info:
            check_rank_lower_bounds(k, Field.GF2)
        assert str(info.value) == "link of vertex 3 has too few vertices for dimension 2"
        assert swept == []
