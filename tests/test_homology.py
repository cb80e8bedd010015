import functools
import gc
import weakref
from array import array
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
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
    check_simplex_link,
    decompose_by_non_faces,
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

from conftest import complexes, cycle, pinched_octahedron, spheres, wedge, wedges
from oracle import (
    cycle_oracle,
    down_closure,
    euler_floor_oracle,
    gale_boundary,
    has_cone_apex_oracle,
    hochster_total_oracle,
    minimal_non_faces_oracle,
    reduced_betti_oracle,
    sphere_oracle,
    subset_sweep_reference,
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
    call the floor answers caches nothing."""

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
        # a call the floor answered cached nothing, one that swept complete tables
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


def level_spy(monkeypatch):
    """Replace `face_levels`, which only the face store calls, by a wrapper
    that records the dimension of each level as it is listed."""
    pulled = []
    original = complexes_module.face_levels

    def levels(*args):
        for level in original(*args):
            pulled.append(next(iter(level)).bit_count() - 1)
            yield level

    monkeypatch.setattr(complexes_module, "face_levels", levels)
    return pulled


@functools.lru_cache(maxsize=None)
def oracle_total(vertices, maximal_faces, field):
    """`hochster_total_oracle`, once per complex: hypothesis draws RP^2 often."""
    return hochster_total_oracle(vertices, maximal_faces, field.value)


class TestOneBoundedPass:
    """One Euler floor per complex, certified for both fields, decides both
    criteria; a bounded call never eliminates over Q."""

    @pytest.mark.parametrize("make", [lambda: cycle(13), projective_plane])
    def test_recognize_all_sweeps_once(self, monkeypatch, make):
        # the floor is computed once, for both criteria, and nothing is swept
        k = make()
        floored = spy(monkeypatch, "_euler_floor")
        swept = spy(monkeypatch, "_subset_sweep")
        verdicts = {r.criterion: r.verdict for r in recognize_all(k).reports}
        assert verdicts["HochsterGF2"] is False
        assert verdicts["HochsterQ"] is False
        assert len(floored) == 1 and floored[0] is k
        assert swept == []

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
        assert swept == []
        assert k._sweep_tables is None
        # an unbounded call ignores the floor
        assert hochster_total_rank(k, second) == 18436
        assert swept == [k]

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

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(complexes(), spheres()), st.one_of(complexes(), spheres()), st.data())
    def test_factor_non_faces_match_a_fresh_enumeration(self, a, b, data):
        # a random permutation interleaves the two parts' vertices
        k = join_after(a, b)
        perm = data.draw(st.permutations(k.vertices))
        k = k.relabel(dict(zip(k.vertices, perm)))
        for factor in homology._join_factors(k):
            fresh = SimplicialComplex(factor.maximal_faces, vertices=factor.vertices)
            assert factor.minimal_non_faces() == fresh.minimal_non_faces()
            assert set(factor.minimal_non_faces()) == minimal_non_faces_oracle(
                factor.vertices, factor.maximal_faces
            )

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
        # the floor is the product of the factors' floors: 2 for each point
        # pair, and the cycle's exact total, since every restriction of a
        # cycle has its homology in one degree
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
        # join's floor, 32 times the square's 4, is its rational total
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
        nfs = list(k._non_face_masks())
        del nfs[drop]
        k._minimal_non_faces = tuple(nfs)
        for field in BOTH:
            with pytest.raises(InternalInvariantError):
                hochster_total_rank(k, field)
        assert k._sweep_tables is None

    def test_dropped_non_face_raises_in_bounded_pass(self):
        k = boundary_of_simplex(2).join(simplex_boundary_on([3, 4]))
        k._minimal_non_faces = k._non_face_masks()[:1]
        with pytest.raises(InternalInvariantError):
            hochster_rank_criterion(k, Field.GF2)


class TestOneDualization:
    """A complex runs one Berge dualization for its minimal non-faces,
    whichever reader comes first, and every reader sees the same ones."""

    @pytest.mark.parametrize(
        "make", [lambda: cycle(5), lambda: join_after(boundary_of_simplex(2), cycle(5))]
    )
    @pytest.mark.parametrize(
        "readers",
        [
            # sweep, SimplexLink, NonFacePartition, then the view twice
            [
                lambda k: hochster_total_rank(k, Field.GF2),
                check_simplex_link,
                decompose_by_non_faces,
                SimplicialComplex.minimal_non_faces,
                SimplicialComplex.minimal_non_faces,
            ],
            # NonFacePartition, then sweep
            [decompose_by_non_faces, lambda k: hochster_total_rank(k, Field.GF2)],
        ],
    )
    def test_one_berge_run(self, monkeypatch, make, readers):
        k = make()
        expected = SimplicialComplex(k.maximal_faces, vertices=k.vertices).minimal_non_faces()
        edges = sorted(k._full_mask & ~fm for fm in k._max_masks)
        runs = []
        transversals = complexes_module._minimal_transversals
        monkeypatch.setattr(
            complexes_module,
            "_minimal_transversals",
            lambda e: runs.append(sorted(e)) or transversals(e),
        )
        views = []
        for read in readers:
            read(k)
            views.append(k.minimal_non_faces())
        assert runs.count(edges) == 1
        assert views == [expected] * len(readers)


def torus():
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return build_complex(
        [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
        + [{i, (i + 2) % 7, (i + 3) % 7} for i in range(7)],
        7,
    )


def icosahedron():
    """The icosahedron: apexes 0 and 11 over the rings 1-5 and 6-10.  The
    link of 0 and the apex 11 span a pentagon and a point, whose GF(2)
    homology has both parities, so the parity test leaves them open."""
    faces = []
    for i in range(5):
        u, u1, w, w1 = 1 + i, 1 + (i + 1) % 5, 6 + i, 6 + (i + 1) % 5
        faces += [{0, u, u1}, {11, w, w1}, {u, u1, w}, {u1, w, w1}]
    return build_complex(faces, 12)


def certified_double(k):
    """The double of `k` with the certificate of `k`, decided at its m
    vertices: the double is a sphere iff `k` is, so its uncollapsed
    factors are swept with the duality halving."""
    out = double(copy_of(k, None))
    out._sphere = homology._certify_sphere(k)
    return out


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            complexes(),
            spheres(),
            complexes(max_vertices=4).map(double),
            spheres().filter(lambda k: k.vertex_count <= 4).map(double),
        )
    )
    @example(projective_plane())
    @example(torus())
    @example(pinched_octahedron())
    @example(gale_boundary(7, 4))
    def test_matches_sphere_oracle(self, k):
        # a double is certified here at its own 2m vertices, not inherited
        assert homology._certify_sphere(copy_of(k, None)) == sphere_oracle(k.maximal_faces)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            complexes(),
            spheres(),
            complexes(max_vertices=4).map(double),
            spheres().filter(lambda k: k.vertex_count <= 5).map(double),
        )
    )
    def test_link_faces_read_off_the_levels(self, k):
        # the certificate's faces of lk sigma, taken from the complex's own
        # levels, against the reference's top-down closure of the link's
        # maximal faces; the levels past the link's top are empty
        levels = k.faces_by_dim()
        for sigma in [0, *chain.from_iterable(levels)]:
            link = homology._link_levels(levels, sigma)
            tops = [t ^ sigma for t in k._max_masks if t & sigma == sigma]
            expected = down_closure(tops)
            assert link[: len(expected)] == expected
            assert not any(link[len(expected) :])

    def test_doubles_inherit_what_they_would_compute(self, catalog):
        # the double is a sphere iff its input is; each factor of a double
        # is one iff its twin quotient is, which takes the factor's settled
        # answer and otherwise certifies itself
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
            assert homology._certify_sphere(double(k)) is expected, k
            for factor in homology._join_factors(double(k)):
                answer = homology._certify_sphere(copy_of(factor, None))
                quotient, _ = homology._twin_quotient(copy_of(factor, None))
                assert homology._is_sphere(quotient) is answer, k
                assert homology._twin_quotient(copy_of(factor, answer))[0]._sphere is answer

    @pytest.mark.parametrize("field", BOTH)
    def test_via_double_certifies_at_m_vertices(self, monkeypatch, catalog, field):
        inputs = [entry.complex for entry in catalog] + [
            join_after(cycle(5), POINT),  # a cone: no sphere, but a sphere factor
            projective_plane(),
        ]
        certified = spy(monkeypatch, "_certify_sphere")
        for k in inputs:
            if 2 * k.vertex_count > 14:
                continue
            k = copy_of(k, None)
            certified.clear()
            hochster_rank_via_double(k, field)
            # once per factor, on its twin quotient, a copy of a factor of
            # k, or on the factor itself when it is a simplex boundary,
            # which its masks decide
            assert len(certified) == len(homology._join_factors(copy_of(k, None)))
            for c in certified:
                assert c.vertex_count <= k.vertex_count or c.is_simplex_boundary()

    def test_floor_factors_serve_the_sweep(self, monkeypatch):
        # the criteria's floor certifies the prism's two factors, and the
        # unbounded totals after it sweep those same factors: 12 for the
        # pentagon times 2 for the point pair, over both fields
        k = cycle(5).join(simplex_boundary_on([5, 6]))
        certified = spy(monkeypatch, "_certify_sphere")
        for field in BOTH:
            assert not hochster_rank_criterion(k, field)
        for field in BOTH:
            assert hochster_total_rank(k, field) == 24
        assert [f.vertex_count for f in certified] == [5, 2]

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
            homology._subset_sweep(copy)
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


class TestLazyRows:
    """The sweep builds boundary rows one dimension at a time, as far as
    the restrictions it ranks need.  K_J has no face of dimension |J|, so a
    J reads only the rows below that dimension; a J that is not a face, as
    every J the sweep ranks holds a minimal non-face, has none of
    dimension |J| - 1 either."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(complexes(), spheres()))
    def test_rows_cut_at_the_size_of_j(self, k):
        by_dim = k.faces_by_dim()
        full = homology._boundary_rows(by_dim)
        cut = [homology._boundary_rows(by_dim[:size]) for size in range(k.vertex_count + 1)]
        faces = set(chain.from_iterable(by_dim))
        for jmask in range(1, 1 << k.vertex_count):
            betti = homology._gf2_betti(full, jmask)
            size = jmask.bit_count()
            assert homology._gf2_betti(cut[size], jmask) == betti
            if jmask not in faces:
                assert homology._gf2_betti(cut[size - 1], jmask) == betti
        # rows extended dimension by dimension are the rows of the longer cut
        for a, b in combinations(range(2, k.vertex_count + 1), 2):
            assert cut[a] + homology._boundary_rows(by_dim[a - 1 : b]) == cut[b]
        for sphere in (None, False):
            assert homology._subset_sweep(copy_of(k, sphere)) == subset_sweep_reference(
                copy_of(k, sphere)
            )

    def test_sweep_that_ranks_nothing_builds_no_rows(self, monkeypatch):
        # every restriction these sweeps visit is a cone: the double of the
        # 4-simplex boundary is the 9-simplex boundary, and the double of
        # the join of a point pair and a triangle joins those of the 3- and
        # 5-simplex; each total is the empty J and its dual, K itself.  Each
        # factor is a simplex boundary, which its masks certify
        inputs = [
            boundary_of_simplex(4),
            simplex_boundary_on([0, 1]).join(simplex_boundary_on([2, 3, 4])),
        ]
        assert all(homology._is_sphere(k) for k in inputs)
        built = spy(monkeypatch, "_boundary_rows")
        pulled = level_spy(monkeypatch)
        k = double(inputs[0])
        assert hochster_total_rank(k, Field.GF2) == 2
        assert k._faces[0] == []
        k = double(inputs[1])
        for field in BOTH:
            assert hochster_total_rank(k, field) == 4
        factors = homology._join_factors(k)
        assert [f.vertex_count for f in factors] == [4, 6]
        assert all(f._faces[0] == [] for f in (k, *factors))
        assert built == pulled == []

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("field", BOTH)
    def test_doubled_sweep_builds_faces_as_far_as_it_ranks(self, monkeypatch, n, field):
        # the double of the n-cycle is swept on its twin quotient, a copy of
        # the n-cycle: the double lists no face, and the quotient ranks the
        # J a fresh n-cycle ranks, at most 2 and 3 vertices, from the levels
        # up to dimension |J| - 2 past the first two sizes, no more
        ranked = []
        gf2_betti = homology._gf2_betti
        monkeypatch.setattr(
            homology, "_gf2_betti", lambda rows, jmask: ranked.append(jmask) or gf2_betti(rows, jmask)
        )
        pulled = level_spy(monkeypatch)
        assert hochster_total_rank(cycle(n), field) == cycle_oracle(n)[1]
        fresh = (list(ranked), list(pulled))
        ranked.clear()
        pulled.clear()
        k = double(cycle(n))
        assert hochster_total_rank(k, field) == cycle_oracle(n)[1]
        assert (ranked, pulled) == fresh
        assert max(map(int.bit_count, ranked)) == {5: 2, 6: 3}[n]
        assert pulled == {5: [], 6: [0, 1]}[n]
        quotient, sizes = homology._twin_quotient(k)
        assert sizes == [2] * n and quotient._max_masks == cycle(n)._max_masks
        assert quotient._faces[0] == down_closure(quotient._max_masks)[: len(pulled)]
        assert k._faces[0] == []

    def test_open_restrictions_read_partial_levels(self, monkeypatch):
        # three tetrahedra around the edge {0, 1}, and a point: K_J for
        # J = {2, 3, 4, 5} is a hollow triangle and the point, with GF(2)
        # homology in degrees 0 and 1, so the parity test leaves it open.
        # Its rational ranks read the levels up to dimension 2 of 3
        k = build_complex([{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}, {5}], 6)
        opened = spy(monkeypatch, "_rational_betti")
        pulled = level_spy(monkeypatch)
        total = hochster_total_rank(k, Field.RATIONAL)
        assert total == hochster_total_oracle(k.vertices, k.maximal_faces, "q")
        assert [len(by_dim) for by_dim in opened] == [3]
        # the sweep, which ranks K itself, lists all four levels; the open J
        # reads three of them from the store
        assert k.dim == 3 and pulled == [0, 1, 2, 3]

    def test_doubles_of_catalog_match_full_rows(self, catalog):
        # the factors of each double, swept as they are, against the sweep
        # that builds every row first
        for entry in catalog:
            if 2 * entry.complex.vertex_count > 16:
                continue
            lazy = homology._join_factors(certified_double(entry.complex))
            full = homology._join_factors(certified_double(entry.complex))
            for a, b in zip(lazy, full, strict=True):
                assert homology._subset_sweep(a) == subset_sweep_reference(b), entry.name


def reference_tables(k):
    """Both fields' tables of `k` from `subset_sweep_reference`, which sweeps
    `k` itself, with no join factors and no twin quotient, and ranks the
    subsets it leaves open over Q on the faces of `k`."""
    gf2, rational, pending = subset_sweep_reference(k)
    by_dim = k.faces_by_dim()
    opened = {}
    for jmask in pending:
        for d, b in enumerate(homology._rational_betti(by_dim, jmask)):
            if b:
                opened[(jmask.bit_count(), d)] = opened.get((jmask.bit_count(), d), 0) + b
    if homology._is_sphere(k):
        opened = homology._with_duals(opened, k.vertex_count, k.dim)
    for key, b in opened.items():
        rational[key] = rational.get(key, 0) + b
    return {Field.GF2: gf2, Field.RATIONAL: dict(sorted(rational.items()))}


class TestTwinQuotient:
    """A join factor is swept and floored on its twin quotient K', with
    each row moved to the union of its classes; every figure must still
    match the references that sweep the complex itself."""

    @settings(max_examples=25, deadline=None)
    @given(wedges())
    # classes of 1, 2 and 3 vertices
    @example(wedge(cycle(5), [1, 2, 1, 3, 1]))
    # a point pair widened to a triangle boundary, a simplex-boundary factor
    # left as it is, joined to a pentagon with one class of 2 vertices
    @example(wedge(join_after(simplex_boundary_on([0, 1]), cycle(5)), [2, 1, 1, 2, 1, 1, 1]))
    @example(wedge(projective_plane(), [2, 1, 1, 1, 1, 1]))
    # a sphere whose open J' stand for their complements too
    @example(wedge(icosahedron(), [1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1]))
    def test_wedges_match_the_references(self, k):
        tables = sweep_tables(copy_of(k, None))
        assert tables == reference_tables(copy_of(k, None))
        if k.vertex_count <= 8 and sum(k.f_vector()) <= TestAlexanderDuality.ORACLE_FACES:
            assert tables == oracle_tables(k.vertices, k.maximal_faces)
        floor = hochster_total_rank(copy_of(k, None), Field.GF2, stop_above=0)
        assert floor == euler_floor_oracle(k.vertices, k.maximal_faces)
        for factor in homology._join_factors(copy_of(k, None)):
            quotient, sizes = homology._twin_quotient(factor)
            if sizes is None:
                continue
            assert sum(sizes) == factor.vertex_count > quotient.vertex_count
            fresh = SimplicialComplex(quotient.maximal_faces, vertices=quotient.vertices)
            assert quotient._non_face_masks() == fresh._non_face_masks()
            assert homology._certify_sphere(copy_of(factor, None)) == homology._certify_sphere(fresh)

    def test_doubles_of_catalog_match_the_uncollapsed_reference(self, catalog):
        # each factor of a double, swept on its twin quotient, against the
        # reference sweep of the factor itself
        for entry in catalog:
            if 2 * entry.complex.vertex_count > 20:
                continue
            for factor in homology._join_factors(certified_double(entry.complex)):
                expected = reference_tables(copy_of(factor, factor._sphere))
                assert sweep_tables(factor) == expected, entry.name

    def test_floor_reads_the_quotient(self):
        # the criteria's floor of a double is its input's, taken on the twin
        # quotient, a copy of the 7-cycle: the double lists no face
        k = double(cycle(7))
        for field in BOTH:
            assert not hochster_rank_criterion(k, field)
        assert k._rank_floor == cycle_oracle(7)[1] and k._sweep_tables is None
        assert k._faces[0] == []

    def test_wrong_non_faces_raise(self):
        # with these two non-faces 0 and 1, and 3 and 4, look like twins; the
        # pentagon's 5 edges are not the 8 facets such a wedge would have
        k = cycle(5)
        k._minimal_non_faces = (0b00111, 0b11011)
        for field in BOTH:
            with pytest.raises(InternalInvariantError):
                hochster_total_rank(k, field)
        assert k._sweep_tables is None and k._twins is None


class TestOneFaceStore:
    """Every reader takes a complex's faces from its one store, which lists
    each level once, whichever reader comes first."""

    @staticmethod
    def stacked_sphere():
        # the tetrahedron boundary with three facets subdivided in turn: a
        # 2-sphere whose minimal non-faces leave it one join component and
        # no two vertices twins, so its sweep reads its own store
        k = boundary_of_simplex(3).stellar_subdivide({0, 1, 2}).stellar_subdivide({0, 1, 4})
        k = k.stellar_subdivide({1, 2, 4})
        assert homology._join_factors(k) == (k,)
        assert homology._twin_quotient(k) == (k, None)
        return k

    @staticmethod
    def open_restriction():
        # three tetrahedra around an edge, and a point: the parity test
        # leaves one J open, which the rational table ranks over Q
        k = build_complex([{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}, {5}], 6)
        assert homology._join_factors(k) == (k,)
        return k

    @pytest.mark.parametrize(
        "make, readers",
        [
            # sweep, then floor, then reduced Betti numbers; no certificate
            (
                lambda: copy_of(TestOneFaceStore.stacked_sphere(), False),
                [
                    lambda k: hochster_total_rank(k, Field.GF2),
                    lambda k: homology._euler_floor(k, False),
                    lambda k: reduced_betti(k, Field.GF2),
                ],
            ),
            # floor, then sweep
            (
                lambda: copy_of(projective_plane(), False),
                [
                    lambda k: homology._euler_floor(k, False),
                    lambda k: hochster_total_rank(k, Field.GF2),
                ],
            ),
            # the rational ranks of open J after the GF(2) sweep, then the
            # f-vector
            (
                lambda: TestOneFaceStore.open_restriction(),
                [
                    lambda k: hochster_total_rank(k, Field.GF2),
                    lambda k: hochster_total_rank(k, Field.RATIONAL),
                    lambda k: k.f_vector(),
                ],
            ),
            # certificate, then sweep
            (
                lambda: TestOneFaceStore.stacked_sphere(),
                [
                    lambda k: homology._certify_sphere(k),
                    lambda k: hochster_total_rank(k, Field.GF2),
                    lambda k: hochster_total_rank(k, Field.RATIONAL),
                ],
            ),
        ],
        ids=["sweep-floor-betti", "floor-sweep", "sweep-open-j", "certificate-sweep"],
    )
    def test_each_level_listed_once(self, monkeypatch, make, readers):
        k = make()
        expected = down_closure(k._max_masks)
        pulled = level_spy(monkeypatch)
        for read in readers:
            read(k)
        levels = k._faces[0]
        assert levels == expected[: len(levels)]
        assert pulled == list(range(len(levels)))
        # and by the last reader every level is listed
        assert len(levels) == len(expected)

    def test_extensions_from_one_snapshot_agree(self):
        # two readers that extend the store from the same snapshot, one
        # after the other as an interleaving of two threads would, publish
        # equal levels and leave the snapshot as it was
        k = cycle(7).join(simplex_boundary_on([7, 8]))
        k._levels(2)
        snapshot = k._faces
        kept = ([list(level) for level in snapshot[0]], dict(snapshot[1]))
        first = k._levels(k.dim + 1)
        published = k._faces
        k._faces = snapshot
        assert k._levels(k.dim + 1) == first == down_closure(k._max_masks)
        assert k._faces == published and k._faces is not published
        assert snapshot == kept
        # and two enumerations started from one frontier, advanced in turn
        non_faces = [k._mask(nf) for nf in k.minimal_non_faces()]
        a = complexes_module.face_levels(non_faces, snapshot[1])
        b = complexes_module.face_levels(non_faces, snapshot[1])
        pairs = list(zip(a, b))
        assert all(x == y for x, y in pairs)
        assert [sorted(x) for x, _ in pairs] == first[2:]


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

    @staticmethod
    def check_kept(k):
        # both criteria leave the floor of the whole complex on it, the
        # product of its join factors' floors, whether or not it decides them
        expected = 1 << (k.vertex_count - k.dim - 1)
        for field in BOTH:
            exact = oracle_total(k.vertices, k.maximal_faces, field)
            assert hochster_rank_criterion(k, field) == (exact == expected)
        assert k._rank_floor == euler_floor_oracle(k.vertices, k.maximal_faces)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(joins(), complexes()))
    def test_criteria_keep_the_whole_floor(self, k):
        self.check_kept(k)

    @pytest.mark.parametrize(
        "make",
        [
            projective_plane,
            lambda: cycle(5).join(simplex_boundary_on([5, 6])),  # a prism over a pentagon
            lambda: cycle(4),  # a positive, which its floor does not decide
            # a join whose first factor's floor alone passes the bound
            lambda: join_after(projective_plane(), simplex_boundary_on([0, 1])),
        ],
        ids=["rp2", "pentagon-prism", "square", "rp2-join-pair"],
    )
    def test_criteria_keep_the_whole_floor_fixed(self, make):
        self.check_kept(make())

    @pytest.mark.parametrize(
        "k, faces, width",
        [
            # 254 faces and the empty one fit unsigned bytes, not signed ones
            (boundary_of_simplex(7), 254, 2),
            (SimplicialComplex([range(8)]), 255, 2),
            # 256 odd-dimensional faces with the empty one, at J = V
            (boundary_of_simplex(8), 510, 2),
            # 126 faces and the empty one: every field holds chi + 2^7 in a byte
            (boundary_of_simplex(6), 126, 1),
            # 127 faces and the empty one need 16-bit fields
            (SimplicialComplex([range(7)]), 127, 2),
            # the complete graph on 12 vertices: chi(K_V) = -1 + 12 - 66, in bytes
            (SimplicialComplex(combinations(range(12), 2)), 78, 1),
        ],
    )
    def test_field_width_at_the_byte_boundary(self, monkeypatch, k, faces, width):
        assert sum(k.f_vector()) == faces
        self.check(k)
        widths = []
        transform = homology._subset_transform

        def spy(n, cells, code, **kwargs):
            widths.append(array(code).itemsize)
            return transform(n, cells, code, **kwargs)

        monkeypatch.setattr(homology, "_subset_transform", spy)
        homology._euler_floor(k, False)
        assert widths == [width, width]


class TestCycleOracle:
    """The n-cycle against closed forms up to the vertex cap: its minimal
    non-faces, from the transversal kernel; its Euler floor, from the
    signed table, with and without the sphere halving; and, while a full
    sweep is quick, its Hochster total over both fields."""

    @pytest.mark.parametrize("n", range(4, 21))
    def test_closed_forms(self, n):
        non_faces, total = cycle_oracle(n)
        k = cycle(n)
        assert set(k.minimal_non_faces()) == non_faces
        for sphere in (False, True):
            assert homology._euler_floor(k, sphere) == total
        if n <= 12:
            for field in BOTH:
                assert hochster_total_rank(copy_of(k, None), field) == total


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

    @pytest.mark.parametrize("make, totals", [(projective_plane, (34, 32)), (torus, (130, 130))])
    def test_surfaces(self, make, totals):
        # each double is swept on a copy of its input, at 6 and 7 vertices
        for field, total in zip(BOTH, totals):
            assert hochster_rank_via_double(make(), field) == total
            assert hochster_total_rank(make(), field) == total


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

    @pytest.mark.parametrize("short", ["total", "link"])
    def test_each_bound_alone_decides(self, monkeypatch, square, short):
        # the square meets every bound with equality; one total one short of
        # its bound, the square's own or its first link's, fails the report
        original = homology.hochster_total_rank
        shortened = []

        def total(k, field, cap=homology.DEFAULT_CAP):
            if not shortened and (k is square) == (short == "total"):
                shortened.append(k)
                return original(k, field, cap) - 1
            return original(k, field, cap)

        monkeypatch.setattr(homology, "hochster_total_rank", total)
        rep = check_rank_lower_bounds(square, Field.GF2)
        assert not rep.holds and not rep
        assert (rep.total_rank < rep.total_bound) == (short == "total")
        assert [b.holds for b in rep.per_link].count(False) == (short == "link")

    def test_short_link_refused_before_any_sweep(self, monkeypatch):
        # the isolated vertex 3 has an empty link, too small for dimension 2
        swept = spy(monkeypatch, "_subset_sweep")
        k = build_complex([{0, 1, 2}, {3}], 4)
        with pytest.raises(InvalidDimensionError) as info:
            check_rank_lower_bounds(k, Field.GF2)
        assert str(info.value) == "link of vertex 3 has too few vertices for dimension 2"
        assert swept == []
