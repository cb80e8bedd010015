"""Independent brute-force oracles used to freeze expected values.

Deliberately separate from the library implementation: face enumeration by
powerset, boundary matrices via sympy over the rationals, GF(2) ranks by a
plain list-of-rows elimination.  Only usable at small sizes.

The constructor references are the frozenset forms the mask code
replaced: canonical faces level by level, and the double lifted face by
face.  `down_closure` is the top-down face enumerator that the
library's bottom-up face store replaced.  The sweep reference is the
subset sweep with every boundary row built before anything is ranked.

The criterion references at the end are plain versions of the library's
criteria: every face enumerated, every link built, every edge found by a
facet scan, every join rebuilt complex by complex, and no memo.  The
geometry reference decides incidence over Fractions, pair by pair, with
affine ranks from sympy.
"""

from fractions import Fraction
from itertools import chain, combinations, product

import sympy

from spherejoin import (
    InfeasibleVertexError,
    InvalidDimensionError,
    InvalidParameterError,
    NotSimpleError,
    PreconditionViolatedError,
    PseudomanifoldReport,
    RecognitionReport,
    RedundantInequalityError,
    SimplicialComplex,
    SphereJoinDecomposition,
    VertexFacetIncidence,
    cycle_length,
    simplex_boundary_on,
)
from spherejoin import homology


def powerset(iterable):
    s = sorted(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def all_faces(maximal_faces):
    """Every face (as a sorted tuple), including the empty one."""
    out = set()
    for f in maximal_faces:
        for sub in powerset(f):
            out.add(tuple(sub))
    return out


def gf2_rank_oracle(rows, ncols):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % 2:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % 2:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reduced_betti_oracle(maximal_faces, field="q"):
    """Reduced Betti numbers, degree -1 upward, via explicit boundary matrices."""
    faces = all_faces(maximal_faces)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    top = max(by_dim)
    ranks = {}
    for d in range(0, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        index = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = [0] * len(lower)
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                row[index[sub]] = (-1) ** i
            rows.append(row)
        if not rows or not rows[0]:
            ranks[d] = 0
        elif field == "q":
            ranks[d] = sympy.Matrix(rows).rank()
        else:
            ranks[d] = gf2_rank_oracle(rows, len(lower))
    ranks[top + 1] = 0
    betti = {}
    for d in range(-1, top + 1):
        count = len(by_dim.get(d, []))
        betti[d] = count - ranks.get(d, 0) - ranks[d + 1]
    return betti


def sphere_oracle(maximal_faces):
    """Whether the complex with these maximal faces is a GF(2) homology
    sphere, by the definition `homology._certify_sphere` decides: pure of
    some dimension d >= 0, and either d = 0 with exactly two vertices, or
    every vertex link a homology (d-1)-sphere and the reduced GF(2)
    homology that of the d-sphere.  Every link is built as sets, with no
    shortcut for simplex boundaries or cycles, and the homology comes from
    `reduced_betti_oracle`; links met twice are decided once."""
    known = {}

    def sphere(faces):
        if faces not in known:
            d = max(map(len, faces)) - 1
            vertices = set().union(*faces)
            if d < 0 or any(len(f) != d + 1 for f in faces):
                known[faces] = False
            elif d == 0:
                known[faces] = len(vertices) == 2
            else:
                betti = {i: int(i == d) for i in range(-1, d + 1)}
                known[faces] = all(
                    sphere(frozenset(f - {v} for f in faces if v in f)) for v in vertices
                ) and reduced_betti_oracle(faces, "gf2") == betti
        return known[faces]

    return sphere(frozenset(map(frozenset, maximal_faces)))


def gale_boundary(m, d):
    """The boundary of the cyclic polytope C(m, d) on vertices 0..m-1: the
    d-sets S in which every two vertices outside S have an even number of
    members of S between them (Gale's evenness condition)."""
    facets = []
    for s in combinations(range(m), d):
        outside = [i for i in range(m) if i not in s]
        if all(sum(i < k < j for k in s) % 2 == 0 for i, j in combinations(outside, 2)):
            facets.append(s)
    return SimplicialComplex(facets, vertices=range(m))


def hochster_total_oracle(vertices, maximal_faces, field="q"):
    """Brute-force subset sweep: restrict, enumerate, take boundary ranks."""
    total = 0
    verts = sorted(vertices)
    for subset in powerset(verts):
        j = set(subset)
        restricted = [set(f) & j for f in maximal_faces]
        betti = reduced_betti_oracle(restricted, field)
        total += sum(betti.values())
    return total


def euler_floor_oracle(vertices, maximal_faces):
    """Sum over every vertex subset J of the absolute reduced Euler
    characteristic of the restriction to J: the faces inside J, the empty
    one included, counted with sign (-1)^dim."""
    faces = [frozenset(f) for f in all_faces(maximal_faces)]
    total = 0
    for subset in powerset(vertices):
        j = frozenset(subset)
        total += abs(sum((-1) ** (len(f) + 1) for f in faces if f <= j))
    return total


def cycle_oracle(n):
    """Closed forms for the n-cycle on vertices 0..n-1 in cyclic order,
    n >= 4: (its minimal non-faces, its Hochster total).

    The minimal non-faces are the pairs of vertices that are not adjacent:
    a minimal non-face of size three or more would need all its pairs to
    be edges, a triangle, which no cycle of length four or more contains.
    The total is the total cohomology rank of the real moment-angle
    complex of the n-gon, a closed orientable surface of genus
    g = 1 + (n - 4) 2^(n-3) (Coxeter 1937; Buchstaber and Panov, Toric
    Topology, 2015), so 2 + 2g = 4 + (n - 4) 2^(n-2) over every field.
    Every restriction of a cycle has its reduced homology in one degree,
    so the Euler floor, the sum of |chi| over the restrictions, is the
    same number.
    """
    non_faces = {
        frozenset({i, j})
        for i, j in combinations(range(n), 2)
        if j - i not in (1, n - 1)
    }
    return non_faces, 4 + (n - 4) * (1 << (n - 2))


def subset_sweep_reference(k):
    """`homology._subset_sweep` with every boundary row of K built before
    any subset is ranked: the same subsets visited, each ranked over GF(2)
    on the rows of every dimension, with the same cone skip, parity test
    and duality halving."""
    m = k.vertex_count
    sphere = homology._is_sphere(k)
    inside = homology._non_faces_inside(m, [k._mask(nf) for nf in k.minimal_non_faces()])
    rows = homology._boundary_rows(k.faces_by_dim())
    gf2 = {(0, -1): 1}
    rational = dict(gf2)
    uncertified = []
    for jmask in range(1, 1 << m):
        size = jmask.bit_count()
        if inside[jmask] != jmask or (
            sphere and (2 * size > m or (2 * size == m and jmask >> (m - 1)))
        ):
            continue
        betti = homology._gf2_betti(rows, jmask)
        certified = not (any(betti[::2]) and any(betti[1::2]))
        for d, b in enumerate(betti):
            if b:
                gf2[(size, d)] = gf2.get((size, d), 0) + b
                if certified:
                    rational[(size, d)] = rational.get((size, d), 0) + b
        if not certified:
            uncertified.append(jmask)
    if sphere:
        gf2 = homology._with_duals(gf2, m, k.dim)
        rational = homology._with_duals(rational, m, k.dim)
    return dict(sorted(gf2.items())), dict(sorted(rational.items())), tuple(uncertified)


def minimal_non_faces_oracle(vertices, maximal_faces):
    faces = all_faces(maximal_faces)
    verts = sorted(vertices)
    out = []
    for subset in powerset(verts):
        if len(subset) < 2 or subset in faces:
            continue
        if all(subset[:i] + subset[i + 1 :] in faces for i in range(len(subset))):
            out.append(frozenset(subset))
    return set(out)


def double_oracle(vertices, maximal_faces):
    """The doubled complex from its definition: the maximal subsets of
    range(2m) containing no lifted minimal non-face, vertex i of the
    input becoming the pair 2i, 2i+1."""
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    lifted = [
        {u for v in nf for u in (2 * pos[v], 2 * pos[v] + 1)}
        for nf in minimal_non_faces_oracle(vertices, maximal_faces)
    ]
    doubled = range(2 * len(pos))

    def is_face(s):
        return not any(nf <= s for nf in lifted)

    faces = [set(s) for s in powerset(doubled) if is_face(set(s))]
    return {
        frozenset(f)
        for f in faces
        if not any(is_face(f | {u}) for u in doubled if u not in f)
    }


def minimal_transversals_oracle(vertex_count, edges):
    """Inclusion-minimal subsets of range(vertex_count) meeting every edge.

    Edges and results are bitmasks; every subset is tested, and a hitting
    set is minimal when dropping any one of its vertices stops it hitting.
    """
    def hits(t):
        return all(t & e for e in edges)

    out = set()
    for subset in powerset(range(vertex_count)):
        t = sum(1 << v for v in subset)
        if hits(t) and not any(hits(t & ~(1 << v)) for v in subset):
            out.add(t)
    return out


def has_cone_apex_oracle(maximal_faces, subset):
    """True when some vertex of `subset` lies in every maximal face of the
    full subcomplex on `subset` (the restriction is a cone)."""
    j = frozenset(subset)
    restricted = {frozenset(f) & j for f in maximal_faces}
    maximal = [f for f in restricted if not any(f < g for g in restricted)]
    common = set(j)
    for f in maximal:
        common &= f
    return bool(common)


def canonical_faces_oracle(faces):
    """The faces no other face strictly contains, in canonical order."""
    faces = {frozenset(f) for f in faces}
    kept = [f for f in faces if not any(f < g for g in faces)]
    return tuple(sorted(kept, key=lambda f: tuple(sorted(f))))


def canonical_faces_reference(faces):
    """Drop dominated faces and sort lexicographically by sorted vertex
    tuple, one size level at a time, largest first, each face compared
    only with the faces kept from larger levels."""
    levels = {}
    for f in faces:
        levels.setdefault(len(f), []).append(f)
    kept = []
    for size in sorted(levels, reverse=True):
        larger = tuple(kept)
        kept.extend(f for f in levels[size] if not any(f < g for g in larger))
    return tuple(sorted(kept, key=lambda f: tuple(sorted(f))))


def compress_masks_reference(masks, support: int) -> list[int]:
    """The masks moved onto the bits of `support`, one bit at a time: the
    i-th lowest bit of `support` becomes bit i."""
    position, b = {}, support
    while b:
        low = b & -b
        position[low] = 1 << len(position)
        b ^= low
    out = []
    for t in masks:
        c = 0
        while t:
            low = t & -t
            c |= position[low]
            t ^= low
        out.append(c)
    return out


def down_closure(masks) -> list[list[int]]:
    """All nonempty faces of the complex with the given maximal-face masks,
    as sorted mask lists indexed by dimension.

    Each size level starts with the maximal faces of that size, and every
    face on a level adds its codimension-1 faces to the level below.  A
    face shared by many maximal faces is therefore expanded once, not once
    per maximal face.
    """
    levels: list[set[int]] = [set() for _ in range(max(fm.bit_count() for fm in masks) + 1)]
    for fm in masks:
        levels[fm.bit_count()].add(fm)
    for size in range(len(levels) - 1, 1, -1):
        below = levels[size - 1]
        for f in levels[size]:
            b = f
            while b:
                low = b & -b
                below.add(f ^ low)
                b ^= low
    return [sorted(level) for level in levels[1:]]


def complex_reference(faces):
    """(vertices, maximal faces) of the complex the faces generate, as the
    frozenset constructor computed them."""
    maximal = canonical_faces_reference({frozenset(f) for f in faces} or {frozenset()})
    return tuple(sorted(set().union(*maximal))), maximal


def double_reference(k):
    """(maximal faces, labels, minimal non-faces) of the double, lifted
    face by face: both copies of a maximal face sigma plus one copy of each
    vertex outside it, vertex i of the input becoming the pair 2i, 2i+1."""
    pos = {v: i for i, v in enumerate(k.vertices)}

    def lift(face):
        return [u for v in sorted(face) for u in (2 * pos[v], 2 * pos[v] + 1)]

    faces = set()
    for f in k.maximal_faces:
        copies = [(2 * pos[v], 2 * pos[v] + 1) for v in k.vertices if v not in f]
        faces.update(frozenset((*lift(f), *one)) for one in product(*copies))
    names = k.labels if k.labels is not None else [f"v{v}" for v in k.vertices]
    labels = tuple(lab for name in names for lab in (name, name + "'"))
    non_faces = minimal_non_faces_oracle(k.vertices, k.maximal_faces)
    lifted = tuple(frozenset(t) for t in sorted(tuple(lift(nf)) for nf in non_faces))
    return canonical_faces_reference(faces), labels, lifted


def pseudomanifold_reference(k):
    """Ridges from the full face enumeration; union-find over shared ridges."""
    n = k.dim
    if n < 1:
        raise InvalidDimensionError(f"pseudomanifold test needs dim >= 1, got {n}")
    by_dim = k.faces_by_dim()
    tops = by_dim[n]
    cofacets = {r: [t for t in tops if r & ~t == 0] for r in by_dim[n - 1]}
    violations = sorted(
        (k._unmask(r) for r, c in cofacets.items() if len(c) != 2),
        key=lambda f: tuple(sorted(f)),
    )
    component = {t: t for t in tops}
    for c in cofacets.values():
        for t in c[1:]:
            old, new = component[t], component[c[0]]
            for key, value in component.items():
                if value == old:
                    component[key] = new
    return PseudomanifoldReport(
        dim=n,
        is_pure=all(len(f) == n + 1 for f in k.maximal_faces),
        ridge_violations=tuple(violations),
        strongly_connected=len(set(component.values())) <= 1,
    )


def _require_pure_pseudomanifold_reference(k):
    if k.dim < 0 or (k.dim == 0 and k.vertex_count != 2):
        raise PreconditionViolatedError("not a pure pseudomanifold")
    if k.dim > 0 and not pseudomanifold_reference(k).holds:
        raise PreconditionViolatedError("not a pure pseudomanifold")


def two_face_reference(k):
    """Build the link of every codimension-2 face, in canonical order."""
    _require_pure_pseudomanifold_reference(k)
    n = k.dim
    if n == 0:
        return RecognitionReport("TwoFace", True)
    etas = [frozenset()] if n == 1 else k.faces(n - 2)
    for eta in etas:
        length = cycle_length(k.link(eta) if eta else k)
        if length is None:
            return RecognitionReport(
                "TwoFace", False, {"kind": "codim2_link_not_cycle", "eta": sorted(eta)}
            )
        if length > 4:
            return RecognitionReport(
                "TwoFace",
                False,
                {"kind": "long_codim2_link", "eta": sorted(eta), "cycle_length": length},
            )
    return RecognitionReport("TwoFace", True)


def recursive_reference(k):
    """Recurse into every vertex link, with no memo."""

    def run(k, path):
        n = k.dim
        if n < 0:
            raise InvalidDimensionError("recursive recognition needs dim >= 0")
        if n == 0:
            if k.vertex_count == 2:
                return None
            return {"kind": "bad_zero_dim_link", "path": list(path), "vertex_count": k.vertex_count}
        if n == 1:
            length = cycle_length(k)
            if length in (3, 4):
                return None
            return {"kind": "link_not_short_cycle", "path": list(path), "cycle_length": length}
        rep = pseudomanifold_reference(k)
        if not rep.holds:
            return {
                "kind": "not_pseudomanifold",
                "path": list(path),
                "pure": rep.is_pure,
                "ridge_violations": [sorted(r) for r in rep.ridge_violations[:3]],
                "strongly_connected": rep.strongly_connected,
            }
        for v in k.vertices:
            link = k.link({v})
            if link.dim != n - 1:
                return {
                    "kind": "link_dimension_drop",
                    "path": list(path + (v,)),
                    "link_dim": link.dim,
                    "expected": n - 1,
                }
            w = run(link, path + (v,))
            if w is not None:
                return w
        return None

    witness = run(k, ())
    return RecognitionReport("Recursive", witness is None, witness)


def decompose_by_non_faces_reference(k):
    """Partition by the minimal non-faces, certified by joining the simplex
    boundaries on the parts one complex at a time and comparing complexes."""
    nfs = k.minimal_non_faces()
    seen = {}
    for nf in nfs:
        part = tuple(sorted(nf))
        for v in part:
            if v in seen:
                overlap = [list(seen[v]), list(part)]
                return None, {"kind": "non_face_overlap", "non_faces": overlap, "vertex": v}
            seen[v] = part
    uncovered = sorted(set(k.vertices) - set(seen))
    if uncovered:
        return None, {"kind": "uncovered_vertices", "vertices": uncovered}
    parts = tuple(tuple(sorted(p)) for p in sorted(nfs, key=lambda p: (len(p), min(p))))
    rebuilt = SimplicialComplex([])
    for p in parts:
        rebuilt = rebuilt.join(simplex_boundary_on(p))
    if rebuilt != k:
        return None, {"kind": "join_mismatch", "parts": [list(p) for p in parts]}
    return SphereJoinDecomposition(parts=parts), None


def simplex_link_reference(k):
    """Every face test, edges included, scans the facets."""

    def is_face(f):
        return any(f <= g for g in k.maximal_faces)

    for sigma in k.maximal_faces:
        comp = frozenset(k.vertices) - sigma
        if not is_face(comp):
            return RecognitionReport(
                "SimplexLink",
                False,
                {"kind": "restriction_not_simplex", "sigma": sorted(sigma), "complement": sorted(comp)},
            )
        for v in sorted(sigma):
            support = frozenset(w for w in comp if is_face(frozenset({v, w})))
            if not is_face(support | {v}):
                return RecognitionReport(
                    "SimplexLink",
                    False,
                    {
                        "kind": "link_intersection_not_simplex",
                        "sigma": sorted(sigma),
                        "vertex": v,
                        "support": sorted(support),
                    },
                )
    return RecognitionReport("SimplexLink", True)


def _proportional_positive(a, b):
    va = tuple(a[0]) + (a[1],)
    vb = tuple(b[0]) + (b[1],)
    if any((x == 0) != (y == 0) for x, y in zip(va, vb)):
        return False
    ratios = {Fraction(y) / x for x, y in zip(va, vb) if x != 0}
    return len(ratios) == 1 and ratios.pop() > 0


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return sympy.Matrix([[sympy.Rational(x - b) for x, b in zip(p, base)] for p in points[1:]]).rank()


def incidence_from_hv_oracle(hrep, vrep):
    """Vertex-facet incidence over Fractions: a positive-multiple test per
    pair of inequalities, a Fraction dot product per vertex and facet, and
    affine ranks from differences to a base point."""
    n = hrep.dim
    if vrep.dim != n:
        raise InvalidParameterError(
            f"dimension mismatch: inequalities in R^{n}, vertices in R^{vrep.dim}"
        )
    ineqs = hrep.inequalities
    for i, j in combinations(range(len(ineqs)), 2):
        if _proportional_positive(ineqs[i], ineqs[j]):
            raise RedundantInequalityError(f"inequalities {i} and {j} are positive multiples")
    vertex_facets = []
    for vi, v in enumerate(vrep.vertices):
        tight = set()
        for fi, (normal, offset) in enumerate(ineqs):
            value = sum((x * y for x, y in zip(normal, v)), Fraction(0))
            if value < offset:
                raise InfeasibleVertexError(
                    f"vertex {vi} violates inequality {fi}: {value} < {offset}"
                )
            if value == offset:
                tight.add(fi)
        if len(tight) != n:
            raise NotSimpleError(f"vertex {vi} lies on {len(tight)} facets, expected {n}")
        vertex_facets.append(frozenset(tight))
    if _affine_rank(list(vrep.vertices)) != n:
        raise RedundantInequalityError("vertex set is not full-dimensional")
    for fi in range(len(ineqs)):
        incident = [v for v, tight in zip(vrep.vertices, vertex_facets) if fi in tight]
        if len(incident) < n or _affine_rank(incident) != n - 1:
            raise RedundantInequalityError(
                f"inequality {fi} does not support an (n-1)-dimensional facet"
            )
    return VertexFacetIncidence(
        dim=n, facet_count=len(ineqs), vertex_facets=tuple(vertex_facets)
    )
