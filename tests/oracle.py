"""Independent brute-force oracles used to freeze expected values.

Deliberately separate from the library implementation: face enumeration by
powerset, boundary matrices via sympy over the rationals, GF(2) ranks by a
plain list-of-rows elimination.  Only usable at small sizes.

The criterion references at the end are plain versions of the library's
criteria: every face enumerated, every link built, every edge found by a
facet scan, every join rebuilt complex by complex, and no memo.  The
geometry reference decides incidence over Fractions, pair by pair, with
affine ranks from sympy.
"""

from fractions import Fraction
from itertools import chain, combinations

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
