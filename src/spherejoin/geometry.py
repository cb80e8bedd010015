"""Exact-rational polytope representations and the dihedral-angle test.

Polytopes are given by both an inequality description (inward normals,
point feasible iff normal . x >= offset) and their vertex list; the two
are cross-validated exactly: Fractions at the boundary, primitive integer
rows inside `incidence_from_hv`.  Vertex enumeration from inequalities
alone is deliberately not implemented.

The non-obtuse dihedral test needs no angles or square roots: for inward
normals, an angle is non-obtuse exactly when the inner product of the two
normals is <= 0, which is a sign decision in exact arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    SimplicialComplex,
    json_array,
    json_arrays,
    json_entries,
    json_field,
    json_integer,
    json_object,
)
from .errors import (
    InfeasibleVertexError,
    InvalidParameterError,
    NotSimpleError,
    RedundantInequalityError,
)
from .linalg import integer_rank
from .reports import RecognitionReport

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class PolytopeHRep:
    """Inequality description: x is inside iff normal . x >= offset for every
    row; normals point inward."""

    dim: int
    inequalities: tuple[tuple[Vector, Fraction], ...]

    @property
    def facet_count(self) -> int:
        return len(self.inequalities)


@dataclass(frozen=True)
class PolytopeVRep:
    dim: int
    vertices: tuple[Vector, ...]


@dataclass(frozen=True)
class VertexFacetIncidence:
    """For each vertex, the set of facets it lies on; simple means exactly
    ``dim`` facets per vertex."""

    dim: int
    facet_count: int
    vertex_facets: tuple[frozenset[int], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.dim,
            "facets": self.facet_count,
            "vertex_facets": sorted(sorted(s) for s in self.vertex_facets),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VertexFacetIncidence":
        json_object(data, "incidence JSON")
        rows = json_arrays(data, "vertex_facets")
        return cls(
            dim=json_integer(data, "n"),
            facet_count=json_integer(data, "facets"),
            vertex_facets=tuple(
                frozenset(json_entries(s, "vertex_facets", "integer")) for s in rows
            ),
        )


def _dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def check_simple(incidence: VertexFacetIncidence, n: int) -> bool:
    """Every vertex lies on exactly n facets."""
    return all(len(s) == n for s in incidence.vertex_facets)


def _primitive(values) -> tuple[int, ...]:
    """The primitive integer vector that is a positive multiple of `values`
    (Fractions or ints); an all-zero vector stays all zero."""
    lcm = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (lcm // x.denominator) for x in values]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _affine_rank(points: list[list[int]]) -> int:
    """Affine rank of the vertices behind homogenized points (v, 1); 0 for at
    most one point."""
    return max(integer_rank(points) - 1, 0)


def incidence_from_hv(hrep: PolytopeHRep, vrep: PolytopeVRep) -> VertexFacetIncidence:
    """Exact vertex-facet incidence, with full validation.

    Checks: every vertex feasible; every vertex on exactly dim facets
    (simplicity); no two inequalities positive multiples of one another;
    each facet's incident vertices affinely span dimension dim-1 (so every
    inequality supports a genuine facet); the vertices affinely span the
    whole space.

    Inequality (normal, offset) becomes the primitive integer row h on
    (normal, -offset), vertex v the primitive integer point q on (v, 1):
    v is feasible iff h . q >= 0, tight iff h . q = 0, and two rows are
    positive multiples iff equal.
    """
    n = hrep.dim
    if vrep.dim != n:
        raise InvalidParameterError(
            f"dimension mismatch: inequalities in R^{n}, vertices in R^{vrep.dim}"
        )
    rows = [_primitive((*normal, -offset)) for normal, offset in hrep.inequalities]
    # an all-zero row is no positive multiple of anything; among the others
    # report the pair itertools.combinations would meet first
    same: dict[tuple[int, ...], list[int]] = {}
    for i, h in enumerate(rows):
        if any(h):
            same.setdefault(h, []).append(i)
    pairs = [found[:2] for found in same.values() if len(found) > 1]
    if pairs:
        i, j = min(pairs)
        raise RedundantInequalityError(f"inequalities {i} and {j} are positive multiples")
    points = [list(_primitive((*v, 1))) for v in vrep.vertices]
    vertex_facets = []
    for vi, q in enumerate(points):
        values = [sum(map(operator.mul, h, q)) for h in rows]
        for fi, value in enumerate(values):
            if value < 0:
                normal, offset = hrep.inequalities[fi]
                raise InfeasibleVertexError(
                    f"vertex {vi} violates inequality {fi}: "
                    f"{_dot(normal, vrep.vertices[vi])} < {offset}"
                )
        tight = frozenset(fi for fi, value in enumerate(values) if value == 0)
        if len(tight) != n:
            raise NotSimpleError(
                f"vertex {vi} lies on {len(tight)} facets, expected {n}"
            )
        vertex_facets.append(tight)
    if _affine_rank(points) != n:
        raise RedundantInequalityError("vertex set is not full-dimensional")
    for fi in range(len(rows)):
        incident = [q for q, tight in zip(points, vertex_facets) if fi in tight]
        if len(incident) < n or _affine_rank(incident) != n - 1:
            raise RedundantInequalityError(
                f"inequality {fi} does not support an (n-1)-dimensional facet"
            )
    return VertexFacetIncidence(
        dim=n, facet_count=len(rows), vertex_facets=tuple(vertex_facets)
    )


def dual_boundary_complex(incidence: VertexFacetIncidence) -> SimplicialComplex:
    """Boundary complex of the dual simplicial polytope: one vertex per
    facet, one maximal face per polytope vertex."""
    from .complexes import is_pseudomanifold

    n = incidence.dim
    if not check_simple(incidence, n):
        raise NotSimpleError("incidence is not simple")
    if len(set(incidence.vertex_facets)) != len(incidence.vertex_facets):
        raise NotSimpleError("two vertices lie on the same facet set")
    covered = set().union(*incidence.vertex_facets)
    # covered is range(facets) without building that range: a huge declared
    # count fails on the length alone (and a negative one names no facet)
    count = max(incidence.facet_count, 0)
    if len(covered) != count or (covered and (min(covered), max(covered)) != (0, count - 1)):
        raise NotSimpleError("some facet contains no vertex")
    complex_ = SimplicialComplex(
        incidence.vertex_facets, vertices=range(incidence.facet_count)
    )
    if complex_.dim != n - 1:
        raise NotSimpleError(
            f"dual complex has dimension {complex_.dim}, expected {n - 1}"
        )
    if n == 1:
        if complex_.vertex_count != 2:
            raise NotSimpleError("a 1-polytope must have exactly two facets")
    elif not is_pseudomanifold(complex_):
        raise NotSimpleError("dual complex is not a pseudomanifold")
    return complex_


def product_polytope(
    h1: PolytopeHRep, v1: PolytopeVRep, h2: PolytopeHRep, v2: PolytopeVRep
) -> tuple[PolytopeHRep, PolytopeVRep]:
    """Cartesian product: block inequalities, product vertices.  Facets of
    the first factor come first; vertex order is first-factor major."""
    n1, n2 = h1.dim, h2.dim
    zeros1 = (Fraction(0),) * n1
    zeros2 = (Fraction(0),) * n2
    ineqs = [(tuple(normal) + zeros2, offset) for normal, offset in h1.inequalities]
    ineqs += [(zeros1 + tuple(normal), offset) for normal, offset in h2.inequalities]
    verts = [tuple(a) + tuple(b) for a in v1.vertices for b in v2.vertices]
    return (
        PolytopeHRep(dim=n1 + n2, inequalities=tuple(ineqs)),
        PolytopeVRep(dim=n1 + n2, vertices=tuple(verts)),
    )


# -- generators ------------------------------------------------------------------


def gen_simplex(n: int) -> tuple[PolytopeHRep, PolytopeVRep]:
    """The standard simplex realized full-dimensionally: x_i >= 0 and
    sum x_i <= 1.  Facet i is {x_i = 0} for i < n; facet n is the sum facet."""
    if n < 1:
        raise InvalidParameterError(f"simplex dimension must be >= 1, got {n}")
    ineqs = []
    for i in range(n):
        normal = tuple(Fraction(1 if j == i else 0) for j in range(n))
        ineqs.append((normal, Fraction(0)))
    ineqs.append((tuple(Fraction(-1) for _ in range(n)), Fraction(-1)))
    verts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        verts.append(tuple(Fraction(1 if j == i else 0) for j in range(n)))
    return (
        PolytopeHRep(dim=n, inequalities=tuple(ineqs)),
        PolytopeVRep(dim=n, vertices=tuple(verts)),
    )


# Fixed convex lattice polygons, one per k; counterclockwise vertex order.
# Regular polygons would need irrational coordinates, and any convex k-gon
# works for the criteria (for k >= 5 the angle sum forces an obtuse corner).
_POLYGONS = {
    3: [(0, 0), (1, 0), (0, 1)],
    4: [(0, 0), (1, 0), (1, 1), (0, 1)],
    5: [(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)],
    6: [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    7: [(0, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2)],
    8: [(0, 0), (1, 0), (2, 1), (2, 2), (1, 3), (0, 3), (-1, 2), (-1, 1)],
}


def gen_polygon(k: int) -> tuple[PolytopeHRep, PolytopeVRep]:
    """A fixed convex rational k-gon from the catalog, k in [3, 8].

    Facet i is the edge from vertex i to vertex i+1, so the dual boundary
    complex is the standard k-cycle.
    """
    if k not in _POLYGONS:
        raise InvalidParameterError(f"polygon catalog covers k in [3, 8], got {k}")
    pts = [(Fraction(x), Fraction(y)) for x, y in _POLYGONS[k]]
    ineqs = []
    for i in range(k):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % k]
        dx, dy = bx - ax, by - ay
        normal = (-dy, dx)  # points left of travel, i.e. inward for ccw order
        ineqs.append((normal, _dot(normal, pts[i])))
    return (
        PolytopeHRep(dim=2, inequalities=tuple(ineqs)),
        PolytopeVRep(dim=2, vertices=tuple(pts)),
    )


def gen_product_of_simplices(*dims: int) -> tuple[PolytopeHRep, PolytopeVRep]:
    """Product of standard simplices of the given dimensions."""
    if not dims:
        raise InvalidParameterError("need at least one simplex dimension")
    h, v = gen_simplex(dims[0])
    for n in dims[1:]:
        h2, v2 = gen_simplex(n)
        h, v = product_polytope(h, v, h2, v2)
    return h, v


def gen_truncated(incidence: VertexFacetIncidence, vertex: int) -> VertexFacetIncidence:
    """Cut one vertex off, combinatorially: the vertex is replaced by a new
    facet, and one new vertex appears per facet through the old one."""
    n = incidence.dim
    if not check_simple(incidence, n):
        raise NotSimpleError("truncation needs a simple incidence")
    if vertex < 0 or vertex >= len(incidence.vertex_facets):
        raise InvalidParameterError(f"no vertex {vertex}")
    star = incidence.vertex_facets[vertex]
    new_facet = incidence.facet_count
    kept = [s for i, s in enumerate(incidence.vertex_facets) if i != vertex]
    added = [frozenset(star - {f}) | {new_facet} for f in sorted(star)]
    return VertexFacetIncidence(
        dim=n,
        facet_count=incidence.facet_count + 1,
        vertex_facets=tuple(kept + added),
    )


def truncate_all_vertices(incidence: VertexFacetIncidence) -> VertexFacetIncidence:
    """Cut every original vertex off (highest index first, so the indices of
    the remaining originals stay put)."""
    count = len(incidence.vertex_facets)
    out = incidence
    for v in reversed(range(count)):
        out = gen_truncated(out, v)
    return out


# -- dihedral angles ---------------------------------------------------------------


def dihedral_nonobtuse_check(
    hrep: PolytopeHRep, incidence: VertexFacetIncidence
) -> RecognitionReport:
    """Every pair of adjacent facets meets at a non-obtuse dihedral angle.

    Adjacency is read off the edges of the dual boundary complex (the two
    agree for simple polytopes), and each pair is decided by the sign of
    the exact inner product of the inward normals; positive scaling of any
    inequality cannot change a verdict.
    """
    dual = dual_boundary_complex(incidence)
    if dual.dim >= 1:
        pairs = [tuple(sorted(e)) for e in dual.faces(1)]
    else:
        pairs = []
    for i, j in sorted(pairs):
        ip = _dot(hrep.inequalities[i][0], hrep.inequalities[j][0])
        if ip > 0:
            return RecognitionReport(
                "Dihedral",
                False,
                {
                    "kind": "obtuse_pair",
                    "facets": [i, j],
                    "inner_product": str(ip),
                },
            )
    return RecognitionReport("Dihedral", True)


# -- serialization ------------------------------------------------------------------


def polytope_to_json_dict(hrep: PolytopeHRep, vrep: PolytopeVRep) -> dict:
    return {
        "dim": hrep.dim,
        "inequalities": [
            {
                "normal": [str(x) for x in normal],
                "offset": str(offset),
            }
            for normal, offset in hrep.inequalities
        ],
        "vertices": [[str(x) for x in v] for v in vrep.vertices],
    }


def _json_fraction(x, key: str) -> Fraction:
    """A polytope JSON coordinate under `key`; a zero denominator is bad input."""
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise InvalidParameterError(f'"{key}" entry {x!r} has a zero denominator') from None


def polytope_from_json_dict(data: dict) -> tuple[PolytopeHRep, PolytopeVRep]:
    json_object(data, "polytope JSON")
    dim = json_integer(data, "dim")
    rows = [json_object(row, "an inequality") for row in json_array(data, "inequalities")]
    ineqs = tuple(
        (
            tuple(_json_fraction(x, "normal") for x in json_array(row, "normal")),
            _json_fraction(json_field(row, "offset"), "offset"),
        )
        for row in rows
    )
    verts = tuple(
        tuple(_json_fraction(x, "vertices") for x in v) for v in json_arrays(data, "vertices")
    )
    for normal, _ in ineqs:
        if len(normal) != dim:
            raise InvalidParameterError("normal length does not match dim")
    for v in verts:
        if len(v) != dim:
            raise InvalidParameterError("vertex length does not match dim")
    return PolytopeHRep(dim=dim, inequalities=ineqs), PolytopeVRep(dim=dim, vertices=verts)
