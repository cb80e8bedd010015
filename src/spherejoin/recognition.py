"""The product-of-simplices criteria as independent decision procedures.

Each criterion decides on its own whether the input complex is a join of
simplex boundaries (the combinatorial shadow of a product of simplices),
and produces a re-checkable witness when it says no.  A consolidated
runner executes all of them and reports whether they agree; on catalog
inputs (boundary complexes dual to simple polytopes) they must.

Positive answers are always certified constructively: the claimed
decomposition is re-joined and compared face-for-face with the input, so
criteria whose sufficiency assumes polytopality can never silently
mislabel a non-polytopal input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import or_

from .complexes import (
    SimplicialComplex,
    bits,
    cycle_length,
    cycle_length_masks,
    double,
    pseudomanifold_masks,
    relabelled_masks,
)
from .errors import (
    CapExceededError,
    InvalidDimensionError,
    PreconditionViolatedError,
)
from .homology import DEFAULT_CAP, Field, hochster_rank_criterion
from .reports import RecognitionReport

__all__ = [
    "SphereJoinDecomposition",
    "ConsolidatedReport",
    "decompose_by_non_faces",
    "check_non_face_partition",
    "check_simplex_link",
    "check_two_face",
    "recognize_recursive",
    "check_double",
    "recognize_all",
    "double",
]


@dataclass(frozen=True)
class SphereJoinDecomposition:
    """Vertex-set parts certifying the complex is the join of the boundary
    of a simplex on each part.  Parts are disjoint, cover the vertex set,
    each has at least 2 vertices, and are sorted by (size, smallest id)."""

    parts: tuple[tuple[int, ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(p) - 1 for p in self.parts)

    def rebuild(self) -> SimplicialComplex:
        """The join of the simplex boundaries on the parts, on the same ids.

        Its maximal faces come from `_join_facet_masks`, the generator
        `decompose_by_non_faces` certifies against, with vertex i of the
        sorted vertex list on bit i.
        """
        verts = sorted(v for p in self.parts for v in p)
        bit = {v: 1 << i for i, v in enumerate(verts)}
        facets = _join_facet_masks([[bit[v] for v in p] for p in self.parts])
        return SimplicialComplex._from_masks(verts, facets)

    def to_json_dict(self) -> dict:
        return {"parts": [list(p) for p in self.parts], "dims": list(self.dims)}


def _join_facet_masks(parts: list[list[int]]) -> list[int]:
    """Maximal faces of the join of the simplex boundaries on disjoint
    parts, each part given by the one-bit masks of its vertices: the union
    of the parts minus one vertex of each, prod |P_i| distinct masks."""
    facets = [sum(b for p in parts for b in p)]
    for p in parts:
        facets = [f ^ b for f in facets for b in p]
    return facets


def _sorted_parts(parts) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(p)) for p in sorted(parts, key=lambda p: (len(p), min(p)))
    )


def decompose_by_non_faces(
    complex_: SimplicialComplex,
) -> tuple[SphereJoinDecomposition | None, dict | None]:
    """Try to decompose via minimal non-faces.

    Succeeds iff the minimal non-faces partition the vertex set and the
    join rebuilt from them equals the input exactly.  Returns
    ``(decomposition, None)`` on success, ``(None, witness)`` on failure;
    witnesses report the lexicographically first violation.

    The join is rebuilt face for face on the input's own bit masks: its
    prod |P_i| maximal faces (`_join_facet_masks`) are all distinct, so it
    equals the input iff the input has that many maximal faces and each
    generated mask is one of them.  The count is compared first.
    """
    nfs = complex_.minimal_non_faces()
    seen: dict[int, tuple[int, ...]] = {}
    for nf in nfs:
        part = tuple(sorted(nf))
        for v in part:
            if v in seen:
                return None, {
                    "kind": "non_face_overlap",
                    "non_faces": [list(seen[v]), list(part)],
                    "vertex": v,
                }
            seen[v] = part
    uncovered = sorted(set(complex_.vertices) - set(seen))
    if uncovered:
        return None, {"kind": "uncovered_vertices", "vertices": uncovered}
    dec = SphereJoinDecomposition(parts=_sorted_parts(nfs))
    tops = complex_._max_masks
    if prod(len(p) for p in dec.parts) != len(tops) or not set(tops).issuperset(
        _join_facet_masks([[1 << complex_._bit[v] for v in p] for p in dec.parts])
    ):
        return None, {
            "kind": "join_mismatch",
            "parts": [list(p) for p in dec.parts],
        }
    return dec, None


def check_non_face_partition(complex_: SimplicialComplex) -> RecognitionReport:
    dec, witness = decompose_by_non_faces(complex_)
    return RecognitionReport("NonFacePartition", dec is not None, witness)


def check_simplex_link(complex_: SimplicialComplex) -> RecognitionReport:
    """The maximal-simplex/link criterion.

    For every maximal simplex, the restriction to the complementary
    vertices must be a single simplex spanning all of them; and for every
    vertex of the maximal simplex, the part of that complementary simplex
    lying in the vertex's link must itself be a face (possibly empty).
    A restriction counts as a simplex only when its full vertex set is a
    face; an edgeless pair of points does not qualify.  The edge {v, w} is
    a face iff some maximal face holds both, so the vertices of the
    complementary simplex joined to v are read off v's neighbour mask, the
    union of the maximal faces through v.  A vertex set is a face iff it
    contains no minimal non-face, so each face test is a bit test against
    the minimal non-faces rather than a scan of the maximal faces.
    """
    non_faces = complex_._non_face_masks()

    def is_face(mask: int) -> bool:
        return all(nf & ~mask for nf in non_faces)

    # one-bit vertex mask -> neighbour mask
    neighbours: dict[int, int] = {}
    for fm in complex_._max_masks:
        for b in bits(fm):
            neighbours[b] = neighbours.get(b, 0) | fm
    for sigma_mask in complex_._max_masks:
        comp_mask = complex_._full_mask & ~sigma_mask
        if not is_face(comp_mask):
            return RecognitionReport(
                "SimplexLink",
                False,
                {
                    "kind": "restriction_not_simplex",
                    "sigma": complex_._ids(sigma_mask),
                    "complement": complex_._ids(comp_mask),
                },
            )
        # lowest bit first: the vertices of sigma in ascending order
        for b in bits(sigma_mask):
            support_mask = neighbours[b] & comp_mask
            if not is_face(support_mask | b):
                return RecognitionReport(
                    "SimplexLink",
                    False,
                    {
                        "kind": "link_intersection_not_simplex",
                        "sigma": complex_._ids(sigma_mask),
                        "vertex": complex_._ids(b)[0],
                        "support": complex_._ids(support_mask),
                    },
                )
    return RecognitionReport("SimplexLink", True)


def check_two_face(complex_: SimplicialComplex) -> RecognitionReport:
    """Every codimension-2 face must have a closed-cycle link of length 3 or 4
    (dually: every 2-dimensional face of the polytope is a 3- or 4-gon).

    At dimension 1 the complex itself plays that role (the codimension-2
    face is the empty simplex).  The input must be a pure pseudomanifold.
    This is TwoFace's half of the star walk, `_star_criteria`.
    """
    if complex_.dim < 0:
        raise PreconditionViolatedError("the empty complex is not a pseudomanifold")
    report = _star_criteria(complex_)[0]
    if report.skipped:
        raise PreconditionViolatedError(report.witness["skipped"])
    return report


def recognize_recursive(complex_: SimplicialComplex) -> RecognitionReport:
    """Recursive recognizer: a pseudomanifold all of whose vertex links are
    themselves recognized, grounded at the 3- and 4-cycles in dimension 1.

    Dimension 0 is grounded at the two-point complex (the boundary of an
    edge), so duals of 1-dimensional polytopes recurse correctly.  This is
    Recursive's half of the star walk, `_star_criteria`.
    """
    return _star_criteria(complex_)[1]


def _star_criteria(complex_: SimplicialComplex) -> tuple[RecognitionReport, RecognitionReport]:
    """The TwoFace and Recursive reports from one pseudomanifold test and one
    walk over the stars of the faces; TwoFace's report is skipped, with the
    reason as its witness, when the input is not a pure pseudomanifold.

    Above dimension 1 the root's pseudomanifold test is the only full one,
    and no complex is built below it.  Purity and the two-cofacet ridge
    rule carry over to every link: the top faces of lk(sigma) are the top
    faces through sigma minus sigma, all of one size, and the cofacets of a
    ridge r of lk(sigma) are those of the ridge r + sigma, minus sigma.  So
    the link of a face sigma with k vertices has dimension n - k, and the
    walk keeps only its star, the bitmask of the indices of the top faces
    through sigma: star(sigma + v) is star(sigma) & on[v], where on[v] holds
    the top faces through vertex bit v.

    A face of codimension 2 has a 1-dimensional link in which every vertex
    has degree 2, by the ridge rule: a disjoint union of cycles, one edge
    per top face of the star.  It passes both criteria iff the star has 3
    or 4 top faces, which makes it a single 3- or 4-cycle; only a face that
    fails has its cycle length computed, and its link built.  A link of
    dimension 2 or more is tested for strong connectivity alone: two top
    faces through sigma share a ridge through sigma iff they share a ridge,
    so the star is walked along `adjacent`, the root's top faces that share
    a ridge with each.  Those links are memoized up to order-preserving
    relabelling, by the key of `relabelled_masks` on [tops[i] ^ sigma for i
    in star], since the verdicts do not depend on vertex names; the
    1-dimensional ones are decided by one bit count, which costs less than
    a key.  Only links that passed are stored, and their faces are not
    walked again.

    Faces are walked in lexicographic pre-order: the children of sigma are
    sigma + v for the vertices v of its link above its highest vertex.  So
    the codimension-2 faces come in the canonical order of their sorted
    vertex ids, and Recursive's witness is the first failure of the plain
    depth-first recursion into every vertex link: a path there that is not
    ascending reaches a face whose sorted path came earlier, so its link
    was already recognized.  After Recursive fails, the walk goes on for
    TwoFace alone until it meets a codimension-2 face that fails: a link
    stored before the failure passed Recursive in full, and every link
    stored passed TwoFace.
    """
    n = complex_.dim
    if n < 0:
        raise InvalidDimensionError("recursive recognition needs dim >= 0")
    tops = complex_._max_masks
    skip = witness = eta = None
    if n == 0:
        if complex_.vertex_count != 2:
            # the only boundary complex dual to a simple 1-polytope is a vertex pair
            skip = "0-dimensional input must be exactly two points"
            witness = {"kind": "bad_zero_dim_link", "path": [], "vertex_count": complex_.vertex_count}
    else:
        cofacets: dict[int, list[int]] = {}
        pure, violations, connected = pseudomanifold_masks(tops, n, cofacets)
        if not (pure and not violations and connected):
            skip = (
                "input is not a pure pseudomanifold; "
                f"pure={pure}, violations={len(violations)}, "
                f"strongly_connected={connected}"
            )
        if n == 1:
            length = cycle_length_masks(tops)
            if length not in (3, 4):
                witness = {"kind": "link_not_short_cycle", "path": [], "cycle_length": length}
                eta = 0
        elif skip:
            witness = {
                "kind": "not_pseudomanifold",
                "path": [],
                "pure": pure,
                "ridge_violations": [sorted(complex_._unmask(r)) for r in violations[:3]],
                "strongly_connected": connected,
            }
        else:
            witness, eta = _walk_links(complex_, cofacets)
    recursive = RecognitionReport("Recursive", witness is None, witness)
    if skip:
        return RecognitionReport("TwoFace", None, {"skipped": skip}), recursive
    if eta is None:
        return RecognitionReport("TwoFace", True), recursive
    face = complex_._unmask(eta)
    # a star of other than 3 or 4 top faces is no cycle, or a longer one
    length = cycle_length(complex_.link(face) if face else complex_)
    two_face = (
        {"kind": "codim2_link_not_cycle", "eta": sorted(face)}
        if length is None
        else {"kind": "long_codim2_link", "eta": sorted(face), "cycle_length": length}
    )
    return RecognitionReport("TwoFace", False, two_face), recursive


def _walk_links(complex_: SimplicialComplex, cofacets: dict) -> tuple[dict | None, int | None]:
    """Recursive's first failing face below the root of `_star_criteria`, as
    its witness, and TwoFace's, as a mask; None where there is none.  The
    root is a pseudomanifold of dimension at least 2, with the ridge map
    `cofacets` of its top faces."""
    tops = complex_._max_masks
    adjacent = [0] * len(tops)
    for a, b in cofacets.values():
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    on = [0] * complex_.vertex_count
    for i, t in enumerate(tops):
        for low in bits(t):
            on[low.bit_length() - 1] |= 1 << i
    recognized: set = set()
    failure = None

    def link(face: int, star: int) -> list[int]:
        return [tops[low.bit_length() - 1] ^ face for low in bits(star)]

    def walk(sigma: int, star: int, support: int, d: int) -> int | None:
        # sigma's link has dimension d >= 2 on the vertex bits `support`;
        # returns the first codimension-2 face below sigma that fails, or
        # None, and records Recursive's first failure in `failure`
        nonlocal failure
        above = support >> sigma.bit_length() << sigma.bit_length()
        for low in bits(above):
            face = sigma | low
            face_star = star & on[low.bit_length() - 1]
            if d == 2:
                if face_star.bit_count() in (3, 4):
                    continue
                if failure is None:
                    failure = {
                        "kind": "link_not_short_cycle",
                        "path": complex_._ids(face),
                        "cycle_length": cycle_length_masks(link(face, face_star)),
                    }
                return face
            masks = link(face, face_star)
            link_support = reduce(or_, masks)
            key = relabelled_masks(masks, link_support)
            if key in recognized:
                continue
            if failure is None and not _star_connected(face_star, adjacent):
                failure = {
                    "kind": "not_pseudomanifold",
                    "path": complex_._ids(face),
                    "pure": True,
                    "ridge_violations": [],
                    "strongly_connected": False,
                }
            eta = walk(face, face_star, link_support, d - 1)
            if eta is not None:
                return eta
            recognized.add(key)
        return None

    eta = walk(0, (1 << len(tops)) - 1, complex_._full_mask, complex_.dim)
    return failure, eta


def _star_connected(star: int, adjacent: list[int]) -> bool:
    """Whether the top faces in `star` are strongly connected, grown from
    the lowest one along `adjacent` (the top faces sharing a ridge with
    each), restricted to `star`."""
    reached = todo = star & -star
    while todo:
        low = todo & -todo
        todo ^= low
        grown = adjacent[low.bit_length() - 1] & star & ~reached
        reached |= grown
        todo |= grown
    return reached == star


def check_double(
    complex_: SimplicialComplex, cap: int = DEFAULT_CAP
) -> RecognitionReport:
    """The doubled complex decomposes iff the input does.

    `double` stores the lifted minimal non-faces once its own check at m
    vertices passes, so the parts of the double are the input's parts with
    every vertex doubled, and their sizes need no check here.  The lifted
    minimal non-faces partition the 2m doubled vertices exactly when the
    original ones partition the m vertices, so this verdict is logically
    equivalent to the partition half of ``NonFacePartition``; it stays in
    the report because the criterion list names it.
    """
    if 2 * complex_.vertex_count > cap:
        raise CapExceededError(
            f"double needs {2 * complex_.vertex_count} vertices, cap is {cap}"
        )
    dec, witness = decompose_by_non_faces(double(complex_))
    if dec is None:
        return RecognitionReport(
            "Double", False, {"kind": "double_decompose_failed", "inner": witness}
        )
    return RecognitionReport("Double", True)


@dataclass
class ConsolidatedReport:
    """All criterion reports, their agreement flag, and (when positive) the
    certified decomposition."""

    reports: list[RecognitionReport]
    decomposition: SphereJoinDecomposition | None
    agreement: bool

    @property
    def verdicts(self) -> dict[str, bool | None]:
        return {r.criterion: r.verdict for r in self.reports}

    @property
    def positive(self) -> bool:
        return self.agreement and all(
            r.verdict for r in self.reports if not r.skipped
        )

    def to_json_dict(self) -> dict:
        return {
            "criteria": [r.to_json_dict() for r in self.reports],
            "decomposition": (
                self.decomposition.to_json_dict() if self.decomposition else None
            ),
            "agreement": self.agreement,
        }


def recognize_all(
    complex_: SimplicialComplex,
    fields: frozenset[Field] | set[Field] = frozenset({Field.GF2, Field.RATIONAL}),
    cap: int = DEFAULT_CAP,
) -> ConsolidatedReport:
    """Run every criterion and assert their mutual agreement.

    Never short-circuits: the cross-check is the point.  TwoFace and
    Recursive come from one star walk, `_star_criteria`, so the
    pseudomanifold test runs once.  TwoFace is skipped (verdict None) when
    its pure-pseudomanifold precondition fails, and Double is skipped when
    the doubled vertex count exceeds the cap.  Disagreement between the
    criteria that did run is reported as a first-class result: it
    falsifies either the implementation or the assumption that the input
    is dual to a simple polytope.
    """
    if complex_.vertex_count > cap:
        raise CapExceededError(
            f"{complex_.vertex_count} vertices exceed cap {cap}"
        )
    dec, nf_witness = decompose_by_non_faces(complex_)
    reports = [
        RecognitionReport("NonFacePartition", dec is not None, nf_witness),
        check_simplex_link(complex_),
        *_star_criteria(complex_),
    ]
    if 2 * complex_.vertex_count <= cap:
        reports.append(check_double(complex_, cap))
    else:
        reports.append(
            RecognitionReport(
                "Double",
                None,
                {"skipped": f"doubled vertex count {2 * complex_.vertex_count} exceeds cap {cap}"},
            )
        )
    if Field.GF2 in fields:
        reports.append(
            RecognitionReport(
                "HochsterGF2",
                hochster_rank_criterion(complex_, Field.GF2, cap),
                None,
            )
        )
    if Field.RATIONAL in fields:
        reports.append(
            RecognitionReport(
                "HochsterQ",
                hochster_rank_criterion(complex_, Field.RATIONAL, cap),
                None,
            )
        )
    for rep in reports:
        if rep.verdict is False and rep.witness is None:
            rep.witness = {
                "kind": "rank_mismatch",
                "expected": 1 << (complex_.vertex_count - complex_.dim - 1),
            }
    ran = [r.verdict for r in reports if not r.skipped]
    agreement = len(set(ran)) <= 1
    return ConsolidatedReport(
        reports=reports,
        decomposition=dec if (agreement and ran and all(ran)) else None,
        agreement=agreement,
    )
