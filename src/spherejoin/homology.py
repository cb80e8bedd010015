"""Field-coefficient simplicial homology and the subset-sweep rank counts
used by the recognition criteria.

The central quantity is the total rank over all full subcomplexes: for a
complex K on vertex set V, sum over every J included in V of the total
reduced Betti number of K restricted to J (the empty J contributes 1).
For the boundary complex dual to a simple polytope this equals the total
cohomology rank of the associated real moment-angle manifold, and it is
2^(m - dim K - 1) exactly when the polytope is a product of simplices.

One sweep per complex fills the GF(2) table and the rational table in a
single pass over the subsets J:

- Cone skip.  A vertex v of J is a cone apex of K_J exactly when no
  minimal non-face inside J contains v.  A subset-OR table of the minimal
  non-faces gives, per J, the union of those inside it; K_J is a cone, and
  acyclic over every field, unless that union is J itself.
- The remaining restrictions are ranked once each, over GF(2), from
  faces and boundary rows of the complex read one dimension at a time
  from its face store, which builds them bottom-up from the minimal
  non-faces, as the ranked restrictions first need them.
- Rational ranks from GF(2) ranks.  An integer matrix has rank mod 2 at
  most its rank over Q, so beta_d(Q) <= beta_d(GF(2)) in every degree;
  both alternating sums equal the reduced Euler characteristic.  If the
  nonzero GF(2) Betti numbers all sit in degrees of one parity, the gaps
  are nonnegative and carry one sign in an alternating sum that is 0, so
  all of them vanish.  Fraction-free integer elimination runs only on
  restrictions whose GF(2) homology has both parities, where 2-torsion
  can make the fields differ (a projective plane has beta_1 = beta_2 = 1
  over GF(2) and no rational homology), and only once a complete rational
  table is asked for.

The sweep factors over joins.  Two vertices share a join component when
some minimal non-face holds both; the complex is the join of its full
subcomplexes on these components and of a simplex on the remaining
vertices, its cone apexes.  A full subcomplex of a join is the join of
the factors' restrictions, and the reduced homology of a join is the
shifted tensor product of the factors' (Kuenneth for joins), so the table
of the complex is the convolution of the factors' tables: (s1, d1) and
(s2, d2) give (s1 + s2, d1 + d2 + 1), and a cone apex contributes the unit
{(0, -1): 1}.  Each factor is swept on its own, over 2^|V_i| subsets
instead of 2^m, taking its minimal non-faces from the complex's cached
list, and on its twin quotient (`_twin_quotient`): a double is swept on
a copy of its input.

On a homology sphere the sweep halves by Alexander duality.  If K is a
GF(2) homology d-sphere on m vertices, hence a rational one as well, the
restrictions to J and to its complement V - J have the same ranks in
degrees i and d-1-i, so only J with |J| <= m/2 (one of each complementary
pair) is visited and its row is credited to both.  The certificate is
exact and runs on maximal-face masks (`_certify_sphere`); the join
factors of a sphere and twin quotients inherit it instead of recomputing
it, and a complex without it is swept in full.

The reduced Betti numbers of a full subcomplex K_J have one kernel per
field, and everything above goes through them.  `_gf2_betti` ranks the
GF(2) boundary rows of the complex that `_boundary_rows` builds, keeping
those of faces inside J; `_rational_betti` ranks signed integer rows over
the faces of K_J by fraction-free elimination.  The sweep, the sphere
certificate and `reduced_betti` share the GF(2) kernel; the rational one
runs only for `reduced_betti` and for the restrictions the parity test
leaves open.  The certificate never eliminates over Q.

Faces come from one store per complex (`SimplicialComplex._levels`),
listed only as far as some reader reads: the sweep and the open
restrictions read its lowest levels; the Euler floor, the sphere
certificate, `reduced_betti` and the f-vector read all of it.

The tables are cached on the complex itself, so every public function and
both fields share one sweep, and a long-running process holds no table of
a complex it has dropped.

The rank criterion decides a negative before any elimination, with one
Euler floor for both fields.  Over every field the reduced Euler
characteristic of K_J is the alternating sum of its reduced Betti numbers,
so |chi(K_J)| is at most their sum, and L, the sum of |chi(K_J)| over all
J, is a lower bound on both totals.  chi(K_J) counts the faces of K inside
J with sign (-1)^dim, the empty face included, so one signed packed
table gives it for all 2^m subsets at once (`_euler_floor`): the additive
subset transform of the even faces minus that of the odd ones, each field
biased so that its top bit gives the sign, over the packed layout the
cone table uses (`_subset_transform`).  On a certified sphere K_J and
K_{V-J} have the same |chi|, and half the table is summed.  Totals and L multiply over join
factors (chi(A * B) = -chi(A) chi(B)), so the floor of a join is the
product of its factors' floors.  It is computed once per complex and kept
on it.  When L passes 2^(m - dim K - 1) both criteria answer no and
nothing is swept or ranked; otherwise the sweep runs in full and caches
complete tables.  A bounded total is therefore exact up to the bound and
only a lower bound past it.  Totals reported to the user (`hrk`, `betti`,
`crosscheck`) are never bounded.

All arithmetic is exact: GF(2) uses bitset elimination, rational ranks use
fraction-free integer elimination.  Sweeps are pure functions of immutable
inputs, so results do not depend on evaluation order.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass
from math import prod

from .complexes import (
    SimplicialComplex,
    bits,
    compress_masks,
    cycle_length_masks,
    double,
    relabelled_masks,
)
from .errors import CapExceededError, InternalInvariantError, InvalidDimensionError
from .geometry import dual_boundary_complex
from .linalg import gf2_rank, integer_rank

DEFAULT_CAP = 20


class Field(enum.Enum):
    """Coefficient field for homology ranks."""

    GF2 = "gf2"
    RATIONAL = "q"


@dataclass
class BettiData:
    """Reduced Betti numbers by degree (degree -1 allowed) over one field."""

    reduced: dict[int, int]
    field: Field

    @property
    def total(self) -> int:
        return sum(self.reduced.values())


@dataclass
class BigradedBettiTable:
    """Rank table graded by subset size: entry (i, 2j) collects the reduced
    cohomology in degree j-i-1 over all vertex subsets of size j."""

    entries: dict[tuple[int, int], int]
    field: Field

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def to_json_dict(self) -> dict:
        return {
            f"({-i},{j2})": v
            for (i, j2), v in sorted(self.entries.items())
        }


# -- core engine ---------------------------------------------------------------


def _boundary_rows(by_dim: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Per dimension d >= 1, the pairs (face, GF(2) boundary row) of the
    d-faces in `by_dim`; a row is a bitmask over the positions of the
    (d-1)-faces.  A face's boundary lies in every full subcomplex that holds
    the face, so the rows serve every restriction (`_gf2_betti`)."""
    out = []
    for lower, upper in zip(by_dim, by_dim[1:]):
        index = {f: i for i, f in enumerate(lower)}
        faces = []
        for f in upper:
            row, b = 0, f
            while b:
                low = b & -b
                row |= 1 << index[f ^ low]
                b ^= low
            faces.append((f, row))
        out.append(faces)
    return out


def _gf2_betti(rows: list[list[tuple[int, int]]], jmask: int) -> list[int]:
    """Reduced GF(2) Betti numbers [b_0, b_1, ...] of the restriction to the
    nonempty vertex set `jmask`, from `_boundary_rows` of the complex; the
    list ends at the top dimension of the restriction.  Rows that reach
    that dimension are enough, since no row above it holds a face inside J."""
    notj = ~jmask
    # the augmentation of a nonempty J has rank 1
    betti = [jmask.bit_count() - 1]
    for faces in rows:
        sub = [row for f, row in faces if not f & notj]
        if not sub:
            break
        rank = gf2_rank(sub)
        betti[-1] -= rank
        betti.append(len(sub) - rank)
    return betti


def _rational_betti(by_dim: list[list[int]], jmask: int) -> list[int]:
    """`_gf2_betti` over Q: signed boundary rows over the faces of the
    restriction to `jmask`, ranked by fraction-free elimination."""
    notj = ~jmask
    lower = [f for f in by_dim[0] if not f & notj]
    betti = [jmask.bit_count() - 1]
    for faces in by_dim[1:]:
        upper = [f for f in faces if not f & notj]
        if not upper:
            break
        index = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row, b, sign = [0] * len(lower), f, 1
            while b:
                low = b & -b
                row[index[f ^ low]] = sign
                b ^= low
                sign = -sign
            rows.append(row)
        rank = integer_rank(rows)
        betti[-1] -= rank
        betti.append(len(rows) - rank)
        lower = upper
    return betti


def reduced_betti(complex_: SimplicialComplex, field: Field) -> BettiData:
    """Reduced Betti numbers, degree -1 up to the dimension; degree -1 has
    rank 1 exactly for the empty complex."""
    if complex_.is_empty:
        return BettiData(reduced={-1: 1}, field=field)
    by_dim = complex_.faces_by_dim()
    if field is Field.GF2:
        betti = _gf2_betti(_boundary_rows(by_dim), complex_._full_mask)
    else:
        betti = _rational_betti(by_dim, complex_._full_mask)
    return BettiData(reduced={-1: 0, **dict(enumerate(betti))}, field=field)


def _array_code(largest: int) -> str:
    """The typecode of the narrowest unsigned array whose items hold `largest`."""
    return next((c for c in "BHIQ" if largest >> (8 * array(c).itemsize) == 0), "Q")


def _subset_transform(n: int, cells, code: str, add: bool = False) -> int:
    """Entry J, for each of the 2^n subsets J of n bits: the OR, or with
    `add` the sum, of the values of the cells (S, value) with S inside J.
    The cells name distinct subsets S, and every entry must fit an item of
    the array typecode `code` (n <= 64 for an OR of subsets; a sweep past
    that could not finish anyway).

    A subset transform, packed into one integer with a w-bit field per
    subset, w the item width of `code`, field J at bit w * J; the cells
    load through an array.  Each of the n steps combines every subset
    containing bit i with its partner without bit i in a single
    shift-and-mask, and no sum carries out of its field.  The packed
    integer is the result; `_unpack` reads it back as an array.
    """
    w = 8 * array(code).itemsize
    size = w << n
    table = array(code, [0]) * (1 << n)
    for s, value in cells:
        table[s] = value
    if sys.byteorder == "big":
        table.byteswap()
    packed = int.from_bytes(table.tobytes(), "little")
    # bit i from the top down: the fields of subsets containing bit i are
    # runs of 2^i fields, every other run, so each step's mask is the
    # previous one XOR itself shifted by the new run length
    with_bit, half = (1 << size) - 1, size
    for _ in range(n):
        half >>= 1
        with_bit ^= with_bit >> half
        if add:
            packed += (packed << half) & with_bit
        else:
            packed |= (packed << half) & with_bit
    return packed


def _unpack(packed: int, n: int, code: str) -> array:
    """The 2^n fields of a packed table (`_subset_transform`) as an array
    of typecode `code`."""
    out = array(code)
    out.frombytes(packed.to_bytes(out.itemsize << n, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _non_faces_inside(n: int, non_faces: list[int]) -> array:
    """Entry J: the union of the given non-faces that lie inside J, by an
    OR subset transform over the n bits."""
    code = _array_code((1 << n) - 1)
    return _unpack(_subset_transform(n, ((nf, nf) for nf in non_faces), code), n, code)


def _euler_floor(complex_: SimplicialComplex, sphere: bool) -> int:
    """The sum over every vertex set J of |chi(K_J)|, the absolute reduced
    Euler characteristic of the restriction: a lower bound on the Hochster
    total over every field.

    Over any field chi(K_J) is the alternating sum of the reduced Betti
    numbers of K_J, so |chi(K_J)| is at most their sum, with equality when
    they all sit in degrees of one parity.  chi(K_J) is also the number of
    even-dimensional faces of K inside J minus the number of odd-dimensional
    ones, the empty face (dimension -1) among them, so it comes for all 2^m
    subsets at once, with no elimination, from one signed packed table: the
    additive subset transform of the even faces, plus a bias of 2^(w-1) in
    every w-bit field, minus that of the odd faces.  w is the narrowest
    array width with fewer than 2^(w-1) faces, the empty one counted, so
    every field holds chi(K_J) + 2^(w-1) with no borrow between fields, and
    its top bit is set exactly when chi(K_J) >= 0.  Masking the fields
    without it, and the top bits themselves, leaves max(chi(K_J), 0), and
    |x| = 2 max(x, 0) - x gives the answer from one sum over that table and
    the sum of chi(K_J) over all J, which needs no table: face by face, it
    is (-1)^dim f times the 2^(n - |f|) sets J that hold f.  The empty J
    contributes 1.

    On a homology d-sphere `sphere` is True, and Alexander duality gives
    K_J and K_{V-J} the same Betti numbers up to a shift of degrees, so the
    same |chi|.  The sum then runs over the J without the top vertex bit,
    one of each complementary pair, from the faces without that bit, and
    is doubled.
    """
    # on a sphere, the J without the top vertex bit, from the faces without it
    n = complex_.vertex_count - 1 if sphere else complex_.vertex_count
    even, odd = [], [(0, 1)]  # the empty face has dimension -1
    chi_sum = -(1 << n)  # sum over J of chi(K_J), the empty face in every J
    for d, faces in enumerate(complex_.faces_by_dim()):
        cells = [(f, 1) for f in faces if not f >> n]
        (odd if d % 2 else even).extend(cells)
        chi_sum += (-1) ** d * len(cells) << (n - d - 1)
    code = _array_code(2 * (len(even) + len(odd)))
    w = 8 * array(code).itemsize
    bias = int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * (1 << n), "little")
    signed = (
        _subset_transform(n, even, code, add=True)
        + bias
        - _subset_transform(n, odd, code, add=True)
    )
    top = signed & bias
    positive = sum(_unpack(signed & (top - (top >> (w - 1))), n, code))
    total = 2 * positive - chi_sum
    return 2 * total if sphere else total


def _certify_sphere(complex_: SimplicialComplex) -> bool:
    """True iff `complex_` is a GF(2) homology sphere, decided exactly on
    its maximal-face masks.

    A complex is a GF(2) homology d-sphere when it is pure of dimension d
    and either d = 0 and it has exactly two vertices, or d >= 1, the link
    of every vertex is a homology (d-1)-sphere, and its reduced GF(2)
    homology is that of the d-sphere: rank 1 in degree d, 0 elsewhere.  At
    d = 1 that is one cycle.  The link of bit b in the maximal faces tops
    is [t ^ b for t in tops if t & b], as in Recursive.  Links of
    dimension 2 and up are memoized up to order-preserving relabelling by
    the key of `relabelled_masks`, since the answer does not depend on
    vertex names; a simplex boundary, a point pair or a cycle is checked
    directly, which costs less than its key.  The homology test is the
    GF(2) kernel, `_gf2_betti` on `_boundary_rows`, over the whole support;
    the certificate never eliminates over Q.  Link faces are read off the
    complex's levels (`_link_levels`), at the first homology test.

    One certificate serves both fields: by universal coefficients a GF(2)
    homology sphere, and each of its links, can carry only odd torsion,
    which leaves the rational homology that of a sphere too.
    """
    memo: dict[tuple[int, frozenset[int]], bool] = {}
    levels: list[list[int]] = []  # the complex's faces, read at the first homology test

    def sphere(tops: list[int], d: int, sigma: int) -> bool:
        # tops are the maximal faces of the link of the face sigma
        nonlocal levels
        if any(t.bit_count() != d + 1 for t in tops):
            return False
        support = 0
        for t in tops:
            support |= t
        if d == 0 or support.bit_count() <= d + 2:
            # a d-sphere has at least d + 2 vertices, and with d + 2 it is a
            # simplex boundary: all d + 2 of their d-faces (at d = 0, a point pair)
            return len(tops) == d + 2 == support.bit_count()
        if d == 1:
            return cycle_length_masks(tops) is not None
        key = relabelled_masks(tops, support)
        known = memo.get(key)
        if known is None:
            known = all(
                sphere([t ^ b for t in tops if t & b], d - 1, sigma | b) for b in bits(support)
            )
            if known:
                levels = levels or complex_.faces_by_dim()
                rows = _boundary_rows(_link_levels(levels, sigma))
                known = _gf2_betti(rows, support) == [0] * d + [1]
            memo[key] = known
        return known

    return complex_.dim >= 0 and sphere(list(complex_._max_masks), complex_.dim, 0)


def _link_levels(levels: list[list[int]], sigma: int) -> list[list[int]]:
    """The faces of the link of the face `sigma`, by dimension, from the
    face levels of the complex: the link's d-faces are f - sigma for the
    faces f of dimension d + |sigma| that contain sigma."""
    return [[f ^ sigma for f in fs if f & sigma == sigma] for fs in levels[sigma.bit_count() :]]


def _is_sphere(complex_: SimplicialComplex) -> bool:
    """The homology-sphere certificate of `complex_`, computed once and kept
    in its `_sphere` slot."""
    if complex_._sphere is None:
        complex_._sphere = _certify_sphere(complex_)
    return complex_._sphere


def _with_duals(table: dict[tuple[int, int], int], m: int, d: int) -> dict[tuple[int, int], int]:
    """`table`, the rows of some restrictions K_J of a homology d-sphere on
    m vertices, plus the row of each one's complement: by Alexander
    duality K_{V-J} has in degree d-1-i the rank K_J has in degree i."""
    out = dict(table)
    for (size, i), b in table.items():
        key = (m - size, d - 1 - i)
        out[key] = out.get(key, 0) + b
    return out


def _subset_sweep(
    complex_: SimplicialComplex,
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int], tuple[int, ...]]:
    """Reduced Betti ranks of every full subcomplex K_J, keyed by (|J|, degree),
    from one pass over the subsets J: the GF(2) table, the rational table
    without the subsets the parity test leaves open, and those subsets.

    Cone skip: a vertex v of J is a cone apex of K_J exactly when no
    minimal non-face inside J contains v.  (Were v an apex inside such an
    N, the face N - v of K_J would make N a face too; if no such N exists,
    adding v to a face of K_J cannot create a non-face.)  So K_J
    is a cone, hence acyclic over every field, unless J is the union of
    the minimal non-faces inside it; that union is one table lookup.

    Every other restriction is ranked once, over GF(2), by `_gf2_betti`.
    A face's boundary lies in K_J whenever the face does, so each face's
    GF(2) boundary row, indexed by the faces one dimension down in K, is
    computed once (`_boundary_rows`) and serves every J.  Faces and rows
    are built one dimension at a time, as far as the ranked J need: a J
    that is not a cone holds a minimal non-face, so K_J has no face of
    dimension |J| - 1, and the rows of the dimensions below rank it.  When
    a J is larger than every J before it, the pass reads the levels up to
    dimension |J| - 2 from the face store; past the top dimension of K
    none comes.  A pass that ranks no J reads no face.

    Rational ranks from GF(2) ranks: an integer matrix has rank mod 2 at
    most its rank over Q, so beta_d(Q) <= beta_d(GF(2)) in every degree,
    and both alternating sums equal the reduced Euler characteristic.  When
    every nonzero GF(2) Betti number sits in degrees of one parity, the
    nonnegative gaps beta_d(GF(2)) - beta_d(Q) all carry the same sign in
    an alternating sum that is 0, so they all vanish and the two rows are
    equal.  Restrictions with GF(2) homology in degrees of both parities
    stay open; `_sweep_table` ranks them over Q, by `_rational_betti`,
    only when the rational table is asked for.  The pass itself, like the
    sphere certificate it reads, never eliminates over Q.

    Alexander duality halves the pass on a homology sphere.  When
    `_is_sphere` certifies K as a GF(2) homology d-sphere on m vertices,
    which makes it a rational one too, beta_i(K_J) = beta_{d-1-i}(K_{V-J})
    over both fields.  The pass then visits only the J with 2|J| < m, and
    the J with 2|J| = m that lack the top vertex bit, so exactly one of J
    and V - J, and at the end adds to each table its dual (`_with_duals`):
    each visited J's row, dualized, as the row of V - J, and (m, d): 1 for
    K itself, the complement of the empty J.  A skipped cone J needs no
    dual row: K_J is acyclic, so K_{V-J} is too.  The parity test gives J
    and V - J the same answer, since duality shifts every degree by the
    same amount, so an open J stands for both, and `_sweep_table` dualizes
    its rational row rather than eliminate the larger complement.  A
    complex without the certificate visits every subset.

    A factor whose `_twins` slot holds a twin quotient K' is swept on K':
    each J' gives the row of the union J of its classes, |J| - |J'|
    degrees up, dualized at the m and dimension of K; the open J are K''s.
    """
    quotient, sizes = complex_._twins or (complex_, None)
    m = quotient.vertex_count
    sphere = _is_sphere(quotient)
    inside = _non_faces_inside(m, quotient._non_face_masks())
    # the rows of the levels read so far: one per level above the vertices
    rows: list[list[tuple[int, int]]] = []
    covered = 2  # `rows` ranks every visited J of at most this size
    gf2: dict[tuple[int, int], int] = {(0, -1): 1}
    rational = dict(gf2)
    uncertified = []
    top = (1 << m) >> 1  # the top vertex bit
    for jmask in range(1, len(inside)):
        if inside[jmask] != jmask:
            continue
        size = jmask.bit_count()
        if sphere and (2 * size > m or (2 * size == m and jmask & top)):
            continue
        if size > covered:
            # J holds a minimal non-face, so K_J has no face of dimension
            # |J| - 1: the levels up to dimension |J| - 2 rank K_J
            rows += _boundary_rows(quotient._levels(size - 1)[len(rows) :])
            covered = size
        betti = _gf2_betti(rows, jmask)
        certified = not (any(betti[::2]) and any(betti[1::2]))
        shift = _twin_shift(jmask, sizes)
        for d, b in enumerate(betti):
            if b:
                key = (size + shift, d + shift)
                gf2[key] = gf2.get(key, 0) + b
                if certified:
                    rational[key] = rational.get(key, 0) + b
        if not certified:
            uncertified.append(jmask)
    if sphere:
        gf2 = _with_duals(gf2, complex_.vertex_count, complex_.dim)
        rational = _with_duals(rational, complex_.vertex_count, complex_.dim)
    return dict(sorted(gf2.items())), dict(sorted(rational.items())), tuple(uncertified)


def _twin_quotient(complex_: SimplicialComplex) -> tuple[SimplicialComplex, list[int] | None]:
    """The complex K' that the join factor K is swept and floored on, and
    the size of the twin class each vertex of K' stands for; K and None
    when K has no twins or one minimal non-face (a simplex boundary).

    Twins are vertices that the same minimal non-faces hold.  K' has one
    vertex per class C_w, and its non-faces and facets are the images
    {w : C_w inside S} of K's.  K is the simplicial wedge of K' (Bahri,
    Bendersky, Cohen and Gitler, 2015), so its multigraded Betti numbers
    are K''s (Gasharov, Peeva and Welker, 1999): a J that splits a class
    is a cone, and for the union J of the classes of J', K_J has the ranks
    of K'_J' moved up |J| - |J'| degrees.  So K' has K's |chi| sum, and is
    a sphere iff K is; it takes K's certificate.  A facet of K misses one
    vertex of each class outside it, which the facet count checks.  Kept
    in the `_twins` slot, which `_subset_sweep` reads.
    """
    if complex_._twins is None:
        non_faces = complex_._non_face_masks()
        # a twin of a vertex of a 2-element non-face N is in N, and then no
        # other non-face holds either: with two or more, it has none
        loose = complex_._full_mask
        for nf in non_faces:
            if nf.bit_count() == 2:
                loose &= ~nf
        held: dict[int, int] = {}  # per loose vertex, the non-faces that hold it
        if len(non_faces) > 1 and loose & (loose - 1):
            for i, nf in enumerate(non_faces):
                for b in bits(nf & loose):
                    held[b] = held.get(b, 0) | 1 << i
        found: dict[int, int] = {}
        for b, h in held.items():
            found[h] = found.get(h, 0) | b
        if len(found) == len(held):
            complex_._twins = ()
            return complex_, None
        # in order of their lowest vertex, which keeps the canonical order
        classes = [*found.values(), *bits(complex_._full_mask & ~loose)]
        classes.sort(key=lambda c: c & -c)

        def image(mask: int) -> int:
            return sum(1 << w for w, c in enumerate(classes) if mask & c == c)

        sizes = [c.bit_count() for c in classes]
        tops = map(image, complex_._max_masks)
        quotient = SimplicialComplex._from_masks(range(len(classes)), tops)
        outside = [quotient._full_mask & ~t for t in quotient._max_masks]
        facets = sum(prod(sizes[b.bit_length() - 1] for b in bits(o)) for o in outside)
        if facets != len(complex_._max_masks):
            raise InternalInvariantError(
                "twin classes of the minimal non-faces do not rebuild the complex"
            )
        quotient._minimal_non_faces = tuple(map(image, non_faces))
        quotient._sphere = complex_._sphere
        complex_._twins = (quotient, sizes)
    return complex_._twins or (complex_, None)


def _twin_shift(jmask: int, sizes: list[int] | None) -> int:
    """|J| - |J'| for the union J of the twin classes of the vertex set J'."""
    if sizes is None:
        return 0
    return sum(sizes[low.bit_length() - 1] for low in bits(jmask)) - jmask.bit_count()


def _join_factors(complex_: SimplicialComplex) -> tuple[SimplicialComplex, ...]:
    """The full subcomplexes of `complex_` on the join components of its
    minimal non-faces, in vertex order; `(complex_,)` itself when one
    component covers every vertex.

    Two vertices share a component when some minimal non-face holds both.
    Every minimal non-face then lies inside one component V_i, so a vertex
    set is a face exactly when its part in every V_i is one: the complex is
    the join of the K_{V_i} and of the simplex on the vertices in no
    minimal non-face, its cone apexes.  A full subcomplex has as minimal
    non-faces exactly those of the complex inside it, so each factor takes
    the complex's masks inside its component, moved onto its own bits in
    the same order, and runs no dualization.  A join has as many maximal
    faces as the product of its factors' counts (a simplex has one); a
    complex that has a different count was given a wrong list of minimal
    non-faces, and raises rather than sweep wrongly.

    A complex whose homology-sphere certificate is already settled passes
    its answer to every factor.  Every join factor of a sphere is a sphere:
    in A * B the link of alpha joined with a maximal face of B is the link
    of alpha in A.  Factors of a complex that is not a sphere are swept in
    full, as it would be.  A complex whose certificate nobody has asked for
    leaves it to each factor, which certifies its twin quotient when it is
    swept or floored: a double's factors, copies of its input's.

    A join keeps its factors in its `_factors` slot (a complex that is its
    own single factor keeps nothing, so it never holds itself), and a
    sweep after the Euler floor reuses the factors the floor built, with
    the certificates they settled.
    """
    if complex_._factors is not None:
        return complex_._factors
    non_faces = complex_._non_face_masks()
    components: list[int] = []
    for merged in non_faces:
        rest = []
        for c in components:
            if c & merged:
                merged |= c
            else:
                rest.append(c)
        components = [*rest, merged]
    if components == [complex_._full_mask]:
        return (complex_,)
    factors = []
    for c in sorted(components, key=lambda c: c & -c):
        masks = compress_masks([f & c for f in complex_._max_masks], c)
        factor = SimplicialComplex._from_masks(complex_._ids(c), masks)
        factor._minimal_non_faces = tuple(compress_masks([nf for nf in non_faces if nf & c], c))
        factor._sphere = complex_._sphere
        factors.append(factor)
    if prod(len(f._max_masks) for f in factors) != len(complex_._max_masks):
        raise InternalInvariantError(
            "join factors of the minimal non-faces do not rebuild the complex"
        )
    complex_._factors = tuple(factors)
    return complex_._factors


def _convolve(tables) -> dict[tuple[int, int], int]:
    """The sweep table of a join from its factors' tables.

    A full subcomplex of a join is the join of the factors' restrictions,
    and over a field the reduced homology of a join in degree d1 + d2 + 1
    is the tensor product of the factors' in degrees d1 and d2 (Kuenneth
    for joins).  So (s1, d1) and (s2, d2) go to (s1 + s2, d1 + d2 + 1),
    and {(0, -1): 1}, the table of the empty restriction alone, is the unit.
    """
    out = {(0, -1): 1}
    for table in tables:
        product: dict[tuple[int, int], int] = {}
        for (s1, d1), b1 in out.items():
            for (s2, d2), b2 in table.items():
                key = (s1 + s2, d1 + d2 + 1)
                product[key] = product.get(key, 0) + b1 * b2
        out = product
    return dict(sorted(out.items()))


def _sweep_table(
    complex_: SimplicialComplex, field: Field, cap: int, stop_above: int | None = None
) -> dict[tuple[int, int], int] | None:
    """The subset-sweep table of `complex_` over `field`, refused past the cap.

    The sweep factors over the join components of the minimal non-faces
    (`_join_factors`): each factor is swept once by `_subset_sweep`, over
    2^|V_i| subsets instead of 2^m, or 2^k for its k twin classes
    (`_twin_quotient`), and the complex's table is the convolution of the
    factors' tables (`_convolve`).  A complex with one component covering
    every vertex is its own single factor.

    Tables are cached on the complex, so they go when the complex does, and
    are sorted by key, so their order does not depend on the sweep's.  With
    `stop_above`, a complex without tables first gets its Euler floor, the
    product of its factors' `_euler_floor`s, each taken on its twin
    quotient, once, in its `_rank_floor`
    slot; if the floor passes the bound the result is None and nothing is
    swept.  Otherwise, now or in a later unbounded call, the same factors,
    kept on the complex with the certificates the floor settled, are swept
    in full.  Rational ranks of the restrictions the parity certificate
    left open are computed here, once, the first time the rational table
    is asked for, one factor at a time, on the face levels up to dimension
    |J| - 2 of the largest open J, which the sweep has already read.

    The cache is (GF(2) table, rational table, subsets left open): a single
    sweep keeps its certified rational table and the subsets the parity
    test left open, a join keeps no rational table until it is asked for,
    and then convolves its kept factors' rational tables.  On a certified
    homology sphere an open subset J also stands for V - J: its rational
    row is credited to both, dualized for V - J, so the larger restriction
    is never eliminated.  Which factors are certified is
    settled by `_join_factors` and `_subset_sweep`; no knob turns duality
    on or off.
    """
    if complex_.vertex_count > cap:
        raise CapExceededError(
            f"subset sweep over {complex_.vertex_count} vertices exceeds cap {cap}"
        )
    if complex_._sweep_tables is None:
        if stop_above is not None:
            if complex_._rank_floor is None:
                quotients = [_twin_quotient(f)[0] for f in _join_factors(complex_)]
                complex_._rank_floor = prod(_euler_floor(q, _is_sphere(q)) for q in quotients)
            if complex_._rank_floor > stop_above:
                return None
        factors = _join_factors(complex_)
        if factors == (complex_,):
            _twin_quotient(complex_)  # settles the slot the sweep reads
            tables = _subset_sweep(complex_)
        else:
            # the rational table waits, until asked for, on the factors'
            tables = (_convolve(_sweep_table(f, Field.GF2, cap) for f in factors), None, ())
        complex_._sweep_tables = tables
    gf2, rational, pending = complex_._sweep_tables
    if field is Field.GF2:
        return gf2
    if rational is None:
        rational = _convolve(_sweep_table(f, Field.RATIONAL, cap) for f in _join_factors(complex_))
    elif not pending:
        return rational
    else:
        # a fresh table, swapped in whole, so concurrent callers never add twice
        rational = dict(rational)
        quotient, sizes = _twin_quotient(complex_)
        # an open J holds a minimal non-face, so the levels up to
        # dimension |J| - 2 rank it, as in the sweep
        by_dim = quotient._levels(max(map(int.bit_count, pending)) - 1)
        opened: dict[tuple[int, int], int] = {}
        for jmask in pending:
            shift = _twin_shift(jmask, sizes)
            for d, b in enumerate(_rational_betti(by_dim, jmask)):
                if b:
                    key = (jmask.bit_count() + shift, d + shift)
                    opened[key] = opened.get(key, 0) + b
        if _is_sphere(quotient):
            # an open J stands for its complement too, which is never
            # eliminated
            opened = _with_duals(opened, complex_.vertex_count, complex_.dim)
        for key, b in opened.items():
            rational[key] = rational.get(key, 0) + b
        rational = dict(sorted(rational.items()))
    complex_._sweep_tables = (gf2, rational, ())
    return rational


def hochster_total_rank(
    complex_: SimplicialComplex,
    field: Field,
    cap: int = DEFAULT_CAP,
    *,
    stop_above: int | None = None,
) -> int:
    """Sum over all vertex subsets J of the total reduced Betti number of
    the restriction to J; the empty subset contributes exactly 1.

    With `stop_above`, a complex not yet swept is first given its Euler
    floor, the sum of |chi(K_J)| over all J, which bounds the total from
    below over both fields at once.  If the floor exceeds the bound it is
    the result, now and in later bounded calls below it over either field;
    otherwise the sweep runs in full.  So a result at most `stop_above` is
    the exact total over `field`, and a larger one lies between the bound
    and that total.
    """
    table = _sweep_table(complex_, field, cap, stop_above)
    return complex_._rank_floor if table is None else sum(table.values())


def hochster_rank_criterion(
    complex_: SimplicialComplex, field: Field, cap: int = DEFAULT_CAP
) -> bool:
    """True iff the total subset-sweep rank equals 2^(m - dim - 1).

    The total is bounded by that value: once the Euler floor, computed from
    face counts alone, passes it the answer is False for both fields, with
    no restriction ranked over either, and the other field's criterion then
    reads the remembered floor without a sweep.  A positive, or a negative
    whose floor stays at or below the value, sweeps every subset and caches
    the tables.
    """
    expected = 1 << (complex_.vertex_count - complex_.dim - 1)
    return hochster_total_rank(complex_, field, cap, stop_above=expected) == expected


def hochster_rank_via_double(
    complex_: SimplicialComplex, field: Field, cap: int = DEFAULT_CAP
) -> int:
    """Total subset-sweep rank of the doubled complex.

    The doubled sweep computes the total rank of the complex moment-angle
    space of the input, which must agree with the real one's total rank
    whenever the input is a polytopal sphere.
    """
    if 2 * complex_.vertex_count > cap:
        raise CapExceededError(
            f"double needs a sweep over {2 * complex_.vertex_count} vertices, cap is {cap}"
        )
    return sum(_sweep_table(double(complex_), field, cap).values())


def bigraded_betti(
    complex_: SimplicialComplex, field: Field, cap: int = DEFAULT_CAP
) -> BigradedBettiTable:
    """Subset-size-graded rank table; its grand total equals the Hochster total."""
    entries: dict[tuple[int, int], int] = {}
    for (size, degree), b in _sweep_table(complex_, field, cap).items():
        key = (size - degree - 1, 2 * size)
        entries[key] = entries.get(key, 0) + b
    return BigradedBettiTable(entries=entries, field=field)


def hochster_graded_ranks(
    complex_: SimplicialComplex, field: Field, cap: int = DEFAULT_CAP
) -> dict[int, int]:
    """Cohomology ranks of the glued space, by degree, from the subset sweep:
    degree p collects the reduced degree p-1 ranks over all subsets."""
    out: dict[int, int] = {}
    for (_size, degree), b in _sweep_table(complex_, field, cap).items():
        out[degree + 1] = out.get(degree + 1, 0) + b
    return out


def gluing_euler_characteristic(incidence) -> int:
    """Euler characteristic of the manifold glued from 2^m reflected copies
    of a simple polytope along its facets.

    Counted cell by cell: each d-face of the polytope contributes
    2^(m-n+d) open cells.  Faces are read off the vertex-facet incidence
    (a d-face corresponds to an (n-d-1)-simplex of the dual complex), with
    the polytope itself as the single top cell.  This route is independent
    of the homology sweep and serves as its oracle.
    """
    dual = dual_boundary_complex(incidence)
    n = incidence.dim
    m = incidence.facet_count
    f = dual.f_vector()
    chi = (-1) ** n * (1 << m)
    for d in range(n):
        chi += (-1) ** d * f[n - d - 1] * (1 << (m - n + d))
    return chi


@dataclass(frozen=True)
class LinkRankBound:
    """One vertex-link lower bound: rank must be at least 2^(m_v - n + 1)."""

    vertex: int
    m_v: int
    link_dim: int
    rank: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.rank >= self.bound


@dataclass
class RankBoundsReport:
    holds: bool
    total_rank: int
    total_bound: int
    per_link: tuple[LinkRankBound, ...]

    def __bool__(self) -> bool:
        return self.holds


def check_rank_lower_bounds(
    complex_: SimplicialComplex, field: Field, cap: int = DEFAULT_CAP
) -> RankBoundsReport:
    """The sweep total is at least 2^(m - dim - 1), and every vertex link's
    total is at least 2^(m_v - n + 1) where n = dim + 1 and m_v counts the
    link's supported vertices.  A link with m_v < n - 1 is refused before
    anything is swept."""
    n = complex_.dim + 1
    links = [(v, complex_.link({v})) for v in complex_.vertices]
    for v, lk in links:
        if lk.vertex_count < n - 1:
            raise InvalidDimensionError(
                f"link of vertex {v} has too few vertices for dimension {n - 1}"
            )
    total = hochster_total_rank(complex_, field, cap)
    total_bound = 1 << (complex_.vertex_count - complex_.dim - 1)
    per_link = [
        LinkRankBound(
            vertex=v,
            m_v=lk.vertex_count,
            link_dim=lk.dim,
            rank=hochster_total_rank(lk, field, cap),
            bound=1 << (lk.vertex_count - n + 1),
        )
        for v, lk in links
    ]
    holds = total >= total_bound and all(b.holds for b in per_link)
    return RankBoundsReport(
        holds=holds, total_rank=total, total_bound=total_bound, per_link=tuple(per_link)
    )
