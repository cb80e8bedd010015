"""Independent brute-force oracles used to freeze expected values.

Deliberately separate from the library implementation: face enumeration by
powerset, boundary matrices via sympy over the rationals, GF(2) ranks by a
plain list-of-rows elimination.  Only usable at small sizes.
"""

from itertools import chain, combinations

import sympy


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
