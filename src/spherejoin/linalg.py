"""Exact rank computations: GF(2) bitset elimination and fraction-free
integer elimination for rational ranks.  Ranks decide verdicts, so no
floating point anywhere.
"""

from __future__ import annotations


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = row
                rank += 1
                break
            row ^= p
    return rank


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix.

    Fraction-free (Bareiss) elimination: entries stay integers, divisions
    are exact, so the result is exact for arbitrary sizes.
    """
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    pr = 0
    for col in range(ncols):
        piv = None
        for r in range(pr, nrows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        p = mat[pr][col]
        row_p = mat[pr]
        for r in range(pr + 1, nrows):
            row_r = mat[r]
            f = row_r[col]
            if f:
                for c in range(col + 1, ncols):
                    row_r[c] = (p * row_r[c] - f * row_p[c]) // prev
                row_r[col] = 0
            elif prev != p:
                for c in range(col + 1, ncols):
                    row_r[c] = (p * row_r[c]) // prev
        prev = p
        pr += 1
        rank += 1
        if pr == nrows:
            break
    return rank
