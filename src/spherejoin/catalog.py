"""Built-in catalog of test polytopes and complexes.

Products of simplices for every dimension partition up to total 5, the
fixed rational k-gons, the k-gon prisms for k = 5..7, and the two
all-vertices truncations (of the 3-simplex and of the cube).  The
truncations are combinatorial only, so they carry no inequality data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import SimplicialComplex
from .geometry import (
    PolytopeHRep,
    PolytopeVRep,
    VertexFacetIncidence,
    dual_boundary_complex,
    gen_polygon,
    gen_product_of_simplices,
    gen_simplex,
    incidence_from_hv,
    product_polytope,
    truncate_all_vertices,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    complex: SimplicialComplex
    incidence: VertexFacetIncidence | None = None
    hrep: PolytopeHRep | None = None
    vrep: PolytopeVRep | None = None
    is_sphere_join: bool = False
    part_sizes: tuple[int, ...] | None = None


def product_partitions(max_total: int = 5) -> list[tuple[int, ...]]:
    """All multisets of positive simplex dimensions with sum <= max_total,
    each written in non-increasing order."""
    out = []
    for total in range(1, max_total + 1):
        def parts(remaining, maximum):
            if remaining == 0:
                yield ()
                return
            for first in range(min(remaining, maximum), 0, -1):
                for rest in parts(remaining - first, first):
                    yield (first,) + rest
        out.extend(parts(total, total))
    return out


@lru_cache(maxsize=None)
def build_catalog() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    for dims in product_partitions(5):
        h, v = gen_product_of_simplices(*dims)
        inc = incidence_from_hv(h, v)
        entries.append(
            CatalogEntry(
                name="product:" + ",".join(map(str, dims)),
                complex=dual_boundary_complex(inc),
                incidence=inc,
                hrep=h,
                vrep=v,
                is_sphere_join=True,
                part_sizes=tuple(sorted(d + 1 for d in dims)),
            )
        )
    for k in range(3, 9):
        h, v = gen_polygon(k)
        inc = incidence_from_hv(h, v)
        entries.append(
            CatalogEntry(
                name=f"polygon:{k}",
                complex=dual_boundary_complex(inc),
                incidence=inc,
                hrep=h,
                vrep=v,
                is_sphere_join=k <= 4,
                part_sizes=((3,) if k == 3 else (2, 2)) if k <= 4 else None,
            )
        )
    for k in range(5, 8):
        hk, vk = gen_polygon(k)
        h1, v1 = gen_simplex(1)
        h, v = product_polytope(hk, vk, h1, v1)
        inc = incidence_from_hv(h, v)
        entries.append(
            CatalogEntry(
                name=f"prism:{k}",
                complex=dual_boundary_complex(inc),
                incidence=inc,
                hrep=h,
                vrep=v,
                is_sphere_join=False,
            )
        )
    for name, dims in (("truncated:simplex3", (3,)), ("truncated:cube", (1, 1, 1))):
        h, v = gen_product_of_simplices(*dims)
        inc = truncate_all_vertices(incidence_from_hv(h, v))
        entries.append(
            CatalogEntry(
                name=name,
                complex=dual_boundary_complex(inc),
                incidence=inc,
                is_sphere_join=False,
            )
        )
    return tuple(entries)
