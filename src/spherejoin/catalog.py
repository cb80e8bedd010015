"""Built-in catalog of test polytopes and complexes.

Products of simplices for every dimension partition up to total 5, the
fixed rational k-gons, the k-gon prisms for k = 5..7, and the two
all-vertices truncations (of the 3-simplex and of the cube).  Every entry
but the truncations is named by its generator spec and built from it by
`geometry.polytope_from_spec`, the builder behind the CLI's ``--gen``, so
``gen <name>`` reproduces the entry.  The truncations are combinatorial
only, so they carry no inequality data.

`incidence_bundle` and `polytope_bundle` turn an incidence or a polytope
into the fields an entry (or a CLI input) carries, dual complex included.
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
    incidence_from_hv,
    polytope_from_spec,
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


def incidence_bundle(inc: VertexFacetIncidence) -> dict:
    """An incidence and its dual boundary complex."""
    return {"incidence": inc, "complex": dual_boundary_complex(inc)}


def polytope_bundle(hrep: PolytopeHRep, vrep: PolytopeVRep) -> dict:
    """A polytope's two representations, its incidence and dual complex."""
    return {"hrep": hrep, "vrep": vrep, **incidence_bundle(incidence_from_hv(hrep, vrep))}


@lru_cache(maxsize=None)
def build_catalog() -> tuple[CatalogEntry, ...]:
    # (spec, is_sphere_join, part_sizes) for every polytopal entry
    rows = [
        ("product:" + ",".join(map(str, dims)), True, tuple(sorted(d + 1 for d in dims)))
        for dims in product_partitions(5)
    ]
    rows += [(f"polygon:{k}", k <= 4, {3: (3,), 4: (2, 2)}.get(k)) for k in range(3, 9)]
    rows += [(f"prism:{k}", False, None) for k in range(5, 8)]
    entries = [
        CatalogEntry(
            spec,
            **polytope_bundle(*polytope_from_spec(spec)),
            is_sphere_join=is_join,
            part_sizes=sizes,
        )
        for spec, is_join, sizes in rows
    ]
    for name, spec in (("truncated:simplex3", "simplex:3"), ("truncated:cube", "product:1,1,1")):
        inc = truncate_all_vertices(incidence_from_hv(*polytope_from_spec(spec)))
        entries.append(CatalogEntry(name, **incidence_bundle(inc)))
    return tuple(entries)
