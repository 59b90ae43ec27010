"""Cubic-lattice dimer counting and a rational-coordinate realization export.

Dimer generating functions are computed twice on purpose: by a tally over the
perfect matchings of the grid graph and through the matrix-to-tensor pipeline;
the counts must agree exactly or the call fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._util import exact_decimal
from .algebra import Polynomial
from .core import exact_cover_tally
from .errors import GuardExceeded, ToolkitError
from .kasteleyn_construct import TConstruction, build_T
from .tensor3 import BipartiteGraph, permanent2, permanent3

DIMER_MAX_VERTICES = 24
LATTICE_MAX_VERTICES = 1 << 16

Coord = tuple[int, int, int]


@dataclass(frozen=True)
class CubicLattice:
    """Axis-aligned box of unit cells with open boundary, bipartite by parity."""

    dims: tuple[int, int, int]
    graph: BipartiteGraph

    @property
    def vertex_count(self) -> int:
        a, b, c = self.dims
        return a * b * c

    @property
    def edge_count(self) -> int:
        return len(self.graph.edges)


def cubic_lattice(a: int, b: int, c: int) -> CubicLattice:
    if min(a, b, c) < 1:
        raise ToolkitError(f"box dimensions must be at least 1, got {(a, b, c)}")
    if a * b * c > LATTICE_MAX_VERTICES:
        raise GuardExceeded(
            f"lattice guard is {LATTICE_MAX_VERTICES} vertices, got {a * b * c}"
        )
    points = [(x, y, z) for x in range(a) for y in range(b) for z in range(c)]
    even = tuple(p for p in points if sum(p) % 2 == 0)
    odd = tuple(p for p in points if sum(p) % 2 == 1)
    edges = set()
    for x, y, z in points:
        for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            q = (x + dx, y + dy, z + dz)
            if q[0] < a and q[1] < b and q[2] < c:
                p = (x, y, z)
                if sum(p) % 2 == 0:
                    edges.add((p, q))
                else:
                    edges.add((q, p))
    return CubicLattice(dims=(a, b, c), graph=BipartiteGraph(even, odd, frozenset(edges)))


def dimer_polynomial(
    lattice: CubicLattice,
    edge_weights: Mapping[tuple[Coord, Coord], int] | None = None,
    cross_check: bool = True,
    threads: int = 1,
) -> Polynomial:
    """Generating polynomial of perfect matchings; zero when the box is odd.

    With `cross_check` (the default) the matching count is recomputed through
    the support-matrix permanent and the tensor-pipeline permanent, and all
    three values must agree exactly. `threads` is ignored; it stays so that
    existing callers keep working.
    """
    if lattice.vertex_count > DIMER_MAX_VERTICES:
        raise GuardExceeded(
            f"dimer guard is {DIMER_MAX_VERTICES} vertices, got {lattice.vertex_count}"
        )
    if lattice.vertex_count % 2 == 1:
        return Polynomial.zero()
    edges = sorted(lattice.graph.edges)
    edge_weights = edge_weights or {}
    weights = [int(edge_weights.get(e, 1)) for e in edges]
    poly = exact_cover_tally(*lattice.graph.matching_problem(edges), weights)
    if cross_check:
        count = poly(1)
        biadj = lattice.graph.biadjacency()
        via_matrix = permanent2(biadj)
        via_tensor = permanent3(build_T(biadj).tensor)
        if not (via_matrix == count and via_tensor == count):
            raise ToolkitError(
                f"dimer pipelines disagree: direct={count}, "
                f"matrix={via_matrix}, tensor={via_tensor}"
            )
    return poly


def dimer_count(lattice: CubicLattice, cross_check: bool = True) -> int:
    return dimer_polynomial(lattice, cross_check=cross_check)(1)


# -- geometric realization ---------------------------------------------------------

_F = Fraction
# offsets keep every auxiliary vertex strictly inside a radius-1/4 ball
# around its governing lattice vertex or edge midpoint
_OFFSET_W0_VERTEX = (_F(3, 16), _F(1, 16), _F(1, 32))
_OFFSET_COPY = (_F(-3, 16), _F(1, 32), _F(1, 16))
_OFFSET_EDGE = {
    0: (_F(1, 16), _F(3, 32), _F(-1, 32)),
    1: (_F(-1, 16), _F(-3, 32), _F(1, 32)),
    2: (_F(1, 32), _F(-1, 16), _F(3, 32)),
}

Point = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class EmbeddedComplex:
    lattice: CubicLattice
    construction: TConstruction
    coordinates: dict[str, Point]

    def to_off(self) -> str:
        """OFF text with exact decimal coordinates (denominators are powers of two)."""
        names = sorted(self.coordinates)
        index = {name: i for i, name in enumerate(names)}
        config = self.construction.config
        lines = ["OFF"]
        lines.append(
            f"{len(names)} {len(config.triangle_ids)} {len(config.edge_ids)}"
        )
        for name in names:
            x, y, z = self.coordinates[name]
            lines.append(f"{exact_decimal(x)} {exact_decimal(y)} {exact_decimal(z)}")
        for t in config.triangle_ids:
            verts = config.triangle_vertices(t)
            assert verts is not None
            lines.append("3 " + " ".join(str(index[v]) for v in sorted(verts, key=index.get)))
        return "\n".join(lines) + "\n"


def _add(base: tuple, offset: tuple) -> Point:
    return tuple(Fraction(b) + o for b, o in zip(base, offset))  # type: ignore[return-value]


def embed_T(lattice: CubicLattice) -> EmbeddedComplex:
    """Realize the tensor-pipeline configuration in 3-space.

    Lattice vertices keep their grid positions; each auxiliary vertex sits
    near its governing lattice vertex or edge midpoint. The realization is
    audited (distinct points, non-degenerate triangles, locality) before it
    is returned.
    """
    tc = build_T(lattice.graph.biadjacency())
    left = lattice.graph.left
    right = lattice.graph.right
    coords: dict[str, Point] = {}
    for i, p in enumerate(left):
        coords[f"v(1,{i})"] = _add(p, (0, 0, 0))
        coords[f"w(0,1,{i})"] = _add(p, _OFFSET_W0_VERTEX)
        coords[f"v'(2,{i})"] = _add(p, _OFFSET_COPY)
    for j, p in enumerate(right):
        coords[f"v(2,{j})"] = _add(p, (0, 0, 0))
        coords[f"w(0,2,{j})"] = _add(p, _OFFSET_W0_VERTEX)
        coords[f"v'(1,{j})"] = _add(p, _OFFSET_COPY)
    for ei, (i, j) in enumerate(tc.edge_list):
        p, q = left[i], right[j]
        midpoint = tuple(Fraction(p[k] + q[k], 2) for k in range(3))
        coords[f"w(0,e{ei})"] = _add(midpoint, _OFFSET_EDGE[0])
        coords[f"w(1,e{ei})"] = _add(midpoint, _OFFSET_EDGE[1])
        coords[f"w(2,e{ei})"] = _add(midpoint, _OFFSET_EDGE[2])
    emb = EmbeddedComplex(lattice=lattice, construction=tc, coordinates=coords)
    problems = check_embedding(emb)
    if problems:
        raise ToolkitError("invalid realization (internal error): " + "; ".join(problems))
    return emb


def check_embedding(emb: EmbeddedComplex) -> list[str]:
    """Audit distinctness, triangle non-degeneracy and the locality rule."""
    problems: list[str] = []
    config = emb.construction.config
    coords = emb.coordinates
    missing = [v for v in sorted(config.vertices) if v not in coords]
    if missing:
        return [f"vertices without coordinates: {missing[:5]}"]
    by_point: dict[Point, str] = {}
    for name in sorted(coords):
        point = coords[name]
        if point in by_point:
            problems.append(f"{name} and {by_point[point]} coincide at {point}")
        by_point[point] = name
    for t in config.triangle_ids:
        verts = sorted(config.triangle_vertices(t) or ())
        if len(verts) != 3:
            problems.append(f"triangle {t!r} lacks three vertices")
            continue
        p0, p1, p2 = (coords[v] for v in verts)
        u = tuple(p1[k] - p0[k] for k in range(3))
        w = tuple(p2[k] - p0[k] for k in range(3))
        cross = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
        if all(c == 0 for c in cross):
            problems.append(f"triangle {t!r} is degenerate")
    radius_sq = Fraction(1, 16)
    lattice_points = {
        tuple(Fraction(c) for c in p)
        for p in list(emb.lattice.graph.left) + list(emb.lattice.graph.right)
    }
    anchors: list[Point] = sorted(lattice_points)
    for ei, (i, j) in enumerate(emb.construction.edge_list):
        p = emb.lattice.graph.left[i]
        q = emb.lattice.graph.right[j]
        anchors.append(tuple(Fraction(p[k] + q[k], 2) for k in range(3)))
    for name in sorted(coords):
        point = coords[name]
        if point in lattice_points:
            continue
        nearest = min(
            sum((point[k] - a[k]) ** 2 for k in range(3)) for a in anchors
        )
        if nearest >= radius_sq:
            problems.append(f"{name} strays {nearest} from every anchor")
    return problems
