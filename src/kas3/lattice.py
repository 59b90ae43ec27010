"""Cubic-lattice dimer counting and an integer-grid realization export.

A dimer count is one fold of x^weight over the state graph of the grid
graph's perfect matchings (none is listed), held to the Ryser guard (40
vertices). The tests audit it against the Ryser permanent of the support
matrix and against per3 and det3 of the `build_T` tensor.

The realization holds integer coordinates in units of 1/GRID: lattice points
and edge midpoints lie on the half-integer grid, each auxiliary vertex less
than 1/4 from its own, and boxes above `REALIZATION_MAX_VERTICES` are refused.
No two offsets from one anchor may be opposite: opposite axis-0 and axis-1
offsets at an edge midpoint would put the gadget edge w(0,e)-w(1,e) through
the lattice edge, which the triangle of v(1,i), v(2,j) and w(0,e) holds, and
the triangles would cross. The tests audit the export for crossings exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._util import exact_decimal
from .algebra import Polynomial
from .core import CoverIndex, _vertex_places
from .errors import GuardExceeded, ToolkitError
from .kasteleyn_construct import TConstruction, build_T
from .tensor3 import BipartiteGraph, check_ryser_side

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
    even = tuple([p for p in points if sum(p) % 2 == 0])  # from lists: see `kasteleyn_construct._freeze_matrix`
    odd = tuple([p for p in points if sum(p) % 2 == 1])
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
    threads: int = 1,
) -> Polynomial:
    """Generating polynomial of perfect matchings; zero when the box is odd.

    The polynomial is one fold over the state graph of the grid graph's
    matching problem (`core.CoverIndex.polynomial`), so no matching is listed
    and negative edge weights stay exact. An even box whose colour class is
    above the Ryser guard is refused before the fold runs: every count it
    answers stays within reach of the Ryser oracle in the tests, and the
    fold's graph guard, which counts states and arcs but not their width,
    would refuse a wide box (4x4x4) only after seconds and hundreds of MB.
    `threads` is ignored; it stays so that existing callers keep working.
    """
    if lattice.vertex_count % 2 == 1:
        return Polynomial.zero()
    check_ryser_side(len(lattice.graph.left))
    edges = sorted(lattice.graph.edges)
    edge_weights = edge_weights or {}
    weights = [operator.index(edge_weights.get(e, 1)) for e in edges]
    return CoverIndex(*lattice.graph.matching_problem(edges)).polynomial(weights)


# -- geometric realization ---------------------------------------------------------

GRID = 32
REALIZATION_MAX_VERTICES = 4096

# per block of `build_T`'s axes (support edges, left points, right points), the
# offsets in units of 1/GRID of the axis-0, -1 and -2 vertex at a position from
# its anchor; each stays strictly inside the radius-1/4 ball around the anchor
_EDGE = ((4, 3, -2), (-3, -7, 1), (3, 0, -3))
_LEFT = ((-6, -4, 1), (0, 0, 0), (-3, -3, 4))
_RIGHT = ((-4, -1, -5), (-5, -3, -4), (0, 0, 0))
_HALF = GRID // 2
_RADIUS = GRID // 4

Point = tuple[int, int, int]


@dataclass(frozen=True)
class EmbeddedComplex:
    """A realization; `coordinates` are integer triples in units of 1/GRID."""

    lattice: CubicLattice
    construction: TConstruction
    coordinates: dict[str, Point]

    def to_off(self) -> str:
        """OFF text with exact decimal coordinates (GRID is a power of two),
        its vertices and faces numbered by the vertex places (`core._vertex_places`)."""
        config = self.construction.config
        names, faces = _vertex_places(config)
        values = {c for point in self.coordinates.values() for c in point}
        text = {c: exact_decimal(Fraction(c, GRID)) for c in values}
        lines = ["OFF", f"{len(names)} {len(faces)} {len(config.edge_ids)}"]
        for name in names:
            lines.append(" ".join(text[c] for c in self.coordinates[name]))
        for face in faces.values():
            lines.append("3 " + " ".join(map(str, face)))
        return "\n".join(lines) + "\n"


def _anchors(lattice: CubicLattice, edge_list: tuple[tuple[int, int], ...]) -> tuple[list, ...]:
    """Left and right lattice points, then support-edge midpoints, in grid units."""
    left = [(GRID * x, GRID * y, GRID * z) for x, y, z in lattice.graph.left]
    right = [(GRID * x, GRID * y, GRID * z) for x, y, z in lattice.graph.right]
    midpoints = [tuple((a + b) // 2 for a, b in zip(left[i], right[j])) for i, j in edge_list]
    return left, right, midpoints


def embed_T(lattice: CubicLattice) -> EmbeddedComplex:
    """Realize the tensor-pipeline configuration in 3-space.

    Lattice vertices keep their grid positions; each auxiliary vertex sits
    near its governing lattice vertex or edge midpoint. The box is refused
    above `REALIZATION_MAX_VERTICES`, and when its colour classes differ in
    size (an odd box: the construction needs a square support matrix),
    before anything is built. The realization is audited (distinct points,
    non-degenerate triangles, locality) before it is returned.
    """
    if lattice.vertex_count > REALIZATION_MAX_VERTICES:
        raise GuardExceeded(
            f"realization guard is {REALIZATION_MAX_VERTICES} vertices, "
            f"got {lattice.vertex_count}"
        )
    even, odd = len(lattice.graph.left), len(lattice.graph.right)
    if even != odd:
        raise ToolkitError(
            "cannot realize the {}x{}x{} box: its colour classes have {} and {} vertices, "
            "and the construction needs them equal".format(*lattice.dims, even, odd)
        )
    tc = build_T(lattice.graph.biadjacency())
    left, right, midpoints = _anchors(lattice, tc.edge_list)
    e, n = len(midpoints), len(left)
    coords: dict[str, Point] = {}
    for p, (x, y, z) in enumerate(midpoints + left + right):
        offsets = _EDGE if p < e else _LEFT if p < e + n else _RIGHT
        for axis, (dx, dy, dz) in zip((tc.w0, tc.w1, tc.w2), offsets):
            coords[axis[p]] = (x + dx, y + dy, z + dz)
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
    vertices, faces = _vertex_places(config)
    missing = [v for v in vertices if v not in coords]
    if missing:
        return [f"vertices without coordinates: {missing[:5]}"]
    points = [coords[v] for v in vertices]  # by place
    by_point: dict[Point, str] = {}
    for name, point in zip(vertices, points):
        if point in by_point:
            problems.append(f"{name} and {by_point[point]} coincide at {point}")
        by_point[point] = name
    for t, face in faces.items():
        if len(face) != 3:
            problems.append(f"triangle {t!r} lacks three vertices")
            continue
        p0, p1, p2 = (points[p] for p in face)
        u = tuple(p1[k] - p0[k] for k in range(3))
        w = tuple(p2[k] - p0[k] for k in range(3))
        cross = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
        if all(c == 0 for c in cross):
            problems.append(f"triangle {t!r} is degenerate")
    left, right, midpoints = _anchors(emb.lattice, emb.construction.edge_list)
    anchors = set(left + right + midpoints)
    # Anchors lie on the half-integer grid. A point closer than 1/4 to an
    # anchor is closer than 1/4 to it on every axis, so rounding each
    # coordinate to the nearest half-integer yields that anchor: it is the
    # point's unique nearest half-grid point. One lookup of the rounded point
    # thus decides whether any anchor lies within 1/4.
    for name, point in zip(vertices, points):
        nearest = tuple((c + _RADIUS) // _HALF * _HALF for c in point)
        dist_sq = sum((c - a) ** 2 for c, a in zip(point, nearest))
        if nearest not in anchors or dist_sq >= _RADIUS**2:
            problems.append(f"{name} strays 1/4 or more from every anchor")
    return problems
