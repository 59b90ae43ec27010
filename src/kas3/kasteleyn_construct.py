"""From a square matrix to a vertex-tripartite configuration with equal permanents.

Every nonzero entry of the matrix becomes a bipartite-support edge; each edge
grows a small vertex gadget, and each support vertex a fan of copy triangles.
The resulting vertex-adjacency tensor has the same permanent as the matrix,
its determinant already equals that permanent (no resigning needed), and its
perfect strong matchings correspond one-to-one to perfect matchings of the
support graph. Both facts are certified by exhaustive search, not assumed:
the first by comparing the folded unsigned and signed sums over the tensor's
support, the second by checking every image and comparing counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    TriangularConfiguration,
    count_perfect_strong_matchings,
    is_perfect_strong_matching,
)
from .errors import GuardExceeded, SchemaError, ToolkitError
from .tensor3 import (
    BipartiteGraph,
    RingValue,
    Tensor3,
    diagonal_sign,
    enumerate_graph_perfect_matchings,
    support_diagonals,
    support_sum,
    vertex_adjacency,
)

TRIVIAL_SIGNING_MAX_SIDE = 64

Matrix = tuple[tuple[RingValue, ...], ...]


@dataclass(frozen=True)
class TConstruction:
    """The built configuration plus every index map needed to audit it."""

    matrix: Matrix
    n: int
    edge_list: tuple[tuple[int, int], ...]
    graph: BipartiteGraph
    config: TriangularConfiguration
    w0: tuple[str, ...]
    w1: tuple[str, ...]
    w2: tuple[str, ...]
    vertex_classes: dict[str, int]
    entry_values: dict[str, RingValue]
    tensor: Tensor3

    @property
    def m(self) -> int:
        return len(self.w0)


def _freeze_matrix(matrix: Sequence[Sequence[RingValue]]) -> Matrix:
    rows = tuple(tuple(v for v in row) for row in matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ToolkitError("matrix must be square")
    for row in rows:
        for v in row:
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise ToolkitError(f"matrix entries must be exact numbers, got {v!r}")
    return rows


def build_T(matrix: Sequence[Sequence[RingValue]]) -> TConstruction:
    """Assemble the configuration, vertex classes and adjacency tensor for `matrix`."""
    rows = _freeze_matrix(matrix)
    n = len(rows)
    edge_list = tuple(
        (i, j) for i in range(n) for j in range(n) if rows[i][j] != 0
    )

    v1 = [f"v(1,{i})" for i in range(n)]
    v2 = [f"v(2,{j})" for j in range(n)]
    v1c = [f"v'(1,{i})" for i in range(n)]
    v2c = [f"v'(2,{j})" for j in range(n)]
    w0e = [f"w(0,e{ei})" for ei in range(len(edge_list))]
    w1e = [f"w(1,e{ei})" for ei in range(len(edge_list))]
    w2e = [f"w(2,e{ei})" for ei in range(len(edge_list))]
    w01 = [f"w(0,1,{i})" for i in range(n)]
    w02 = [f"w(0,2,{j})" for j in range(n)]

    # Axis orders are load-bearing: with these block layouts every nonzero
    # (sigma1, sigma2) pair has sign product +1, so det equals per without
    # any resigning. Reordering a block can flip the determinant's sign.
    w0 = tuple(w0e + w01 + w02)
    w1 = tuple(w1e + v1 + v1c)
    w2 = tuple(w2e + v2c + v2)

    triangles_by_vertices: dict[str, tuple[str, str, str]] = {}
    entry_values: dict[str, RingValue] = {}
    for ei, (i, j) in enumerate(edge_list):
        triangles_by_vertices[f"tri:edge[{ei}]"] = (v1[i], v2[j], w0e[ei])
        entry_values[f"tri:edge[{ei}]"] = rows[i][j]
        triangles_by_vertices[f"tri:gadget[{ei}]"] = (w0e[ei], w1e[ei], w2e[ei])
    for i in range(n):
        for ei, (a, _b) in enumerate(edge_list):
            if a == i:
                triangles_by_vertices[f"tri:left[{i},{ei}]"] = (w01[i], v2c[i], w1e[ei])
    for j in range(n):
        for ei, (_a, b) in enumerate(edge_list):
            if b == j:
                triangles_by_vertices[f"tri:right[{j},{ei}]"] = (w02[j], v1c[j], w2e[ei])

    pair_edges: dict[tuple[str, str], str] = {}
    edges: dict[str, tuple[str, str]] = {}
    tri_edge_map: dict[str, tuple[str, str, str]] = {}
    for tid, verts in triangles_by_vertices.items():
        eids = []
        for a in range(3):
            for b in range(a + 1, 3):
                pair = tuple(sorted((verts[a], verts[b])))
                if pair not in pair_edges:
                    eid = f"{pair[0]}~{pair[1]}"
                    pair_edges[pair] = eid
                    edges[eid] = pair  # type: ignore[assignment]
                eids.append(pair_edges[pair])
        tri_edge_map[tid] = tuple(eids)  # type: ignore[assignment]

    all_vertices = list(w0) + list(w1) + list(w2)
    config = TriangularConfiguration(edges, tri_edge_map, all_vertices)

    vertex_classes = {v: 1 for v in w0}
    vertex_classes.update({v: 2 for v in w1})
    vertex_classes.update({v: 3 for v in w2})

    tensor, _ = vertex_adjacency(
        config, vertex_classes, entry_values, class_orders=(w0, w1, w2)
    )
    graph = BipartiteGraph(
        left=tuple(v1),
        right=tuple(v2),
        edges=frozenset((v1[i], v2[j]) for i, j in edge_list),
    )
    tc = TConstruction(
        matrix=rows,
        n=n,
        edge_list=edge_list,
        graph=graph,
        config=config,
        w0=w0,
        w1=w1,
        w2=w2,
        vertex_classes=vertex_classes,
        entry_values=entry_values,
        tensor=tensor,
    )
    expected_m = 2 * n + len(edge_list)
    if not (len(w0) == len(w1) == len(w2) == expected_m):
        raise ToolkitError("class sizes disagree; this should be impossible")
    return tc


def matrix_from_doc(doc: Mapping) -> list[list[int]]:
    try:
        n = int(doc["n"])
        rows = doc["rows"]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise SchemaError(f"matrix rows do not form an {n} x {n} square")
        return [[int(v) for v in row] for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"bad matrix document: {exc}") from exc


@dataclass(frozen=True)
class SigningCertificate:
    passed: bool
    contributing_pairs: int
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def to_doc(self) -> dict:
        doc: dict = {"passed": self.passed, "contributing_pairs": self.contributing_pairs}
        if self.witness is not None:
            doc["witness"] = [list(self.witness[0]), list(self.witness[1])]
        return doc


def certify_trivial_signing(tc: TConstruction, threads: int = 1) -> SigningCertificate:
    """Check sign(sigma1) * sign(sigma2) = +1 for every contributing pair.

    Folds the tensor's indicator twice: unsigned, which counts the
    contributing pairs, and signed, which is that count minus twice the
    number of negative pairs. The signing is trivial iff the two are equal,
    and then no pair is listed; on failure the support is walked for the
    first violating pair in search order, returned as a row-indexed witness.
    `threads` is ignored; it stays so that existing callers keep working.
    """
    if tc.m > TRIVIAL_SIGNING_MAX_SIDE:
        raise GuardExceeded(
            f"enumeration guard is side {TRIVIAL_SIGNING_MAX_SIDE}, got {tc.m}"
        )
    count = support_sum(tc.tensor, indicator=True)
    if support_sum(tc.tensor, signed=True, indicator=True) == count:
        return SigningCertificate(passed=True, contributing_pairs=count)
    cells = next(c for c in support_diagonals(tc.tensor) if diagonal_sign(c) != 1)
    by_row = sorted(cells)
    witness = (tuple(j for _i, j, _k in by_row), tuple(k for _i, _j, k in by_row))
    return SigningCertificate(passed=False, contributing_pairs=count, witness=witness)


@dataclass(frozen=True)
class BijectionReport:
    passed: bool
    graph_matchings: int
    strong_matchings: int
    detail: str = ""

    def to_doc(self) -> dict:
        doc: dict = {
            "passed": self.passed,
            "graph_matchings": self.graph_matchings,
            "strong_matchings": self.strong_matchings,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


def _support_maps(
    tc: TConstruction,
) -> tuple[dict[str, int], dict[str, int], dict[tuple[int, int], int]]:
    """Row of each left vertex, column of each right vertex, index of each support edge."""
    left_pos = {name: i for i, name in enumerate(tc.graph.left)}
    right_pos = {name: j for j, name in enumerate(tc.graph.right)}
    edge_index = {e: ei for ei, e in enumerate(tc.edge_list)}
    return left_pos, right_pos, edge_index


def _strong_image(
    tc: TConstruction,
    pm: Sequence[tuple[str, str]],
    left_pos: Mapping[str, int],
    right_pos: Mapping[str, int],
    edge_index: Mapping[tuple[int, int], int],
) -> tuple[str, ...]:
    pm_indexed = set()
    for u, v in pm:
        key = (left_pos[u], right_pos[v])
        if key not in edge_index:
            raise ToolkitError(f"({u!r}, {v!r}) is not a support edge")
        pm_indexed.add(edge_index[key])
    chosen = [f"tri:edge[{ei}]" for ei in sorted(pm_indexed)]
    chosen += [
        f"tri:gadget[{ei}]" for ei in range(len(tc.edge_list)) if ei not in pm_indexed
    ]
    for ei in sorted(pm_indexed):
        i, j = tc.edge_list[ei]
        chosen.append(f"tri:left[{i},{ei}]")
        chosen.append(f"tri:right[{j},{ei}]")
    return tuple(sorted(chosen))


def expected_strong_matching(tc: TConstruction, pm: Sequence[tuple[str, str]]) -> tuple[str, ...]:
    """Strong matching induced by a perfect matching of the support graph."""
    return _strong_image(tc, pm, *_support_maps(tc))


def strong_matching_bijection_check(tc: TConstruction, threads: int = 1) -> BijectionReport:
    """Certify the matching correspondence and its weight preservation.

    Each perfect matching of the support graph is mapped to its image, and
    every image must be a perfect strong matching of the configuration
    (vertex-disjoint triangles covering every vertex). The map must be
    injective, and the number of strong matchings, counted by the memoized
    fold, must equal the number of graph matchings; together these say the
    images are exactly the strong matchings. `threads` is ignored; it stays
    so that existing callers keep working.
    """
    left_pos, right_pos, edge_index = _support_maps(tc)
    pms = enumerate_graph_perfect_matchings(tc.graph)
    strong = count_perfect_strong_matchings(tc.config)
    images = [_strong_image(tc, pm, left_pos, right_pos, edge_index) for pm in pms]
    problems = []
    injective = len(set(images)) == len(images)
    if not injective:
        problems.append("forward map is not injective")
    if (
        not injective
        or len(images) != strong
        or not all(is_perfect_strong_matching(tc.config, image) for image in images)
    ):
        problems.append(
            f"image set differs from the {strong} enumerated strong matchings"
        )
    for pm, image in zip(pms, images):
        weight_graph: RingValue = 1
        for u, v in pm:
            weight_graph = weight_graph * tc.matrix[left_pos[u]][right_pos[v]]
        weight_config: RingValue = 1
        for t in image:
            weight_config = weight_config * tc.entry_values.get(t, 1)
        if weight_graph != weight_config:
            problems.append(f"weights disagree on {pm}")
            break
    return BijectionReport(
        passed=not problems,
        graph_matchings=len(pms),
        strong_matchings=strong,
        detail="; ".join(problems),
    )
