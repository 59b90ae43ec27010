"""From a square matrix to a vertex-tripartite configuration with equal permanents.

Every nonzero entry of the matrix becomes a bipartite-support edge; each edge
grows a small vertex gadget, and each support vertex a fan of copy triangles.
The resulting vertex-adjacency tensor has the same permanent as the matrix,
its determinant already equals that permanent (no resigning needed), and its
perfect strong matchings correspond one-to-one to perfect matchings of the
support graph. Both facts are certified of the tensor by folds over
state graphs: the first by comparing the unsigned and signed sums over its
support, the second by checking its cells are the triangles, that every
image is a perfect strong matching (one pass over the support's matching
graph), that each edge's image carries its matrix value, and that the
counts agree. A passing certificate lists nothing; a failing one lists
covers only to name its witness, under the listing guard. The folds meet
the cover index's mask and graph guards, and no other.

`build_T` writes each value once, into the tensor cell where it names the
triangle, and takes its vertex classes from its three axes, so it checks no
tripartition; the tests check its constructions against the public checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ._util import read_array, read_int
from .core import CoverIndex, TriangularConfiguration
from .errors import SchemaError, ToolkitError
from .tensor3 import (
    _FIELD_KINDS,
    RingValue,
    Tensor3,
    _check_matrix,
    diagonal_sign,
    support_diagonals,
    support_sum,
)

Matrix = tuple[tuple[RingValue, ...], ...]


@dataclass(frozen=True)
class TConstruction:
    """The built configuration plus every index map needed to audit it: the
    support once, as `edge_list`, the vertex classes once, as the axes, and
    each value once, in its `tensor` cell."""

    matrix: Matrix
    n: int
    edge_list: tuple[tuple[int, int], ...]
    config: TriangularConfiguration
    w0: tuple[str, ...]
    w1: tuple[str, ...]
    w2: tuple[str, ...]
    tensor: Tensor3

    @property
    def m(self) -> int:
        return len(self.w0)

    @property
    def vertex_classes(self) -> dict[str, int]:
        return {v: c for c, axis in enumerate((self.w0, self.w1, self.w2), 1) for v in axis}


def _freeze_matrix(matrix: Sequence[Sequence[RingValue]]) -> Matrix:
    # tuples from lists, not generators: `tuple` of a generator guesses a
    # size and resizes, which leaves the interpreter's tuple free lists
    # holding sizes nothing reuses (memory a long-running caller keeps)
    rows = tuple([tuple(row) for row in matrix])
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ToolkitError("matrix must be square")
    _check_matrix(rows, _FIELD_KINDS, "matrix entry")
    return rows


def build_T(matrix: Sequence[Sequence[RingValue]]) -> TConstruction:
    """Assemble the configuration, vertex classes and adjacency tensor for `matrix`.

    The tensor is written in the loop that names the triangles. With E
    support edges, edge ei = (i, j) has four triangles, each a cell at its
    vertices' positions in w0, w1 and w2: (ei, E+i, E+n+j) holding a_ij,
    and (ei, ei, ei), (E+i, ei, E+i) and (E+n+j, E+n+j, ei) holding 1. The
    cells are distinct, and class c is axis c, by construction.
    """
    rows = _freeze_matrix(matrix)
    n = len(rows)
    edge_list = tuple([(i, j) for i in range(n) for j in range(n) if rows[i][j] != 0])
    e = len(edge_list)

    v1 = [f"v(1,{i})" for i in range(n)]
    v2 = [f"v(2,{j})" for j in range(n)]
    v1c = [f"v'(1,{i})" for i in range(n)]
    v2c = [f"v'(2,{j})" for j in range(n)]
    w0e = [f"w(0,e{ei})" for ei in range(e)]
    w1e = [f"w(1,e{ei})" for ei in range(e)]
    w2e = [f"w(2,e{ei})" for ei in range(e)]
    w01 = [f"w(0,1,{i})" for i in range(n)]
    w02 = [f"w(0,2,{j})" for j in range(n)]

    # Axis orders are load-bearing: with these block layouts every nonzero
    # (sigma1, sigma2) pair has sign product +1, so det equals per without
    # any resigning. Reordering a block can flip the determinant's sign.
    w0 = tuple(w0e + w01 + w02)
    w1 = tuple(w1e + v1 + v1c)
    w2 = tuple(w2e + v2c + v2)

    triangles_by_vertices: dict[str, tuple[str, str, str]] = {}
    cells: dict[tuple[int, int, int], RingValue] = {}
    for ei, (i, j) in enumerate(edge_list):
        triangles_by_vertices[f"tri:edge[{ei}]"] = (v1[i], v2[j], w0e[ei])
        cells[(ei, e + i, e + n + j)] = rows[i][j]
        triangles_by_vertices[f"tri:gadget[{ei}]"] = (w0e[ei], w1e[ei], w2e[ei])
        cells[(ei, ei, ei)] = 1
        triangles_by_vertices[f"tri:left[{i},{ei}]"] = (w01[i], v2c[i], w1e[ei])
        cells[(e + i, ei, e + i)] = 1
        triangles_by_vertices[f"tri:right[{j},{ei}]"] = (w02[j], v1c[j], w2e[ei])
        cells[(e + n + j, e + n + j, ei)] = 1

    # edge u~v has the sorted ends (u, v); no vertex name is a prefix of
    # another (each ends at its one ")"), so the ids sort like their ends
    edges: dict[str, tuple[str, str]] = {}
    tri_edge_map: dict[str, tuple[str, str, str]] = {}
    for tid, verts in triangles_by_vertices.items():
        a, b, c = sorted(verts)
        eids = (f"{a}~{b}", f"{a}~{c}", f"{b}~{c}")
        edges.setdefault(eids[0], (a, b))
        edges.setdefault(eids[1], (a, c))
        edges.setdefault(eids[2], (b, c))
        tri_edge_map[tid] = eids

    # every edge end is a vertex of w0, w1 or w2
    config = TriangularConfiguration._make(edges, tri_edge_map, frozenset(w0 + w1 + w2))

    m = e + 2 * n
    return TConstruction(
        matrix=rows,
        n=n,
        edge_list=edge_list,
        config=config,
        w0=w0,
        w1=w1,
        w2=w2,
        tensor=Tensor3._make((m, m, m), cells),
    )


def matrix_from_doc(doc: Mapping) -> list[list[int]]:
    try:
        n = read_int(doc["n"], "n")
        rows = [read_array(row, f"rows[{r}]") for r, row in enumerate(read_array(doc["rows"], "rows"))]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise SchemaError(f"matrix rows do not form an {n} x {n} square")
        return [[read_int(v, f"rows[{r}][{c}]") for c, v in enumerate(row)] for r, row in enumerate(rows)]
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
    The folds meet the cover index's guards, and the witness walk its listing
    guard too. `threads` is ignored; it stays so that existing callers keep working.
    """
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


def _image_changes(
    tc: TConstruction, items_of: Mapping[str, tuple[int, ...]], value_at: Mapping[tuple[int, ...], RingValue]
):
    """The image of the empty edge set, and what choosing each support edge changes.

    A chosen edge ei = (i, j) adds tri:edge[ei], tri:left[i,ei] and
    tri:right[j,ei] to an image; an edge left out adds tri:gadget[ei]. A
    part of an image is summed as `(xor, popcount, missing)`: the XOR and
    summed popcount of its triangles' vertex masks (bit v for each vertex
    position v in `items_of`), and the number of them the configuration
    lacks; its value is the product of the values of the cells they occupy,
    read from `value_at` by items (0 off the cells).
    Returns the sums of the image with every edge left out; for each
    support edge, the change choosing it makes to those sums, and the value
    it adds; and `(edge index, value)` of the left-out parts whose value is
    not 1, the only ones that change an image's value.
    """

    def part(names: Sequence[str]) -> tuple[tuple[int, int, int], RingValue]:
        xor = popcount = missing = 0
        value: RingValue = 1
        for name in names:
            items = items_of.get(name)
            if items is None:
                missing += 1
            else:
                xor ^= sum(1 << v for v in items)
                popcount += len(items)
                value = value * value_at.get(items, 0)
        return (xor, popcount, missing), value

    base = (0, 0, 0)
    changes = []
    values = []
    left_out_values = []
    for ei, (i, j) in enumerate(tc.edge_list):
        on, on_value = part((f"tri:edge[{ei}]", f"tri:left[{i},{ei}]", f"tri:right[{j},{ei}]"))
        off, off_value = part((f"tri:gadget[{ei}]",))
        base = _add_sums(base, off)
        if off_value != 1:
            left_out_values.append((ei, off_value))
        changes.append((on[0] ^ off[0], on[1] - off[1], on[2] - off[2]))
        values.append(on_value)
    return base, changes, values, left_out_values


def _add_sums(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Two image parts' `(xor, popcount, missing)` sums, summed."""
    return a[0] ^ b[0], a[1] + b[1], a[2] + b[2]


def _first_broken(
    tc: TConstruction,
    index: CoverIndex,
    values: Sequence[RingValue],
    left_out_values: Sequence[tuple[int, RingValue]],
) -> tuple[tuple[str, str], ...] | None:
    """The first support matching, by its sorted pairs of names, whose image
    weighs other than it does; None when there is none. Lists every cover
    of `index`, so the listing guard holds before the first."""
    m, n = tc.m, tc.n
    names = [(tc.w1[m - 2 * n + i], tc.w2[m - n + j]) for i, j in tc.edge_list]
    broken = None
    for cover in index.covers():
        chosen = 0
        weight_graph: RingValue = 1
        weight_config: RingValue = 1
        for ei in cover:
            i, j = tc.edge_list[ei]
            chosen |= 1 << ei
            weight_graph = weight_graph * tc.matrix[i][j]
            weight_config = weight_config * values[ei]
        for ei, value in left_out_values:
            if not chosen >> ei & 1:
                weight_config = weight_config * value
        if weight_graph != weight_config:
            named = tuple(sorted(names[ei] for ei in cover))
            if broken is None or named < broken:
                broken = named
    return broken


def strong_matching_bijection_check(tc: TConstruction, threads: int = 1) -> BijectionReport:
    """Certify that `tc.tensor`'s strong matchings are the support's matchings, weight for weight.

    Vertices are numbered by the axes `w0 + w1 + w2` (one off them is item
    3m, on no cell; a triangle on a missing edge holds no items), so one on
    w0[i], w1[j] and w2[k] holds i, m + j and 2m + k, as cell (i, j, k) of
    the side-m tensor does. The cells must be the triangles: the vertex set
    is the axes, the tensor m x m x m, and the cells, as items, the
    triangles' item triples. The two cover problems are then one, and the
    strong matchings are counted as the tensor's indicator fold. The
    perfect matchings of the support graph are the exact covers of
    `CoverIndex(2n, [(i, n + j) for i, j in tc.edge_list])`, counted by
    that index's fold of ones. Each maps to an image that must be a perfect
    strong matching: with every triangle present, the XOR of its vertex
    masks is the full mask and their popcount sum the vertex count. Those
    three sums are added along a cover, so one pass over the index's state
    graph (`CoverIndex.common_sum`) finds whether every image has the same
    ones, and which, and lists no matching. The map is injective, so with
    equal counts the images are the strong matchings.

    An image weighs the product of its triangles' cell values, which must
    be its edges' matrix value product. When every support edge's image
    value is its matrix entry and every left-out gadget value is 1, every
    image does, and no matching is listed. Otherwise the matchings are
    walked, under the listing guard, and the first failing one is named by
    its sorted pairs of the axes' v(1,i) and v(2,j) vertices, `w1[m - 2n +
    i]` and `w2[m - n + j]`. A configuration with an edge without ends is
    refused. `threads` is ignored, kept so that existing callers keep
    working.
    """
    config, m, n = tc.config, tc.m, tc.n
    if not config.has_full_vertex_data:
        raise ToolkitError("perfect strong matchings need vertex data on every edge")
    axes = tc.w0 + tc.w1 + tc.w2
    position, off = {v: p for p, v in enumerate(axes)}, 3 * m
    items_of = {
        t: tuple(sorted([position.get(v, off) for v in config.triangle_vertices(t) or ()])) for t in config.triangle_ids
    }
    value_at = {(i, m + j, 2 * m + k): v for (i, j, k), v in tc.tensor.entries.items()}
    own = len(axes) == len(config.vertices) and config.vertices.issuperset(axes)
    problems = []
    if not (own and tc.tensor.dims == (m, m, m) and sorted(items_of.values()) == sorted(value_at)):
        problems.append("the tensor's cells are not the configuration's triangles")
    strong = support_sum(tc.tensor, indicator=True)
    base, changes, values, left_out_values = _image_changes(tc, items_of, value_at)
    index = CoverIndex(2 * n, [(i, n + j) for i, j in tc.edge_list])
    graph_matchings = index.count()
    vertex_count = len(config.vertices)
    below = index.common_sum(changes, (0, 0, 0), _add_sums)
    exact = ((1 << vertex_count) - 1, vertex_count, 0)  # each vertex once, no triangle missing
    all_strong = not graph_matchings or below is not None and _add_sums(base, below) == exact
    if graph_matchings != strong or not all_strong:
        problems.append(f"image set differs from the {strong} enumerated strong matchings")
    weights_agree = not left_out_values and all(
        value == tc.matrix[i][j] for value, (i, j) in zip(values, tc.edge_list)
    )
    broken = None if weights_agree else _first_broken(tc, index, values, left_out_values)
    if broken is not None:
        problems.append(f"weights disagree on {broken}")
    return BijectionReport(
        passed=not problems,
        graph_matchings=graph_matchings,
        strong_matchings=strong,
        detail="; ".join(problems),
    )
