"""Sparse exact 3-matrices: permanents, determinants, adjacency builders, signings.

Entry values are exact ring elements: Python ints, fractions, or Polynomial.
A `Tensor3` is a value with read-only entries. Cubic permanents and
determinants are folded sums over the nonzero support diagonals, the exact
covers of the padded cube's axis indices by nonzero cells:
`core.CoverIndex.fold` sums the search's state graph, one state per set of
covered indices at which the search branches, with the cells forced in
between kept on the arcs, and keeps the determinant's sign from per-cell
masks, so no diagonal is listed; `support_diagonals` lists them by walking
the same graph. On `build_T` tensors and reduction gadgets nearly every
step is forced, so their graphs are small. Each tensor works out its
support once (`_support`), and its resignings share it. A `triadjacency`
tensor with axes of equal length works out none of its own: its support
diagonals are its configuration's perfect matchings, so it folds and lists
the configuration's one perfect-matching cover index, made on first use
by it or by `core.perfect_matching_polynomial`, whichever comes first,
each axis index's item its edge's place, which `triadjacency` hands over. A
tensor with an axis index that no entry uses has no support diagonal and
is answered from its entries; otherwise the cover index refuses a support
whose masks would pass `core.SUPPORT_MAX_BITS` before it builds any, and a
state graph past `core.COVER_GRAPH_MAX_SIZE` while it is built.
Pfaffian signings of bipartite graphs come from one GF(2) solve over their
perfect matchings' state graph (`core.CoverIndex.parity_span`), so no
matching is listed.
`Tensor3(...)` and `Tensor3.from_doc` check outside input; `triadjacency`,
the resignings, the contractions and `build_T` make tensors whose cells
they have already made valid, through `Tensor3._make`. `vertex_adjacency`
holds values its caller gives, so it builds through `Tensor3(...)`, which
refuses a value that is not an int, a `Fraction` or a `Polynomial` and
drops the zero ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from ._util import int_text, read_array, read_int
from .algebra import Polynomial
from .core import (
    CoverIndex,
    TriangularConfiguration,
    _edge_places,
    _matching_index,
    _Places,
    _vertex_places,
    check_edge_tripartition,
    check_vertex_tripartition,
)
from .errors import GuardExceeded, SchemaError, ToolkitError

PERMANENT2_MAX_SIDE = 20
BINET_CAUCHY_MAX_SUBSETS = 100_000

RingValue = int | Fraction | Polynomial


_RING_KINDS = (int, Fraction, Polynomial)
_FIELD_KINDS = (int, Fraction)
_KIND_NAMES = {_RING_KINDS: "an int, Fraction or Polynomial", _FIELD_KINDS: "an int or Fraction"}


def _check_exact(value: object, cell: tuple[int, ...], name: str = "entry", kinds: tuple = _RING_KINDS) -> None:
    """Refuse `value` unless it is one of `kinds` (a bool is not an int); the
    error names it as `name` at `cell`."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        where = ",".join(map(str, cell))
        raise ToolkitError(f"{name} ({where}) holds {value!r}, not {_KIND_NAMES[kinds]}")


def _check_matrix(matrix: Sequence[Sequence[object]], kinds: tuple, name: str = "cell") -> None:
    """`_check_exact` on every cell, reading each distinct cell type once when all pass."""
    types = set(map(type, itertools.chain.from_iterable(matrix)))
    if all(issubclass(t, kinds) and not issubclass(t, bool) for t in types):
        return
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            _check_exact(value, (i, j), name, kinds)


class Tensor3:
    """Sparse n1 x n2 x n3 array over exact ring values; absent entries are zero.

    `entries` is a read-only view of the nonzero cells: to change an entry,
    build a new `Tensor3`. `_support` keeps the support once it is worked
    out, or a `triadjacency` tensor's recipe for it until then (see
    `_support`). The constructor checks the dims and every cell it
    is given, and refuses a value that is not an int (a bool does not
    count), a `Fraction` or a `Polynomial` instead of storing it or dropping
    it as zero; kas3's builders make their tensors with `_make`, which stores
    cells they have already made valid.
    """

    __slots__ = ("dims", "entries", "_support")

    def __init__(self, dims: Sequence[int], entries: Mapping[tuple[int, int, int], RingValue]):
        self.dims = tuple(operator.index(d) for d in dims)
        if len(self.dims) != 3 or any(d < 0 for d in self.dims):
            raise ToolkitError(f"bad tensor dims {dims}")
        clean: dict[tuple[int, int, int], RingValue] = {}
        for (i, j, k), value in entries.items():
            i, j, k = operator.index(i), operator.index(j), operator.index(k)
            if not (0 <= i < self.dims[0] and 0 <= j < self.dims[1] and 0 <= k < self.dims[2]):
                raise ToolkitError(f"entry index ({i},{j},{k}) outside dims {self.dims}")
            _check_exact(value, (i, j, k))
            if value:
                clean[(i, j, k)] = value
        self.entries: Mapping[tuple[int, int, int], RingValue] = MappingProxyType(clean)
        self._support: Support | None = None

    @classmethod
    def _make(cls, dims: tuple[int, int, int], entries: dict[tuple[int, int, int], RingValue]) -> "Tensor3":
        """A tensor holding `entries` as given, which it then owns.

        The caller guarantees what `__init__` enforces: three non-negative
        int dims, int index triples inside them, and no zero value.
        """
        tensor = cls.__new__(cls)
        tensor.dims = dims
        tensor.entries = MappingProxyType(entries)
        tensor._support = None
        return tensor

    @property
    def cube_side(self) -> int:
        """Side of the zero-padded cube the permanent and determinant act on."""
        return max(self.dims) if self.dims else 0

    def __getitem__(self, key: tuple[int, int, int]) -> RingValue:
        return self.entries.get(key, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims}, nnz={len(self.entries)})"

    def to_doc(self) -> dict:
        """Rows `[i, j, k, value]` in index order; entries holding one value object
        share its encoding, so the rows must not be edited in place."""
        encoded: dict[int, object] = {}  # id(value) -> encoding; `entries` keeps the values alive
        rows = []
        for key in sorted(self.entries):
            value = self.entries[key]
            code = encoded.get(id(value))
            if code is None:
                code = encoded[id(value)] = encode_ring_value(value)
            rows.append([*key, code])
        return {"dims": list(self.dims), "entries": rows}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "Tensor3":
        try:
            dims = [read_int(d, f"dims[{a}]") for a, d in enumerate(read_array(doc["dims"], "dims"))]
            entries: dict[tuple[int, int, int], RingValue] = {}
            for r, row in enumerate(read_array(doc["entries"], "entries")):
                if len(read_array(row, f"entries[{r}]")) != 4:
                    raise SchemaError(f"tensor entry {row!r} must be [i, j, k, value]")
                key = tuple(read_int(x, f"entries[{r}][{a}]") for a, x in enumerate(row[:3]))
                if key in entries:
                    raise SchemaError(f"duplicate tensor entry at {key}")
                entries[key] = decode_ring_value(row[3])
            return cls(dims, entries)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"bad tensor document: {exc}") from exc


_JSON_SAFE_INT = 1 << 53


def encode_ring_value(value: RingValue):
    if isinstance(value, bool):
        raise SchemaError("boolean is not a ring value")
    if isinstance(value, int):
        return value if abs(value) < _JSON_SAFE_INT else int_text(value)
    if isinstance(value, Polynomial):
        return {"poly": {int_text(e): encode_ring_value(c) for e, c in value.terms()}}
    raise SchemaError(f"cannot serialize ring value of type {type(value).__name__}")


def decode_ring_value(value) -> RingValue:
    if isinstance(value, bool):
        raise SchemaError("boolean is not a ring value")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError as exc:
            raise SchemaError(f"bad big-integer string {value!r}") from exc
    if isinstance(value, dict) and set(value) == {"poly"}:
        if not isinstance(value["poly"], dict):
            raise SchemaError("poly value must map exponents to coefficients")
        coeffs = {}
        for e, c in value["poly"].items():
            exp = int(e)
            if exp in coeffs:  # keys such as "1", "01" and "+1" read as one exponent
                raise SchemaError(f"duplicate polynomial exponent {exp}")
            coeffs[exp] = decode_ring_value(c)
            if not isinstance(coeffs[exp], int):
                raise SchemaError("polynomial coefficients must be integers")
        return Polynomial(coeffs)
    raise SchemaError(f"cannot parse ring value {value!r}")


# -- permanent / determinant ---------------------------------------------------


def _index_gap(tensor: Tensor3, axes: Iterable[int] = (0, 1, 2)) -> bool:
    """Whether some index of the padded cube on one of `axes` has no entry.

    Such a tensor has no support diagonal. The check takes O(nnz), never
    O(side), so it runs before anything of the cube's size is built.
    """
    n = tensor.cube_side
    if len(tensor.entries) < n:
        return True
    columns = tuple(zip(*tensor.entries)) or ((), (), ())
    return any(len(set(columns[a])) < n for a in axes)


def _support_options(tensor: Tensor3) -> tuple[int, list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Item count, sorted cells and their items: cell (i, j, k) covers items i, n + j and 2n + k."""
    n = tensor.cube_side
    cells = sorted(tensor.entries)
    return 3 * n, cells, [(i, n + j, 2 * n + k) for i, j, k in cells]


# the sorted or triangle-ordered cells, their cover index, and per axis each index's item number
Support = Literal[False] | tuple[list[tuple[int, int, int]], CoverIndex, tuple[Sequence[int], ...]]


def _support(tensor: Tensor3) -> Support:
    """The tensor's support, worked out on first use and kept: False when
    some axis index has no entry, else its cells, their cover index and, per
    axis, the item number of each index.

    A tensor's own support has its cells in sorted order, cell (i, j, k)
    holding items i, n + j and 2n + k, so axis a's index q is item a n + q.
    A `triadjacency` tensor whose axes have equal length holds instead a
    recipe for its configuration's kept perfect-matching index
    (`core._matching_index`), read here the first time a fold or a listing
    needs it: its cells in `triangle_ids` order, one per triangle, are that
    index's options, and each axis index is the item of its edge: its
    position in the edge places (`core._edge_places`), handed over by `triadjacency`.
    Values are not part of the support; callers read them from `entries`.
    """
    support = tensor._support
    if support is None:
        support = False
        if not _index_gap(tensor):
            item_count, cells, options = _support_options(tensor)
            n = tensor.cube_side
            support = (cells, CoverIndex(item_count, options), (range(n), range(n, 2 * n), range(2 * n, item_count)))
        tensor._support = support
    elif callable(support):
        support = tensor._support = support(tensor)
    return support


def _matching_support(config: TriangularConfiguration, items: Sequence[Sequence[int]], tensor: Tensor3) -> Support:
    """The support of `config`'s `triadjacency` tensor, whose cells were
    placed one per triangle in `triangle_ids` order, as its configuration's
    perfect-matching cover index; `items` are the axes' edge positions."""
    return list(tensor.entries), _matching_index(config), tuple(items)


def support_diagonals(tensor: Tensor3) -> Iterator[list[tuple[int, int, int]]]:
    """Yield the cells of every (sigma1, sigma2) pair with a nonzero entry product.

    Such a pair is an exact cover of the 3n axis indices of the zero-padded
    cube by nonzero cells. Cells come in search order, not row order, from
    a walk of the state graph of the tensor's cover index (see `per3`).
    """
    support = _support(tensor)
    if support:
        cells, index, _items = support
        for cover in index.covers():
            yield [cells[oi] for oi in cover]


def permutation_sign(perm: Sequence[int]) -> int:
    """+1 for even, -1 for odd, in O(n): the parity is that of n minus the number of cycles."""
    n = len(perm)
    seen = [False] * n
    odd = 0
    for start in range(n):
        if not seen[start]:
            odd ^= 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (n ^ odd) & 1 else 1


def diagonal_sign(cells: Sequence[tuple[int, int, int]]) -> int:
    """sign(sigma1) * sign(sigma2) of a support diagonal, in O(n).

    The product equals the sign of the permutation j -> k.
    """
    k_of = [0] * len(cells)
    for _i, j, k in cells:
        k_of[j] = k
    return permutation_sign(k_of)


def support_sum(tensor: Tensor3, signed: bool = False, indicator: bool = False) -> RingValue:
    """Sum over support diagonals of the product of their entries.

    With `indicator` every nonzero entry counts as 1, so the unsigned sum is
    the number of support diagonals: the index's cover count
    (`core.CoverIndex.count`), folded at most once per tensor.

    With `signed`, each term carries sign(sigma1) * sign(sigma2). That sign
    is the parity of the permutation j -> k, and placing cell (i, j, k)
    changes the inversion count of the pairs placed so far by the number of
    placed j' < j plus placed k' < k (mod 2), in any placement order. So
    cell (i, j, k) gets the sign mask of the items of the axis-1 indices
    below j and of the axis-2 indices below k, read from prefix ORs over
    each axis's item numbers, and the fold of `core.CoverIndex.fold`
    negates its factor when the covered part of that mask has odd size.
    One rule serves both kinds of support (see `_support`).

    Every call sums the state graph of the support's cover index, which the
    first search over it builds; a graph past `core.COVER_GRAPH_MAX_SIZE`
    states and arcs raises `GuardExceeded`. A tensor with an unused axis
    index sums to 0 before any index is built.
    """
    support = _support(tensor)
    if not support:
        return 0
    cells, index, items = support
    if indicator and not signed:
        return index.count()
    values = [1] * len(cells) if indicator else [tensor.entries[c] for c in cells]
    signs = None
    if signed:
        below_j, below_k = _below(items[1]), _below(items[2])
        signs = [below_j[j] | below_k[k] for _i, j, k in cells]
    return index.fold(values, signs)


def _below(items: Sequence[int]) -> list[int]:
    """Per index q of an axis, the mask of the items of its indices below q."""
    masks = []
    mask = 0
    for item in items:
        masks.append(mask)
        mask |= 1 << item
    return masks


def permanent3(tensor: Tensor3, threads: int = 1) -> RingValue:
    """Exact double-permutation sum over the zero-padded cube (sparse path).

    A fold over the exact covers of the nonzero cells (see
    `support_sum`); no diagonal is listed. `threads` is ignored; it stays so
    that existing callers keep working.
    """
    return support_sum(tensor)


def determinant3(tensor: Tensor3, threads: int = 1) -> RingValue:
    """Like `permanent3` but each term carries sign(sigma1) * sign(sigma2).

    The sign is kept along the fold from per-cell sign masks (see
    `support_sum`). `threads` is ignored; it stays so that existing callers
    keep working.
    """
    return support_sum(tensor, signed=True)


# -- adjacency builders ----------------------------------------------------------


def _adjacency_tensor(
    places: _Places,
    classes: Mapping[str, int],
    values: Mapping[str, RingValue],
    default: RingValue,
) -> tuple[tuple[int, ...], dict[tuple[int, int, int], RingValue], tuple[tuple[str, ...], ...], tuple[list[int], ...]]:
    """The dims and cells, in `triangle_ids` order, of a cube with one cell
    per triangle, holding `values[triangle]` or `default`, and per axis the
    names and the `places` positions of its members (edges or vertices).

    Each position's class picks its axis, and its rank in that class its
    index there, worked out once per position. The classes have been
    checked, so a triangle has one member of each class. A cell may hold a
    zero value; the caller decides how the cells become a tensor.
    """
    pos, members = places
    items: tuple[list[int], ...] = ([], [], [])
    spots = []  # per position: its axis and its index there
    for p, x in enumerate(pos):
        a = classes[x] - 1
        spots.append((a, len(items[a])))
        items[a].append(p)
    entries: dict[tuple[int, int, int], RingValue] = {}
    index = [0, 0, 0]
    for t, (a, b, c) in members.items():
        axis, i = spots[a]
        index[axis] = i
        axis, i = spots[b]
        index[axis] = i
        axis, i = spots[c]
        index[axis] = i
        key = (index[0], index[1], index[2])
        if key in entries:
            raise ToolkitError(f"two triangles map to tensor cell {key}")
        entries[key] = values.get(t, default)
    side = max(map(len, items))
    names = tuple(pos)
    return (side, side, side), entries, tuple(tuple([names[p] for p in axis]) for axis in items), items


def triadjacency(
    config: TriangularConfiguration,
    edge_classes: Mapping[str, int],
    weighting: Mapping[str, int] | None = None,
) -> tuple[Tensor3, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]]:
    """Edge-level adjacency tensor with x^weight entries, one per triangle.

    Checks the classes it is given, then returns the tensor (zero-padded to
    a cube) and the three canonical edge orders indexing its axes. This is
    the one check of a reduction's classes: `tripartite_reduction` builds
    them without checking.

    The tensor's support diagonals are the configuration's perfect
    matchings, and its cells are placed by their edge places
    (`core._edge_places`). When the three axes have equal length, the
    tensor records that its support is the configuration's kept
    perfect-matching index, over the axes' edge positions (see `_support`),
    so `permanent3`, `determinant3` and `support_diagonals` share one
    search with `core.perfect_matching_polynomial`. Nothing of that index
    is built until a fold or a listing asks for it.
    Axes of unequal length leave an unused axis index, and the tensor keeps
    its own support, which answers 0 before anything is built.
    """
    problems = check_edge_tripartition(config, edge_classes)
    if problems:
        raise ToolkitError("invalid edge tripartition: " + "; ".join(problems))
    monomial = functools.cache(Polynomial.monomial)  # one x^w per weight, shared: polynomials are immutable
    values = {t: monomial(operator.index(w)) for t, w in (weighting or {}).items() if config.has_triangle(t)}
    # every value is a monomial, never zero
    dims, entries, orders, items = _adjacency_tensor(_edge_places(config), edge_classes, values, monomial(1))
    tensor = Tensor3._make(dims, entries)
    if len(items[0]) == len(items[1]) == len(items[2]):
        tensor._support = functools.partial(_matching_support, config, items)
    return tensor, orders


def vertex_adjacency(
    config: TriangularConfiguration,
    vertex_classes: Mapping[str, int],
    entry_values: Mapping[str, RingValue],
) -> tuple[Tensor3, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]]:
    """Vertex-level adjacency tensor; entry values are supplied per triangle.

    Checks the classes it is given, then returns the tensor (zero-padded to
    a cube) and the three sorted vertex orders indexing its axes. Cells are
    placed by the vertex places (`core._vertex_places`) that the vertex
    tripartition and strong-matching searches read.
    """
    problems = check_vertex_tripartition(config, vertex_classes)
    if problems:
        raise ToolkitError("invalid vertex tripartition: " + "; ".join(problems))
    dims, entries, orders, _ = _adjacency_tensor(_vertex_places(config), vertex_classes, entry_values, 1)
    # the caller's values: the public constructor refuses inexact ones and drops the zero ones
    return Tensor3(dims, entries), orders


# -- bipartite graphs and 2-matrix kernels ---------------------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with ordered sides; edges are (left id, right id) pairs."""

    left: tuple
    right: tuple
    edges: frozenset

    def __post_init__(self):
        lset, rset = set(self.left), set(self.right)
        for u, v in self.edges:
            if u not in lset or v not in rset:
                raise ToolkitError(f"edge ({u!r}, {v!r}) leaves the bipartition")

    def biadjacency(self) -> list[list[int]]:
        lpos = {u: i for i, u in enumerate(self.left)}
        rpos = {v: j for j, v in enumerate(self.right)}
        mat = [[0] * len(self.right) for _ in self.left]
        for u, v in self.edges:
            mat[lpos[u]][rpos[v]] = 1
        return mat

    def matching_problem(self, edges: Sequence[tuple]) -> tuple[int, list[tuple[int, int]]]:
        """The perfect matchings as an exact-cover problem over `edges`, in their order.

        Items are the left vertices, then the right ones; option o is edge
        `edges[o]`, holding its left end i and right end j as items
        (i, nl + j). With sides of unequal size there are no options, so no
        cover.
        """
        nl = len(self.left)
        item_count = nl + len(self.right)
        if nl != len(self.right):
            return item_count, []
        lpos = {u: i for i, u in enumerate(self.left)}
        rpos = {v: nl + j for j, v in enumerate(self.right)}
        return item_count, [(lpos[u], rpos[v]) for u, v in edges]


def check_ryser_side(side: int, name: str = "n") -> None:
    """Refuse a Ryser permanent whose side, called `name`, is above `PERMANENT2_MAX_SIDE`."""
    if side > PERMANENT2_MAX_SIDE:
        raise GuardExceeded(f"Ryser guard is {name} <= {PERMANENT2_MAX_SIDE}, got {name} = {side}")


def permanent2(matrix: Sequence[Sequence[RingValue]]) -> RingValue:
    """Ryser inclusion-exclusion with Gray-code column updates; n <= 20.

    Cells must be ints, fractions or polynomials, as in `Tensor3(...)`.

    Each column's nonzero entries are listed once, as `(row, value)`, and a
    Gray step updates only the row sums of its column's nonzero rows. Step
    k flips the column at k's lowest set bit, and leaves a set of columns
    whose size has the parity of k.
    """
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ToolkitError("permanent needs a square matrix")
    check_ryser_side(n)
    _check_matrix(matrix, _RING_KINDS)
    columns = [[(i, value) for i, value in enumerate(column) if value] for column in zip(*matrix)]
    row_sums: list[RingValue] = [0] * n
    total: RingValue = 0
    gray = 0
    for counter in range(1, 1 << n):
        low = counter & -counter
        gray ^= low
        if gray & low:
            for i, value in columns[low.bit_length() - 1]:
                row_sums[i] = row_sums[i] + value
        else:
            for i, value in columns[low.bit_length() - 1]:
                row_sums[i] = row_sums[i] - value
        product = math.prod(row_sums)
        if counter & 1:
            total = total - product
        else:
            total = total + product
    return total if n % 2 == 0 else -total


def determinant2(matrix: Sequence[Sequence[RingValue]]) -> RingValue:
    """Bareiss fraction-free elimination over ints and fractions.

    Elimination divides, and `Polynomial` has no division, so only int and
    `Fraction` cells are taken.
    """
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ToolkitError("determinant needs a square matrix")
    _check_matrix(matrix, _FIELD_KINDS)
    a = [list(row) for row in matrix]
    sign = 1
    prev: RingValue = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = _exact_div(numerator, prev)
            a[i][k] = 0
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def _exact_div(x: RingValue, y: RingValue) -> RingValue:
    if isinstance(x, int) and isinstance(y, int):
        q, r = divmod(x, y)
        if r:
            raise ToolkitError("non-exact division in fraction-free elimination")
        return q
    return x / y  # fractions divide exactly


# -- projections and signings ------------------------------------------------------


@dataclass(frozen=True)
class ProjectionGraphs:
    """Supports of a 3-matrix along axes (0,1) and (0,2)."""

    g1: BipartiteGraph
    g2: BipartiteGraph


def projection_graphs(tensor: Tensor3) -> ProjectionGraphs:
    n = tensor.cube_side
    side = tuple(range(n))
    e1 = frozenset((i, j) for (i, j, _k) in tensor.entries)
    e2 = frozenset((i, k) for (i, _j, k) in tensor.entries)
    return ProjectionGraphs(
        g1=BipartiteGraph(side, side, e1),
        g2=BipartiteGraph(side, side, e2),
    )


EdgeSigning = dict


def apply_signing(tensor: Tensor3, sign1: Mapping, sign2: Mapping) -> Tensor3:
    """Entrywise resigning A'[a,b,c] = sign1[(a,b)] * sign2[(a,c)] * A[a,b,c].

    Every sign read must be the int 1 or -1; a refusal names the signing,
    `sign1` or `sign2`, and its projection edge. A sign flip zeroes no
    entry, so the resigning has the same cells and shares the tensor's
    support (see `_support`).
    """

    def sign(signs: Mapping, name: str, edge: tuple[int, int]) -> int:
        if edge not in signs:
            raise ToolkitError(f"missing sign for projection edge {edge} in {name}")
        s = signs[edge]
        if type(s) is not int or s not in (1, -1):
            raise ToolkitError(f"sign of projection edge {edge} in {name} must be the int 1 or -1, got {s!r}")
        return s

    entries: dict[tuple[int, int, int], RingValue] = {}
    for (a, b, c), value in tensor.entries.items():
        entries[(a, b, c)] = value if sign(sign1, "sign1", (a, b)) == sign(sign2, "sign2", (a, c)) else -value
    signed = Tensor3._make(tensor.dims, entries)
    signed._support = tensor._support
    return signed


def find_pfaffian_signing(graph: BipartiteGraph) -> EdgeSigning | None:
    """A +-1 edge signing making det(signed biadjacency) equal the permanent, or
    None when no such signing exists.

    The term of a perfect matching M, with permutation sigma, carries
    sign(sigma) times the signs of M's edges. Writing s_e = 1 for a minus
    sign, det = per iff every M has sum of s_e over M = parity(sigma) over
    GF(2) (Little 1975; Vazirani and Yannakakis 1989). Each matching is one
    row, bit 1 + o for edge o of the sorted edges and bit 0 for the parity,
    reduced by `CoverIndex.parity_span` over the matching problem's state
    graph, under its guards, with no matching listed. Edge (i, j) gets the
    sign mask "left vertices below i and right vertices below j" by det3's
    rule (`_below`), so a pair of edges adds one to the parity iff it is an
    inversion of sigma; the masks are built once the index has passed its
    size guard. The system is inconsistent iff the basis holds the row 1 (0 = 1).
    Otherwise each pivot edge takes bit 0 of its row and every free edge +1.
    """
    edges = sorted(graph.edges)
    item_count, options = graph.matching_problem(edges)
    index = CoverIndex(item_count, options)
    nl = len(graph.left)
    signs: list[int] = []
    if len(options) >= nl:  # else a left vertex has no edge: there is no cover, and no sign is read
        below = _below(range(item_count))
        # edge (i, j) holds items i and nl + j: the left items below i, the right items below nl + j
        signs = [below[i] | below[nl_j] ^ below[nl] for i, nl_j in options]
    basis = index.parity_span(signs)
    if basis and basis[-1] == 1:
        return None
    signing = dict.fromkeys(edges, 1)
    for row in basis:
        if row & 1:
            signing[edges[row.bit_length() - 2]] = -1
    return signing


def kasteleyn_sign_via_k1(tensor: Tensor3) -> tuple[Tensor3, EdgeSigning, EdgeSigning] | None:
    """Resign via Pfaffian signings of both projection graphs, verified exactly.

    Returns None when a projection graph provably has no Pfaffian signing.
    That is *not* a proof that no resigning of the tensor exists, only that
    this sufficient condition does not apply. A tensor with an unused axis-0
    index gives both graphs an isolated left vertex, so neither has a perfect
    matching and every edge is signed +1 without building the graphs. The
    permanent is taken before the resigning, which shares its support, so
    the verification's two folds sum one state graph.
    """
    if _index_gap(tensor, (0,)):
        sign1 = {(a, b): 1 for a, b, _c in tensor.entries}
        sign2 = {(a, c): 1 for a, _b, c in tensor.entries}
    else:
        graphs = projection_graphs(tensor)
        sign1 = find_pfaffian_signing(graphs.g1)
        if sign1 is None:
            return None
        sign2 = find_pfaffian_signing(graphs.g2)
        if sign2 is None:
            return None
    per = permanent3(tensor)
    signed = apply_signing(tensor, sign1, sign2)
    if determinant3(signed) != per:
        raise ToolkitError("resigning verification failed; this should be impossible")
    return signed, sign1, sign2


# -- Binet-Cauchy ------------------------------------------------------------------


@dataclass(frozen=True)
class RectMatrixTriple:
    """Three r x n matrices of ints and fractions sharing a shape, r <= n."""

    a1: tuple[tuple[RingValue, ...], ...]
    a2: tuple[tuple[RingValue, ...], ...]
    a3: tuple[tuple[RingValue, ...], ...]

    def __post_init__(self):
        shapes = {(len(m), len(m[0]) if m else 0) for m in (self.a1, self.a2, self.a3)}
        if len(shapes) != 1:
            raise ToolkitError("matrices must share one shape")
        r, n = next(iter(shapes))
        for m in (self.a1, self.a2, self.a3):
            if any(len(row) != n for row in m):
                raise ToolkitError("ragged matrix")
        if r > n:
            raise ToolkitError(f"need r <= n, got {r} x {n}")
        for name, m in (("a1", self.a1), ("a2", self.a2), ("a3", self.a3)):
            _check_matrix(m, _FIELD_KINDS, f"{name} cell")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.a1), len(self.a1[0]) if self.a1 else 0

    @classmethod
    def from_rows(
        cls,
        a1: Sequence[Sequence[RingValue]],
        a2: Sequence[Sequence[RingValue]],
        a3: Sequence[Sequence[RingValue]],
    ) -> "RectMatrixTriple":
        freeze = lambda m: tuple(tuple(row) for row in m)
        return cls(freeze(a1), freeze(a2), freeze(a3))


def binet_cauchy_C(triple: RectMatrixTriple) -> Tensor3:
    """r x r x r tensor C[i1,i2,i3] = sum_j A1[i1,j] A2[i2,j] A3[i3,j]."""
    r, n = triple.shape
    entries: dict[tuple[int, int, int], RingValue] = {}
    for i1 in range(r):
        for i2 in range(r):
            for i3 in range(r):
                total: RingValue = 0
                for j in range(n):
                    total = total + triple.a1[i1][j] * triple.a2[i2][j] * triple.a3[i3][j]
                if total:
                    entries[(i1, i2, i3)] = total
    return Tensor3._make((r, r, r), entries)


def check_binet_cauchy_shape(r: int, n: int) -> None:
    """Refuse r x n triples whose subset sum is past a guard, from the shape alone.

    The sum takes one r x r permanent per r-subset of the n columns, so r is
    held to the Ryser guard and the subsets to `BINET_CAUCHY_MAX_SUBSETS`.
    """
    check_ryser_side(r, "r")
    subsets = math.comb(n, r)
    if subsets > BINET_CAUCHY_MAX_SUBSETS:
        raise GuardExceeded(f"{subsets} column subsets exceed the guard")


def binet_cauchy_rhs(triple: RectMatrixTriple) -> RingValue:
    """Sum over r-subsets I of Per(A1_I) * det(A2_I) * det(A3_I)."""
    r, n = triple.shape
    check_binet_cauchy_shape(r, n)
    total: RingValue = 0
    for cols in itertools.combinations(range(n), r):
        sub = lambda m: [[m[i][j] for j in cols] for i in range(r)]
        total = total + permanent2(sub(triple.a1)) * determinant2(sub(triple.a2)) * determinant2(
            sub(triple.a3)
        )
    return total
