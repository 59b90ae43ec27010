"""Triangular configurations: data model, validation, exact matchings and sparse GF(p) cycle spaces.

Every matching problem is an exact-cover problem over a `CoverIndex`, whose
state graph is listed only to name covers and folded for every sum over them.
Every search over a configuration, both tripartition searches included, reads
the places it keeps: its edge places, its vertex places and its
perfect-matching index, which its `triadjacency` tensor shares.

A configuration is a 2-complex whose maximal simplices are triangles or edges.
Edges are first-class opaque ids; vertex endpoints are optional per edge, so
purely combinatorial gadgets need no artificial vertices while vertex-level
constructions keep full incidence data.

Outside input is checked once, at the boundary: the constructor and
`parse_config_doc` read every name, and kas3's own builders hand their
finished maps to `TriangularConfiguration._make`, which trusts them.
"""

from __future__ import annotations

import operator
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from ._util import read_array, read_int, read_name
from .algebra import (
    WEIGHT_ENUM_MAX_DIM,
    Polynomial,
    _gf2_insert,
    gf_p_echelon,
    gf_p_nullspace,
    gf_p_weight_enumerator,
)
from .errors import GuardExceeded, NotAMatching, SchemaError, ToolkitError

KERNEL_ENUM_MAX_CODEWORDS = 1 << WEIGHT_ENUM_MAX_DIM


def _collection(values, field: str, *args):
    """`values`, unless a string, which would pass for its letters; names `field.format(*args)`, built only then."""
    if isinstance(values, str):
        raise SchemaError(f"{field.format(*args)} must be a collection of names, not the string {values!r}")
    return values


class TriangularConfiguration:
    """Immutable triangular configuration.

    `edges` maps edge id -> (u, v) endpoint pair or None; `triangles` maps
    triangle id -> triple of edge ids. Every name (edge and triangle ids,
    edge ends, triangle edges, vertices) follows `_util.read_name`: a string
    as given, an integer as its decimal text, anything else refused with
    `SchemaError` naming the field; so is a string given in place of a
    collection of names. Beyond names and two ends per edge, construction
    never rejects bad data; `validate` reports violations instead, so
    invalid inputs stay inspectable.
    The vertices are a set: the names given plus every edge end.

    The constructor checks and normalises outside input once. kas3's own
    builders and `parse_config_doc`, which read every name themselves, hand
    finished maps to `_make` instead, which stores them as given.

    The sorted id tuples, the edge and vertex places (its one numbering,
    which every search, tensor builder and export reads) and the
    perfect-matching index are computed once, on first use, and kept.
    """

    __slots__ = (
        "_vertices",
        "_edges",
        "_triangles",
        "_edge_ids",
        "_triangle_ids",
        "_edge_places",
        "_vertex_places",
        "_matching_index",
    )

    def __init__(
        self,
        edges: Mapping[str, tuple[str, str] | None] | Iterable[str],
        triangles: Mapping[str, Sequence[str]] | None = None,
        vertices: Iterable[str] = (),
    ):
        if isinstance(edges, Mapping):
            edge_map = {
                read_name(e, "edge id"): None if ends is None
                else tuple(sorted([read_name(x, "edge end") for x in _collection(ends, "edge {!r} ends", e)]))
                for e, ends in edges.items()
            }
        else:
            edge_map = {read_name(e, "edge id"): None for e in _collection(edges, "edges")}
        for e, ends in edge_map.items():
            if ends is not None and len(ends) != 2:
                raise ToolkitError(f"edge {e!r} must have exactly two endpoints")
        tri_map = {
            read_name(t, "triangle id"):
            tuple(sorted([read_name(e, "triangle edge") for e in _collection(tri, "triangle {!r} edges", t)]))
            for t, tri in (triangles or {}).items()
        }
        vertex_set = frozenset([read_name(v, "vertex") for v in _collection(vertices, "vertices")])
        self._store(edge_map, tri_map, vertex_set.union(*filter(None, edge_map.values())))

    @classmethod
    def _make(
        cls,
        edges: dict[str, tuple[str, str] | None],
        triangles: dict[str, tuple[str, ...]],
        vertices: frozenset[str] = frozenset(),
    ) -> "TriangularConfiguration":
        """A configuration holding the maps and the vertex set as given, which it then owns.

        The caller guarantees what `__init__` enforces: `str` names, each
        edge's ends a sorted pair or None, each triangle's edges a sorted
        tuple, and every edge end among `vertices`.
        """
        config = cls.__new__(cls)
        config._store(edges, triangles, vertices)
        return config

    def _store(
        self,
        edges: dict[str, tuple[str, str] | None],
        triangles: dict[str, tuple[str, ...]],
        vertices: frozenset[str],
    ) -> None:
        self._vertices = vertices
        self._edges = edges
        self._triangles = triangles
        self._edge_ids: tuple[str, ...] | None = None
        self._triangle_ids: tuple[str, ...] | None = None
        self._edge_places: _Places | None = None
        self._vertex_places: _Places | None = None
        self._matching_index: CoverIndex | None = None

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[str, ...]:
        if self._edge_ids is None:
            self._edge_ids = tuple(sorted(self._edges))
        return self._edge_ids

    @property
    def triangle_ids(self) -> tuple[str, ...]:
        if self._triangle_ids is None:
            self._triangle_ids = tuple(sorted(self._triangles))
        return self._triangle_ids

    def edge_ends(self, edge: str) -> tuple[str, str] | None:
        return self._edges[edge]

    def has_edge(self, edge: str) -> bool:
        return edge in self._edges

    def has_triangle(self, triangle: str) -> bool:
        return triangle in self._triangles

    def triangle_edges(self, triangle: str) -> tuple[str, ...]:
        return self._triangles[triangle]

    def triangle_vertices(self, triangle: str) -> frozenset[str] | None:
        """Vertex set of a triangle, or None when endpoint data is missing."""
        ends = [self._edges.get(e) for e in self._triangles[triangle]]
        return None if None in ends or len(ends) != 3 else frozenset(ends[0] + ends[1] + ends[2])

    @property
    def has_full_vertex_data(self) -> bool:
        return all(ends is not None for ends in self._edges.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriangularConfiguration):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._triangles == other._triangles
        )

    def __repr__(self) -> str:
        return (
            f"TriangularConfiguration(|V|={len(self._vertices)}, "
            f"|E|={len(self._edges)}, |T|={len(self._triangles)})"
        )

    # -- JSON document form -------------------------------------------------

    def to_doc(self) -> dict:
        edges = []
        for e in self.edge_ids:
            ends = self._edges[e]
            entry: dict = {"id": e}
            if ends is not None:
                entry["ends"] = list(ends)
            edges.append(entry)
        return {
            "vertices": sorted(self._vertices),
            "edges": edges,
            "triangles": [
                {"id": t, "edges": list(self._triangles[t])} for t in self.triangle_ids
            ],
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "TriangularConfiguration":
        config, _, _, _ = parse_config_doc(doc)
        return config


def parse_config_doc(
    doc: Mapping,
) -> tuple[TriangularConfiguration, dict[str, int] | None, dict[str, int] | None, dict[str, int] | None]:
    """Parse the shared JSON document form.

    Returns (config, weights, edge_classes, vertex_classes); the last three are
    None when the corresponding optional key is absent. Every name is read
    once, here, and the configuration is built from the finished maps. A
    name that is a string is taken as it is; any other value goes through
    `read_name`, so a field's label is formatted only for a value that
    needs reading, and the refusal texts are `read_name`'s.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError("configuration document must be an object")
    edge_docs, triangle_docs, vertex_names = (
        read_array(doc.get(key, []), key) for key in ("edges", "triangles", "vertices")
    )
    try:
        edges: dict[str, tuple[str, str] | None] = {}
        for n, entry in enumerate(edge_docs):
            eid = entry["id"]
            if type(eid) is not str:
                eid = read_name(eid, f"edges[{n}] id")
            if eid in edges:
                raise SchemaError(f"duplicate edge id {eid!r}")
            ends = entry.get("ends")
            if ends is not None:
                if not isinstance(ends, (list, tuple)) or len(ends) != 2:
                    raise SchemaError(f"edge {eid!r} ends must be an array of two names")
                u, v = ends
                if type(u) is not str:
                    u = read_name(u, f"edge {eid!r} ends[0]")
                if type(v) is not str:
                    v = read_name(v, f"edge {eid!r} ends[1]")
                ends = (u, v) if u <= v else (v, u)
            edges[eid] = ends
        triangles: dict[str, tuple[str, ...]] = {}
        for n, entry in enumerate(triangle_docs):
            tid = entry["id"]
            if type(tid) is not str:
                tid = read_name(tid, f"triangles[{n}] id")
            if tid in triangles:
                raise SchemaError(f"duplicate triangle id {tid!r}")
            names = entry["edges"]
            if type(names) is not list:
                names = read_array(names, f"triangle {tid!r} edges")
            tri = [e if type(e) is str else read_name(e, f"triangle {tid!r} edges[{a}]") for a, e in enumerate(names)]
            tri.sort()
            triangles[tid] = tuple(tri)
        vertices = frozenset(
            [v if type(v) is str else read_name(v, f"vertices[{n}]") for n, v in enumerate(vertex_names)]
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"bad configuration document: {exc}") from exc
    config = TriangularConfiguration._make(edges, triangles, vertices.union(*filter(None, edges.values())))

    def _int_map(key: str, allowed: tuple[int, ...] | None = None) -> dict[str, int] | None:
        if key not in doc:
            return None
        if not isinstance(doc[key], Mapping):
            raise SchemaError(f"{key} must be an object")
        out = {}
        for k, v in doc[key].items():
            v = read_int(v, f"{key}[{k!r}]")
            if allowed is not None and v not in allowed:
                raise SchemaError(f"{key}[{k!r}] must be 1, 2 or 3")
            out[str(k)] = v
        return out

    classes = (1, 2, 3)
    return config, _int_map("weights"), _int_map("edge_classes", classes), _int_map("vertex_classes", classes)


def build_config_doc(
    config: TriangularConfiguration,
    weights: Mapping[str, int] | None = None,
    edge_classes: Mapping[str, int] | None = None,
    vertex_classes: Mapping[str, int] | None = None,
) -> dict:
    doc = config.to_doc()
    if weights is not None:
        doc["weights"] = {k: operator.index(weights[k]) for k in sorted(weights)}
    if edge_classes is not None:
        doc["edge_classes"] = {k: operator.index(edge_classes[k]) for k in sorted(edge_classes)}
    if vertex_classes is not None:
        doc["vertex_classes"] = {k: operator.index(vertex_classes[k]) for k in sorted(vertex_classes)}
    return doc


# -- validation --------------------------------------------------------------


def validate(config: TriangularConfiguration) -> list[str]:
    """Invariant violations as human-readable strings; empty iff the complex is valid."""
    violations: list[str] = []
    seen_triples: dict[tuple[str, ...], str] = {}
    tri_ids = config.triangle_ids
    for t in tri_ids:
        tri = config.triangle_edges(t)
        if len(set(tri)) != len(tri) or len(tri) != 3:
            violations.append(f"triangle {t!r} has repeated or missing edges {tri}")
            continue
        for e in tri:
            if not config.has_edge(e):
                violations.append(f"triangle {t!r} references dangling edge {e!r}")
        if tri in seen_triples:
            violations.append(
                f"triangles {seen_triples[tri]!r} and {t!r} share the edge triple {tri}"
            )
        else:
            seen_triples[tri] = t
    # two triangles sharing two edges cannot intersect in a single face; only
    # triangles filed under a common pair of edges can share two
    edge_sets = [set(config.triangle_edges(t)) for t in tri_ids]
    by_pair: dict[tuple[str, str], list[int]] = {}
    for i, edges in enumerate(edge_sets):
        for pair in combinations(sorted(edges), 2):
            by_pair.setdefault(pair, []).append(i)
    candidates = {pair for group in by_pair.values() for pair in combinations(group, 2)}
    for i, j in sorted(candidates):
        common = edge_sets[i] & edge_sets[j]
        if len(common) == 2:
            violations.append(
                f"triangles {tri_ids[i]!r} and {tri_ids[j]!r} share two edges {sorted(common)}"
            )
    for e in config.edge_ids:
        ends = config.edge_ends(e)
        if ends is not None and ends[0] == ends[1]:
            violations.append(f"edge {e!r} is a loop on vertex {ends[0]!r}")
    # vertex-level simplicial condition, checked per triangle when data exists
    for t in tri_ids:
        tri = config.triangle_edges(t)
        if len(set(tri)) != 3:
            continue
        pairs = [config.edge_ends(e) for e in tri if config.has_edge(e)]
        if len(pairs) != 3 or any(p is None for p in pairs):
            continue
        shared = []
        ok = True
        for a in range(3):
            for b in range(a + 1, 3):
                common = set(pairs[a]) & set(pairs[b])
                if len(common) != 1:
                    violations.append(
                        f"triangle {t!r}: edges {tri[a]!r}, {tri[b]!r} share "
                        f"{len(common)} vertices (expected 1)"
                    )
                    ok = False
                else:
                    shared.extend(common)
        if ok and len(set(shared)) != 3:
            violations.append(f"triangle {t!r} does not span three distinct vertices")
    return violations


# -- exact covers --------------------------------------------------------------


COVER_GRAPH_MAX_SIZE = 1 << 21
COVER_LIST_MAX = 1 << 19
SUPPORT_MAX_BITS = 1 << 28
# a state graph: per kept state, (covered, arcs), each arc (option, forced options, child position)
_Graph = list[tuple[int, tuple[tuple[int, tuple[int, ...], int], ...]]]


class CoverIndex:
    """One exact-cover problem and its one search, shared by every caller.

    Option o is given as the items it holds. Only the index builds bitmasks:
    `masks[o]` of option o's items and, for the search alone, the options
    holding each item. Past `SUPPORT_MAX_BITS` (2^28) bits, options * items,
    a problem is refused before any mask is built: the one size guard of
    every cover problem.

    The search is Knuth's Algorithm X over `covered`, the items covered so
    far; the options disjoint from it are live, and an item's count is its
    number of live options. Choosing an option closes the state it leads
    to: while some uncovered item has one live option, that option is
    forced and applied in the same step, the lowest such item first, and an
    item with none is a dead end. Only the items sharing an option with
    what was just applied are counted again, since only their counts can
    change; those sets, like the options each option clashes with, are
    built the first time an option is applied. A closed state with an
    uncovered item branches on the item with the fewest live options,
    taking the lowest item index on ties, in ascending option order.

    `_build` is the only search. The first fold, listing, common sum or
    parity span builds its state graph, `graph`, and every later one reads
    it: `fold` sums it, `common_sum` checks that a sum is the same on every
    cover, `covers` walks it and `parity_span` reduces over it. Only
    callers that return or inspect covers list them; every sum over covers,
    weight polynomials included, is a fold. The root and every new state
    that is no dead end, the full cover too, is a frame on the search's
    stack, and a popped frame with arcs, or at the full cover, enters the
    graph: it keeps the branch states and the full cover, plus the root
    when it is forced. Each arc is `(option, forced, child)`: `forced` lists
    the options the closure applied after `option`, in the order it applied
    them (the shared `()` when it forced none), and `child` is the child's
    graph position. Once the graph is built the index drops the search's
    tables and keeps each option once, as its mask.

    `states_visited` counts the states the searches met, every option a
    closure applied included, and `arcs_kept` the arcs they kept; a build
    may not take their sum past `COVER_GRAPH_MAX_SIZE` (2^21). The arcs
    hold the memory, about 110 bytes each. Measured with CPython 3.11 on
    x86-64: `kas3 per3` peaks at 239 MB resident when the all-ones
    10x10x10 tensor is refused at the guard, and at 129 MB answering the
    all-ones 9x9x9 (1,091,090 states and arcs); a certificate refused at
    the guard peaks at 273 MB (all-ones 30x30) and 187 MB (16x16). Past
    the guard the build raises `GuardExceeded` and leaves `graph` None, so
    the next caller builds again and raises again. A listing reads the
    cover count before the first cover, and refuses more than
    `COVER_LIST_MAX` (2^19); every listing in kas3 is a `covers` walk. At
    the bound, `perfect_matchings` of 19 disjoint blocks of two matchings
    (524,288 covers of 38 triangles) takes 1.2 s at a 200 MB peak. The
    count, `count`, is one fold of ones, made at most once per index and
    kept: the listing guard, an unsigned count of a tensor's support
    diagonals and the bijection certificate's matching count all read it.
    """

    __slots__ = ("item_count", "masks", "graph", "states_visited", "arcs_kept", "_count", "_options", "_item_opts")

    def __init__(self, item_count: int, options: Sequence[Sequence[int]]):
        bits = len(options) * item_count
        if bits > SUPPORT_MAX_BITS:
            raise GuardExceeded(f"cover mask guard is {SUPPORT_MAX_BITS} bits (options * items), got {bits}")
        self.item_count = item_count
        self._options = options = list(options)
        self.masks = masks = []
        self._item_opts = item_opts = [0] * item_count
        for oi, items in enumerate(options):
            bit = 1 << oi
            mask = 0
            for i in items:
                mask |= 1 << i
                item_opts[i] |= bit
            masks.append(mask)
        self.graph: _Graph | None = None
        self.states_visited = self.arcs_kept = 0
        self._count: int | None = None

    def _graph(self) -> _Graph:
        """The state graph, built by the first search over this index (see `_build`)."""
        if self.graph is None:
            self.graph = self._build()
            self._options = self._item_opts = None  # the search is done
        return self.graph

    def count(self) -> int:
        """The number of exact covers: a fold of ones, made on first use and kept."""
        if self._count is None:
            self._count = self.fold([1] * len(self.masks))
        return self._count

    def covers(self) -> Iterator[list[int]]:
        """Every exact cover, as option indices in the order they were chosen.

        A depth-first walk of the state graph's arcs: they come in ascending
        option order and lead only to states with a cover below, so covers
        come out in the search's order and no choice is made again. An arc
        adds its option and then its forced options. The walk keeps an
        explicit stack, so its depth is bounded by memory alone.
        """
        graph = self._graph()
        count = self.count()
        if count > COVER_LIST_MAX:
            raise GuardExceeded(f"cover listing guard is {COVER_LIST_MAX} covers, got {count}")
        if graph and not graph[-1][1]:
            yield []  # the root is the full cover
        chosen: list[int] = []
        # per depth: the arcs not yet taken, and the length of `chosen` above them
        stack = [(iter(graph[-1][1]), 0)] if graph else []
        while stack:
            arcs, depth = stack[-1]
            for oi, forced, at in arcs:
                del chosen[depth:]
                chosen.append(oi)
                chosen += forced
                below = graph[at][1]
                if below:
                    stack.append((iter(below), len(chosen)))
                    break
                yield list(chosen)
            else:
                stack.pop()

    def _build(self) -> _Graph:
        """The state graph of the search, memoized on `covered`.

        One entry `(covered, arcs)` per kept state with a cover below it,
        each after every state it branches to, so the root comes last. Arcs
        come in ascending option order and skip children with no cover
        below them; the full cover is the one state with no arcs. When the
        root itself forces options, its entry has one arc, the first of
        them. A problem with no cover has an empty graph. Every state but a
        dead end is a frame on an explicit stack, and each new arc is linked
        once, its forced options and then its memo entry. The memo holds
        each arc's position under the child before and after its closure,
        so a repeated arc costs one lookup: a child's graph position, or ~l
        when the closure forced options, for the link `links[l] = (forced,
        child position)` that every arc reaching the same state before its
        closure shares. Its int values keep the memo out of the garbage
        collector's young generation (a dict of fresh tuples re-enters it on
        every insert). The search adds its work to `states_visited` and `arcs_kept`.
        """
        options, item_opts, masks = self._options, self._item_opts, self.masks
        full = (1 << self.item_count) - 1
        unreachable = len(masks) + 1  # above every item's count
        clash: dict[int, int] = {}
        nears: dict[int, int] = {}
        item_near: list[int] = []  # per item, the items of the options holding it

        def blocked(oi: int) -> int:
            """The options sharing an item with option oi; `nears[oi]` then
            holds the items of those options."""
            opts = clash.get(oi)
            if opts is None:
                if not item_near:  # the first option applied
                    item_near.extend([0] * len(item_opts))
                    for items, mask in zip(options, masks):
                        for i in items:
                            item_near[i] |= mask
                opts = near = 0
                for i in options[oi]:
                    opts |= item_opts[i]
                    near |= item_near[i]
                clash[oi] = opts
                nears[oi] = near
            return opts

        def close(covered: int, live: int, check: int) -> tuple[list[int], int, int, int]:
            """Apply the forced options of a state whose items outside `check`
            all have two or more live options: (forced, covered, live, branch),
            where `branch` holds the live options to branch on, 0 at the full
            cover and at a dead end."""
            forced: list[int] = []
            while True:
                check &= ~covered
                seen = check
                best, best_count, best_low = 0, unreachable, 0
                while check:
                    low = check & -check
                    opts = item_opts[low.bit_length() - 1] & live
                    count = opts.bit_count()
                    if count < best_count:
                        if count <= 1:
                            break
                        best, best_count, best_low = opts, count, low
                    check ^= low
                else:
                    break  # closed: every uncovered item has two or more
                if not opts:
                    return forced, covered, live, 0
                oi = opts.bit_length() - 1
                forced.append(oi)
                covered |= masks[oi]
                live &= ~blocked(oi)
                check |= nears[oi]
            # the branch item among the items this pass did not count; a count
            # of 2 is the least left, so the scan stops at the first
            rest = full & ~(covered | seen)
            if best_count == 2:
                rest &= best_low - 1
            while rest:
                low = rest & -rest
                opts = item_opts[low.bit_length() - 1] & live
                count = opts.bit_count()
                if count < best_count or count == best_count and low < best_low:
                    best, best_count, best_low = opts, count, low
                    if count == 2:
                        break
                rest ^= low
            return forced, covered, live, best

        limit = COVER_GRAPH_MAX_SIZE
        kept = 0
        graph: _Graph = []
        links: list[tuple[tuple[int, ...], int]] = []
        # covered, before or after a closure -> the closed state's graph position,
        # or ~l for `links[l]`; None when no cover is below it (`...` when not visited)
        position: dict[int, int | None] = {}
        # per depth: covered, live, untried options, arcs kept, and the option,
        # the covered set before closure and the forced options that led here
        root_forced, covered, live, branch = close(0, (1 << len(masks)) - 1, full)
        stack: list[list] = [[covered, live, branch, [], None]]
        size = 1 + len(root_forced)  # states visited plus arcs kept
        root = None
        while stack:
            frame = stack[-1]
            covered, live, untried, arcs, link = frame
            if untried:
                low = untried & -untried
                frame[2] = untried ^ low
                oi = low.bit_length() - 1
                pre = covered | masks[oi]
                at = position.get(pre, ...)
                new = at is ...
                if new:
                    forced, child, child_live, nxt = close(pre, live & ~blocked(oi), nears[oi])
                    size += 1 + len(forced)
                    at = None
                    if nxt or child == full:
                        at = position.get(child, ...) if forced else ...
                        if at is ...:
                            stack.append([child, child_live, nxt, [], (oi, pre, forced)])
                            continue
            else:
                stack.pop()
                at = None
                if arcs or covered == full:
                    graph.append((covered, tuple(arcs)))
                    kept += len(arcs)
                    at = len(graph) - 1
                position[covered] = at
                if not stack:
                    root = at
                    break
                oi, pre, forced = link
                arcs = stack[-1][3]
                new = True
            if new:  # link the arc: its forced options, then its memo entry before closure
                if forced and at is not None:
                    links.append((tuple(forced), at))
                    at = -len(links)
                position[pre] = at
            if at is not None:
                arcs.append((oi, *links[~at]) if at < 0 else (oi, (), at))
                size += 1
            if size > limit:
                break
        if root is not None and root_forced:
            graph.append((0, ((root_forced[0], tuple(root_forced[1:]), root),)))
            size += 1
            kept += 1
        if size > limit:
            kept += sum(len(frame[3]) for frame in stack)  # the arcs of states still open
        self.states_visited += size - kept
        self.arcs_kept += kept
        if size > limit:
            raise GuardExceeded(
                f"cover graph guard is {limit} states visited plus arcs kept; the search passed it"
            )
        return graph

    def fold(self, values: Sequence, signs: Sequence[int] | None = None):
        """Sum over the exact covers of the product of the chosen options' values.

        The covers are those of `covers`. With `signs`, choosing option o
        negates its factor when `covered & signs[o]`, the items covered
        before it, has odd popcount. A subsearch depends on `covered`
        alone, so the search's state graph is built once (`_build`): a
        decision diagram of the covers (Nishino, Yasuda, Minato and Nagata,
        "Dancing with Decision Diagrams", AAAI 2017).
        Every fold is one pass over it in its order, which meets each
        child's sum before its parent needs it, reading the values and
        signs it is given. An arc's term multiplies its option's value,
        then each forced option's value in order, with `covered` grown
        option by option, then its child's sum. Arcs come in ascending
        option order, so terms are added in the order the search meets
        them. The empty sum is the integer 0 and the empty product the
        integer 1.
        """
        graph = self._graph()
        masks = self.masks
        sums: list = []
        for covered, arcs in graph:
            total = None
            for oi, forced, at in arcs:
                factor = values[oi]
                if signs is not None and (covered & signs[oi]).bit_count() & 1:
                    factor = -factor
                if signs is None:
                    for f in forced:
                        factor = factor * values[f]
                elif forced:
                    grown = covered | masks[oi]
                    for f in forced:
                        value = values[f]
                        factor = factor * (-value if (grown & signs[f]).bit_count() & 1 else value)
                        grown |= masks[f]
                term = factor * sums[at]
                total = term if total is None else total + term
            sums.append(1 if total is None else total)
        return sums[-1] if sums else 0

    def common_sum(self, values: Sequence, zero, add: Callable):
        """The sum by `add` of the chosen options' values, if every exact cover has the same one.

        Returns None when two covers differ, and when there is none. The
        sum below a state is the same on every cover through it exactly
        when all its arcs give the same sum below, an arc's sum taking its
        option, its forced options and its child's sum below; every
        state of the graph has a cover below it and is reached from the
        root, so one pass over the graph, in `fold`'s order, decides it and
        lists no cover. The full cover's sum below is `zero`.
        """
        graph = self._graph()
        below: list = []
        for _covered, arcs in graph:
            common = zero
            for branch, (oi, forced, at) in enumerate(arcs):
                total = values[oi]
                for f in forced:
                    total = add(total, values[f])
                total = add(total, below[at])
                if not branch:
                    common = total
                elif total != common:
                    return None
            below.append(common)
        return below[-1] if below else None

    def parity_span(self, signs: Sequence[int]) -> list[int]:
        """The reduced GF(2) echelon basis of the covers' rows (see `algebra._gf2_insert`).

        A cover's row has bit 1 + o for each chosen option o and bit 0 for
        its sign parity as `fold` takes it with `signs`. An arc's row is
        that of its option and its forced options. A state's
        reference row is that of the path through its first arc and then
        that child's reference path. The rows of all covers are spanned by
        the root's reference and, at every state, each further arc's row
        XOR the state's reference, so one pass over the graph inserts those
        rows and lists no cover. It stops once the row 1 enters the basis.
        """
        graph = self._graph()
        masks = self.masks
        basis: list[int] = []
        refs: list[int] = []  # per state: the row of its reference path
        for covered, arcs in graph:
            rows = []
            for oi, forced, at in arcs:
                row = 2 << oi | (covered & signs[oi]).bit_count() & 1
                if forced:
                    grown = covered | masks[oi]
                    for f in forced:
                        row ^= 2 << f | (grown & signs[f]).bit_count() & 1
                        grown |= masks[f]
                rows.append(row ^ refs[at])
            for row in rows[1:]:
                _gf2_insert(basis, row ^ rows[0])
                if basis and basis[-1] == 1:
                    return basis
            refs.append(rows[0] if rows else 0)
        _gf2_insert(basis, refs[-1] if refs else 0)  # the root's reference; 0 adds nothing
        return basis

    def polynomial(self, weights: Sequence[int]) -> Polynomial:
        """Sum of x^(total weight) over the exact covers, given one integer weight per option.

        One fold of x^w values over the state graph; no cover is listed. A
        cover holds each item exactly once, so a negative weight is folded
        exactly: option o gets x^(w_o + L * s_o), with s_o its number of
        distinct items and L the least lift that makes every such exponent
        non-negative, and every cover's total rises by L * `item_count`,
        which is taken off the sum. An option that holds no item lies in no
        cover and gets no value. A negative cover total raises `ToolkitError`
        naming the least one.
        """
        lift = 0
        exponents: Sequence[int | None] = weights
        if min(weights, default=0) < 0:
            sizes = [mask.bit_count() for mask in self.masks]
            lift = max(((s - w - 1) // s for w, s in zip(weights, sizes) if w < 0 and s), default=0)  # ceil(-w / s)
            exponents = [w + lift * s if s else None for w, s in zip(weights, sizes)]
        # a polynomial is a value, so options of equal exponent share one monomial
        monomials = {e: Polynomial.monomial(e) for e in set(exponents) if e is not None}
        total = self.fold(list(map(monomials.get, exponents)))
        if isinstance(total, int):  # no cover, or only the empty one
            return Polynomial(total)
        shift = lift * self.item_count
        # the terms ascend, so the first negative exponent met, the one named, is the least total
        return Polynomial({e - shift: c for e, c in total.terms()}) if shift else total


# -- matchings and defects ----------------------------------------------------


# a configuration's places over its edges or its sorted vertices: each one's
# position, and per triangle, in `triangle_ids` order, its members' positions
_Places = tuple[dict[str, int], dict[str, tuple[int, ...]]]


def _places(names: Sequence[str], tri_ids: Sequence[str], members: Mapping[str, Iterable[str]]) -> _Places:
    """Each name's position in `names`, and each triangle's members' positions.

    The first member that is not a name, in `tri_ids` order and then member
    order, is refused as a dangling edge (every edge end is a vertex).
    """
    pos = dict(zip(names, range(len(names))))
    at = pos.__getitem__
    try:
        return pos, {t: tuple(map(at, members[t])) for t in tri_ids}
    except KeyError:
        t, x = next((t, x) for t in tri_ids for x in members[t] if x not in pos)
        raise ToolkitError(f"triangle {t!r} references dangling edge {x!r}") from None


def _edge_places(config: TriangularConfiguration) -> _Places:
    """The configuration's edge places, made on first use and kept: each
    edge's position in `edge_ids`, and each triangle's edges' positions,
    ascending since its edges are sorted."""
    if config._edge_places is None:
        config._edge_places = _places(config.edge_ids, config.triangle_ids, config._triangles)
    return config._edge_places


def _vertex_places(config: TriangularConfiguration) -> _Places:
    """The configuration's vertex places, made on first use and kept: each
    vertex's position in sorted order, and each triangle's vertices'
    positions, ascending; a triangle without vertex data holds none."""
    if config._vertex_places is None:
        tris = {t: sorted(config.triangle_vertices(t) or ()) for t in config.triangle_ids}
        config._vertex_places = _places(sorted(config.vertices), config.triangle_ids, tris)
    return config._vertex_places


def _matching_index(config: TriangularConfiguration) -> CoverIndex:
    """The configuration's perfect-matching cover index, made on first use and kept.

    Its items are the edge positions and its options the triangles' edge
    positions (`_edge_places`). `perfect_matching_polynomial` folds it,
    `perfect_matchings` lists it, and a `tensor3.triadjacency` tensor whose
    axes have equal length folds and lists its support diagonals through it,
    since they are these covers. So one search serves the configuration and
    its tensor, in whichever order they are asked. A mask guard refusal keeps
    no index, and a graph guard refusal leaves the index's graph None, so the
    next caller meets each guard again.
    """
    if config._matching_index is None:
        pos, members = _edge_places(config)
        config._matching_index = CoverIndex(len(pos), list(members.values()))
    return config._matching_index


def _triangle_sets(config: TriangularConfiguration, index: CoverIndex) -> list[tuple[str, ...]]:
    """The index's exact covers, keeping the triangle options (the first len(triangle_ids)), canonically ordered."""
    tri_ids = config.triangle_ids
    ntri = len(tri_ids)
    return sorted(tuple(sorted(tri_ids[oi] for oi in cover if oi < ntri)) for cover in index.covers())


def defect(config: TriangularConfiguration, matching: Iterable[str]) -> frozenset[str]:
    """Edges of the configuration covered by no triangle of the matching."""
    _, members = _edge_places(config)
    covered: set[int] = set()
    for t in matching:
        edges = members.get(t)
        if edges is None:
            raise ToolkitError(f"unknown triangle {t!r}")
        if not covered.isdisjoint(edges):
            raise NotAMatching(f"triangle {t!r} shares an edge with the rest")
        covered.update(edges)
    return frozenset(e for i, e in enumerate(config.edge_ids) if i not in covered)


def enumerate_matchings_with_defect_within(
    config: TriangularConfiguration,
    allowed: Iterable[str],
) -> list[tuple[str, ...]]:
    """All matchings whose defect is contained in `allowed`, canonically ordered.

    Every edge outside `allowed` must be covered; edges inside it may or may
    not be. Perfect matchings are the special case `allowed = ()`. Each
    allowed edge gets a one-edge slack option, so the matchings are exactly
    the triangle parts of the exact covers of all edges. With no allowed
    edge this is the configuration's kept perfect-matching index
    (`_matching_index`).
    """
    pos, members = _edge_places(config)
    slack = set()
    for e in allowed:
        if e not in pos:
            raise ToolkitError(f"unknown edge {e!r}")
        slack.add(pos[e])
    if not slack:
        return _triangle_sets(config, _matching_index(config))
    return _triangle_sets(config, CoverIndex(len(pos), [*members.values(), *[(i,) for i in sorted(slack)]]))


def perfect_matchings(config: TriangularConfiguration) -> list[tuple[str, ...]]:
    return enumerate_matchings_with_defect_within(config, ())


def perfect_matching_polynomial(
    config: TriangularConfiguration,
    weighting: Mapping[str, int] | None = None,
) -> Polynomial:
    """Generating polynomial sum of x^(total weight) over perfect matchings.

    A triangle weighs `weighting[t]`, or 1 when the weighting leaves it out.
    The sum is one fold (`CoverIndex.polynomial`) over the state graph of
    the configuration's kept perfect-matching index (`_matching_index`),
    which a later call, a listing or the configuration's `triadjacency`
    tensor reads again: no matching is listed, and a negative weight is
    refused only when some matching's total is negative.
    """
    _, members = _edge_places(config)  # a dangling edge, then a weight, then the index's guard
    weighting = weighting or {}
    weights = [operator.index(weighting.get(t, 1)) for t in members]  # in `triangle_ids` order
    return _matching_index(config).polynomial(weights)


def enumerate_perfect_strong_matchings(config: TriangularConfiguration) -> list[tuple[str, ...]]:
    """All sets of pairwise vertex-disjoint triangles covering every vertex."""
    _edge_places(config)  # a dangling edge is refused first
    if not config.has_full_vertex_data:
        raise ToolkitError("perfect strong matchings need vertex data on every edge")
    pos, members = _vertex_places(config)
    return _triangle_sets(config, CoverIndex(len(pos), list(members.values())))


# -- tripartitions -------------------------------------------------------------


# number of classes in a 3-bit domain mask (bit c - 1 stands for class c);
# an assigned item has the flag 8 set and counts as size 0
_DOMAIN_SIZE = (0, 1, 1, 2, 1, 2, 2, 3) + (0,) * 8
_ASSIGNED = 8


def _pin_domains(places: _Places, pins: Mapping[str, int] | None) -> list[int]:
    """Per placed item, the classes open to it as a domain mask: its pin's class, or all three."""
    pos, _ = places
    dom = [7] * len(pos)
    for item, cls in (pins or {}).items():
        if item not in pos:
            raise ToolkitError(f"pin on unknown item {item!r}")
        if type(cls) is not int or not 1 <= cls <= 3:
            raise ToolkitError(f"pin {item!r}: class {cls!r} must be the integer 1, 2 or 3")
        dom[pos[item]] = 1 << (cls - 1)
    return dom


def _rainbow_csp(places: _Places, dom: list[int]) -> dict[str, int] | None:
    """Exhaustive 3-coloring of the placed items where each triangle must see all three classes.

    `places` gives the items in position order and each triangle's three
    members' positions; `dom` is each item's starting domain (`_pin_domains`).
    Unit propagation (two assigned members force the third) plus
    smallest-domain-first branching (lowest item position on ties, classes
    in ascending order); deterministic, complete search. A domain is a 3-bit
    mask, flagged with `_ASSIGNED` once the item is set, and the trail holds
    one integer `position << 3 | old domain` per change. The branching item
    comes from a heap of integer keys `domain size * n + position`: a change
    that leaves an item two classes, and every undo, pushes a fresh key (an
    item left one class is set before the next pick), and `pick` drops the
    stale ones, so a step costs the domains it touches and not a scan of
    every item.
    """
    items, members = places
    n = len(items)
    mates: list[list[int]] = [[] for _ in range(n)]  # per item: the other two members of each triangle
    for a, b, c in members.values():
        mates[a] += (b, c)
        mates[b] += (a, c)
        mates[c] += (a, b)

    size = _DOMAIN_SIZE
    # at each pick, one key is current for every unassigned item
    heap = [size[d] * n + i for i, d in enumerate(dom)]
    heapify(heap)
    push = heappush
    trail: list[int] = []

    def assign(cur: int, bit: int) -> bool:
        """Set item cur to the class of `bit` and propagate pairwise-distinctness; False on wipeout."""
        # a queued item is unassigned and its domain holds `bit`: it is queued
        # once, when its domain shrinks to `bit`, and shrinking it again wipes it out
        queue = [cur << 3 | bit]
        while queue:
            entry = queue.pop()
            cur, bit = entry >> 3, entry & 7
            trail.append(cur << 3 | dom[cur])
            dom[cur] = _ASSIGNED | bit
            for other in mates[cur]:
                d = dom[other]
                if d & bit:
                    if d & _ASSIGNED:
                        return False  # already holds this class
                    trail.append(other << 3 | d)
                    d ^= bit
                    dom[other] = d
                    if not d:
                        return False
                    if size[d] == 1:
                        queue.append(other << 3 | d)  # set before the next pick, so it needs no key
                    else:
                        push(heap, size[d] * n + other)
        return True

    def pick() -> int | None:
        if len(heap) > 4 * n + 64:
            # stale keys pile up under backtracking: rebuild from the unassigned items
            heap[:] = [size[d] * n + i for i, d in enumerate(dom) if not d & _ASSIGNED]
            heapify(heap)
        while heap:
            key = heap[0]
            i = key % n
            if size[dom[i]] * n + i == key:  # an assigned item has size 0, so no key matches it
                return i
            heappop(heap)
        return None

    # seed pinned singletons through propagation
    for i in range(n):
        if dom[i] in (1, 2, 4) and not assign(i, dom[i]):
            return None

    item = pick()
    if item is None:
        return {x: (d & 7).bit_length() for x, d in zip(items, dom)}
    # one frame per branching item: (item, untried classes as a mask, trail mark before the first)
    frames = [(item, dom[item], len(trail))]
    while frames:
        item, untried, mark = frames[-1]
        while len(trail) > mark:
            entry = trail.pop()
            i, d = entry >> 3, entry & 7
            dom[i] = d
            push(heap, size[d] * n + i)
        if not untried:
            frames.pop()
            continue
        low = untried & -untried
        frames[-1] = (item, untried ^ low, mark)
        if assign(item, low):
            item = pick()
            if item is None:
                return {x: (d & 7).bit_length() for x, d in zip(items, dom)}
            frames.append((item, dom[item], len(trail)))
    return None


def find_edge_tripartition(
    config: TriangularConfiguration, pins: Mapping[str, int] | None = None
) -> dict[str, int] | None:
    """Total edge 3-classing with every triangle rainbow, or None if impossible."""
    # a triangle's edges are sorted, so a repeated edge is next to its copy
    if any(len(tri) != 3 or tri[0] == tri[1] or tri[1] == tri[2] for tri in config._triangles.values()):
        return None  # no classing makes it rainbow
    places = _edge_places(config)
    return _rainbow_csp(places, _pin_domains(places, pins))


def find_vertex_tripartition(
    config: TriangularConfiguration, pins: Mapping[str, int] | None = None
) -> dict[str, int] | None:
    """Total vertex 3-classing with every triangle rainbow, or None if impossible."""
    places = _vertex_places(config)
    for t, members in places[1].items():
        if len(members) != 3:
            raise ToolkitError(f"triangle {t!r} lacks vertex data")
    return _rainbow_csp(places, _pin_domains(places, pins))


_CLASSES = frozenset((1, 2, 3))


def _check_tripartition(
    kind: str,
    items: Sequence[str],
    triangles: Iterable[tuple[str, Collection[str] | None]],
    classes: Mapping[str, int],
    label: str,
) -> list[str]:
    """Violations of a tripartition: every item classed, every triangle rainbow.

    `triangles` pairs each triangle id with its members, or with None when
    the triangle lacks vertex data; a member that is not an item is
    reported as a dangling `kind`. `label` names the classes in the
    message, which lists them sorted. A class is the int 1, 2 or 3: any
    other value, 1.0 and True too, counts as no class, and each distinct
    class type is read once.
    """
    if not set(map(type, classes.values())) <= {int}:
        classes = {x: c for x, c in classes.items() if type(c) is int}
    get = classes.get
    known = frozenset(items)
    problems = [f"{kind} {x!r} has no class" for x in items if get(x) not in (1, 2, 3)]
    for t, members in triangles:
        if members is None:
            problems.append(f"triangle {t!r} lacks vertex data")
        elif not known.issuperset(members):
            problems += [f"triangle {t!r} references dangling {kind} {x!r}" for x in members if x not in known]
        elif len(members) != 3 or set(map(get, members)) != _CLASSES:
            problems.append(f"triangle {t!r} has {label} {sorted(get(x, 0) for x in members)}")
    return problems


def check_edge_tripartition(
    config: TriangularConfiguration, classes: Mapping[str, int]
) -> list[str]:
    """Violations of the edge-tripartition invariant (total + rainbow)."""
    triangles = ((t, config.triangle_edges(t)) for t in config.triangle_ids)
    return _check_tripartition("edge", config.edge_ids, triangles, classes, "classes")


def check_vertex_tripartition(
    config: TriangularConfiguration, classes: Mapping[str, int]
) -> list[str]:
    """Violations of the vertex-tripartition invariant (total + rainbow)."""
    triangles = ((t, config.triangle_vertices(t)) for t in config.triangle_ids)
    return _check_tripartition("vertex", sorted(config.vertices), triangles, classes, "vertex classes")


# -- cycle space ---------------------------------------------------------------


def _edge_rows(config: TriangularConfiguration) -> Iterator[dict[int, int]]:
    """One sparse row per edge, in sorted order: 1 in the column of each triangle holding it."""
    pos, members = _edge_places(config)
    rows: list[dict[int, int]] = [{} for _ in pos]
    for j, edges in enumerate(members.values()):
        for i in edges:
            rows[i][j] = 1
    yield from rows


def cycle_space_weight_enumerator(config: TriangularConfiguration, p: int) -> Polynomial:
    """Weight enumerator of the GF(p) kernel of the edge-triangle incidence.

    The kernel's dimension is read off the echelon form of the edge rows, so
    its p^dim guard fires before any basis vector is built; the
    `gf_p_nullspace` basis then goes to `gf_p_weight_enumerator` for every
    p. A p above the guard is refused before its primality test, then a
    composite p, then an unknown edge (the rows are read after the test),
    then the kernel's size.
    """
    if p > KERNEL_ENUM_MAX_CODEWORDS:
        raise GuardExceeded(
            f"GF({p}) is beyond the enumeration guard: any nonzero kernel has p codewords or more"
        )
    echelon = gf_p_echelon(_edge_rows(config), p)
    ncols = len(config.triangle_ids)
    dim = ncols - len(echelon)
    if p**dim > KERNEL_ENUM_MAX_CODEWORDS:
        raise GuardExceeded(f"kernel has {p}^{dim} codewords, beyond the enumeration guard")
    return gf_p_weight_enumerator(gf_p_nullspace(echelon, ncols, p), p)
