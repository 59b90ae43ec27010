"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's search paths: matchings are
filtered from full subset enumeration, permanents and determinants come from
the n! definitions, Pfaffian signings from trying every sign pattern, cycle
spaces from trying every triangle weighting, crossings of a realized
complex from exact segment-triangle tests, the matrix-to-tensor
construction's cells from its triangles' vertices, its bijection
certificate from the permutations of its support, the dimer counts of
1 x 2 x n and 2 x 2 x n boxes from their transfer recurrences, and those of
any box with a cross-section of at most 16 cells from a transfer matrix.
"""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable

import pytest

import kas3.core as core
from kas3.algebra import Polynomial
from kas3.core import TriangularConfiguration, perfect_matching_polynomial
from kas3.errors import GuardExceeded
from kas3.gadgets import tripartite_reduction
from kas3.lattice import GRID
from kas3.tensor3 import Tensor3

DENSE_MAX_SIDE = 4
TRANSFER_MAX_LAYER = 16


def brute_force_matchings(config, allowed):
    """All matchings with defect inside `allowed`, by filtering every subset."""
    allowed = set(allowed)
    tri_ids = config.triangle_ids
    assert len(tri_ids) <= 20, "oracle only works at desk scale"
    all_edges = set(config.edge_ids)
    out = []
    for r in range(len(tri_ids) + 1):
        for subset in itertools.combinations(tri_ids, r):
            covered: set[str] = set()
            ok = True
            for t in subset:
                edges = set(config.triangle_edges(t))
                if covered & edges:
                    ok = False
                    break
                covered |= edges
            if ok and (all_edges - covered) <= allowed:
                out.append(tuple(sorted(subset)))
    return sorted(out)


def brute_force_strong_matchings(config):
    tri_ids = config.triangle_ids
    assert len(tri_ids) <= 20
    out = []
    for r in range(len(tri_ids) + 1):
        for subset in itertools.combinations(tri_ids, r):
            covered: set[str] = set()
            ok = True
            for t in subset:
                verts = config.triangle_vertices(t)
                assert verts is not None
                if covered & verts:
                    ok = False
                    break
                covered |= verts
            if ok and covered == config.vertices:
                out.append(tuple(sorted(subset)))
    return sorted(out)


def permanent2_bruteforce(matrix):
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        product = 1
        for i in range(n):
            product *= matrix[i][perm[i]]
        total += product
    return total


def permutation_parity(perm):
    """+1 for even, -1 for odd, by inversion counting."""
    inversions = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inversions += 1
    return -1 if inversions & 1 else 1


def leibniz_terms(matrix):
    """(sign, permutation) of every nonzero term of the Leibniz expansion."""
    n = len(matrix)
    return [
        (permutation_parity(perm), perm)
        for perm in itertools.permutations(range(n))
        if all(matrix[i][perm[i]] for i in range(n))
    ]


def determinant2_leibniz(matrix, terms=None):
    """Leibniz determinant; `terms` may give the nonzero terms of a matrix with the same support."""
    terms = leibniz_terms(matrix) if terms is None else terms
    return sum(sign * math.prod(matrix[i][p] for i, p in enumerate(perm)) for sign, perm in terms)


def permanent3_dense(tensor):
    """Direct loop over S_n x S_n, guarded to n <= 4."""
    n = tensor.cube_side
    if n > DENSE_MAX_SIDE:
        raise GuardExceeded(f"dense oracle limited to side {DENSE_MAX_SIDE}, got {n}")
    total = 0
    for s1 in itertools.permutations(range(n)):
        for s2 in itertools.permutations(range(n)):
            product = 1
            for i in range(n):
                product = product * tensor[(i, s1[i], s2[i])]
                if not product:
                    break
            total = total + product
    return total


def determinant3_dense(tensor):
    n = tensor.cube_side
    if n > DENSE_MAX_SIDE:
        raise GuardExceeded(f"dense oracle limited to side {DENSE_MAX_SIDE}, got {n}")
    total = 0
    for s1 in itertools.permutations(range(n)):
        sign1 = permutation_parity(s1)
        for s2 in itertools.permutations(range(n)):
            product = 1
            for i in range(n):
                product = product * tensor[(i, s1[i], s2[i])]
                if not product:
                    break
            sign = sign1 * permutation_parity(s2)
            total = total + (product if sign > 0 else -product)
    return total


def support_diagonals_by_rows(tensor):
    """Cells of every support diagonal, in row order, by a plain search over the
    rows 0..n-1 of the zero-padded cube (no side guard, no cover index)."""
    n = tensor.cube_side
    by_row = [[] for _ in range(n)]
    for (i, j, k), value in sorted(tensor.entries.items()):
        if value:
            by_row[i].append((j, k))
    out = []
    stack = [(0, 0, 0, ())]  # row, bitmasks of the used j and k, cells so far
    while stack:
        i, used_j, used_k, cells = stack.pop()
        if i == n:
            out.append(list(cells))
            continue
        for j, k in by_row[i]:
            if not (used_j >> j & 1 or used_k >> k & 1):
                stack.append((i + 1, used_j | 1 << j, used_k | 1 << k, cells + ((i, j, k),)))
    return sorted(out)


def mask_items(masks: list[int]) -> list[tuple[int, ...]]:
    """Cover options given as item bitmasks, restated as the ascending items each holds."""
    return [tuple(i for i in range(mask.bit_length()) if mask >> i & 1) for mask in masks]


def counting_index(item_count: int, options: list[tuple[int, ...]]) -> tuple[core.CoverIndex, Callable[[], int]]:
    """A fresh `CoverIndex` and a reading of the work its searches have done so
    far, the states visited plus the arcs kept, which every build raises."""
    index = core.CoverIndex(item_count, options)
    return index, lambda: index.states_visited + index.arcs_kept


def cover_graph_size(item_count: int, options: list[tuple[int, ...]]) -> int:
    """States visited plus arcs kept by a `CoverIndex` build, as the index
    counts them: the size its guard is checked against (a measure, not an oracle)."""
    index, work = counting_index(item_count, options)
    index.fold([1] * len(options))
    assert index.arcs_kept == sum(len(arcs) for _, arcs in index.graph)  # the arcs counted are the arcs kept
    return work()


def path_matching_sum(item_count: int, values: list) -> int:
    """Sum over the perfect matchings of the path 0 - 1 - ... - (item_count - 1)
    of the product of their edges' values, edge i joining items i and i + 1,
    by the recurrence over the path's prefixes (the last item pairs with the
    one before it): no search, and no recursion."""
    sums = [1, 0]  # prefixes of 0 and 1 items
    for k in range(2, item_count + 1):
        sums.append(values[k - 2] * sums[k - 2])
    return sums[item_count] if item_count else 1


def dimers_1x2xn(n: int) -> int:
    """Perfect matchings of the 1 x 2 x n box, a ladder of n rungs: the Fibonacci
    number F(n + 1), since the last rung is either one dimer, or it and the rung
    before it are covered by two dimers along the ladder."""
    before, count = 0, 1  # F(0), F(1)
    for _ in range(n):
        before, count = count, before + count
    return count


def dimers_2x2xn(n: int) -> int:
    """Perfect matchings of the 2 x 2 x n box, by the recurrence
    a(n) = 3a(n - 1) + 3a(n - 2) - a(n - 3) from a(0), a(1), a(2) = 1, 2, 9."""
    counts = [1, 2, 9]
    while len(counts) <= n:
        counts.append(3 * counts[-1] + 3 * counts[-2] - counts[-3])
    return counts[n]


def dimers_by_transfer(a: int, b: int, c: int) -> int:
    """Perfect matchings of the a x b x c box, by a broken-profile transfer
    matrix (Lieb, J. Math. Phys. 8, 1967): no search, and no kas3 code.

    A layer is a cross-section across the box's two smallest sides, and the
    layers are filled in turn, one cell at a time. The profile has one bit
    per cell of a layer: for a cell not yet reached, whether a dimer already
    covers it; for a cell passed, whether a dimer going up from it covers
    the same cell of the next layer. A cell no dimer covers yet is covered
    by one going up, or by one along its row or its column to the next
    cell, when that cell is free. A layer of more than `TRANSFER_MAX_LAYER`
    cells is refused before any profile is made.
    """
    rows, cols, depth = sorted((a, b, c))
    cells = rows * cols
    if cells > TRANSFER_MAX_LAYER:
        raise GuardExceeded(f"transfer oracle limited to {TRANSFER_MAX_LAYER} cells a layer, got {rows} x {cols}")
    counts = {0: 1}
    for z in range(depth):
        for p in range(cells):
            bit, right, below = 1 << p, 2 << p, 1 << (p + cols)
            step: dict[int, int] = {}
            for profile, count in counts.items():
                if profile & bit:
                    moves = [profile ^ bit]  # covered already; the bit turns to the next layer's cell
                else:
                    moves = [profile | bit] if z + 1 < depth else []
                    if (p + 1) % cols and not profile & right:
                        moves.append(profile | right)
                    if p + cols < cells and not profile & below:
                        moves.append(profile | below)
                for move in moves:
                    step[move] = step.get(move, 0) + count
            counts = step
    return counts.get(0, 0)


@contextmanager
def traced_peak():
    """Yield a list that holds, once the block ends (raising or not), the peak
    bytes Python allocated inside it, as `tracemalloc` counts them."""
    peak: list[int] = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def signed_biadjacency(graph, signing):
    """The square biadjacency of `graph` (zero-padded to the larger side) with
    each edge's sign from `signing`, +1 where it has none."""
    side = max(len(graph.left), len(graph.right))
    matrix = [[0] * side for _ in range(side)]
    lpos = {u: i for i, u in enumerate(graph.left)}
    rpos = {v: j for j, v in enumerate(graph.right)}
    for e in graph.edges:
        matrix[lpos[e[0]]][rpos[e[1]]] = signing.get(e, 1)
    return matrix


def pfaffian_signing_exists(graph):
    """Whether some +-1 edge signing makes det equal the permanent, by trying signs.

    Flipping every edge at one vertex negates the determinant, so a spanning
    forest can be pinned to +1; every sign pattern on the other edges is
    tried, and |det| == per is enough, since flipping one row fixes the sign.
    """
    base = signed_biadjacency(graph, {})
    terms = leibniz_terms(base)  # signs keep the support
    target = permanent2_bruteforce(base)
    if target == 0:
        return True
    root: dict = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    free = []
    for u, v in sorted(graph.edges):
        a, b = find(("L", u)), find(("R", v))
        if a == b:
            free.append((u, v))
        else:
            root[a] = b
    for pattern in range(1 << len(free)):
        minus = {e: -1 for bit, e in enumerate(free) if pattern >> bit & 1}
        if abs(determinant2_leibniz(signed_biadjacency(graph, minus), terms)) == target:
            return True
    return False


def edge_values(tc):
    """The value of each edge triangle of a `build_T` construction, read from
    `tc.matrix` by edge index; every other triangle holds 1."""
    return {f"tri:edge[{ei}]": tc.matrix[i][j] for ei, (i, j) in enumerate(tc.edge_list)}


def triangle_cell(tc, t):
    """The cell of triangle `t`: its vertices' positions in `tc.w0`, `tc.w1`
    and `tc.w2`, one vertex on each axis."""
    verts = tc.config.triangle_vertices(t)
    on_axis = [[i for i, v in enumerate(axis) if v in verts] for axis in (tc.w0, tc.w1, tc.w2)]
    assert all(len(hits) == 1 for hits in on_axis), (t, verts)
    return tuple(hits[0] for hits in on_axis)


def construction_tensor(tc):
    """The adjacency tensor of a `build_T` construction, read off its triangles.

    Each triangle's cell is `triangle_cell`, and holds its `edge_values`
    value. A construction has four triangles, so four distinct cells, per
    support edge.
    """
    values = edge_values(tc)
    entries = {}
    for t in tc.config.triangle_ids:
        cell = triangle_cell(tc, t)
        assert cell not in entries, cell
        entries[cell] = values.get(t, 1)
    assert len(entries) == 4 * len(tc.edge_list)
    return Tensor3((tc.m, tc.m, tc.m), entries)


def with_cell_values(tc, values):
    """The construction with the cell of each triangle in `values` set to its value."""
    from dataclasses import replace

    entries = dict(tc.tensor.entries)
    entries.update({triangle_cell(tc, t): v for t, v in values.items()})
    return replace(tc, tensor=Tensor3(tc.tensor.dims, entries))


def bijection_report_by_listing(tc):
    """`(passed, graph_matchings, strong_matchings, detail)` of the bijection
    certificate of a `build_T` construction whose configuration is its own,
    by listing.

    The support's matchings come from the permutations of range(n) whose
    pairs are all support edges, and each image by triangle name: for a
    chosen edge ei = (i, j), tri:edge[ei], tri:left[i,ei] and
    tri:right[j,ei], and tri:gadget[ei] for an edge left out. An image
    must be present, pairwise vertex-disjoint and cover every vertex, and
    weigh, by the tensor's values at its triangles' `triangle_cell`s, what
    its matching weighs in the matrix. The strong matchings are counted by
    `support_diagonals_by_rows`. No cover index is used.
    """
    config, n, m = tc.config, tc.n, tc.m
    axes = tc.w0 + tc.w1 + tc.w2
    cells = sorted(triangle_cell(tc, t) for t in config.triangle_ids)
    problems = []
    if not (config.vertices == set(axes) and tc.tensor.dims == (m, m, m) and cells == sorted(tc.tensor.entries)):
        problems.append("the tensor's cells are not the configuration's triangles")
    strong = len(support_diagonals_by_rows(tc.tensor))
    edge_index = {edge: ei for ei, edge in enumerate(tc.edge_list)}
    matchings = [p for p in itertools.permutations(range(n)) if all((i, p[i]) in edge_index for i in range(n))]
    all_strong = True
    broken = []
    for perm in matchings:
        chosen = {edge_index[(i, perm[i])] for i in range(n)}
        image = []
        for ei, (i, j) in enumerate(tc.edge_list):
            image += [f"tri:edge[{ei}]", f"tri:left[{i},{ei}]", f"tri:right[{j},{ei}]"] if ei in chosen \
                else [f"tri:gadget[{ei}]"]
        covered = [v for t in image if config.has_triangle(t) for v in config.triangle_vertices(t)]
        if not all(map(config.has_triangle, image)) or len(covered) != len(set(covered)) \
                or set(covered) != config.vertices:
            all_strong = False
        weight_graph = math.prod(tc.matrix[i][perm[i]] for i in range(n))
        weight_config = math.prod(tc.tensor.entries.get(triangle_cell(tc, t), 0) for t in image)
        if weight_graph != weight_config:
            broken.append(tuple(sorted((f"v(1,{i})", f"v(2,{perm[i]})") for i in range(n))))
    if len(matchings) != strong or not all_strong:
        problems.append(f"image set differs from the {strong} enumerated strong matchings")
    if broken:
        problems.append(f"weights disagree on {min(broken)}")
    return not problems, len(matchings), strong, "; ".join(problems)


def _minus(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _cross(u, w):
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def _dot(u, w):
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _volume(a, b, c, d):
    """Six times the signed volume of the tetrahedron a, b, c, d."""
    return _dot(_cross(_minus(b, a), _minus(c, a)), _minus(d, a))


def _sign(x):
    return (x > 0) - (x < 0)


def _segment_meets_triangle(u, v, tri, at_u, at_v):
    """Whether the closed segment uv meets the closed triangle `tri` outside
    the face they share: the endpoint u when `at_u` (u is a vertex of the
    triangle), v when `at_v`, nothing when neither. Exact integer and
    rational arithmetic; the triangle is not degenerate.

    A segment off the triangle's plane meets it in at most one point, found
    by orientation tests. A coplanar segment is clipped against the
    triangle's three half-planes in the coordinate plane that keeps the
    triangle's area, and meets it in the interval of parameters left.
    """
    a, b, c = tri
    normal = _cross(_minus(b, a), _minus(c, a))
    du, dv = _sign(_dot(normal, _minus(u, a))), _sign(_dot(normal, _minus(v, a)))
    if du * dv > 0:
        return False
    if du and dv:  # the segment crosses the plane at an inner point, no vertex of the triangle
        signs = {_sign(_volume(u, v, p, q)) for p, q in ((a, b), (b, c), (c, a))}
        return not {1, -1} <= signs
    # drop the axis along which the normal is longest: the projection keeps the triangle's area
    k = max(range(3), key=lambda axis: abs(normal[axis]))
    flat = lambda p: tuple(x for axis, x in enumerate(p) if axis != k)
    fa, fb, fc, fu, fv = map(flat, (a, b, c, u, v))
    area = _sign((fb[0] - fa[0]) * (fc[1] - fa[1]) - (fb[1] - fa[1]) * (fc[0] - fa[0]))
    step = (fv[0] - fu[0], fv[1] - fu[1]) if not du and not dv else (0, 0)
    if du:  # only v lies in the plane: test the point v alone
        fu, at_u, at_v = fv, at_v, False
    lo, hi = Fraction(0), Fraction(0) if step == (0, 0) else Fraction(1)
    for p, q in ((fa, fb), (fb, fc), (fc, fa)):
        edge = (q[0] - p[0], q[1] - p[1])
        # inside this half-plane where alpha + beta t >= 0
        alpha = area * (edge[0] * (fu[1] - p[1]) - edge[1] * (fu[0] - p[0]))
        beta = area * (edge[0] * step[1] - edge[1] * step[0])
        if beta > 0:
            lo = max(lo, Fraction(-alpha, beta))
        elif beta < 0:
            hi = min(hi, Fraction(-alpha, beta))
        elif alpha < 0:
            return False
        if lo > hi:
            return False
    return not (at_u and hi == 0 or at_v and lo == 1)


def _box(points):
    """The low and high corners of the bounding box of `points`."""
    return [min(axis) for axis in zip(*points)], [max(axis) for axis in zip(*points)]


def _cells(low, high):
    """The cells of one lattice unit, `GRID`, that the box from `low` to `high` meets."""
    return itertools.product(*(range(x // GRID, y // GRID + 1) for x, y in zip(low, high)))


def embedding_crossings(emb):
    """Every (edge, triangle) pair of a realization, sorted, whose closed
    segment and closed triangle meet outside the vertices they share.

    With distinct points and no degenerate triangle (`check_embedding`), the
    complex is embedded iff there is no such pair: two triangles that meet
    outside their common face meet there at a point of an edge of one of
    them, and so does a vertex or an edge that meets a simplex it is not a
    face of. The triangles' vertices are read from their edges' ends, and
    the candidate pairs from bounding boxes bucketed by `_cells`.
    """
    config, coords = emb.construction.config, emb.coordinates
    triangles = []
    for t in config.triangle_ids:
        verts = sorted({v for e in config.triangle_edges(t) for v in config.edge_ends(e)})
        assert len(verts) == 3, t
        points = [coords[v] for v in verts]
        triangles.append((t, set(verts), points, *_box(points)))
    cells = {}
    for n, triangle in enumerate(triangles):
        for cell in _cells(*triangle[3:]):
            cells.setdefault(cell, []).append(n)
    crossings = []
    for e in config.edge_ids:
        ends = config.edge_ends(e)
        u, v = coords[ends[0]], coords[ends[1]]
        low, high = _box((u, v))
        for n in sorted({n for cell in _cells(low, high) for n in cells.get(cell, ())}):
            t, verts, points, t_low, t_high = triangles[n]
            at_u, at_v = ends[0] in verts, ends[1] in verts
            apart = any(h < l for h, l in zip(high, t_low)) or any(h < l for h, l in zip(t_high, low))
            if not (at_u and at_v or apart) and _segment_meets_triangle(u, v, points, at_u, at_v):
                crossings.append((e, t))
    return crossings


def brute_force_kernel_enumerator(config, p):
    """GF(p) cycle-space enumerator, by trying all p^T triangle weightings.

    A weighting is kept when the weights of the triangles holding each edge
    sum to 0 mod p; its weight is its number of nonzero triangles.
    """
    tri_ids = config.triangle_ids
    assert p ** len(tri_ids) <= 4096, "oracle only works at desk scale"
    holders = [[j for j, t in enumerate(tri_ids) if e in config.triangle_edges(t)] for e in config.edge_ids]
    counts: dict[int, int] = {}
    for weighting in itertools.product(range(p), repeat=len(tri_ids)):
        if all(sum(weighting[j] for j in js) % p == 0 for js in holders):
            weight = sum(1 for v in weighting if v)
            counts[weight] = counts.get(weight, 0) + 1
    return Polynomial(counts)


def tetrahedron_boundary() -> TriangularConfiguration:
    """All four faces of a tetrahedron on vertices 1..4."""
    edges = {
        f"e{a}{b}": (str(a), str(b))
        for a, b in itertools.combinations(range(1, 5), 2)
    }
    triangles = {
        f"f{a}{b}{c}": (f"e{a}{b}", f"e{a}{c}", f"e{b}{c}")
        for a, b, c in itertools.combinations(range(1, 5), 3)
    }
    return TriangularConfiguration(edges, triangles)


def octahedron_boundary() -> TriangularConfiguration:
    """The eight faces of an octahedron on the vertices x0, x1, y0, y1, z0 and z1.

    Classing each edge by the axis it misses, and each vertex by its axis,
    makes every face rainbow. Its two perfect matchings are the faces of
    either checkerboard colour, and its four perfect strong matchings the
    pairs of opposite faces.
    """
    faces = list(itertools.product(("x0", "x1"), ("y0", "y1"), ("z0", "z1")))
    edges = {a + b: (a, b) for face in faces for a, b in itertools.combinations(face, 2)}
    triangles = {"".join(face): [a + b for a, b in itertools.combinations(face, 2)] for face in faces}
    return TriangularConfiguration(edges, triangles)


def places_made(monkeypatch) -> list[list[str]]:
    """A list that grows by the names of each set of places `core` makes from now on."""
    made: list[list[str]] = []
    places = core._places

    def counted(names, *rest):
        made.append(list(names))
        return places(names, *rest)

    monkeypatch.setattr(core, "_places", counted)
    return made


def disjoint_union(configs) -> TriangularConfiguration:
    """The configurations side by side, copy i's edges, triangles and vertices named `i:x`."""
    edges, triangles, vertices = {}, {}, []
    for i, config in enumerate(configs):
        for e in config.edge_ids:
            ends = config.edge_ends(e)
            edges[f"{i}:{e}"] = None if ends is None else tuple(f"{i}:{v}" for v in ends)
        for t in config.triangle_ids:
            triangles[f"{i}:{t}"] = [f"{i}:{e}" for e in config.triangle_edges(t)]
        vertices += [f"{i}:{v}" for v in config.vertices]
    return TriangularConfiguration(edges, triangles, vertices)


def random_config(rng: random.Random, max_triangles: int = 6) -> TriangularConfiguration:
    """Valid random configuration, biased toward ones with perfect matchings.

    Mixes three families: two interleaved exact covers on nine edges (two
    perfect matchings), disjoint base triangles plus noise (at least one),
    and fully uniform triangles (usually none).
    """
    style = rng.random()
    triangles: dict[str, tuple[str, str, str]] = {}
    if style < 0.25:
        names = [f"e{i}" for i in range(9)]
        rng.shuffle(names)
        for b in range(3):
            triangles[f"t{b}"] = tuple(sorted(names[3 * b : 3 * b + 3]))  # type: ignore[assignment]
        for i in range(3):
            triangles[f"t{3 + i}"] = tuple(sorted([names[i], names[3 + i], names[6 + i]]))  # type: ignore[assignment]
        for t in rng.sample(sorted(triangles), rng.randint(0, 2)):
            del triangles[t]
        return TriangularConfiguration(names, triangles)
    if style < 0.6:
        k = rng.randint(1, 2)
        edges = [f"e{i}" for i in range(3 * k + rng.randint(0, 3))]
        for b in range(k):
            triangles[f"t{b}"] = (f"e{3 * b}", f"e{3 * b + 1}", f"e{3 * b + 2}")
    else:
        edges = [f"e{i}" for i in range(rng.randint(3, 10))]
    target = rng.randint(len(triangles), max_triangles)
    attempts = 0
    while len(triangles) < target and attempts < 60:
        attempts += 1
        tri = tuple(sorted(rng.sample(edges, 3)))
        if tri in triangles.values():
            continue
        if any(len(set(tri) & set(prev)) >= 2 for prev in triangles.values()):
            continue
        triangles[f"t{len(triangles)}"] = tri  # type: ignore[assignment]
    return TriangularConfiguration(edges, triangles)


@pytest.fixture
def tetrahedron():
    return tetrahedron_boundary()


@pytest.fixture(scope="session")
def reduction_sweep():
    """Fifty random configurations with their reductions and both matching
    polynomials: the acceptance sweep, shared by every test that checks it."""
    rng = random.Random(20240817)
    sweep = []
    for _ in range(50):
        config = random_config(rng)
        weights = {t: rng.randint(0, 5) for t in config.triangle_ids}
        result = tripartite_reduction(config, weights)
        source_poly = perfect_matching_polynomial(config, weights)
        reduced_poly = perfect_matching_polynomial(result.config, result.weighting)
        sweep.append((config, weights, result, source_poly, reduced_poly))
    return sweep
