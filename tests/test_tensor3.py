"""3-matrix permanents/determinants, builders, signings and Binet-Cauchy."""

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

import kas3.core as core
from kas3.algebra import BinaryCode, Polynomial
from kas3.core import (
    TriangularConfiguration,
    cycle_space_weight_enumerator,
    defect,
    enumerate_matchings_with_defect_within,
    find_edge_tripartition,
    perfect_matching_polynomial,
    perfect_matchings,
)
from kas3.errors import GuardExceeded, SchemaError, ToolkitError
from kas3.gadgets import make_matching_triangular_triangle, make_tunnel, tripartite_reduction
from kas3.lattice import cubic_lattice, dimer_polynomial
from kas3.kasteleyn_construct import build_T, certify_trivial_signing
from kas3.tensor3 import (
    BipartiteGraph,
    RectMatrixTriple,
    Tensor3,
    apply_signing,
    binet_cauchy_C,
    binet_cauchy_rhs,
    check_binet_cauchy_shape,
    determinant2,
    determinant3,
    diagonal_sign,
    encode_ring_value,
    find_pfaffian_signing,
    kasteleyn_sign_via_k1,
    permanent2,
    permanent3,
    projection_graphs,
    support_diagonals,
    triadjacency,
    vertex_adjacency,
)
import kas3.tensor3 as tensor3
from conftest import (
    cover_graph_size,
    determinant2_leibniz,
    determinant3_dense,
    octahedron_boundary,
    permanent2_bruteforce,
    permanent3_dense,
    permutation_parity,
    pfaffian_signing_exists,
    places_made,
    signed_biadjacency,
    support_diagonals_by_rows,
    traced_peak,
)


def random_bipartite_graph(rng: random.Random) -> BipartiteGraph:
    """Sides 0-6 (mostly equal), at most 16 edges, often around a perfect matching."""
    nl = rng.randint(0, 6)
    nr = nl if rng.random() < 0.9 else rng.randint(0, 6)
    cells = [(i, j) for i in range(nl) for j in range(nr)]
    edges = set()
    if nl == nr and rng.random() < 0.7:
        perm = rng.sample(range(nr), nr)
        edges.update(enumerate(perm))
    edges.update(rng.sample(cells, rng.randint(0, min(16, len(cells)))))
    while len(edges) > 16:
        edges.discard(min(edges))
    return BipartiteGraph(tuple(range(nl)), tuple(range(nr)), frozenset(edges))


def circulant(n: int) -> BipartiteGraph:
    """The three-diagonal circulant: i is adjacent to i, i + 1 and i + 2 mod n."""
    return BipartiteGraph(tuple(range(n)), tuple(range(n)), frozenset((i, (i + d) % n) for i in range(n) for d in range(3)))


def random_tensor(rng: random.Random, n: int, density: float = 0.5, lo=-3, hi=3) -> Tensor3:
    entries = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rng.random() < density:
                    v = rng.randint(lo, hi)
                    if v:
                        entries[(i, j, k)] = v
    return Tensor3((n, n, n), entries)


def _searches(t: Tensor3, order: int):
    """per3, det3, the trivial-signing certificate and the sorted support
    diagonals of `t`, computed in one of four orders."""
    tc = replace(build_T([[1]]), tensor=t)
    calls = [
        lambda: permanent3(t),
        lambda: determinant3(t),
        lambda: certify_trivial_signing(tc),
        lambda: sorted(sorted(cells) for cells in support_diagonals(t)),
    ]
    results = [None] * 4
    for step in range(4):
        at = (step + order) % 4 if order % 2 else (order - step) % 4
        results[at] = calls[at]()
    return results


def _dense_searches(t: Tensor3):
    """The same four results from the dense loops over S_n x S_n."""
    n = t.cube_side
    diagonals = []
    for s1 in itertools.permutations(range(n)):
        for s2 in itertools.permutations(range(n)):
            cells = [(i, s1[i], s2[i]) for i in range(n)]
            if all(c in t.entries for c in cells):
                diagonals.append(cells)
    ones = Tensor3(t.dims, {c: 1 for c in t.entries})
    pairs = permanent3_dense(ones)
    return permanent3_dense(t), determinant3_dense(t), pairs, determinant3_dense(ones) == pairs, sorted(diagonals)


def changed_searches(rng: random.Random) -> list:
    """Run the four searches on chains of tensors, each one change from the last.

    Each round builds a new tensor with one value changed, one cell removed
    or one cell added, and every result must equal that of another fresh
    tensor with the same entries and the dense oracle. Returns the results,
    for comparing runs.
    """
    out = []
    for trial in range(10):
        n = rng.randint(2, 4)
        t = random_tensor(rng, n, density=0.7)
        for change in ("value", "remove", "add", "value"):
            got = _searches(t, trial + len(out))
            assert got == _searches(Tensor3(t.dims, t.entries), 0)
            per, det, pairs, passed, diagonals = _dense_searches(t)
            assert got[:2] == [per, det]
            assert (got[2].contributing_pairs, got[2].passed) == (pairs, passed)
            assert got[3] == diagonals
            out.append(got)
            entries = dict(t.entries)
            cells = sorted(entries)
            if change == "value" and cells:
                entries[rng.choice(cells)] = rng.choice([-2, 2, 3, Fraction(1, 2)])
            elif change == "remove" and cells:
                del entries[rng.choice(cells)]
            else:
                empty = [
                    (i, j, k)
                    for i in range(n) for j in range(n) for k in range(n)
                    if (i, j, k) not in entries
                ]
                if empty:
                    entries[rng.choice(empty)] = rng.choice([-1, 1, 2])
            t = Tensor3(t.dims, entries)
    return out


class TestPermanentDeterminant:
    def test_one_by_one(self):
        t = Tensor3((1, 1, 1), {(0, 0, 0): 7})
        assert permanent3(t) == 7
        assert determinant3(t) == 7

    def test_all_ones_two(self):
        t = Tensor3((2, 2, 2), {(i, j, k): 1 for i in range(2) for j in range(2) for k in range(2)})
        assert permanent3(t) == 4
        assert determinant3(t) == 0
        assert permanent3_dense(t) == 4
        assert determinant3_dense(t) == 0

    def test_diagonal(self):
        t = Tensor3((3, 3, 3), {(i, i, i): v for i, v in enumerate([2, 3, 5])})
        assert permanent3(t) == 30
        assert determinant3(t) == 30

    def test_empty_row_gives_zero(self):
        t = Tensor3((2, 2, 2), {(0, 0, 0): 5})
        assert permanent3(t) == 0

    def test_sparse_and_dense_agree(self):
        rng = random.Random(31)
        tensors = [random_tensor(rng, rng.randint(1, 4)) for _ in range(40)]
        # non-cubic dims: the missing slices of the padded cube are zero
        for _ in range(20):
            dims = tuple(rng.randint(1, 4) for _ in range(3))
            cube = random_tensor(rng, max(dims), density=0.7)
            inside = {c: v for c, v in cube.entries.items() if all(x < d for x, d in zip(c, dims))}
            tensors.append(Tensor3(dims, inside))
        # one axis-1 or axis-2 slice thinned to one or two cells, so the
        # search places rows out of order; the determinant's sign must hold
        for axis in (1, 2):
            for _ in range(15):
                n = rng.randint(2, 4)
                full = {
                    (i, j, k): rng.choice([-3, -2, -1, 1, 2, 3])
                    for i in range(n) for j in range(n) for k in range(n)
                }
                x = rng.randrange(n)
                keep = set(rng.sample([c for c in full if c[axis] == x], rng.randint(1, 2)))
                tensors.append(
                    Tensor3((n, n, n), {c: v for c, v in full.items() if c[axis] != x or c in keep})
                )
        for t in tensors:
            assert permanent3(t) == permanent3_dense(t)
            assert determinant3(t) == determinant3_dense(t)

    def test_threads_do_not_change_value(self):
        rng = random.Random(32)
        for _ in range(10):
            t = random_tensor(rng, 4)
            assert permanent3(t, threads=3) == permanent3(t)
            assert determinant3(t, threads=3) == determinant3(t)

    def test_polynomial_entries(self):
        x = Polynomial.monomial(1)
        t = Tensor3((2, 2, 2), {(0, 0, 0): x, (1, 1, 1): x, (0, 1, 1): x, (1, 0, 0): x})
        # two diagonals: (0,0,0)(1,1,1) and (0,1,1)(1,0,0)
        assert permanent3(t) == Polynomial({2: 2})
        assert permanent3(t) == permanent3_dense(t)
        assert determinant3(t) == determinant3_dense(t)

    def test_relabeling_invariance(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(2, 4)
            t = random_tensor(rng, n)
            perms = [list(range(n)) for _ in range(3)]
            for p in perms:
                rng.shuffle(p)
            moved = Tensor3(
                t.dims,
                {
                    (perms[0][i], perms[1][j], perms[2][k]): v
                    for (i, j, k), v in t.entries.items()
                },
            )
            assert permanent3(moved) == permanent3(t)

    def test_determinant_sign_flips_on_axis_transposition(self):
        rng = random.Random(34)
        for axis in (1, 2):
            for _ in range(10):
                n = rng.randint(2, 4)
                t = random_tensor(rng, n)
                a, b = rng.sample(range(n), 2)
                swap = {a: b, b: a}

                def move(key):
                    i, j, k = key
                    if axis == 1:
                        return (i, swap.get(j, j), k)
                    return (i, j, swap.get(k, k))

                swapped = Tensor3(t.dims, {move(key): v for key, v in t.entries.items()})
                assert determinant3(swapped) == -determinant3(t)

    def test_determinant_invariant_under_even_permutations(self):
        rng = random.Random(35)
        cycle = {0: 1, 1: 2, 2: 0}  # 3-cycle is even
        for _ in range(10):
            t = random_tensor(rng, 3)
            moved = Tensor3(
                t.dims,
                {(i, cycle[j], cycle[k]): v for (i, j, k), v in t.entries.items()},
            )
            assert determinant3(moved) == determinant3(t)

    def test_fold_matches_dense_oracle(self):
        rng = random.Random(34)
        x = Polynomial.monomial(1)
        for trial in range(120):
            dims = tuple(rng.randint(0, 4) for _ in range(3))
            if trial % 2:
                dims = (max(dims),) * 3
            entries = {}
            for i in range(dims[0]):
                for j in range(dims[1]):
                    for k in range(dims[2]):
                        if rng.random() < 0.6:
                            extra = [Fraction(1, 2), Fraction(-2, 3)] if trial % 3 else [x, 1 - x]
                            entries[(i, j, k)] = rng.choice([-3, -2, -1, 1, 2, 3] + extra)
            t = Tensor3(dims, entries)
            assert permanent3(t) == permanent3_dense(t)
            assert determinant3(t) == determinant3_dense(t)

    def test_determinant_matches_signed_diagonal_walk(self):
        rng = random.Random(35)
        for _ in range(12):
            n = rng.randint(5, 8)
            t = random_tensor(rng, n, density=1.6 / n)
            expected = 0
            terms = 0
            for cells in support_diagonals(t):
                terms += 1
                expected += diagonal_sign(cells) * math.prod(t.entries[c] for c in cells)
            assert determinant3(t) == expected
            assert permanent3(t) == sum(
                math.prod(t.entries[c] for c in cells) for cells in support_diagonals(t)
            )
            assert terms == permanent3(Tensor3(t.dims, {c: 1 for c in t.entries}))

    def test_fresh_and_reused_indexes_give_equal_values(self):
        rng = random.Random(36)
        tensors = [random_tensor(rng, rng.randint(1, 7), density=0.4) for _ in range(25)]
        expected = []
        diagonals = [support_diagonals_by_rows(t) for t in tensors]  # no cover index
        for t, cells_of in zip(tensors, diagonals):
            terms = [(diagonal_sign(cells), math.prod(t.entries[c] for c in cells)) for cells in cells_of]
            expected.append((sum(p for _, p in terms), sum(s * p for s, p in terms)))
        assert [(permanent3(t), determinant3(t)) for t in tensors] == expected  # per3 builds each graph
        assert [(permanent3(t), determinant3(t)) for t in tensors] == expected  # both sum the kept graph
        assert [sorted(sorted(c) for c in support_diagonals(t)) for t in tensors] == diagonals  # a walk of the kept graph
        fresh = [Tensor3(t.dims, t.entries) for t in tensors]
        assert [(determinant3(t), permanent3(t)) for t in fresh] == [(d, p) for p, d in expected]
        assert changed_searches(random.Random(37)) == changed_searches(random.Random(37))

    def test_entries_are_read_only(self):
        source = {(0, 0, 0): 2, (1, 1, 1): 3}
        t = Tensor3((2, 2, 2), source)
        with pytest.raises(TypeError):
            t.entries[(0, 0, 0)] = 5
        with pytest.raises(TypeError):
            del t.entries[(1, 1, 1)]
        source[(0, 0, 0)] = 7  # the tensor keeps its own copy
        assert dict(t.entries) == {(0, 0, 0): 2, (1, 1, 1): 3}
        assert t == Tensor3((2, 2, 2), t.entries) and permanent3(t) == determinant3(t) == 6

    def test_resigning_shares_the_support(self):
        t = random_tensor(random.Random(39), 4, density=0.6)
        assert permanent3(t) == permanent3_dense(t)
        ones = {(i, j): 1 for i in range(4) for j in range(4)}
        flips = {(i, j): -1 if (i + j) % 3 else 1 for i in range(4) for j in range(4)}
        signed = apply_signing(t, flips, ones)
        assert signed._support is t._support
        assert determinant3(signed) == determinant3_dense(signed)
        assert permanent3(signed) == permanent3_dense(signed)
        cells, index, _items = t._support
        assert cells == sorted(signed.entries) and index.graph is not None
        fresh = Tensor3(t.dims, t.entries)  # equal, but not a resigning: it works out its own
        assert fresh == t and permanent3(fresh) == permanent3(t) and fresh._support[1] is not index

    def test_support_guard_fires_before_any_mask(self, monkeypatch):
        # the masks would take nnz * 3 * side = 2.7e9 bits, 337 MB
        t = Tensor3((30000,) * 3, {(i, i, i): 1 for i in range(30000)})
        with traced_peak() as peak:
            with pytest.raises(GuardExceeded, match="cover mask guard is 268435456 bits .* got 2700000000$"):
                permanent3(t)
            with pytest.raises(GuardExceeded, match="got 2700000000$"):
                list(support_diagonals(t))
        assert peak[0] < 64 << 20
        t = Tensor3((40,) * 3, {(i, i, i): 2 for i in range(40)})
        monkeypatch.setattr(core, "SUPPORT_MAX_BITS", 40 * 3 * 40)
        assert determinant3(t) == 2**40
        monkeypatch.setattr(core, "SUPPORT_MAX_BITS", 40 * 3 * 40 - 1)
        with pytest.raises(GuardExceeded, match="got 4800"):
            determinant3(Tensor3(t.dims, t.entries))

    def test_large_side_runs_without_recursion(self):
        t = Tensor3((3000, 3000, 3000), {(i, i, i): 2 for i in range(3000)})
        assert permanent3(t) == determinant3(t) == 2**3000

    def test_unused_axis_index_builds_no_index(self):
        huge = 20_000_000_000
        tensors = [
            Tensor3((huge,) * 3, {(0, 0, 0): 1}),  # fewer entries than its side
            Tensor3((3, 3, 3), {(0, 0, 0): 2, (1, 1, 1): 3, (2, 2, 0): 5, (2, 1, 0): 7}),  # k = 2 unused
            Tensor3((2, 3, 3), {(i, j, k): 1 for i in range(2) for j in range(3) for k in range(3)}),
        ]
        for t in tensors:
            assert permanent3(t) == determinant3(t) == 0
            assert list(support_diagonals(t)) == []
            assert t._support is False

    def test_dense_guard(self):
        t = Tensor3((5, 5, 5), {(0, 0, 0): 1})
        with pytest.raises(GuardExceeded):
            permanent3_dense(t)


class TestBuilders:
    def test_single_rainbow_triangle(self):
        config = TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})
        tensor, axes = triadjacency(config, {"a": 1, "b": 2, "c": 3}, {"t": 2})
        assert tensor.dims == (1, 1, 1)
        assert tensor[(0, 0, 0)] == Polynomial.monomial(2)
        assert axes == (("a",), ("b",), ("c",))

    def test_mtt_tensor_has_one_entry_per_triangle(self):
        gadget = make_matching_triangular_triangle(certify=False)
        tensor, _ = triadjacency(gadget.config, gadget.edge_classes)
        assert len(tensor.entries) == len(gadget.config.triangle_ids)

    def test_unbalanced_classes_pad_to_zero_permanent(self):
        gadget = make_tunnel(certify=False)
        tensor, _ = triadjacency(gadget.config, gadget.edge_classes)
        assert tensor.dims == (6, 6, 6)
        assert permanent3(tensor) == 0

    def test_invalid_tripartition_refused(self):
        config = TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})
        with pytest.raises(ToolkitError):
            triadjacency(config, {"a": 1, "b": 1, "c": 3})

    def test_vertex_adjacency_single_triangle(self):
        config = TriangularConfiguration(
            {"ab": ("u", "v"), "bc": ("v", "w"), "ca": ("w", "u")},
            {"t": ("ab", "bc", "ca")},
        )
        tensor, axes = vertex_adjacency(config, {"u": 1, "v": 2, "w": 3}, {"t": 9})
        assert (tensor.dims, axes) == ((1, 1, 1), (("u",), ("v",), ("w",)))
        assert tensor[(0, 0, 0)] == 9

    def test_vertex_adjacency_refuses_bad_classes(self):
        config = TriangularConfiguration(
            {"ab": ("u", "v"), "bc": ("v", "w"), "ca": ("w", "u")},
            {"t": ("ab", "bc", "ca")},
        )
        with pytest.raises(ToolkitError):
            vertex_adjacency(config, {"u": 1, "v": 1, "w": 3}, {})

    @pytest.mark.parametrize("cls", [1.0, True])
    def test_a_class_equal_to_an_integer_class_is_refused(self, cls):
        config = TriangularConfiguration(
            {"ab": ("u", "v"), "bc": ("v", "w"), "ca": ("w", "u")},
            {"t": ("ab", "bc", "ca")},
        )
        with pytest.raises(ToolkitError, match="^invalid edge tripartition: edge 'ab' has no class; "):
            triadjacency(config, {"ab": cls, "bc": 2, "ca": 3})
        with pytest.raises(ToolkitError, match="^invalid vertex tripartition: vertex 'u' has no class; "):
            vertex_adjacency(config, {"u": cls, "v": 2, "w": 3}, {})

    def test_unknown_edge_is_an_invalid_edge_tripartition(self):
        config = TriangularConfiguration(["a", "b"], {"t": ("a", "b", "zz")})
        message = "invalid edge tripartition: triangle 't' references dangling edge 'zz'"
        for classes in ({"a": 1, "b": 2, "zz": 3}, {"a": 1, "b": 2}):
            with pytest.raises(ToolkitError, match=message):
                triadjacency(config, classes)


def _oracle_sums(t: Tensor3) -> tuple:
    """per3 and det3 of `t` from the row-order oracle's diagonals, each
    signed by the inversion parity of its permutation j -> k."""
    per = det = 0
    for cells in support_diagonals_by_rows(t):
        k_of = [0] * len(cells)
        for _i, j, k in cells:
            k_of[j] = k
        product = math.prod(t.entries[c] for c in cells)
        per = per + product
        det = det + permutation_parity(k_of) * product
    return per, det


def _no_matching_configs() -> list:
    """Classed configurations with no perfect matching: equal axes with an edge in
    no triangle, equal axes with every edge used, and unequal axes."""
    classes = {"a1": 1, "a2": 1, "b1": 2, "b2": 2, "c1": 3, "c2": 3}
    unused = TriangularConfiguration(sorted(classes), {"t0": ("a1", "b1", "c1"), "t1": ("a1", "b2", "c2")})
    # each triangle's complement is missing, so no two triangles cover the six edges
    used = TriangularConfiguration(sorted(classes), {
        "t0": ("a1", "b1", "c1"), "t1": ("a1", "b2", "c2"), "t2": ("a2", "b1", "c2"), "t3": ("a2", "b2", "c1"),
    })
    unequal = TriangularConfiguration(["a1", "a2", "b1", "c1"], {"t0": ("a1", "b1", "c1")})
    tunnel = make_tunnel(certify=False)
    return [(unused, classes), (used, classes), (unequal, classes), (tunnel.config, tunnel.edge_classes)]


class TestSharedSupport:
    """A `triadjacency` tensor with equal axes folds and lists through its
    configuration's perfect-matching index, against the tensor's own support
    and the row-order oracle."""

    def test_folds_agree_with_the_own_support_and_the_oracle(self, reduction_sweep):
        checked = 0
        for _config, _w, result, _sp, reduced_poly in reduction_sweep:
            for weighting in (result.weighting, {t: (i * 7) % 6 for i, t in enumerate(result.config.triangle_ids)}):
                t, _ = triadjacency(result.config, result.edge_classes, weighting)
                own = Tensor3(t.dims, dict(t.entries))
                sums = (permanent3(t), determinant3(t))
                assert sums == (permanent3(own), determinant3(own))
                assert t._support[1] is core._matching_index(result.config)
                assert own._support is False or own._support[1] is not t._support[1]
                diagonals = sorted(sorted(cells) for cells in support_diagonals(t))
                assert diagonals == sorted(sorted(cells) for cells in support_diagonals(own))
                assert sums[0] == (reduced_poly if weighting is result.weighting else
                                   perfect_matching_polynomial(result.config, weighting))
                if t.cube_side <= 60:  # the oracle's plain search
                    assert diagonals == support_diagonals_by_rows(t)
                    assert sums == _oracle_sums(t)
                    checked += 1
        assert checked == 90

    def test_every_edge_search_reads_one_set_of_places_and_one_index(self, monkeypatch):
        config = octahedron_boundary()
        made = places_made(monkeypatch)
        indexes = []
        make_index = core.CoverIndex

        def counted(*args):
            indexes.append(make_index(*args))
            return indexes[-1]

        monkeypatch.setattr(core, "CoverIndex", counted)
        classes = find_edge_tripartition(config)
        matchings = perfect_matchings(config)
        assert len(matchings) == 2 and [defect(config, m) for m in matchings] == [frozenset()] * 2
        assert enumerate_matchings_with_defect_within(config, ["x0y0"]) == matchings
        assert cycle_space_weight_enumerator(config, 2) == Polynomial({0: 1, 8: 1})
        t, _ = triadjacency(config, classes)
        assert permanent3(t) == Polynomial({4: 2})
        assert made == [list(config.edge_ids)]
        # the one-edge slack search builds its own index; the matching index is made once
        assert len(indexes) == 2 and t._support[1] is config._matching_index is indexes[0]

    def test_configurations_with_no_perfect_matching(self):
        for config, classes in _no_matching_configs():
            t, axes = triadjacency(config, classes)
            equal = len({len(axis) for axis in axes}) == 1
            assert (permanent3(t), determinant3(t), list(support_diagonals(t))) == (0, 0, [])
            assert _oracle_sums(t) == (0, 0)
            # unequal axes answer from the tensor's own support, with no index built
            assert (t._support is False) == (not equal)
            assert (config._matching_index is not None) == equal
            assert perfect_matching_polynomial(config) == Polynomial(0) and perfect_matchings(config) == []

    def test_listing_order_does_not_depend_on_history(self, reduction_sweep):
        compared = 0
        for config, weights, _result, _sp, _rp in reduction_sweep:
            first = tripartite_reduction(config, weights)  # a fresh configuration: no index yet
            perfect_matching_polynomial(first.config, first.weighting)
            t_first, _ = triadjacency(first.config, first.edge_classes, first.weighting)
            second = tripartite_reduction(config, weights)
            t_second, _ = triadjacency(second.config, second.edge_classes, second.weighting)
            listed = list(support_diagonals(t_second))  # builds the index through the tensor
            assert list(support_diagonals(t_first)) == listed
            assert perfect_matching_polynomial(second.config, second.weighting) == permanent3(t_first)
            # cell o of the tensor is triangle o of the configuration
            tri_ids = second.config.triangle_ids
            cell_of = {cell: tri_ids[o] for o, cell in enumerate(t_second.entries)}
            matchings = sorted(tuple(sorted(cell_of[c] for c in cells)) for cells in listed)
            assert matchings == perfect_matchings(second.config)
            compared += len(listed) > 1
        assert compared >= 4

    def test_polynomial_per3_and_det3_share_one_build(self, monkeypatch, reduction_sweep):
        built = []
        build = core.CoverIndex._build

        def counting_build(index):
            built.append(index)
            return build(index)

        monkeypatch.setattr(core.CoverIndex, "_build", counting_build)
        config, weights = next((config, weights) for config, weights, _r, poly, _rp in reduction_sweep if poly)
        reduced = tripartite_reduction(config, weights)
        poly = perfect_matching_polynomial(reduced.config, reduced.weighting)
        t, _ = triadjacency(reduced.config, reduced.edge_classes, reduced.weighting)
        assert (permanent3(t), determinant3(t)) == (poly, _oracle_sums(t)[1])
        assert len(built) == 1
        assert len(list(support_diagonals(t))) == len(perfect_matchings(reduced.config))
        assert len(built) == 1


class TestProjectionsAndSignings:
    def test_diagonal_projections_are_matchings(self):
        t = Tensor3((3, 3, 3), {(i, i, i): 1 for i in range(3)})
        graphs = projection_graphs(t)
        assert graphs.g1.edges == frozenset((i, i) for i in range(3))
        assert graphs.g2.edges == frozenset((i, i) for i in range(3))

    def test_all_ones_projections_complete(self):
        t = Tensor3((2, 2, 2), {(i, j, k): 1 for i in range(2) for j in range(2) for k in range(2)})
        graphs = projection_graphs(t)
        assert len(graphs.g1.edges) == 4
        assert len(graphs.g2.edges) == 4

    def test_apply_signing_identity(self):
        t = Tensor3((2, 2, 2), {(0, 0, 0): 3, (1, 1, 1): -2})
        ones = {(i, j): 1 for i in range(2) for j in range(2)}
        assert apply_signing(t, ones, ones) == t

    def test_apply_signing_flips_slice(self):
        t = Tensor3((2, 2, 2), {(0, 0, 0): 3, (0, 1, 1): 2, (1, 0, 0): 1, (1, 1, 1): 1})
        s1 = {(i, j): 1 for i in range(2) for j in range(2)}
        s1[(0, 0)] = -1
        s2 = {(i, k): 1 for i in range(2) for k in range(2)}
        signed = apply_signing(t, s1, s2)
        assert signed[(0, 0, 0)] == -3
        assert signed[(0, 1, 1)] == 2
        assert signed[(1, 0, 0)] == 1

    def test_apply_signing_missing_sign(self):
        t = Tensor3((1, 1, 1), {(0, 0, 0): 1})
        with pytest.raises(ToolkitError):
            apply_signing(t, {}, {(0, 0): 1})

    @pytest.mark.parametrize(
        "sign2, message",
        [
            ({}, r"missing sign for projection edge \(0, 0\) in sign2"),
            ({(0, 0): 2}, r"sign of projection edge \(0, 0\) in sign2 must be the int 1 or -1, got 2"),
        ],
        ids=["missing_sign2", "sign_of_two"],
    )
    def test_apply_signing_refuses_a_bad_sign2(self, sign2, message):
        t = Tensor3((1, 1, 1), {(0, 0, 0): 1})
        with pytest.raises(ToolkitError, match=f"^{message}$"):
            apply_signing(t, {(0, 0): 1}, sign2)

    @pytest.mark.parametrize(
        "sign1, message",
        [
            ({}, r"missing sign for projection edge \(0, 0\) in sign1"),
            ({(0, 0): 2}, r"sign of projection edge \(0, 0\) in sign1 must be the int 1 or -1, got 2"),
        ],
        ids=["missing_sign1", "sign_of_two"],
    )
    def test_apply_signing_refuses_a_bad_sign1(self, sign1, message):
        # the 1x1x1 tensor reads one edge from each signing: the text names the one at fault
        t = Tensor3((1, 1, 1), {(0, 0, 0): 1})
        with pytest.raises(ToolkitError, match=f"^{message}$"):
            apply_signing(t, sign1, {(0, 0): 1})

    @pytest.mark.parametrize(
        "sign1, sign2, edge, got",
        [(2, 0.5, "(0, 0)", "2"), (-2, 0.5, "(0, 0)", "-2"), (1.0, 1, "(0, 0)", "1.0"),
         (1, True, "(0, 1)", "True"), (-1, -1.0, "(0, 1)", "-1.0")],
    )
    def test_apply_signing_checks_each_sign(self, sign1, sign2, edge, got):
        # each product of two signs is +1 or -1, yet one sign is not the int 1 or -1;
        # the cell's sign1 edge is (0, 0) and its sign2 edge (0, 1), so the edge names the side at fault
        t = Tensor3((1, 2, 2), {(0, 0, 1): 1})
        side = {"(0, 0)": "sign1", "(0, 1)": "sign2"}[edge]
        message = f"sign of projection edge {edge} in {side} must be the int 1 or -1, got {got}"
        with pytest.raises(ToolkitError, match=f"^{re.escape(message)}$"):
            apply_signing(t, {(0, 0): sign1}, {(0, 1): sign2})

    def test_edge_leaving_the_bipartition_is_refused(self):
        with pytest.raises(ToolkitError, match=r"^edge \(0, 'x'\) leaves the bipartition$"):
            BipartiteGraph((0,), (1,), frozenset([(0, "x")]))

    def test_forest_gets_all_plus_one(self):
        g = BipartiteGraph((0, 1), (0, 1), frozenset([(0, 0), (1, 0), (1, 1)]))
        signing = find_pfaffian_signing(g)
        assert signing is not None
        assert all(s == 1 for s in signing.values())

    def test_four_cycle_needs_one_minus(self):
        g = BipartiteGraph((0, 1), (0, 1), frozenset([(0, 0), (0, 1), (1, 0), (1, 1)]))
        signing = find_pfaffian_signing(g)
        assert signing is not None
        mat = [[signing[(i, j)] for j in range(2)] for i in range(2)]
        assert determinant2(mat) == permanent2([[1, 1], [1, 1]])

    def test_zero_permanent_takes_trivial_signing(self):
        g = BipartiteGraph((0, 1), (0, 1), frozenset([(0, 0), (1, 0)]))
        signing = find_pfaffian_signing(g)
        assert signing == {(0, 0): 1, (1, 0): 1}

    def test_signing_graph_guard_boundary(self, monkeypatch):
        # the signing solves over its matching problem's state graph, under the graph guard
        g = circulant(8)
        size = cover_graph_size(*g.matching_problem(sorted(g.edges)))
        built = []

        class RecordedIndex(core.CoverIndex):
            def __init__(self, item_count, options):
                super().__init__(item_count, options)
                built.append(self)

        monkeypatch.setattr(tensor3, "CoverIndex", RecordedIndex)
        monkeypatch.setattr(core, "COVER_GRAPH_MAX_SIZE", size)
        assert find_pfaffian_signing(g) is not None
        monkeypatch.setattr(core, "COVER_GRAPH_MAX_SIZE", size - 1)
        with pytest.raises(GuardExceeded, match=f"cover graph guard is {size - 1} states visited plus arcs kept"):
            find_pfaffian_signing(g)
        assert len(built) == 2 and built[-1].graph is None

    def test_signing_agrees_with_exhaustive_search(self):
        rng = random.Random(51)
        found = {True: 0, False: 0}
        nonzero = 0
        for _ in range(600):
            g = random_bipartite_graph(rng)
            signing = find_pfaffian_signing(g)
            assert (signing is not None) == pfaffian_signing_exists(g), g
            found[signing is not None] += 1
            if signing is not None:
                assert set(signing) == g.edges and set(signing.values()) <= {1, -1}
                per = permanent2_bruteforce(signed_biadjacency(g, {}))
                assert determinant2_leibniz(signed_biadjacency(g, signing)) == per
                nonzero += per > 0
        assert found[False] >= 30 and nonzero >= 300

    @pytest.mark.parametrize(
        "dims, has_signing", [((2, 3, 3), False), ((2, 3, 4), False), ((2, 2, 4), True), ((3, 4, 4), False)]
    )
    def test_box_graphs(self, dims, has_signing):
        g = cubic_lattice(*dims).graph  # more edges than the exhaustive search could try
        signing = find_pfaffian_signing(g)
        assert (signing is not None) == has_signing
        if signing is not None:
            assert determinant2(signed_biadjacency(g, signing)) == permanent2(g.biadjacency()) == 121

    def test_box_past_65536_matchings_signs(self):
        g = cubic_lattice(2, 2, 10).graph  # 326,041 perfect matchings
        signing = find_pfaffian_signing(g)
        assert signing is not None
        assert determinant2(signed_biadjacency(g, signing)) == permanent2(g.biadjacency()) == 326041

    def test_signings_of_random_graphs_are_pinned(self):
        # a reduced echelon basis is unique, so these bytes do not depend on how the rows are reduced
        rng = random.Random(52)
        digest = hashlib.sha256()
        found = 0
        for _ in range(3000):
            nl = rng.randint(0, 8)
            nr = nl if rng.random() < 0.9 else rng.randint(0, 8)
            p = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = frozenset((i, j) for i in range(nl) for j in range(nr) if rng.random() < p)
            signing = find_pfaffian_signing(BipartiteGraph(tuple(range(nl)), tuple(range(nr)), edges))
            found += signing is not None
            digest.update(repr(None if signing is None else sorted(signing.items())).encode() + b";")
        assert found == 2150
        assert digest.hexdigest() == "86a81457764044992c0b0aa407f1226809f257061013ad3166755dd2bef678de"

    def test_three_diagonal_circulant_has_a_signing(self):
        g = circulant(8)
        signing = find_pfaffian_signing(g)
        assert signing is not None and len(signing) == 24
        assert determinant2(signed_biadjacency(g, signing)) == permanent2(g.biadjacency()) == 49

    def test_box_without_signing_has_a_kasteleyn_3_matrix(self):
        # the 2-D identity fails on the 2x3x3 box, the 3-matrix determinant does not
        lattice = cubic_lattice(2, 3, 3)
        assert find_pfaffian_signing(lattice.graph) is None
        count = dimer_polynomial(lattice)(1)
        assert count == 229
        assert determinant3(build_T(lattice.graph.biadjacency()).tensor) == count

    def test_sign_via_projections_of_a_large_circulant(self):
        # entries (a, b, b) for each edge (a, b): both projections are the circulant
        g = circulant(30)
        t = Tensor3((30,) * 3, {(a, b, b): 1 for a, b in g.edges})
        out = kasteleyn_sign_via_k1(t)
        assert out is not None
        signed, sign1, sign2 = out
        assert len(sign1) == len(sign2) == 90
        assert determinant3(signed) == permanent3(t) > 1 << 16

    def test_sign_via_projections_all_ones(self):
        t = Tensor3((2, 2, 2), {(i, j, k): 1 for i in range(2) for j in range(2) for k in range(2)})
        out = kasteleyn_sign_via_k1(t)
        assert out is not None
        signed, _, _ = out
        assert determinant3(signed) == permanent3(t) == 4

    def test_sign_via_projections_with_unused_row(self):
        huge = 20_000_000_000
        t = Tensor3((huge,) * 3, {(0, 0, 0): 1, (5, 7, 9): -2})
        assert kasteleyn_sign_via_k1(t) == (t, {(0, 0): 1, (5, 7): 1}, {(0, 0): 1, (5, 9): 1})
        # an unused axis-1 index leaves the other projection to the search: K_{3,3} has no signing
        t = Tensor3((3, 3, 3), {(i, 0, k): 1 for i in range(3) for k in range(3)})
        assert kasteleyn_sign_via_k1(t) is None

    def test_sign_via_projections_random(self):
        rng = random.Random(41)
        certified = 0
        for _ in range(40):
            t = random_tensor(rng, 3, density=0.35, lo=1, hi=3)
            out = kasteleyn_sign_via_k1(t)
            if out is None:
                continue
            certified += 1
            signed, s1, s2 = out
            assert determinant3(signed) == permanent3(t)
            assert {abs(v) for v in signed.entries.values()} <= {
                abs(v) for v in t.entries.values()
            }
        assert certified >= 20

    def test_sign_verification_builds_one_support_graph(self, monkeypatch):
        # one graph per projection's signing, and one for the support: per3 and det3 share it
        built = []
        build = core.CoverIndex._build

        def counting_build(index):
            built.append(index.item_count)
            return build(index)

        monkeypatch.setattr(core.CoverIndex, "_build", counting_build)
        t = Tensor3((8,) * 3, {(a, b, b): 1 for a, b in circulant(8).edges})
        signed, _, _ = kasteleyn_sign_via_k1(t)
        assert built == [16, 16, 24]
        assert signed._support is t._support and determinant3(signed) == permanent3(t) == 49
        assert built == [16, 16, 24]

    def test_matching_guard_fires_before_any_mask(self, monkeypatch):
        # the projection graph's masks would take edges * vertices = 1.8e9 bits, 225 MB
        t = Tensor3((30000,) * 3, {(i, i, i): 1 for i in range(30000)})
        with traced_peak() as peak:
            with pytest.raises(GuardExceeded, match="cover mask guard is 268435456 bits .* got 1800000000$"):
                kasteleyn_sign_via_k1(t)
        assert peak[0] < 64 << 20
        g = circulant(8)  # 24 edges over 16 vertices
        monkeypatch.setattr(core, "SUPPORT_MAX_BITS", 24 * 16)
        assert find_pfaffian_signing(g) is not None
        monkeypatch.setattr(core, "SUPPORT_MAX_BITS", 24 * 16 - 1)
        with pytest.raises(GuardExceeded, match="got 384"):
            find_pfaffian_signing(g)


class TestForcedSearches:
    """Supports on which most search steps are forced, against the dense oracles."""

    @staticmethod
    def forced_options(index: core.CoverIndex) -> int:
        """The options forced after an arc's option, counted once per state reached before closure."""
        links = {(forced, child) for _, arcs in index.graph for _, forced, child in arcs if forced}
        return sum(len(forced) for forced, _ in links)

    def test_sparse_tensors_match_dense_oracles(self):
        rng = random.Random(61)
        forced = 0
        for _ in range(120):
            n = rng.randint(2, 4)  # the dense oracles' limit
            t = random_tensor(rng, n, density=rng.choice((0.15, 0.25, 0.35)))
            assert permanent3(t) == permanent3_dense(t)
            assert determinant3(t) == determinant3_dense(t)
            if t._support:
                forced += self.forced_options(t._support[1])
        assert forced >= 150  # 164 with this seed

    @pytest.mark.parametrize("dims", [(1, 2, k) for k in range(1, 8)] + [(2, 2, 2), (2, 2, 3)])
    def test_signing_on_ladders_and_boxes(self, dims):
        g = cubic_lattice(*dims).graph  # (1, 2, k) is the ladder with k rungs
        signing = find_pfaffian_signing(g)
        assert (signing is not None) == pfaffian_signing_exists(g)
        if signing is not None:
            assert determinant2_leibniz(signed_biadjacency(g, signing)) == permanent2_bruteforce(g.biadjacency())
        index = core.CoverIndex(*g.matching_problem(sorted(g.edges)))
        index.fold([1] * len(g.edges))
        assert self.forced_options(index) >= (dims[2] - 1 if dims[0] == 1 else 1)

    def test_cover_order_is_pinned(self):
        # covers as sorted option lists, pinned from the search without the closure: closing
        # forced moves keeps the covers and their order
        tc = build_T([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        permanent3(tc.tensor)
        assert [sorted(cover) for cover in tc.tensor._support[1].covers()] == [
            [0, 3, 5, 6, 8, 10, 13, 15, 16, 20, 22, 23, 27],
            [1, 2, 4, 6, 9, 11, 12, 14, 18, 19, 21, 25, 26],
            [1, 2, 4, 7, 8, 10, 13, 14, 17, 20, 21, 24, 27],
        ]
        g = cubic_lattice(2, 3, 3).graph
        covers = [sorted(cover) for cover in core.CoverIndex(*g.matching_problem(sorted(g.edges))).covers()]
        assert len(covers) == 229
        assert covers[:3] == [
            [0, 4, 7, 13, 15, 19, 22, 27, 32],
            [0, 4, 7, 13, 15, 19, 22, 28, 30],
            [0, 4, 7, 13, 15, 20, 22, 26, 32],
        ]
        digest = hashlib.sha256(json.dumps(covers).encode()).hexdigest()
        assert digest == "c6898cd592aef43eedea3b54404df189d788743922c3618afdf0d2ecac8d44c5"


class TestTwoMatrixKernels:
    def test_permanent2_identity(self):
        assert permanent2([[1, 0], [0, 1]]) == 1

    def test_permanent2_all_ones(self):
        assert permanent2([[1] * 3 for _ in range(3)]) == 6

    def test_permanent2_matches_bruteforce(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            assert permanent2(m) == permanent2_bruteforce(m)

    def test_sparse_ryser_matches_bruteforce(self):
        # Gray steps update only a column's nonzero rows: sparse, dense, and
        # matrices with a zero column (permanent 0), of every side up to 8
        rng = random.Random(29)
        for n in range(9):
            sparse = [[rng.choice([-2, -1, 1, 3]) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
            dense = [[rng.choice([-2, -1, 1, 3]) for _ in range(n)] for _ in range(n)]
            column = rng.randrange(n) if n else 0
            zero_column = [[0 if c == column else v for c, v in enumerate(row)] for row in dense]
            for matrix in (sparse, dense, zero_column):
                assert permanent2(matrix) == permanent2_bruteforce(matrix), matrix
            assert permanent2(zero_column) == (0 if n else 1)
        assert permanent2([[Fraction(1, 2), 0], [3, Fraction(2, 3)]]) == Fraction(1, 3)

    def test_permanent2_guard(self):
        with pytest.raises(GuardExceeded):
            permanent2([[1] * 21 for _ in range(21)])

    def test_determinant2_matches_fraction_elimination(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            frac = [[Fraction(v) for v in row] for row in m]
            # cofactor-free oracle: permutation sum with signs
            total = 0
            import itertools

            for perm in itertools.permutations(range(n)):
                sign = 1
                seen = list(perm)
                for a in range(n):
                    for b in range(a + 1, n):
                        if seen[a] > seen[b]:
                            sign = -sign
                product = 1
                for i in range(n):
                    product *= m[i][perm[i]]
                total += sign * product
            assert determinant2(m) == total
            assert determinant2(frac) == total

    def test_graph_matching_enumeration(self):
        g = BipartiteGraph(("a", "b"), ("x", "y"), frozenset([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]))
        edges = sorted(g.edges)
        matchings = sorted(sorted(edges[oi] for oi in cover) for cover in core.CoverIndex(*g.matching_problem(edges)).covers())
        assert matchings == [[("a", "x"), ("b", "y")], [("a", "y"), ("b", "x")]]
        unbalanced = BipartiteGraph(("a",), ("x", "y"), frozenset([("a", "x")]))
        assert list(core.CoverIndex(*unbalanced.matching_problem([("a", "x")])).covers()) == []


class TestMatrixShapes:
    def test_two_matrix_kernels_refuse_a_ragged_matrix(self):
        with pytest.raises(ToolkitError, match="^permanent needs a square matrix$"):
            permanent2([[1, 2], [3]])
        with pytest.raises(ToolkitError, match="^determinant needs a square matrix$"):
            determinant2([[1, 2], [3]])

    def test_empty_matrix_has_permanent_and_determinant_1(self):
        assert permanent2([]) == determinant2([]) == 1

    def test_matrix_triple_refuses_a_ragged_matrix(self):
        with pytest.raises(ToolkitError, match="^ragged matrix$"):
            RectMatrixTriple.from_rows([[1, 2], [3]], [[1, 2], [3, 4]], [[1, 2], [3, 4]])


class TestBinetCauchy:
    def test_one_by_one(self):
        t = RectMatrixTriple.from_rows([[2]], [[3]], [[5]])
        assert binet_cauchy_C(t)[(0, 0, 0)] == 30
        assert binet_cauchy_rhs(t) == 30

    def test_row_of_ones(self):
        t = RectMatrixTriple.from_rows([[1, 1]], [[1, 1]], [[1, 1]])
        assert binet_cauchy_C(t)[(0, 0, 0)] == 2

    def test_full_square_case(self):
        a1, a2, a3 = [[1, 2], [3, 4]], [[0, 1], [1, 0]], [[2, 0], [0, 3]]
        t = RectMatrixTriple.from_rows(a1, a2, a3)
        assert binet_cauchy_rhs(t) == permanent2(a1) * determinant2(a2) * determinant2(a3)

    def test_entries_match_direct_summation(self):
        rng = random.Random(44)
        rows = lambda r, n: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        for _ in range(10):
            r, n = 2, 3
            a1, a2, a3 = rows(r, n), rows(r, n), rows(r, n)
            t = RectMatrixTriple.from_rows(a1, a2, a3)
            c = binet_cauchy_C(t)
            for i1 in range(r):
                for i2 in range(r):
                    for i3 in range(r):
                        direct = sum(a1[i1][j] * a2[i2][j] * a3[i3][j] for j in range(n))
                        assert c[(i1, i2, i3)] == direct

    def test_rank_deficient_middle_matrix_gives_zero(self):
        # every column pair of a2 is dependent, so each subset contributes 0
        a2 = [[1, 1, 1], [2, 2, 2]]
        a1 = [[1, 2, 3], [4, 5, 6]]
        a3 = [[7, 0, 1], [2, 2, 5]]
        t = RectMatrixTriple.from_rows(a1, a2, a3)
        assert binet_cauchy_rhs(t) == 0
        assert determinant3(binet_cauchy_C(t)) == 0

    def test_identity_on_random_triples(self):
        rng = random.Random(45)
        rows = lambda r, n: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        for _ in range(60):
            r = rng.randint(1, 3)
            n = rng.randint(r, 5)
            t = RectMatrixTriple.from_rows(rows(r, n), rows(r, n), rows(r, n))
            assert determinant3(binet_cauchy_C(t)) == binet_cauchy_rhs(t)

    def test_shape_guards_fire_before_any_minor(self, monkeypatch):
        import kas3.tensor3

        def refuse(matrix):
            raise AssertionError("minor computed past a guard")

        monkeypatch.setattr(kas3.tensor3, "permanent2", refuse)
        square = [[1] * 21 for _ in range(21)]
        with pytest.raises(GuardExceeded, match=r"Ryser guard is r <= 20, got r = 21"):
            binet_cauchy_rhs(RectMatrixTriple.from_rows(square, square, square))
        wide = [[1] * 40 for _ in range(10)]
        with pytest.raises(GuardExceeded, match="847660528 column subsets exceed the guard"):
            binet_cauchy_rhs(RectMatrixTriple.from_rows(wide, wide, wide))
        check_binet_cauchy_shape(20, 20)
        check_binet_cauchy_shape(5, 20)  # C(20, 5) = 15504 subsets
        with pytest.raises(GuardExceeded, match="184756 column subsets exceed the guard"):
            check_binet_cauchy_shape(10, 20)
        with pytest.raises(GuardExceeded, match="Ryser guard"):
            check_binet_cauchy_shape(10**9, 10**9)

    def test_shape_validation(self):
        with pytest.raises(ToolkitError):
            RectMatrixTriple.from_rows([[1, 2]], [[1]], [[1, 2]])
        with pytest.raises(ToolkitError):
            RectMatrixTriple.from_rows([[1], [2]], [[1], [2]], [[1], [2]])


class TestTensorJson:
    def test_round_trip(self):
        t = Tensor3(
            (2, 2, 2),
            {(0, 0, 0): 3, (1, 1, 1): Polynomial({2: 1, 0: -1}), (0, 1, 0): 10**20},
        )
        doc = t.to_doc()
        again = Tensor3.from_doc(doc)
        assert again == t
        big = [row for row in doc["entries"] if row[:3] == [0, 1, 0]][0]
        assert isinstance(big[3], str)  # big integers serialize as strings

    def test_shared_values_encode_like_distinct_ones(self):
        shared, big = Polynomial({3: 2, 0: -1}), 10**20
        entries = {(0, 0, 0): shared, (1, 1, 1): shared, (0, 1, 0): Polynomial({3: 2, 0: -1}),
                   (1, 0, 0): big, (0, 0, 1): big, (1, 0, 1): 10**20 + 1, (0, 1, 1): 7}
        doc = Tensor3((2, 2, 2), entries).to_doc()
        assert doc["entries"] == [[*key, encode_ring_value(entries[key])] for key in sorted(entries)]

    def test_bad_docs_rejected(self):
        with pytest.raises(SchemaError):
            Tensor3.from_doc({"dims": [1, 1]})
        with pytest.raises(SchemaError):
            Tensor3.from_doc({"dims": [1, 1, 1], "entries": [[0, 0, 0]]})
        with pytest.raises(SchemaError):
            Tensor3.from_doc({"dims": [1, 1, 1], "entries": [[0, 0, 0, 1.5]]})

    def test_repeated_cell_is_refused(self):
        with pytest.raises(SchemaError, match=r"^duplicate tensor entry at \(0, 0, 0\)$"):
            Tensor3.from_doc({"dims": [1, 1, 1], "entries": [[0, 0, 0, 1], [0, 0, 0, 2]]})

    @pytest.mark.parametrize(
        "value, message",
        [(True, "boolean is not a ring value"), (Fraction(1, 2), "cannot serialize ring value of type Fraction")],
    )
    def test_values_without_a_document_form_are_refused(self, value, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            encode_ring_value(value)


def _one_triangle():
    return TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: Tensor3((2.7, 2, 2), {}), id="Tensor3-dims"),
        pytest.param(lambda: Tensor3((2, 2, 2), {(0.9, 0, 0): 3}), id="Tensor3-index"),
        pytest.param(lambda: Polynomial({1.5: 2}), id="Polynomial-exponent"),
        pytest.param(lambda: Polynomial({1: 2.9}), id="Polynomial-coefficient"),
        pytest.param(lambda: BinaryCode(3.5, [1]), id="BinaryCode-length"),
        pytest.param(lambda: BinaryCode(3, [1.0]), id="BinaryCode-row"),
        pytest.param(
            lambda: core.perfect_matching_polynomial(_one_triangle(), {"t": 2.5}),
            id="perfect_matching_polynomial",
        ),
        pytest.param(
            lambda: triadjacency(_one_triangle(), {"a": 1, "b": 2, "c": 3}, {"t": 2.5}),
            id="triadjacency",
        ),
        pytest.param(
            lambda: tripartite_reduction(_one_triangle(), {"t": 2.5}), id="tripartite_reduction"
        ),
        pytest.param(
            lambda: dimer_polynomial(cubic_lattice(2, 1, 1), {((0, 0, 0), (1, 0, 0)): 1.5}),
            id="dimer_polynomial",
        ),
        pytest.param(lambda: core.build_config_doc(_one_triangle(), weights={"t": 2.7}), id="build_config_doc-weight"),
        pytest.param(
            lambda: core.build_config_doc(_one_triangle(), weights={"t": Fraction(3, 2)}),
            id="build_config_doc-fraction-weight",
        ),
        pytest.param(
            lambda: core.build_config_doc(_one_triangle(), edge_classes={"a": 1.9, "b": 2, "c": 3}),
            id="build_config_doc-edge-class",
        ),
        pytest.param(
            lambda: core.build_config_doc(_one_triangle(), vertex_classes={"u": Fraction(2)}),
            id="build_config_doc-fraction-vertex-class",
        ),
    ],
)
def test_non_integer_numbers_are_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call()


def _two_vertex_triangles():
    """Triangles t1 on u1, v1, w1 and t2 on u2, v2, w2: cells (0, 0, 0) and (1, 1, 1)."""
    edges = {}
    for n in (1, 2):
        edges.update({f"uv{n}": (f"u{n}", f"v{n}"), f"vw{n}": (f"v{n}", f"w{n}"), f"wu{n}": (f"w{n}", f"u{n}")})
    return TriangularConfiguration(edges, {f"t{n}": (f"uv{n}", f"vw{n}", f"wu{n}") for n in (1, 2)})


# each builds the 2x2x2 tensor holding `value` at cells (0, 0, 0) and (1, 1, 1)
VALUE_ENTRY_POINTS = {
    "Tensor3": lambda value: Tensor3((2, 2, 2), {(0, 0, 0): value, (1, 1, 1): value}),
    "vertex_adjacency": lambda value: vertex_adjacency(
        _two_vertex_triangles(),
        {f"{x}{n}": c for c, x in enumerate("uvw", 1) for n in (1, 2)},
        {"t1": value, "t2": value},
    )[0],
}


@pytest.mark.parametrize("entry", VALUE_ENTRY_POINTS)
@pytest.mark.parametrize("value", [1.5, 2j, "ab", True, None, 0.0], ids=repr)
def test_inexact_values_are_refused(entry, value):
    message = f"entry (0,0,0) holds {value!r}, not an int, Fraction or Polynomial"
    with pytest.raises(ToolkitError, match=f"^{re.escape(message)}$"):
        VALUE_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", VALUE_ENTRY_POINTS)
@pytest.mark.parametrize(
    "value, square",
    [(3, 9), (-2, 4), (Fraction(3, 2), Fraction(9, 4)), (Polynomial({1: 2}), Polynomial({2: 4}))],
    ids=repr,
)
def test_exact_values_keep_their_permanent_and_determinant(entry, value, square):
    tensor = VALUE_ENTRY_POINTS[entry](value)
    assert tensor.dims == (2, 2, 2) and tensor.entries == {(0, 0, 0): value, (1, 1, 1): value}
    per, det = permanent3(tensor), determinant3(tensor)
    assert per == det == square and type(per) is type(det) is type(square)


@pytest.mark.parametrize("entry", VALUE_ENTRY_POINTS)
@pytest.mark.parametrize("zero", [0, Fraction(0), Polynomial({})], ids=repr)
def test_exact_zero_values_are_dropped(entry, zero):
    assert VALUE_ENTRY_POINTS[entry](zero).entries == {}


# each takes the 2x2 matrix diag(value, value); the error names its cell (0, 0)
MATRIX_ENTRY_POINTS = {
    "permanent2": (permanent2, "cell", "an int, Fraction or Polynomial"),
    "determinant2": (determinant2, "cell", "an int or Fraction"),
    "RectMatrixTriple": (lambda m: RectMatrixTriple.from_rows(m, m, m), "a1 cell", "an int or Fraction"),
}


def _diagonal(value):
    return [[value, 0], [0, value]]


@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
@pytest.mark.parametrize("value", [1.5, 2j, "ab", True, None, 0.0], ids=repr)
def test_matrix_kernels_refuse_inexact_values(entry, value):
    call, where, kinds = MATRIX_ENTRY_POINTS[entry]
    message = f"{where} (0,0) holds {value!r}, not {kinds}"
    with pytest.raises(ToolkitError, match=f"^{re.escape(message)}$"):
        call(_diagonal(value))


@pytest.mark.parametrize("entry", ["determinant2", "RectMatrixTriple"])
def test_eliminating_kernels_refuse_polynomials(entry):
    # Bareiss elimination divides, and a Polynomial has no division
    call, where, kinds = MATRIX_ENTRY_POINTS[entry]
    x = Polynomial({1: 1})
    message = f"{where} (0,0) holds {x!r}, not {kinds}"
    with pytest.raises(ToolkitError, match=f"^{re.escape(message)}$"):
        call(_diagonal(x))


def test_matrix_value_check_comes_after_the_shape_and_ryser_checks():
    with pytest.raises(ToolkitError, match="^permanent needs a square matrix$"):
        permanent2([[1.5, 2], [3]])
    with pytest.raises(GuardExceeded, match="^Ryser guard is n <= 20, got n = 21$"):
        permanent2([[1.5] * 21 for _ in range(21)])
    with pytest.raises(ToolkitError, match="^determinant needs a square matrix$"):
        determinant2([[1.5, 2], [3]])
    with pytest.raises(ToolkitError, match="^ragged matrix$"):
        RectMatrixTriple.from_rows([[1.5, 2], [3]], [[1, 2], [3, 4]], [[1, 2], [3, 4]])
    with pytest.raises(ToolkitError, match=r"^a3 cell \(1,0\) holds 0\.5, not an int or Fraction$"):
        RectMatrixTriple.from_rows([[1, 2], [3, 4]], [[1, 2], [3, 4]], [[1, 2], [0.5, 4]])


@pytest.mark.parametrize("value", [3, -2, Fraction(3, 2)], ids=repr)
def test_matrix_kernels_keep_exact_values(value):
    m = _diagonal(value)
    assert permanent2(m) == determinant2(m) == value**2
    triple = RectMatrixTriple.from_rows(m, m, m)
    assert binet_cauchy_rhs(triple) == determinant3(binet_cauchy_C(triple)) == value**6
    x = Polynomial({1: 1})
    assert permanent2([[x, 1], [1, x]]) == Polynomial({0: 1, 2: 1})
