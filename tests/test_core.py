"""Configuration model, validation, matching enumeration and tripartitions."""

import functools
import hashlib
import heapq
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_kernel_enumerator,
    brute_force_matchings,
    brute_force_strong_matchings,
    counting_index,
    cover_graph_size,
    disjoint_union,
    mask_items,
    octahedron_boundary,
    path_matching_sum,
    places_made,
    traced_peak,
    random_config,
)
import kas3.algebra as algebra
import kas3.core as core
from kas3.algebra import Polynomial
from kas3.core import (
    CoverIndex,
    TriangularConfiguration,
    check_edge_tripartition,
    check_vertex_tripartition,
    cycle_space_weight_enumerator,
    defect,
    enumerate_matchings_with_defect_within,
    enumerate_perfect_strong_matchings,
    find_edge_tripartition,
    find_vertex_tripartition,
    parse_config_doc,
    perfect_matching_polynomial,
    perfect_matchings,
    validate,
)
from kas3.errors import GuardExceeded, NotAMatching, SchemaError, ToolkitError
from kas3.tensor3 import vertex_adjacency
from kas3._util import canonical_json


def single_triangle() -> TriangularConfiguration:
    return TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})


class TestValidate:
    def test_single_triangle_is_valid(self):
        assert validate(single_triangle()) == []

    def test_dangling_edge(self):
        config = TriangularConfiguration(["a", "b"], {"t": ("a", "b", "ghost")})
        assert any("dangling edge" in v for v in validate(config))

    def test_duplicate_triangle(self):
        config = TriangularConfiguration(
            ["a", "b", "c"], {"t1": ("a", "b", "c"), "t2": ("c", "b", "a")}
        )
        assert any("share the edge triple" in v for v in validate(config))

    def test_two_triangles_sharing_two_edges(self):
        config = TriangularConfiguration(
            ["a", "b", "c", "d"], {"t1": ("a", "b", "c"), "t2": ("a", "b", "d")}
        )
        assert any("share two edges" in v for v in validate(config))

    def test_repeated_edge_in_triangle(self):
        config = TriangularConfiguration(["a", "b"], {"t": ("a", "a", "b")})
        assert any("repeated or missing" in v for v in validate(config))

    def test_loop_edge(self):
        assert validate(TriangularConfiguration({"a": ("u", "u")})) == ["edge 'a' is a loop on vertex 'u'"]

    def test_triangle_on_one_shared_vertex(self):
        # each pair of edges meets in a, so the triangle has no three corners
        config = TriangularConfiguration({"x": ("a", "b"), "y": ("a", "c"), "z": ("a", "d")}, {"t": ("x", "y", "z")})
        assert validate(config) == ["triangle 't' does not span three distinct vertices"]

    def test_vertex_level_condition(self):
        # edges b and c do not share a vertex, so the triangle cannot close
        config = TriangularConfiguration(
            {"a": ("u", "v"), "b": ("v", "w"), "c": ("x", "y")},
            {"t": ("a", "b", "c")},
        )
        assert any("share 0 vertices" in v for v in validate(config))

    def test_valid_with_vertex_data(self):
        config = TriangularConfiguration(
            {"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "u")},
            {"t": ("a", "b", "c")},
        )
        assert validate(config) == []

    @staticmethod
    def pairwise_shared_pairs(config) -> list[str]:
        """Reference: compare every pair of triangles through their edge sets."""
        out = []
        ids = config.triangle_ids
        for i, t1 in enumerate(ids):
            for t2 in ids[i + 1 :]:
                common = set(config.triangle_edges(t1)) & set(config.triangle_edges(t2))
                if len(common) == 2:
                    out.append(f"triangles {t1!r} and {t2!r} share two edges {sorted(common)}")
        return out

    def test_shared_pairs_match_pairwise_reference(self):
        # malformed on purpose: repeated edges, one to four edges per triangle,
        # duplicate triples (three shared edges, never reported) and dangling ids
        rng = random.Random(7)
        reported = 0
        for _ in range(400):
            edges = [f"e{i}" for i in range(rng.randint(2, 8))]
            triangles = {
                f"t{t}": [rng.choice(edges + ["ghost"]) for _ in range(rng.choice([1, 2, 3, 3, 3, 4]))]
                for t in range(rng.randint(0, 14))
            }
            config = TriangularConfiguration(edges, triangles)
            expected = self.pairwise_shared_pairs(config)
            assert [v for v in validate(config) if "share two edges" in v] == expected
            reported += len(expected)
        assert reported > 100

    def test_long_strip(self):
        config = strip_config(5000)
        assert validate(config) == []
        edges = {e: config.edge_ends(e) for e in config.edge_ids}
        edges["extra"] = None
        triangles = {t: config.triangle_edges(t) for t in config.triangle_ids}
        triangles["x"] = ("v10~v11", "v11~v12", "extra")
        assert validate(TriangularConfiguration(edges, triangles)) == [
            "triangles 't10' and 'x' share two edges ['v10~v11', 'v11~v12']"
        ]


class TestDefect:
    def test_empty_matching_leaves_everything(self):
        config = single_triangle()
        assert defect(config, []) == frozenset({"a", "b", "c"})

    def test_perfect_matching_has_empty_defect(self):
        assert defect(single_triangle(), ["t"]) == frozenset()

    def test_overlap_raises(self):
        config = TriangularConfiguration(
            ["a", "b", "c", "d", "e"], {"t1": ("a", "b", "c"), "t2": ("c", "d", "e")}
        )
        with pytest.raises(NotAMatching):
            defect(config, ["t1", "t2"])
        assert defect(config, ["t1"]) == frozenset({"d", "e"})

    def test_unknown_triangle_raises(self):
        with pytest.raises(ToolkitError):
            defect(single_triangle(), ["ghost"])

    def test_defect_partitions_edges(self):
        rng = random.Random(11)
        for _ in range(25):
            config = random_config(rng)
            for matching in enumerate_matchings_with_defect_within(config, config.edge_ids)[:20]:
                gap = defect(config, matching)
                covered = set()
                for t in matching:
                    covered.update(config.triangle_edges(t))
                assert gap | covered == set(config.edge_ids)
                assert gap & covered == set()


def brute_force_exact_covers(item_count, options):
    """Sorted index tuples of every option subset that covers each item exactly once."""
    full = (1 << item_count) - 1
    out = []
    for r in range(len(options) + 1):
        for subset in itertools.combinations(range(len(options)), r):
            covered = 0
            for oi in subset:
                if covered & options[oi]:
                    break
                covered |= options[oi]
            else:
                if covered == full:
                    out.append(subset)
    return sorted(out)


class TestExactCovers:
    def test_random_instances_match_subset_enumeration(self):
        rng = random.Random(5)
        for _ in range(150):
            item_count = rng.randint(0, 12)
            options = []
            for _ in range(rng.randint(0, 12) if item_count else 0):
                size = rng.choice((1, 1, 2, 2, 3, rng.randint(1, item_count)))
                mask = 0
                for item in rng.sample(range(item_count), min(size, item_count)):
                    mask |= 1 << item
                options.append(mask)
            covers = [tuple(sorted(cover)) for cover in CoverIndex(item_count, mask_items(options)).covers()]
            assert sorted(covers) == brute_force_exact_covers(item_count, options)

    def test_edge_cases(self):
        assert list(CoverIndex(0, []).covers()) == [[]]
        assert list(CoverIndex(2, []).covers()) == []
        # item 2 is in no option
        assert list(CoverIndex(3, mask_items([0b011, 0b001, 0b010])).covers()) == []
        assert list(CoverIndex(1, mask_items([0b1, 0b1])).covers()) == [[0], [1]]

    def test_yield_order_is_pinned(self):
        # items 0-3; every item starts with 3 options, so the root branches on
        # item 0 and each cover lists its options in the order they were chosen
        options = [0b0011, 0b1100, 0b0001, 0b0010, 0b0110, 0b1000, 0b1001, 0b0100]
        assert list(CoverIndex(4, mask_items(options)).covers()) == [
            [0, 1],
            [0, 7, 5],
            [2, 3, 1],
            [2, 3, 7, 5],
            [2, 4, 5],
            [6, 3, 7],
            [6, 4],
        ]


def random_cover_instance(rng: random.Random) -> tuple[int, list[int]]:
    item_count = rng.randint(0, 12)
    options = []
    for _ in range(rng.randint(0, 14) if item_count else 0):
        size = rng.choice((1, 1, 2, 2, 3, rng.randint(1, item_count)))
        mask = 0
        for item in rng.sample(range(item_count), min(size, item_count)):
            mask |= 1 << item
        options.append(mask)
    return item_count, options


class TestExactCoverSum:
    def test_fold_matches_subset_enumeration(self):
        rng = random.Random(8)
        for _ in range(200):
            item_count, options = random_cover_instance(rng)
            values = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in options]
            covers = brute_force_exact_covers(item_count, options)
            expected = sum(math.prod(values[oi] for oi in cover) for cover in covers)
            assert CoverIndex(item_count, mask_items(options)).fold(values) == expected
            assert CoverIndex(item_count, mask_items(options)).fold([1] * len(options)) == len(covers)

    def test_signs_follow_the_enumeration_order(self):
        # a term's sign is fixed by the items covered before each of its
        # options, so the fold must agree with the enumerate mode's order
        rng = random.Random(9)
        for _ in range(200):
            item_count, options = random_cover_instance(rng)
            values = [rng.choice((-2, 1, 3)) for _ in options]
            signs = [rng.getrandbits(max(item_count, 1)) for _ in options]
            expected = 0
            for cover in CoverIndex(item_count, mask_items(options)).covers():
                covered, term = 0, 1
                for oi in cover:
                    term *= -values[oi] if (covered & signs[oi]).bit_count() & 1 else values[oi]
                    covered |= options[oi]
                expected += term
            assert CoverIndex(item_count, mask_items(options)).fold(values, signs) == expected

    def test_empty_sum_and_empty_product(self):
        assert CoverIndex(0, []).fold([]) == 1
        assert CoverIndex(2, []).fold([]) == 0
        assert CoverIndex(3, mask_items([0b011, 0b001, 0b010])).fold([1, 1, 1]) == 0
        assert CoverIndex(1, mask_items([0b1, 0b1])).fold([2, 3]) == 5

    def test_fold_depth_is_not_bounded_by_recursion_limit(self):
        options = [0b111 << 3 * i for i in range(3000)]
        assert CoverIndex(9000, mask_items(options)).fold([2] * 3000) == 2**3000
        edges = {
            f"e{i}": (f"v{i}", f"v{i + 1 if i % 3 < 2 else i - 2}") for i in range(9000)
        }
        edge_ids = sorted(edges, key=lambda e: int(e[1:]))
        triangles = {f"t{i:04d}": tuple(edge_ids[3 * i : 3 * i + 3]) for i in range(3000)}
        config = TriangularConfiguration(edges, triangles)
        # the listing reads the fold's count before its first cover
        assert enumerate_perfect_strong_matchings(config) == [tuple(sorted(triangles))]


class TestFoldReplay:
    """Every fold over one `CoverIndex` sums the state graph its first fold built."""

    @staticmethod
    def random_fold(rng: random.Random, item_count: int, size: int) -> tuple[list, list[int] | None]:
        x = Polynomial.monomial(1)
        pool = {
            "int": (-3, -2, -1, 1, 2, 5),
            "fraction": (Fraction(1, 2), Fraction(-2, 3), 3),
            "polynomial": (x, 1 - x, 2 * x, -1),
        }[rng.choice(("int", "fraction", "polynomial"))]
        values = [rng.choice(pool) for _ in range(size)]
        signs = [rng.getrandbits(max(item_count, 1)) for _ in range(size)] if rng.random() < 0.5 else None
        return values, signs

    @staticmethod
    def unsigned_sum(item_count: int, options: list[int], values: list):
        """The unsigned fold's sum, by the subset enumeration up to 14 options and
        past them by a recursion on the lowest uncovered item; neither uses the index."""
        if len(options) <= 14:
            return sum(math.prod(values[oi] for oi in c) for c in brute_force_exact_covers(item_count, options))
        full = (1 << item_count) - 1

        @functools.cache
        def below(covered: int):
            if covered == full:
                return 1
            low = ~covered & (covered + 1)
            return sum(
                (values[oi] * below(covered | mask) for oi, mask in enumerate(options) if mask & low and not mask & covered),
                0,
            )

        return below(0)

    def test_three_folds_equal_fresh_folds(self):
        rng = random.Random(11)
        for _ in range(200):
            item_count, options = random_cover_instance(rng)
            if rng.random() < 0.3:  # a larger instance, with more states
                item_count = 15
                options = [sum(1 << i for i in rng.sample(range(15), rng.randint(1, 4))) for _ in range(30)]
            folds = [self.random_fold(rng, item_count, len(options)) for _ in range(3)]
            expected = [CoverIndex(item_count, mask_items(options)).fold(*fold) for fold in folds]
            for (values, signs), total in zip(folds, expected):
                if signs is None:
                    assert total == self.unsigned_sum(item_count, options, values)
            index = core.CoverIndex(item_count, mask_items(options))
            assert [index.fold(*fold) for fold in folds] == expected

    def test_every_graph_state_reaches_a_full_cover(self):
        rng = random.Random(13)
        for _ in range(200):
            item_count, options = random_cover_instance(rng)
            index = core.CoverIndex(item_count, mask_items(options))
            count = index.fold([1] * len(options))
            graph = index.graph
            full = (1 << item_count) - 1
            reaches: list[bool] = []
            for pos, (covered, arcs) in enumerate(graph):
                assert [oi for oi, _, _ in arcs] == sorted(oi for oi, _, _ in arcs)
                children = []
                for oi, forced, child in arcs:  # an arc's options are disjoint and lead to its child
                    assert child < pos  # children come first
                    grown = covered
                    for o in (oi, *forced):
                        assert not grown & options[o]
                        grown |= options[o]
                    assert grown == graph[child][0]
                    children.append(child)
                reaches.append(covered == full if not arcs else any(reaches[c] for c in children))
            assert all(reaches)
            # every state but the root is closed: each uncovered item has two or more usable options
            for covered, _ in graph[:-1]:
                uncovered = [i for i in range(item_count) if not covered >> i & 1]
                assert all(sum(1 for m in options if m >> i & 1 and not m & covered) >= 2 for i in uncovered)
            assert len({covered for covered, _ in graph}) == len(graph)
            assert (graph == []) == (count == 0) == (not brute_force_exact_covers(item_count, options))

    def test_graph_guard_boundary(self, monkeypatch):
        rng = random.Random(14)
        sizes = 0
        while sizes < 20:
            item_count, options = random_cover_instance(rng)
            size = cover_graph_size(item_count, mask_items(options))
            if size < 2:
                continue
            sizes += 1
            expected = CoverIndex(item_count, mask_items(options)).fold([2] * len(options))
            monkeypatch.setattr(core, "COVER_GRAPH_MAX_SIZE", size)
            assert core.CoverIndex(item_count, mask_items(options)).fold([2] * len(options)) == expected
            monkeypatch.setattr(core, "COVER_GRAPH_MAX_SIZE", size - 1)
            index = core.CoverIndex(item_count, mask_items(options))
            with pytest.raises(GuardExceeded, match=f"cover graph guard is {size - 1} states"):
                index.fold([2] * len(options))
            assert index.graph is None  # no partial graph is kept
            with pytest.raises(GuardExceeded):
                index.fold([1] * len(options))
            assert index.graph is None
            monkeypatch.undo()

    def test_replay_makes_no_choice(self):
        rng = random.Random(12)
        for _ in range(50):
            item_count, options = random_cover_instance(rng)
            index, work = counting_index(item_count, mask_items(options))
            first = index.fold([1] * len(options))
            graph, built = index.graph, work()
            assert index.fold([1] * len(options)) == first
            assert index.fold([2] * len(options)) == sum(2 ** len(c) for c in brute_force_exact_covers(item_count, options))
            assert work() == built and index.graph is graph

    def test_listing_after_a_fold_makes_no_choice(self):
        rng = random.Random(15)
        for _ in range(50):
            item_count, options = random_cover_instance(rng)
            index, work = counting_index(item_count, mask_items(options))
            count = index.fold([1] * len(options))
            graph, built = index.graph, work()
            covers = list(index.covers())
            assert work() == built and index.graph is graph
            assert len(covers) == count
            assert sorted(tuple(sorted(c)) for c in covers) == brute_force_exact_covers(item_count, options)

    def test_listing_guard_after_a_fold_builds_nothing(self, monkeypatch):
        rng = random.Random(19)
        checked = 0
        while checked < 20:
            item_count, options = random_cover_instance(rng)
            index, work = counting_index(item_count, mask_items(options))
            count = index.fold([1] * len(options))
            if count < 1:
                continue
            checked += 1
            graph, built = index.graph, work()
            expected = list(CoverIndex(item_count, mask_items(options)).covers())
            monkeypatch.setattr(core, "COVER_LIST_MAX", count)
            assert list(index.covers()) == expected
            monkeypatch.setattr(core, "COVER_LIST_MAX", count - 1)
            with pytest.raises(GuardExceeded, match=f"^cover listing guard is {count - 1} covers, got {count}$"):
                next(index.covers())
            assert work() == built and index.graph is graph  # the refusal keeps the graph
            monkeypatch.undo()

    def test_listing_twice_builds_once(self):
        rng = random.Random(16)
        for _ in range(50):
            item_count, options = random_cover_instance(rng)
            index, work = counting_index(item_count, mask_items(options))
            first = list(index.covers())
            graph, built = index.graph, work()
            assert graph is not None and built > 0
            assert list(index.covers()) == first
            assert work() == built and index.graph is graph

    def test_listing_past_the_guard_keeps_no_graph(self, monkeypatch):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            item_count, options = random_cover_instance(rng)
            size = cover_graph_size(item_count, mask_items(options))
            if size < 2:
                continue
            checked += 1
            expected = list(CoverIndex(item_count, mask_items(options)).covers())
            monkeypatch.setattr(core, "COVER_GRAPH_MAX_SIZE", size)
            assert list(core.CoverIndex(item_count, mask_items(options)).covers()) == expected
            monkeypatch.setattr(core, "COVER_GRAPH_MAX_SIZE", size - 1)
            index = core.CoverIndex(item_count, mask_items(options))
            with pytest.raises(GuardExceeded, match=f"cover graph guard is {size - 1} states"):
                next(index.covers())
            assert index.graph is None
            monkeypatch.undo()


class TestForcedClosure:
    """Every step forced: the closure applies a whole chain inside one search step."""

    def test_forced_chain_longer_than_recursion_limit(self):
        rng = random.Random(18)
        for item_count in (5000, 5001):  # a path of items, option i joining items i and i + 1
            options = [(i, i + 1) for i in range(item_count - 1)]
            values = [rng.choice((-2, -1, 1, 3)) for _ in options]
            index = CoverIndex(item_count, options)
            assert index.fold(values) == path_matching_sum(item_count, values)
            covers = [sorted(cover) for cover in index.covers()]
            assert covers == ([list(range(0, item_count - 1, 2))] if item_count % 2 == 0 else [])
            # the root forces the whole matching: one arc to the full cover
            assert len(index.graph) == (2 if covers else 0)
            assert index.states_visited >= item_count // 2


class TestGraphShape:
    """The state graph, its forced options and the search's work, pinned over a fixed family:
    a rewrite of the build must keep every graph as it is."""

    @staticmethod
    def family():
        from kas3.kasteleyn_construct import build_T
        from kas3.lattice import cubic_lattice
        from kas3.tensor3 import Tensor3, _support_options

        rng = random.Random(27)
        for _ in range(200):
            item_count, options = random_cover_instance(rng)
            yield item_count, mask_items(options)
        yield 0, []  # the root is the full cover
        yield 2, [(0,)]  # a dead root
        yield 50, [(i, i + 1) for i in range(49)]  # the root forces every option
        # the root forces option 0 and branches: option 1 reaches the full cover
        # through forced option 2, option 3 reaches it directly
        yield 3, [(0,), (1,), (2,), (1, 2)]
        box = cubic_lattice(2, 3, 3).graph
        yield box.matching_problem(sorted(box.edges))
        ones = Tensor3((5, 5, 5), dict.fromkeys(itertools.product(range(5), repeat=3), 1))
        for tensor in (build_T([[1, 1, 0], [1, 1, 1], [0, 1, 1]]).tensor, ones):
            item_count, _cells, options = _support_options(tensor)
            yield item_count, options

    def test_graph_shape_is_pinned(self):
        digest = hashlib.sha256()
        for item_count, options in self.family():
            index = CoverIndex(item_count, options)
            index.fold([1] * len(options))
            digest.update(json.dumps([index.graph, index.states_visited, index.arcs_kept]).encode())
        assert digest.hexdigest() == "7fd2cbb5b8f17df4554dee1d13f27a635fbef77125ded8ff3ba1e21088d5a2b1"


class TestEnumeration:
    def test_unknown_allowed_edge_is_refused(self):
        with pytest.raises(ToolkitError, match="^unknown edge 'zz'$"):
            enumerate_matchings_with_defect_within(single_triangle(), ["zz"])

    def test_unconstrained_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(20):
            config = random_config(rng)
            allowed = config.edge_ids
            assert enumerate_matchings_with_defect_within(config, allowed) == \
                brute_force_matchings(config, allowed)

    def test_random_allowed_sets_match_brute_force(self):
        rng = random.Random(6)
        for _ in range(25):
            config = random_config(rng)
            k = rng.randint(0, len(config.edge_ids))
            allowed = rng.sample(config.edge_ids, k)
            assert enumerate_matchings_with_defect_within(config, allowed) == \
                brute_force_matchings(config, allowed)

    def test_edge_outside_triangles_blocks_perfection(self):
        config = TriangularConfiguration(
            ["a", "b", "c", "lonely"], {"t": ("a", "b", "c")}
        )
        assert perfect_matchings(config) == []

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        edges = [f"e{i}" for i in range(9000)]
        triangles = {f"t{i:04d}": tuple(edges[3 * i : 3 * i + 3]) for i in range(3000)}
        config = TriangularConfiguration(edges, triangles)
        assert perfect_matchings(config) == [tuple(sorted(triangles))]

    def test_monotone_in_allowed(self):
        rng = random.Random(7)
        for _ in range(15):
            config = random_config(rng)
            edges = list(config.edge_ids)
            small = rng.sample(edges, rng.randint(0, len(edges)))
            large = small + [e for e in edges if e not in small and rng.random() < 0.5]
            inner = set(enumerate_matchings_with_defect_within(config, small))
            outer = set(enumerate_matchings_with_defect_within(config, large))
            assert inner <= outer


class TestCoverMaskGuard:
    """Configuration problems meet the one mask guard of `CoverIndex`, options * items bits."""

    @pytest.mark.parametrize(
        "solve, options, items",
        [
            (perfect_matching_polynomial, 8, 12),
            (lambda config: enumerate_matchings_with_defect_within(config, ["x0y0", "y1z1"]), 10, 12),
            (enumerate_perfect_strong_matchings, 8, 6),
        ],
        ids=["perfect_matching_polynomial", "enumerate_matchings_with_defect_within", "enumerate_perfect_strong_matchings"],
    )
    def test_guard_boundary(self, monkeypatch, solve, options, items):
        # a fresh configuration per call: a configuration keeps its perfect-matching index
        expected = solve(octahedron_boundary())
        assert expected
        bits = options * items
        monkeypatch.setattr(core, "SUPPORT_MAX_BITS", bits)
        assert solve(octahedron_boundary()) == expected
        monkeypatch.setattr(core, "SUPPORT_MAX_BITS", bits - 1)
        with pytest.raises(GuardExceeded, match=f"cover mask guard is {bits - 1} bits .* got {bits}$"):
            solve(octahedron_boundary())

    def test_long_strip_is_refused_before_any_mask(self):
        # the masks would take 20000 triangles * 40001 edges = 8.0e8 bits, 100 MB
        config = strip_config(20000)
        with traced_peak() as peak:
            with pytest.raises(GuardExceeded, match="cover mask guard is 268435456 bits .* got 800020000$"):
                perfect_matching_polynomial(config)
        assert peak[0] < 64 << 20

    def test_the_mask_guard_is_met_in_the_first_pass(self):
        # 20000 disjoint three-item options over 60000 items: 1.2e9 bits of masks, 150 MB
        options = [(3 * o, 3 * o + 1, 3 * o + 2) for o in range(20000)]
        with traced_peak() as peak:
            index = CoverIndex(60000, options)
        assert peak[0] < 1 << 20 and index.masks is None and index.graph is None
        for _ in range(2):  # a refused pass keeps nothing, so the next one meets the guard again
            with pytest.raises(GuardExceeded) as refused:
                index.count()
            assert str(refused.value) == "cover mask guard is 268435456 bits (options * items), got 1200000000"
            assert index.masks is None and index.graph is None


def _tampered_witness():
    """The signing certificate of a construction whose tensor was swapped for
    the all-ones 3x3x3, which fails and walks its 36 pairs for a witness."""
    from dataclasses import replace

    from kas3.kasteleyn_construct import build_T, certify_trivial_signing
    from kas3.tensor3 import Tensor3

    ones = Tensor3((3, 3, 3), dict.fromkeys(itertools.product(range(3), repeat=3), 1))
    cert = certify_trivial_signing(replace(build_T([[1]]), tensor=ones))
    return cert.passed, cert.contributing_pairs, cert.witness


def _diagonals():
    from kas3.kasteleyn_construct import build_T
    from kas3.tensor3 import support_diagonals

    return list(support_diagonals(build_T([[1, 1, 0], [1, 1, 1], [0, 1, 1]]).tensor))


class TestCoverListGuard:
    """Every listing is a `CoverIndex.covers` walk, refused past `COVER_LIST_MAX`
    covers before the first is yielded."""

    @pytest.mark.parametrize(
        "solve, count",
        [
            (lambda: perfect_matchings(disjoint_union([octahedron_boundary()] * 3)), 8),
            (_diagonals, 3),
            (_tampered_witness, 36),
        ],
        ids=["perfect_matchings", "support_diagonals", "signing_witness"],
    )
    def test_guard_boundary(self, monkeypatch, solve, count):
        expected = solve()
        assert expected
        monkeypatch.setattr(core, "COVER_LIST_MAX", count)
        assert solve() == expected
        monkeypatch.setattr(core, "COVER_LIST_MAX", count - 1)
        with pytest.raises(GuardExceeded, match=f"^cover listing guard is {count - 1} covers, got {count}$"):
            solve()

    def test_refused_before_the_first_diagonal(self, monkeypatch):
        from kas3.kasteleyn_construct import build_T
        from kas3.tensor3 import support_diagonals

        diagonals = support_diagonals(build_T([[1, 1], [1, 1]]).tensor)
        monkeypatch.setattr(core, "COVER_LIST_MAX", 1)
        with pytest.raises(GuardExceeded, match="^cover listing guard is 1 covers, got 2$"):
            next(diagonals)


class TestPerfectMatchingPolynomial:
    def test_single_triangle_weight(self):
        assert perfect_matching_polynomial(single_triangle(), {"t": 5}) == Polynomial({5: 1})

    def test_shared_edge_kills_matchings(self):
        config = TriangularConfiguration(
            ["a", "b", "c", "d", "e"], {"t1": ("a", "b", "c"), "t2": ("c", "d", "e")}
        )
        assert not perfect_matching_polynomial(config)

    def test_value_at_one_counts_matchings(self):
        rng = random.Random(9)
        for _ in range(20):
            config = random_config(rng)
            count = len(perfect_matchings(config))
            assert perfect_matching_polynomial(config)(1) == count

    @staticmethod
    def two_matchings() -> TriangularConfiguration:
        # perfect matchings {t1, t2} and {t3, t4}; t5 lies in none of them
        triangles = {
            "t1": ("a", "b", "c"), "t2": ("d", "e", "f"),
            "t3": ("a", "d", "e"), "t4": ("b", "c", "f"), "t5": ("a", "b", "d"),
        }
        return TriangularConfiguration(list("abcdef"), triangles)

    def test_negative_weight_with_non_negative_totals(self):
        assert perfect_matching_polynomial(self.two_matchings(), {"t1": -1}) == Polynomial({0: 1, 2: 1})

    def test_negative_total_weight_raises(self):
        with pytest.raises(ToolkitError, match="negative exponent -4"):
            perfect_matching_polynomial(self.two_matchings(), {"t1": -5})

    def test_negative_weight_outside_every_matching_is_ignored(self):
        assert perfect_matching_polynomial(self.two_matchings(), {"t5": -7}) == Polynomial({2: 2})

    def test_polynomial_lists_no_cover(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a weight polynomial listed its covers")

        monkeypatch.setattr(core.CoverIndex, "covers", refuse)
        assert perfect_matching_polynomial(self.two_matchings(), {"t1": -1}) == Polynomial({0: 1, 2: 1})

    def test_against_subset_enumeration(self):
        rng = random.Random(20)
        refused = 0
        for _ in range(300):
            config = random_config(rng, max_triangles=rng.randint(3, 9))
            weights = {t: rng.randint(-4, 5) for t in config.triangle_ids}
            totals = [sum(weights[t] for t in m) for m in brute_force_matchings(config, ())]
            if totals and min(totals) < 0:
                refused += 1
                with pytest.raises(ToolkitError, match=f"^negative exponent {min(totals)} not representable$"):
                    perfect_matching_polynomial(config, weights)
            else:
                expected = Polynomial({total: totals.count(total) for total in totals})
                assert perfect_matching_polynomial(config, weights) == expected
        assert 0 < refused < 300

    def test_triangle_with_no_edges_is_ignored(self):
        config = TriangularConfiguration(list("abc"), {"t": ("a", "b", "c"), "u": ()})
        assert perfect_matching_polynomial(config, {"u": -3}) == Polynomial({1: 1})

    def test_repeated_edge_lifts_by_distinct_edges(self):
        # "r" holds the two items a and b: lifting by its three listed edges
        # would shift the sum by the wrong amount
        config = TriangularConfiguration(list("abcd"), {"r": ("a", "a", "b"), "s": ("c", "d", "d")})
        assert perfect_matching_polynomial(config, {"r": -3, "s": 5}) == Polynomial({2: 1})
        with pytest.raises(ToolkitError, match="^negative exponent -2 not representable$"):
            perfect_matching_polynomial(config, {"r": -3, "s": 1})

    def test_empty_problem_is_one(self):
        assert perfect_matching_polynomial(TriangularConfiguration([])) == Polynomial(1)
        assert CoverIndex(0, []).polynomial([]) == Polynomial(1)


class TestStrongMatchings:
    def test_single_triangle(self):
        config = TriangularConfiguration(
            {"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "u")}, {"t": ("a", "b", "c")}
        )
        assert enumerate_perfect_strong_matchings(config) == [("t",)]

    def test_shared_vertex_blocks_cover(self):
        config = TriangularConfiguration(
            {
                "ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"),
                "cd": ("c", "d"), "ce": ("c", "e"), "de": ("d", "e"),
            },
            {"t1": ("ab", "ac", "bc"), "t2": ("cd", "ce", "de")},
        )
        assert enumerate_perfect_strong_matchings(config) == []

    def test_requires_vertex_data(self):
        with pytest.raises(ToolkitError):
            enumerate_perfect_strong_matchings(single_triangle())

    def test_shares_the_vertex_places_with_the_tripartition_search(self, monkeypatch):
        config = octahedron_boundary()
        made = places_made(monkeypatch)
        classes = find_vertex_tripartition(config)
        assert classes == {"x0": 1, "x1": 1, "y0": 2, "y1": 2, "z0": 3, "z1": 3}
        places = config._vertex_places
        # the vertex-adjacency tensor places its cells by the same vertex places
        tensor, axes = vertex_adjacency(config, classes, {})
        assert axes == (("x0", "x1"), ("y0", "y1"), ("z0", "z1")) and len(tensor.entries) == 8
        assert len(enumerate_perfect_strong_matchings(config)) == 4
        assert config._vertex_places is places
        # the strong matchings read the edge places too, which refuse a dangling edge first
        assert made == [sorted(config.vertices), list(config.edge_ids)]

    def test_matches_brute_force(self, tetrahedron):
        assert enumerate_perfect_strong_matchings(tetrahedron) == \
            brute_force_strong_matchings(tetrahedron)

    def test_count_and_membership_match_brute_force(self):
        rng = random.Random(12)
        for _ in range(60):
            verts = [f"v{i}" for i in range(rng.choice((6, 9)))]
            triples = {tuple(sorted(rng.sample(verts, 3))) for _ in range(rng.randint(1, 12))}
            edges, triangles = {}, {}
            for n, triple in enumerate(sorted(triples)):
                pairs = [(triple[0], triple[1]), (triple[1], triple[2]), (triple[0], triple[2])]
                for u, v in pairs:
                    edges[f"{u}~{v}"] = (u, v)
                triangles[f"t{n}"] = tuple(f"{u}~{v}" for u, v in pairs)
            config = TriangularConfiguration(edges, triangles, verts)
            strong = brute_force_strong_matchings(config)
            index = CoverIndex(len(verts), list(core._vertex_places(config)[1].values()))
            assert index.count() == len(strong)
            assert enumerate_perfect_strong_matchings(config) == strong


class TestTripartitions:
    def test_single_triangle_canonical(self):
        assert find_edge_tripartition(single_triangle()) == {"a": 1, "b": 2, "c": 3}

    def test_vertex_search_refuses_edges_without_ends(self):
        config = TriangularConfiguration(["a", "b", "c"], {"t1": ("a", "b", "c")})
        with pytest.raises(ToolkitError, match="^triangle 't1' lacks vertex data$"):
            find_vertex_tripartition(config)

    def test_tetrahedron_pairs_opposite_edges(self, tetrahedron):
        classes = find_edge_tripartition(tetrahedron)
        assert classes is not None
        assert check_edge_tripartition(tetrahedron, classes) == []
        # opposite edges (disjoint vertex pairs) must share a class
        assert classes["e12"] == classes["e34"]
        assert classes["e13"] == classes["e24"]
        assert classes["e14"] == classes["e23"]

    def test_pins_are_respected(self):
        classes = find_edge_tripartition(single_triangle(), pins={"b": 1})
        assert classes is not None and classes["b"] == 1

    def test_infeasible_pins_give_none(self):
        assert find_edge_tripartition(single_triangle(), pins={"a": 2, "b": 2}) is None

    @pytest.mark.parametrize("cls", [1.0, True, 2.5, "1", None, 0, 4])
    def test_pin_class_must_be_an_integer_class(self, cls):
        with pytest.raises(ToolkitError, match="pin 'a'"):
            find_edge_tripartition(single_triangle(), pins={"a": cls})

    @pytest.mark.parametrize("cls", [1.0, True, 2.5, "1", None])
    def test_checked_class_must_be_an_integer_class(self, cls):
        # a value that is not the int 1, 2 or 3 reads as a missing class, even where it equals one
        config = TriangularConfiguration({"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "u")}, {"t": ("a", "b", "c")})
        assert check_edge_tripartition(config, {"a": cls, "b": 2, "c": 3}) == \
            ["edge 'a' has no class", "triangle 't' has classes [0, 2, 3]"]
        assert check_vertex_tripartition(config, {"u": cls, "v": 2, "w": 3}) == \
            ["vertex 'u' has no class", "triangle 't' has vertex classes [0, 2, 3]"]

    def test_pin_on_unknown_item(self):
        with pytest.raises(ToolkitError, match="unknown item 'z'"):
            find_edge_tripartition(single_triangle(), pins={"z": 1})

    def test_vertex_tripartition_single_triangle(self):
        config = TriangularConfiguration(
            {"ab": ("u", "v"), "bc": ("v", "w"), "ca": ("w", "u")},
            {"t": ("ab", "bc", "ca")},
        )
        classes = find_vertex_tripartition(config)
        assert classes is not None
        assert check_vertex_tripartition(config, classes) == []

    def test_search_completeness_against_brute_force(self):
        # existence must match a full 3^|E| assignment sweep
        import itertools

        rng = random.Random(99)
        checked = 0
        while checked < 30:
            config = random_config(rng)
            if len(config.edge_ids) > 8:
                continue
            checked += 1
            edges = config.edge_ids
            tris = [config.triangle_edges(t) for t in config.triangle_ids]
            exists = any(
                all(sorted(dict(zip(edges, combo))[e] for e in tri) == [1, 2, 3] for tri in tris)
                for combo in itertools.product((1, 2, 3), repeat=len(edges))
            )
            assert (find_edge_tripartition(config) is not None) == exists

    def test_unknown_edge_is_refused_where_it_is_looked_up(self):
        # the first unknown edge in sorted triangle order, then edge order
        config = TriangularConfiguration(["a", "b"], {"u": ("a", "b", "yy"), "t": ("zz", "a", "b")})
        with pytest.raises(ToolkitError, match="triangle 't' references dangling edge 'zz'"):
            find_edge_tripartition(config)
        assert check_edge_tripartition(config, {"a": 1, "b": 2, "yy": 3, "zz": 3}) == [
            "triangle 't' references dangling edge 'zz'",
            "triangle 'u' references dangling edge 'yy'",
        ]

    def test_repeated_edge_gives_none_before_references_are_checked(self):
        config = TriangularConfiguration(["a", "b"], {"t": ("a", "b", "zz"), "u": ("a", "a", "b")})
        assert find_edge_tripartition(config) is None

    def test_odd_wheel_has_no_vertex_tripartition(self):
        spokes = {f"s{i}": ("h", f"v{i}") for i in range(5)}
        rims = {f"r{i}": (f"v{i}", f"v{(i + 1) % 5}") for i in range(5)}
        triangles = {
            f"t{i}": (f"s{i}", f"s{(i + 1) % 5}", f"r{i}") for i in range(5)
        }
        config = TriangularConfiguration({**spokes, **rims}, triangles)
        assert validate(config) == []
        assert find_vertex_tripartition(config) is None


def random_vertex_config(rng: random.Random) -> TriangularConfiguration:
    """Random triangles on up to nine vertices, with endpoint data on every edge."""
    verts = [f"v{i}" for i in range(rng.randint(3, 9))]
    edges, triangles = {}, {}
    for t in range(rng.randint(1, 10)):
        names = []
        for u, v in itertools.combinations(sorted(rng.sample(verts, 3)), 2):
            edges[f"{u}{v}"] = (u, v)
            names.append(f"{u}{v}")
        triangles[f"t{t}"] = names
    return TriangularConfiguration(edges, triangles)


def random_pins(rng: random.Random, items) -> dict[str, int] | None:
    if not items or rng.random() < 0.3:
        return None
    return {x: rng.randint(1, 3) for x in rng.sample(list(items), min(len(items), rng.randint(1, 3)))}


def strip_config(size: int) -> TriangularConfiguration:
    """Edge-sharing strip: triangle i spans vertices i, i+1, i+2."""
    edges, triangles = {}, {}
    for i in range(size):
        names = []
        for a, b in ((i, i + 1), (i + 1, i + 2), (i, i + 2)):
            edges[f"v{a}~v{b}"] = (f"v{a}", f"v{b}")
            names.append(f"v{a}~v{b}")
        triangles[f"t{i}"] = names
    return TriangularConfiguration(edges, triangles)


class TestTripartitionClassings:
    """The exact classings the search returns, pinned across rewrites of its choice rule."""

    @staticmethod
    def classings(seed: int = 2026) -> tuple[list, list]:
        """(pins used, classings found) over seeded random configurations."""
        rng = random.Random(seed)
        pins, found = [], []
        for _ in range(300):
            config = random_config(rng, rng.choice([4, 6, 8, 10]))
            edge_pins = random_pins(rng, config.edge_ids)
            pins.append(edge_pins)
            found += [find_edge_tripartition(config), find_edge_tripartition(config, edge_pins)]
        for _ in range(200):
            config = random_vertex_config(rng)
            edge_pins = random_pins(rng, config.edge_ids)
            vertex_pins = random_pins(rng, sorted(config.vertices))
            pins += [edge_pins, vertex_pins]
            found += [
                find_edge_tripartition(config, edge_pins),
                find_vertex_tripartition(config),
                find_vertex_tripartition(config, vertex_pins),
            ]
        return pins, found

    def test_classings_are_pinned(self):
        pins, found = self.classings()
        assert None in found and any(found)
        digest = hashlib.sha256(canonical_json([pins, found]).encode()).hexdigest()
        assert digest == "e8017ae34084cb0b8d1913590aa05136c0688e3a9f05848ef01f331b70b4fff3"

    @pytest.mark.parametrize("search", [find_edge_tripartition, find_vertex_tripartition])
    def test_long_strip(self, search):
        config = strip_config(5000)
        classes = search(config)
        check = check_edge_tripartition if search is find_edge_tripartition else check_vertex_tripartition
        assert classes is not None and check(config, classes) == []

    @pytest.mark.parametrize(
        "search, digest",
        [
            (find_edge_tripartition, "d67750af51348d66d8a175e87071c7865cad61554ba2b3c0fc785bf2d1e7ab3a"),
            (find_vertex_tripartition, "7a2b2e650cfd6b5c3775478f2585e7f8d7778f50b74bf1c211e57e0b79333f42"),
        ],
        ids=["edge", "vertex"],
    )
    def test_shuffled_strip_classing_is_pinned(self, search, digest):
        # shuffled names make sorted order disagree with the strip's own order
        config = shuffled(strip_config(5000), random.Random(5000))
        classes = search(config)
        assert hashlib.sha256(canonical_json(classes).encode()).hexdigest() == digest

    def test_backtracking_family_is_pinned(self, monkeypatch):
        """Hundreds of triangles near the 3-colouring threshold: the search backtracks
        far enough that its branching heap is rebuilt, and some inputs have no classing."""
        heapifies = []
        monkeypatch.setattr(core, "heapify", lambda heap: heapifies.append(len(heap)) or heapq.heapify(heap))
        pins, found = backtracking_family()
        assert None in found and any(found)
        assert len(heapifies) > len(found)  # more than one per search: the heap was rebuilt
        digest = hashlib.sha256(canonical_json([pins, found]).encode()).hexdigest()
        assert digest == "9861d5ca7d56dfc1cf51a01fa42ddf7a3c838e34bb23c44312c2bf4ffb5100de"

    def test_checker_text_is_pinned(self):
        problems = checker_problems()
        assert [] in problems and any(problems)
        digest = hashlib.sha256(canonical_json(problems).encode()).hexdigest()
        assert digest == "208495a9b9724f72db7acbbf9b9e2190e65cf5d038396695f67b6dfdd66801b3"


def shuffled(config: TriangularConfiguration, rng: random.Random) -> TriangularConfiguration:
    """The configuration, every edge with its ends, with its edge, triangle and vertex names permuted."""
    maps = []
    for names in (config.edge_ids, config.triangle_ids, sorted(config.vertices)):
        image = list(names)
        rng.shuffle(image)
        maps.append(dict(zip(names, image)))
    edge_map, triangle_map, vertex_map = maps
    edges = {edge_map[e]: [vertex_map[v] for v in config.edge_ends(e)] for e in config.edge_ids}
    triangles = {
        triangle_map[t]: [edge_map[e] for e in config.triangle_edges(t)] for t in config.triangle_ids
    }
    return TriangularConfiguration(edges, triangles, {vertex_map[v] for v in config.vertices})


def backtracking_family(seed: int = 4242) -> tuple[list, list]:
    """(pins used, classings found) on 100-400 triangles at 0.8 triangles per item.

    Half the triples are rainbow under a hidden classing (so a classing
    exists unless a pin breaks it), half are uniform (usually none exists).
    """
    rng = random.Random(seed)
    pins, found = [], []
    for kind in ["edge", "vertex"] * 6:
        size = rng.randint(100, 400)
        items = [f"{kind[0]}{i}" for i in range(round(size / 0.8))]
        hidden = {x: rng.randint(1, 3) for x in items}
        by_class = [[x for x in items if hidden[x] == c] for c in (1, 2, 3)]
        planted = rng.random() < 0.5
        triples = [
            [rng.choice(group) for group in by_class] if planted else rng.sample(items, 3)
            for _ in range(size)
        ]
        if kind == "edge":
            config = TriangularConfiguration(items, {f"t{i}": tri for i, tri in enumerate(triples)})
            search = find_edge_tripartition
        else:
            edges, triangles = {}, {}
            for i, tri in enumerate(triples):
                names = []
                for u, v in itertools.combinations(sorted(tri), 2):
                    edges[f"{u}~{v}"] = (u, v)
                    names.append(f"{u}~{v}")
                triangles[f"t{i}"] = names
            config = TriangularConfiguration(edges, triangles)
            search = find_vertex_tripartition
        item_pins = random_pins(rng, config.edge_ids if kind == "edge" else sorted(config.vertices))
        pins.append(item_pins)
        found += [search(config), search(config, item_pins)]
    return pins, found


def checker_problems(seed: int = 77) -> list[list[str]]:
    """Problem lists of both checkers on seeded partial and wrong classings."""
    rng = random.Random(seed)

    def damaged(classes: dict[str, int] | None, items) -> dict:
        classes = dict(classes or {x: rng.randint(1, 3) for x in items})
        for x in rng.sample(sorted(classes), min(len(classes), rng.randint(0, 3))):
            if rng.random() < 0.4:
                del classes[x]
            else:
                classes[x] = rng.choice([0, 1, 2, 3, 4])
        if rng.random() < 0.2:
            classes["stray"] = 2
        return classes

    problems = []
    for _ in range(150):
        config = random_config(rng, rng.choice([4, 6, 8, 10]))
        problems.append(check_edge_tripartition(config, damaged(find_edge_tripartition(config), config.edge_ids)))
    for _ in range(150):
        config = random_vertex_config(rng)
        if rng.random() < 0.2:  # drop the ends of one edge
            edges = {e: config.edge_ends(e) for e in config.edge_ids}
            edges[rng.choice(sorted(edges))] = None
            config = TriangularConfiguration(edges, {t: config.triangle_edges(t) for t in config.triangle_ids})
        vertices = sorted(config.vertices)
        classes = find_vertex_tripartition(config) if config.has_full_vertex_data else None
        problems.append(check_vertex_tripartition(config, damaged(classes, vertices)))
        problems.append(check_edge_tripartition(config, damaged(find_edge_tripartition(config), config.edge_ids)))
    # triangles with a repeated or missing edge
    config = TriangularConfiguration(["a", "b", "c", "d"], {"t": ("a", "b"), "u": ("a", "a", "b"), "v": ("a", "b", "c", "d")})
    problems.append(check_edge_tripartition(config, {"a": 1, "b": 2, "c": 3, "d": 3}))
    return problems


DANGLING_DOC = {"edges": [{"id": "a"}, {"id": "b"}], "triangles": [{"id": "t", "edges": ["a", "b", "zz"]}]}


@pytest.mark.parametrize(
    "call",
    [
        perfect_matchings,
        perfect_matching_polynomial,
        lambda config: enumerate_matchings_with_defect_within(config, ["a"]),
        lambda config: defect(config, ["t"]),
        lambda config: cycle_space_weight_enumerator(config, 2),
        lambda config: cycle_space_weight_enumerator(config, 3),
    ],
    ids=["perfect_matchings", "polynomial", "defect_within", "defect", "kernel_p2", "kernel_p3"],
)
def test_matching_and_cycle_space_paths_refuse_an_unknown_edge(call):
    config = parse_config_doc(DANGLING_DOC)[0]
    with pytest.raises(ToolkitError, match="triangle 't' references dangling edge 'zz'"):
        call(config)


class TestCycleSpace:
    def test_single_triangle_trivial_kernel(self):
        assert cycle_space_weight_enumerator(single_triangle(), 2) == Polynomial({0: 1})

    def test_tetrahedron_kernel(self, tetrahedron):
        assert cycle_space_weight_enumerator(tetrahedron, 2) == Polynomial({0: 1, 4: 1})

    def test_no_triangles(self):
        config = TriangularConfiguration(["a", "b"], {})
        assert cycle_space_weight_enumerator(config, 2) == Polynomial({0: 1})

    def test_gf3_on_tetrahedron_is_trivial(self, tetrahedron):
        # no GF(3) dependency among the four faces: each edge sums to 2, not 0
        assert cycle_space_weight_enumerator(tetrahedron, 3) == Polynomial({0: 1})

    @staticmethod
    def octahedron() -> TriangularConfiguration:
        edges = ["a", "b", "c", "ap", "bp", "cp"] + [f"d{i}" for i in range(1, 7)]
        faces = {
            "top": ("a", "b", "c"), "bot": ("ap", "bp", "cp"),
            "u1": ("a", "d1", "d2"), "n1": ("ap", "d2", "d3"),
            "u2": ("b", "d3", "d4"), "n2": ("bp", "d4", "d5"),
            "u3": ("c", "d5", "d6"), "n3": ("cp", "d6", "d1"),
        }
        return TriangularConfiguration(edges, faces)

    def test_octahedron_kernels_over_gf2_and_gf3(self):
        octa = self.octahedron()
        assert validate(octa) == []
        # dual graph is the cube: one nonzero codeword class per scaling
        assert cycle_space_weight_enumerator(octa, 2) == Polynomial({0: 1, 8: 1})
        assert cycle_space_weight_enumerator(octa, 3) == Polynomial({0: 1, 8: 2})

    def test_constant_term_and_total(self):
        rng = random.Random(13)
        for _ in range(15):
            config = random_config(rng)
            enum = cycle_space_weight_enumerator(config, 2)
            assert enum.coefficient(0) == 1
            total = enum(1)
            assert total & (total - 1) == 0  # power of two: 2^dim

    def test_rejects_composite(self):
        with pytest.raises(ToolkitError):
            cycle_space_weight_enumerator(single_triangle(), 6)

    def test_p_past_the_guard_is_refused_before_its_primality_test(self, tetrahedron, monkeypatch):
        # a zero-dimensional kernel is refused too: the guard reads p alone
        largest = 16777213  # the largest prime below 2^24
        assert cycle_space_weight_enumerator(single_triangle(), largest) == Polynomial({0: 1})

        def refuse(p):
            raise AssertionError("primality tested past the guard")

        monkeypatch.setattr(algebra, "is_prime", refuse)
        for p in (1 << 24 | 1, 1000000000000000003):
            for config in (single_triangle(), tetrahedron):
                with pytest.raises(GuardExceeded, match=rf"GF\({p}\) is beyond the enumeration guard"):
                    cycle_space_weight_enumerator(config, p)

    def test_checks_run_in_order(self, tetrahedron, monkeypatch):
        # p past the guard, then a composite p, then an unknown edge, then the
        # kernel's size; each configuration also fails every later check
        def refuse(*args):
            raise AssertionError("checked out of order")

        monkeypatch.setattr(core, "gf_p_nullspace", refuse)
        union = disjoint_union([tetrahedron] * 25)
        triangles = {t: union.triangle_edges(t) for t in union.triangle_ids}
        dangling = TriangularConfiguration(union.edge_ids, {**triangles, "zz": ("0:e12", "0:e13", "missing")})
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "is_prime", refuse)
            with pytest.raises(GuardExceeded, match=r"GF\(16777217\) is beyond the enumeration guard"):
                cycle_space_weight_enumerator(dangling, 1 << 24 | 1)  # 97 * 172961
        with pytest.raises(ToolkitError, match="^4 is not prime$"):
            cycle_space_weight_enumerator(dangling, 4)
        with pytest.raises(ToolkitError, match="^triangle 'zz' references dangling edge 'missing'$"):
            cycle_space_weight_enumerator(dangling, 2)
        with pytest.raises(GuardExceeded, match=r"^kernel has 2\^25 codewords, beyond the enumeration guard$"):
            cycle_space_weight_enumerator(union, 2)

    @pytest.mark.parametrize("p, max_triangles", [(2, 12), (3, 7), (5, 5)])
    def test_equals_the_brute_force_oracle(self, p, max_triangles):
        # few edges and triangles that share them, repeats included: p^T <= 4096
        rng = random.Random(p)
        nontrivial = 0
        for _ in range(30):
            edges = [f"e{i}" for i in range(rng.randint(3, 8))]
            triangles = {f"t{j}": rng.sample(edges, 3) for j in range(rng.randint(1, max_triangles))}
            config = TriangularConfiguration(edges, triangles)
            expected = brute_force_kernel_enumerator(config, p)
            assert cycle_space_weight_enumerator(config, p) == expected
            nontrivial += expected != 1
        assert nontrivial >= 5

    @pytest.mark.parametrize("p, max_triangles", [(2, 12), (3, 8), (5, 6)])
    def test_macwilliams_identity_with_the_row_space(self, p, max_triangles):
        # K is the kernel of the edge-triangle incidence over GF(p), K⊥ its row space and T
        # the number of triangles: p^dim(K) W_K⊥(z) = sum_w A_w (1 - z)^w (1 + (p - 1) z)^(T - w)
        rng = random.Random(100 + p)
        z = Polynomial.monomial(1)
        nontrivial = 0
        for _ in range(60):
            edges = [f"e{i}" for i in range(rng.randint(3, 8))]
            triangles = {f"t{j}": rng.sample(edges, 3) for j in range(rng.randint(1, max_triangles))}
            config = TriangularConfiguration(edges, triangles)
            tri_ids = config.triangle_ids
            rows = [{j: 1 for j, t in enumerate(tri_ids) if e in config.triangle_edges(t)} for e in config.edge_ids]
            kernel = algebra.gf_p_nullspace(algebra.gf_p_echelon(rows, p), len(tri_ids), p)
            dual = algebra.gf_p_nullspace(algebra.gf_p_echelon(kernel, p), len(tri_ids), p)
            enum = cycle_space_weight_enumerator(config, p)
            rhs = sum(
                c * (1 - z) ** w * (1 + (p - 1) * z) ** (len(tri_ids) - w) for w, c in enum.terms()
            )
            scale = p ** len(kernel)
            assert all(c % scale == 0 for _, c in rhs.terms())
            assert Polynomial({e: c // scale for e, c in rhs.terms()}) == algebra.gf_p_weight_enumerator(dual, p)
            nontrivial += len(kernel) > 0
        assert nontrivial >= 20

    @pytest.mark.parametrize("p, copies", [(2, 24), (3, 15), (5, 10)])
    def test_disjoint_unions_are_powers_of_one_block(self, tetrahedron, p, copies):
        # p^dim is within the guard, but only a factored enumeration is quick
        block = tetrahedron if p == 2 else self.octahedron()
        single = cycle_space_weight_enumerator(block, p)
        assert single == Polynomial({0: 1, 4 if p == 2 else 8: p - 1})
        union = disjoint_union([block] * copies)
        assert cycle_space_weight_enumerator(union, p) == single**copies
        latin = TriangularConfiguration(
            [f"{axis}{i}" for axis in "RCS" for i in range(3)],
            {f"t{i}{j}": (f"R{i}", f"C{j}", f"S{(i + j) % 3}") for i in range(3) for j in range(3)},
        )
        latin_single = cycle_space_weight_enumerator(latin, p)
        assert cycle_space_weight_enumerator(disjoint_union([latin] * 3), p) == latin_single**3

    @pytest.mark.parametrize("p, copies", [(2, 25), (3, 16), (5, 11)])
    def test_guard_is_on_the_total_dimension(self, tetrahedron, p, copies):
        block = tetrahedron if p == 2 else self.octahedron()
        with pytest.raises(GuardExceeded, match=rf"kernel has {p}\^{copies} codewords, beyond the enumeration guard"):
            cycle_space_weight_enumerator(disjoint_union([block] * copies), p)


class TestConfigurationNames:
    def test_non_names_are_refused(self):
        # once read as the names "['b']" and "True", giving one perfect matching
        with pytest.raises(ToolkitError, match=re.escape("triangle edge is not a name (a string or an integer): ['b']")):
            TriangularConfiguration({"a": None, "['b']": None, "True": None}, {"t": ["a", ["b"], True]})

    @pytest.mark.parametrize(
        "args, field",
        [
            ((["a", 1.5],), "edge id"),
            (({"a": None, True: None},), "edge id"),
            (({"e": ("u", None)},), "edge end"),
            ((["a"], {("t",): ["a"]}), "triangle id"),
            ((["a"], {"t": ["a", 2.0]}), "triangle edge"),
            ((["a"], {}, ["u", ["v"]]), "vertex"),
            ((["a"], {}, {"u", frozenset()}), "vertex"),
        ],
        ids=["edge_id_list", "edge_id_map", "edge_end", "triangle_id", "triangle_edge", "vertex_list", "vertex_set"],
    )
    def test_every_name_field_is_checked(self, args, field):
        with pytest.raises(ToolkitError, match=f"^{field} is not a name"):
            TriangularConfiguration(*args)

    @pytest.mark.parametrize(
        "args, field",
        [
            (("abc",), "edges"),
            (({"e": "uv", "f": ("u", "w"), "g": ("v", "w")},), "edge 'e' ends"),
            ((["e", "f", "g"], {"t": "efg"}), "triangle 't' edges"),
            ((["e"], {}, "uvw"), "vertices"),
        ],
        ids=["edges", "edge_ends", "triangle_edges", "vertices"],
    )
    def test_a_string_is_not_a_collection_of_names(self, args, field):
        # once read letter by letter, as the names a, b, c or u, v, w
        with pytest.raises(SchemaError, match=f"^{re.escape(field)} must be a collection of names, not the string "):
            TriangularConfiguration(*args)

    def test_an_edge_has_two_ends(self):
        with pytest.raises(ToolkitError, match="^edge 'e' must have exactly two endpoints$"):
            TriangularConfiguration({"e": ("u", "v", "w")})

    def test_integer_names_are_decimal_text(self):
        config = TriangularConfiguration([1, 2, 3], {5: (1, 2, 3)})
        assert config.edge_ids == ("1", "2", "3") and config.triangle_ids == ("5",)
        assert config.triangle_edges("5") == ("1", "2", "3")
        config = TriangularConfiguration({-1: (7, "u")}, {}, {9, 10})
        assert config.edge_ends("-1") == ("7", "u") and config.vertices == {"10", "9", "7", "u"}


class TestJsonDocs:
    def test_round_trip_is_byte_stable(self):
        config = TriangularConfiguration(
            {"b": ("v", "u"), "a": None, "c": ("u", "w")},
            {"t2": ("a", "b", "c"), "t1": ("c", "b", "a")},
            vertices=["z"],
        )
        doc = config.to_doc()
        text = canonical_json(doc)
        reparsed, _, _, _ = parse_config_doc(doc)
        assert canonical_json(reparsed.to_doc()) == text

    def test_from_doc_round_trips(self):
        doc = {
            "vertices": ["u", "v", "w", "z"],
            "edges": [{"id": "a"}, {"id": "b", "ends": ["u", "v"]}, {"id": "c", "ends": ["u", "w"]}],
            "triangles": [{"id": "t1", "edges": ["a", "b", "c"]}],
        }
        config = TriangularConfiguration.from_doc(doc)
        assert config.to_doc() == doc
        assert TriangularConfiguration.from_doc(config.to_doc()) == config

    def test_repeated_edge_id_is_refused(self):
        doc = {
            "edges": [{"id": "a"}, {"id": "a"}, {"id": "b"}, {"id": "c"}],
            "triangles": [{"id": "t", "edges": ["a", "b", "c"]}],
        }
        with pytest.raises(SchemaError, match="^duplicate edge id 'a'$"):
            parse_config_doc(doc)

    def test_repeated_triangle_id_is_refused(self):
        doc = {
            "edges": [{"id": e} for e in "abc"],
            "triangles": [{"id": "t", "edges": ["a", "b", "c"]}, {"id": "t", "edges": ["a", "b", "c"]}],
        }
        with pytest.raises(SchemaError, match="^duplicate triangle id 't'$"):
            parse_config_doc(doc)

    def test_optional_maps_preserved(self):
        doc = {
            "vertices": [],
            "edges": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "triangles": [{"id": "t", "edges": ["a", "b", "c"]}],
            "weights": {"t": 4},
            "edge_classes": {"a": 1, "b": 2, "c": 3},
        }
        config, weights, classes, vclasses = parse_config_doc(doc)
        assert weights == {"t": 4}
        assert classes == {"a": 1, "b": 2, "c": 3}
        assert vclasses is None
        assert config.triangle_edges("t") == ("a", "b", "c")


small_config_strategy = st.builds(
    random_config, st.integers(0, 10_000).map(random.Random)
)


@settings(max_examples=40, deadline=None)
@given(small_config_strategy)
def test_every_enumerated_matching_is_a_matching(config):
    for matching in enumerate_matchings_with_defect_within(config, config.edge_ids)[:40]:
        seen = set()
        for t in matching:
            edges = set(config.triangle_edges(t))
            assert not (seen & edges)
            seen |= edges


@settings(max_examples=30, deadline=None)
@given(small_config_strategy)
def test_found_tripartitions_are_valid(config):
    classes = find_edge_tripartition(config)
    if classes is not None:
        assert check_edge_tripartition(config, classes) == []
