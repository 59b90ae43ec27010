"""Matrix-to-configuration construction and its two certifications."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    bijection_report_by_listing,
    brute_force_strong_matchings,
    construction_tensor,
    dimers_2x2xn,
    edge_values,
    permanent2_bruteforce,
    with_cell_values,
)
from kas3.core import (
    check_vertex_tripartition,
    enumerate_perfect_strong_matchings,
    find_vertex_tripartition,
    validate,
)
from kas3.errors import GuardExceeded, ToolkitError
from kas3.kasteleyn_construct import (
    build_T,
    certify_trivial_signing,
    matrix_from_doc,
    strong_matching_bijection_check,
)
from kas3.tensor3 import determinant3, permanent2, permanent3, projection_graphs, vertex_adjacency


def _oracle_matrices():
    """Zero, sparse, dense and Fraction matrices, then the benchmark's families:
    all-ones 6, dense 5 and 6, and circulants 5, 6 and 7 with rows and columns
    permuted."""
    rng = random.Random(1407)
    nonzero = [-3, -2, -1, 1, 2, 3]
    cases = [("empty", [])] + [(f"zero{n}", [[0] * n for _ in range(n)]) for n in (1, 2, 3)]
    draws = {
        "sparse": lambda: rng.choice(nonzero) if rng.random() < 0.35 else 0,
        "dense": lambda: rng.choice(nonzero),
        "fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    }
    for n in range(1, 6):
        for copy in range(3):
            for style, draw in draws.items():
                cases.append((f"{style}{n}-{copy}", [[draw() for _ in range(n)] for _ in range(n)]))
    cases.append(("ones6", [[1] * 6 for _ in range(6)]))
    cases += [(f"dense{n}", [[draws["dense"]() for _ in range(n)] for _ in range(n)]) for n in (5, 6)]
    for n, offsets in ((5, (0, 1, 3)), (6, (0, 1, 3)), (7, (0, 1, 2, 4))):
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for offset in offsets:
                matrix[rows[i]][cols[(i + offset) % n]] = rng.choice(nonzero)
        cases.append((f"circulant{n}", matrix))
    return cases


ORACLE_MATRICES = _oracle_matrices()


class TestBuild:
    def test_single_entry(self):
        tc = build_T([[5]])
        assert tc.m == 3 == 1 * 1 + 2 * 1
        assert len(tc.edge_list) == 1
        assert validate(tc.config) == []
        assert permanent3(tc.tensor) == 5

    def test_identity_two(self):
        tc = build_T([[1, 0], [0, 1]])
        assert tc.m == 6
        assert permanent3(tc.tensor) == 1 == permanent2([[1, 0], [0, 1]])

    def test_all_ones_two(self):
        tc = build_T([[1, 1], [1, 1]])
        assert tc.m == 8
        assert permanent3(tc.tensor) == 2

    def test_m_bound_equality_iff_dense(self):
        dense = build_T([[1, 2], [3, 4]])
        assert dense.m == 2 * 2 + 4 == 2 * 2 + 2 * 2  # n^2 + 2n
        sparse = build_T([[1, 0], [0, 1]])
        assert sparse.m < 2 * 2 + 2 * 2

    def test_rejects_non_square(self):
        with pytest.raises(ToolkitError):
            build_T([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (True, "True"), ("3", "'3'")], ids=["float", "bool", "str"])
    def test_rejects_inexact_entries(self, value, shown):
        with pytest.raises(ToolkitError, match=rf"^matrix entry \(0,0\) holds {shown}, not an int or Fraction$"):
            build_T([[value]])

    def test_entry_placement(self):
        m = [[2, 0], [3, -4]]
        tc = build_T(m)
        placed = 0
        for (i, j, k), value in tc.tensor.entries.items():
            if value != 1:
                placed += 1
        # entries 2, 3, -4 are non-unit; every other triangle carries 1
        assert placed == 3
        assert len(tc.tensor.entries) == len(tc.config.triangle_ids)

    def test_nonnegative_matrix_gives_nonnegative_tensor(self):
        tc = build_T([[1, 2], [0, 3]])
        assert all(
            (v >= 0) if isinstance(v, int) else False for v in tc.tensor.entries.values()
        )

    def test_vertex_classes_are_a_tripartition(self):
        tc = build_T([[1, 1], [1, 0]])
        assert check_vertex_tripartition(tc.config, tc.vertex_classes) == []

    @pytest.mark.parametrize("matrix", [m for _, m in ORACLE_MATRICES], ids=[name for name, _ in ORACLE_MATRICES])
    def test_tensor_passes_the_public_checks(self, matrix):
        # build_T writes its cells and classes itself; the checks it does not
        # run are made here: the cell oracle, the vertex tripartition, and the
        # public vertex_adjacency, whose sorted axes are moved to w0/w1/w2 order
        tc = build_T(matrix)
        assert tc.tensor == construction_tensor(tc)
        assert check_vertex_tripartition(tc.config, tc.vertex_classes) == []
        tensor, orders = vertex_adjacency(tc.config, tc.vertex_classes, edge_values(tc))
        axes = (tc.w0, tc.w1, tc.w2)
        assert orders == tuple(tuple(sorted(axis)) for axis in axes)
        to_w = [[axis.index(v) for v in order] for axis, order in zip(axes, orders)]
        moved = {(to_w[0][i], to_w[1][j], to_w[2][k]): v for (i, j, k), v in tensor.entries.items()}
        assert (tensor.dims, moved) == (tc.tensor.dims, tc.tensor.entries)

    def test_pinned_search_recovers_a_tripartition(self):
        tc = build_T([[1]])
        pins = {tc.w0[0]: 1, tc.w1[0]: 2, tc.w2[0]: 3}
        classes = find_vertex_tripartition(tc.config, pins=pins)
        assert classes is not None
        assert check_vertex_tripartition(tc.config, classes) == []


class TestProjectionStructure:
    def test_g1_components(self):
        tc = build_T([[1, 1], [1, 1]])
        graphs = projection_graphs(tc.tensor)
        w0_pos = {name: i for i, name in enumerate(tc.w0)}
        w1_pos = {name: i for i, name in enumerate(tc.w1)}
        edges = graphs.g1.edges
        # copy pairs: v'(1,j) joined to w(0,2,j) only, via one support edge
        for j in range(2):
            incident = [e for e in edges if e[0] == w0_pos[f"w(0,2,{j})"]]
            assert incident == [(w0_pos[f"w(0,2,{j})"], w1_pos[f"v'(1,{j})"])]
        # each left vertex reaches its anchor through deg(v) paths of length 3
        for i in range(2):
            mids = [ei for ei, (a, _b) in enumerate(tc.edge_list) if a == i]
            assert len(mids) == 2
            for ei in mids:
                assert (w0_pos[f"w(0,e{ei})"], w1_pos[f"v(1,{i})"]) in edges
                assert (w0_pos[f"w(0,e{ei})"], w1_pos[f"w(1,e{ei})"]) in edges
                assert (w0_pos[f"w(0,1,{i})"], w1_pos[f"w(1,e{ei})"]) in edges


class TestCertifications:
    def test_trivial_signing_small_cases(self):
        for matrix in ([[3]], [[1, 0], [0, 1]], [[1, 1], [1, 1]], [[1, -2], [3, 4]]):
            tc = build_T(matrix)
            cert = certify_trivial_signing(tc)
            assert cert.passed, cert
            assert cert.contributing_pairs == abs_permanent_support(matrix)

    def test_rewired_triangle_breaks_signing(self):
        from dataclasses import replace

        from kas3.tensor3 import Tensor3

        tc = build_T([[1]])
        entries = dict(tc.tensor.entries)
        row1 = next(key for key in entries if key[0] == 1)
        row2 = next(key for key in entries if key[0] == 2)
        moved = dict(entries)
        del moved[row1], moved[row2]
        moved[(1, row2[1], row1[2])] = entries[row1]
        moved[(2, row1[1], row2[2])] = entries[row2]
        bad_tc = replace(tc, tensor=Tensor3(tc.tensor.dims, moved))
        cert = certify_trivial_signing(bad_tc)
        assert cert.contributing_pairs == 1
        assert not cert.passed
        assert cert.witness == ((1, 2, 0), (2, 1, 0))

    def test_bijection_single_edge(self):
        tc = build_T([[1]])
        report = strong_matching_bijection_check(tc)
        assert report.passed
        assert report.graph_matchings == report.strong_matchings == 1

    def test_bijection_four_cycle(self):
        # support of a 2x2 all-ones matrix is the 4-cycle
        tc = build_T([[1, 1], [1, 1]])
        report = strong_matching_bijection_check(tc)
        assert report.passed
        assert report.graph_matchings == report.strong_matchings == 2

    def test_bijection_isolated_vertex(self):
        tc = build_T([[1, 1], [0, 0]])
        report = strong_matching_bijection_check(tc)
        assert report.passed
        assert report.graph_matchings == report.strong_matchings == 0

    def test_extra_strong_matching_fails_bijection(self):
        # a second triangle on the vertices of tri:gadget[0] adds a strong
        # matching that no support-graph matching maps to
        tc = build_T([[1, 1], [1, 1]])
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        triangles["tri:extra"] = triangles["tri:gadget[0]"]
        report = strong_matching_bijection_check(with_triangles(tc, triangles))
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 2, 2)
        assert report.detail == "the tensor's cells are not the configuration's triangles"

    def test_image_that_is_not_a_strong_matching_fails_bijection(self):
        # swapping two triangle names keeps the strong-matching count at 2
        # but makes each image cover one vertex twice
        tc = build_T([[1, 1], [1, 1]])
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        a, b = "tri:left[0,0]", "tri:left[0,1]"
        triangles[a], triangles[b] = triangles[b], triangles[a]
        report = strong_matching_bijection_check(with_triangles(tc, triangles))
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 2, 2)
        assert report.detail == "image set differs from the 2 enumerated strong matchings"

    def test_image_naming_a_missing_triangle_fails_bijection(self):
        tc = build_T([[1, 1], [1, 1]])
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        triangles["tri:renamed"] = triangles.pop("tri:left[0,0]")
        report = strong_matching_bijection_check(with_triangles(tc, triangles))
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 2, 2)
        assert report.detail == "image set differs from the 2 enumerated strong matchings"

    def test_tampered_values_name_the_first_matching_they_break(self):
        tc = build_T([[1, 1], [1, 1]])
        for triangle, matching in (
            ("tri:edge[0]", "(('v(1,0)', 'v(2,0)'), ('v(1,1)', 'v(2,1)'))"),
            ("tri:gadget[0]", "(('v(1,0)', 'v(2,1)'), ('v(1,1)', 'v(2,0)'))"),
        ):
            report = strong_matching_bijection_check(with_cell_values(tc, {triangle: 7}))
            assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 2, 2)
            assert report.detail == f"weights disagree on {matching}"

    def test_several_broken_matchings_name_the_first_in_name_order(self):
        # tri:gadget[0] is in the image of the four matchings that avoid (0, 0)
        tc = build_T([[1] * 3] * 3)
        report = strong_matching_bijection_check(with_cell_values(tc, {"tri:gadget[0]": 7}))
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 6, 6)
        assert report.detail == \
            "weights disagree on (('v(1,0)', 'v(2,1)'), ('v(1,1)', 'v(2,0)'), ('v(1,2)', 'v(2,2)'))"

    def test_name_order_differs_from_index_order(self):
        # the identity plus the swaps 2 <-> 3 and 9 <-> 10; tampering the gadgets
        # of (2, 2) and (9, 9) breaks every matching but the identity. By row
        # index the swap of 9 and 10 comes first, by name the swap of 2 and 3,
        # since 'v(1,10)' sorts before 'v(1,2)'.
        n = 11
        matrix = [[int(i == j or {i, j} in ({2, 3}, {9, 10})) for j in range(n)] for i in range(n)]
        tc = build_T(matrix)
        gadgets = [f"tri:gadget[{tc.edge_list.index((i, i))}]" for i in (2, 9)]
        report = strong_matching_bijection_check(with_cell_values(tc, dict.fromkeys(gadgets, 7)))
        pairs = [(i, 3 if i == 2 else 2 if i == 3 else i) for i in range(n)]
        first = tuple(sorted((f"v(1,{i})", f"v(2,{j})") for i, j in pairs))
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 4, 4)
        assert report.detail == f"weights disagree on {first}"

    def test_edge_list_that_disagrees_with_the_graph_is_refused(self):
        from dataclasses import replace

        tc = build_T([[1, 1], [1, 1]])
        for edge_list in (tc.edge_list[:-1], tc.edge_list[1:]):
            report = strong_matching_bijection_check(replace(tc, edge_list=edge_list))
            assert (report.passed, report.graph_matchings, report.strong_matchings, report.detail) == (
                False, 1, 2, "image set differs from the 2 enumerated strong matchings"
            )
        # the broken matching is named by the axes' v(1,.) and v(2,.) blocks,
        # which a shortened edge list leaves in place
        report = strong_matching_bijection_check(
            replace(with_cell_values(tc, {"tri:edge[1]": 7}), edge_list=tc.edge_list[:-1])
        )
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 1, 2)
        assert report.detail == (
            "image set differs from the 2 enumerated strong matchings; "
            "weights disagree on (('v(1,0)', 'v(2,1)'), ('v(1,1)', 'v(2,0)'))"
        )

    def test_bijection_guard_fires_before_listing(self, monkeypatch):
        import kas3.core as core
        import kas3.kasteleyn_construct as kc

        listed = []

        class Recording(core.CoverIndex):
            def covers(self):
                for cover in super().covers():
                    listed.append(cover)
                    yield cover

        monkeypatch.setattr(kc, "CoverIndex", Recording)
        tc = build_T([[1] * 3] * 3)
        tampered = with_cell_values(tc, {"tri:edge[0]": 7})
        monkeypatch.setattr(core, "COVER_LIST_MAX", 5)
        # a tampered value sends the check to the walk that names the broken
        # matching, and the listing guard refuses that walk before its first cover
        with pytest.raises(GuardExceeded, match="^cover listing guard is 5 covers, got 6$"):
            strong_matching_bijection_check(tampered)
        assert listed == []
        # the genuine construction is certified by folds alone, so the guard never meets it
        report = strong_matching_bijection_check(tc)
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (True, 6, 6)
        assert listed == []
        monkeypatch.setattr(core, "COVER_LIST_MAX", 6)
        report = strong_matching_bijection_check(tampered)
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 6, 6)
        assert report.detail == \
            "weights disagree on (('v(1,0)', 'v(2,0)'), ('v(1,1)', 'v(2,1)'), ('v(1,2)', 'v(2,2)'))"
        assert len(listed) == 6

    def test_certificates_past_side_64(self):
        from kas3.lattice import cubic_lattice

        # the 2x2x8 box: colour classes of 16 and 60 edges, so side 2 * 16 + 60
        tc = build_T(cubic_lattice(2, 2, 8).graph.biadjacency())
        assert tc.m == 92
        count = dimers_2x2xn(8)
        signing = certify_trivial_signing(tc)
        assert (signing.passed, signing.contributing_pairs) == (True, count)
        report = strong_matching_bijection_check(tc)
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (True, count, count)

    def test_vertex_collection_changes_no_count_or_enumeration(self):
        from kas3.core import TriangularConfiguration

        tc = build_T([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        axes = tc.w0 + tc.w1 + tc.w2
        assert tc.config.vertices == frozenset(axes)
        edges = {e: tc.config.edge_ends(e) for e in tc.config.edge_ids}
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        listed = TriangularConfiguration(edges, triangles, list(axes))
        as_set = TriangularConfiguration(edges, triangles, frozenset(axes))
        assert listed == as_set == tc.config
        renamed = TriangularConfiguration(
            {f"r{e}": [f"r{v}" for v in ends] for e, ends in edges.items()},
            {f"r{t}": [f"r{e}" for e in tri] for t, tri in triangles.items()},
            [f"r{v}" for v in axes],
        )
        assert renamed.vertices == {f"r{v}" for v in axes}
        assert len(enumerate_perfect_strong_matchings(renamed)) == 3
        assert len(enumerate_perfect_strong_matchings(listed)) == 3
        assert enumerate_perfect_strong_matchings(listed) == enumerate_perfect_strong_matchings(as_set)

    def test_strong_matchings_match_brute_force(self):
        tc = build_T([[1, 1], [0, 1]])
        assert enumerate_perfect_strong_matchings(tc.config) == \
            brute_force_strong_matchings(tc.config)


class TestSearchWork:
    def test_stages_share_the_support_search(self, monkeypatch):
        """Indexes built and new states visited by each stage on all-ones 6x6.

        Every `CoverIndex` is recorded as it is made; a stage's states are
        the growth of their `states_visited`, which counts each state a
        search meets, every option its closures force included.
        """
        from kas3.core import CoverIndex

        indexes: list = []
        init = CoverIndex.__init__

        def recording_init(self, item_count, options):
            init(self, item_count, options)
            indexes.append(self)

        monkeypatch.setattr(CoverIndex, "__init__", recording_init)
        tc = build_T([[1] * 6] * 6)

        def work(stage):
            before = len(indexes), sum(index.states_visited for index in indexes)
            stage()
            return len(indexes) - before[0], sum(index.states_visited for index in indexes) - before[1]

        assert work(lambda: permanent3(tc.tensor)) == (1, 1498)
        assert work(lambda: determinant3(tc.tensor)) == (0, 0)
        assert work(lambda: certify_trivial_signing(tc)) == (0, 0)
        assert work(lambda: strong_matching_bijection_check(tc)) == (1, 69)  # graph matchings only

    def test_the_tensor_index_folds_its_count_once(self, monkeypatch):
        from kas3.core import CoverIndex
        from kas3.tensor3 import _support, support_sum

        folds = []
        fold = CoverIndex.fold

        def recording(self, values, signs=None):
            folds.append((self, "signed" if signs else "count" if all(v == 1 for v in values) else "values"))
            return fold(self, values, signs)

        monkeypatch.setattr(CoverIndex, "fold", recording)
        tc = build_T([[1] * 5] * 5)
        assert certify_trivial_signing(tc).passed
        assert strong_matching_bijection_check(tc).passed
        assert support_sum(tc.tensor, indicator=True) == 120
        _cells, index, _items = _support(tc.tensor)
        # the signing's count, the bijection's strong count and the last call read one fold
        assert [kind for at, kind in folds if at is index] == ["count", "signed"]
        # and the support's matchings, a second index, are counted by one fold too
        assert [kind for at, kind in folds if at is not index] == ["count"]

    def test_each_tensor_works_out_its_support_once(self, monkeypatch):
        from dataclasses import replace

        import kas3.tensor3 as tensor3
        from kas3.tensor3 import Tensor3

        worked_out = []
        support_options = tensor3._support_options

        def recording(tensor):
            worked_out.append(tensor)
            return support_options(tensor)

        monkeypatch.setattr(tensor3, "_support_options", recording)
        tc = build_T([[1] * 4] * 4)
        assert permanent3(tc.tensor) == determinant3(tc.tensor) == 24
        assert certify_trivial_signing(tc).passed
        assert strong_matching_bijection_check(tc).passed
        ones = Tensor3((2, 2, 2), {(i, j, k): 1 for i in range(2) for j in range(2) for k in range(2)})
        failing = certify_trivial_signing(replace(tc, tensor=ones))  # folds, then the witness walk
        assert (failing.passed, failing.contributing_pairs, failing.witness) == (False, 4, ((0, 1), (1, 0)))
        assert [id(t) for t in worked_out] == [id(tc.tensor), id(ones)]


class TestBijectionByListing:
    """The certificate, which folds, against an oracle that lists every matching."""

    TAMPERS = ("none", "value", "drop", "add", "move", "gadget", "swap")

    @staticmethod
    def tampered(rng, tamper):
        from dataclasses import replace

        from kas3.tensor3 import Tensor3

        n = rng.randint(0, 4)
        density = rng.random()
        matrix = [[rng.choice([-2, -1, 1, 2, 3]) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        tc = build_T(matrix)
        entries = dict(tc.tensor.entries)
        cells, m = sorted(entries), tc.m
        if tamper == "value" and cells:
            entries[rng.choice(cells)] = rng.choice([-1, 2, 5])
        elif tamper == "drop" and cells:
            del entries[rng.choice(cells)]
        elif tamper == "add" and m:
            entries[(rng.randrange(m), rng.randrange(m), rng.randrange(m))] = 1
        elif tamper == "move" and cells:
            value = entries.pop(rng.choice(cells))
            entries[(rng.randrange(m), rng.randrange(m), rng.randrange(m))] = value
        elif tamper == "gadget" and tc.edge_list:
            ei = rng.randrange(len(tc.edge_list))
            entries[(ei, ei, ei)] = -1
        elif tamper == "swap" and cells:
            # two triangles trade names: the cells stay the triangles, but an image may cover a vertex twice
            triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
            a, b = rng.sample(sorted(triangles), 2)
            triangles[a], triangles[b] = triangles[b], triangles[a]
            tc = with_triangles(tc, triangles)
        return replace(tc, tensor=Tensor3(tc.tensor.dims, entries))

    def test_reports_equal_the_listing_oracle(self):
        rng = random.Random(2929)
        outcomes = set()
        for case in range(490):
            tamper = self.TAMPERS[case % len(self.TAMPERS)]
            tc = self.tampered(rng, tamper)
            report = strong_matching_bijection_check(tc)
            expected = bijection_report_by_listing(tc)
            assert (report.passed, report.graph_matchings, report.strong_matchings, report.detail) == expected, (
                tamper, tc.matrix, dict(tc.tensor.entries)
            )
            outcomes.add((tamper, tc.n == 0, report.passed))
        # every tamper both passed and failed somewhere, and n = 0 was met
        assert {(t, p) for t, _empty, p in outcomes} >= {(t, False) for t in self.TAMPERS[1:]} | {("none", True)}
        assert any(empty for _t, empty, _p in outcomes)


class TestCellsAreTheTriangles:
    """The certificate reads only the tensor, and requires its cells to be the configuration's triangles.

    Each tampered construction below has a tensor that is not its
    configuration's adjacency tensor, or values whose product breaks
    Per(M) = 7: it fails, names what it found, and reports the tensor's own
    strong-matching count (drop: 1, add: 3, padded: 0, against 2).
    """

    MATRIX = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]
    CELLS = "the tensor's cells are not the configuration's triangles"

    @pytest.mark.parametrize(
        "tamper, strong, detail",
        [
            (
                "drop",
                1,
                f"{CELLS}; image set differs from the 1 enumerated strong matchings; "
                "weights disagree on (('v(1,0)', 'v(2,1)'), ('v(1,1)', 'v(2,2)'), ('v(1,2)', 'v(2,0)'))",
            ),
            ("add", 3, f"{CELLS}; image set differs from the 3 enumerated strong matchings"),
            ("value", 2, "weights disagree on (('v(1,0)', 'v(2,1)'), ('v(1,1)', 'v(2,2)'), ('v(1,2)', 'v(2,0)'))"),
            ("none", 2, ""),
        ],
        ids=["drop", "add", "value", "none"],
    )
    def test_tampered_tensor_is_certified(self, tamper, strong, detail):
        from dataclasses import replace

        from kas3.tensor3 import Tensor3

        tc = build_T(self.MATRIX)
        entries = dict(tc.tensor.entries)
        if tamper == "drop":
            del entries[(0, 0, 0)]
        elif tamper == "add":
            entries[(0, 0, 4)] = 1
        elif tamper == "value":
            entries[(4, 8, 9)] = 5
        tampered = replace(tc, tensor=Tensor3(tc.tensor.dims, entries))
        permanent3(tampered.tensor)  # a later fold over the same index replays
        report = strong_matching_bijection_check(tampered)
        assert (report.passed, report.graph_matchings, report.strong_matchings, report.detail) == (
            not detail, 2, strong, detail
        )

    def test_padded_tensor_is_not_the_configuration(self):
        # the same cells in a cube one wider leave an axis index empty, so the tensor's own count is 0
        from dataclasses import replace

        from kas3.tensor3 import Tensor3

        tc = build_T(self.MATRIX)
        m = tc.m
        report = strong_matching_bijection_check(replace(tc, tensor=Tensor3((m, m, m + 1), dict(tc.tensor.entries))))
        assert (report.passed, report.graph_matchings, report.strong_matchings, report.detail) == (
            False, 2, 0, f"{self.CELLS}; image set differs from the 0 enumerated strong matchings"
        )

    def test_extra_triangle_is_not_a_cell(self):
        # the extra triangle has the vertex mask of tri:gadget[0], so the
        # tensor's cells are no longer the configuration's triangles
        tc = build_T(self.MATRIX)
        permanent3(tc.tensor)
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        triangles["tri:extra"] = triangles["tri:gadget[0]"]
        report = strong_matching_bijection_check(with_triangles(tc, triangles))
        assert (report.passed, report.graph_matchings, report.strong_matchings, report.detail) == (
            False, 2, 2, self.CELLS
        )

    def test_triangle_on_a_missing_edge_is_not_a_cell(self):
        # the triangle keeps its id but names an edge the configuration lacks, so it has no vertices
        tc = build_T(self.MATRIX)
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        triangles["tri:gadget[0]"] = ("zz", *triangles["tri:gadget[0]"][1:])
        report = strong_matching_bijection_check(with_triangles(tc, triangles))
        assert (report.passed, report.graph_matchings, report.strong_matchings) == (False, 2, 2)
        assert report.detail == (
            f"{self.CELLS}; image set differs from the 2 enumerated strong matchings; "
            "weights disagree on (('v(1,0)', 'v(2,1)'), ('v(1,1)', 'v(2,2)'), ('v(1,2)', 'v(2,0)'))"
        )

    def test_vertex_set_that_is_not_the_axes(self):
        # an isolated vertex off the axes: every cell is still a triangle, but no image covers the vertex
        from dataclasses import replace

        from kas3.core import TriangularConfiguration

        tc = build_T(self.MATRIX)
        edges = {e: tc.config.edge_ends(e) for e in tc.config.edge_ids}
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        config = TriangularConfiguration(edges, triangles, tc.config.vertices | {"x"})
        report = strong_matching_bijection_check(replace(tc, config=config))
        assert (report.passed, report.graph_matchings, report.strong_matchings, report.detail) == (
            False, 2, 2, f"{self.CELLS}; image set differs from the 2 enumerated strong matchings"
        )

    def test_edge_without_ends_is_refused(self):
        # every triangle still matches its tensor cell; the edge without ends is in none of them
        from dataclasses import replace

        from kas3.core import TriangularConfiguration

        tc = build_T(self.MATRIX)
        permanent3(tc.tensor)
        edges = {e: tc.config.edge_ends(e) for e in tc.config.edge_ids}
        triangles = {t: tc.config.triangle_edges(t) for t in tc.config.triangle_ids}
        config = TriangularConfiguration({**edges, "x": None}, triangles, tc.config.vertices)
        with pytest.raises(ToolkitError, match="^perfect strong matchings need vertex data on every edge$"):
            strong_matching_bijection_check(replace(tc, config=config))


def with_triangles(tc, triangles):
    """The construction with its configuration's triangles replaced."""
    from dataclasses import replace

    from kas3.core import TriangularConfiguration

    edges = {e: tc.config.edge_ends(e) for e in tc.config.edge_ids}
    return replace(tc, config=TriangularConfiguration(edges, triangles, tc.config.vertices))


def abs_permanent_support(matrix) -> int:
    support = [[1 if v else 0 for v in row] for row in matrix]
    return permanent2_bruteforce(support)


class TestRandomSweep:
    def test_permanents_and_determinants_agree(self):
        rng = random.Random(51)
        for trial in range(40):
            n = rng.randint(1, 4)
            if trial % 2:
                matrix = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            else:
                matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            tc = build_T(matrix)
            value = permanent2_bruteforce(matrix)
            assert permanent2(matrix) == value
            assert permanent3(tc.tensor) == value
            assert determinant3(tc.tensor) == value
            assert tc.m == 2 * n + len(tc.edge_list) <= n * n + 2 * n


class TestCertifiedIdentity:
    def test_tensors_that_pass_both_certificates_keep_the_identity(self):
        """400 seeded single-cell edits of constructions with n <= 4, zeros and
        negative entries: whenever both certificates pass, the tensor keeps
        Per(M) = per3 = det3."""
        from dataclasses import replace

        from kas3.tensor3 import Tensor3

        rng = random.Random(2810)
        edits = ("value", "drop", "add", "move", "pad")
        passed = 0
        for trial in range(400):
            n = rng.randint(1, 4)
            matrix = [[rng.choice((-3, -1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            tc = build_T(matrix)
            m, dims, entries = tc.m, tc.tensor.dims, dict(tc.tensor.entries)
            edit = edits[trial % len(edits)]
            cells = sorted(entries)
            if edit == "pad":
                dims = (m, m, m + 1)
            elif not cells:
                continue
            elif edit == "value":
                cell = rng.choice(cells)
                entries[cell] = rng.choice([v for v in (-2, -1, 1, 2, 5) if v != entries[cell]])
            elif edit == "drop":
                del entries[rng.choice(cells)]
            elif edit == "add":
                free = [c for c in itertools.product(range(m), repeat=3) if c not in entries]
                entries[rng.choice(free)] = rng.choice((-1, 1, 3))
            else:
                i, j, k = cell = rng.choice(cells)
                free = [jj for jj in range(m) if (i, jj, k) not in entries]
                if not free:
                    continue
                entries[(i, rng.choice(free), k)] = entries.pop(cell)
            edited = replace(tc, tensor=Tensor3(dims, entries))
            if certify_trivial_signing(edited).passed and strong_matching_bijection_check(edited).passed:
                passed += 1
                value = permanent2_bruteforce(matrix)
                assert (permanent3(edited.tensor), determinant3(edited.tensor)) == (value, value), (matrix, edit)
        assert passed > 0


class TestSignViaProjections:
    def test_built_tensor_certifies_with_trivial_signing(self):
        from kas3.tensor3 import kasteleyn_sign_via_k1

        tc = build_T([[1, 1], [1, 1]])
        outcome = kasteleyn_sign_via_k1(tc.tensor)
        assert outcome is not None
        signed, s1, s2 = outcome
        assert determinant3(signed) == permanent3(tc.tensor) == 2
        assert all(v == 1 for v in s1.values())
        assert all(v == 1 for v in s2.values())


class TestMatrixDoc:
    def test_parse(self):
        assert matrix_from_doc({"n": 2, "rows": [[1, 0], [0, 1]]}) == [[1, 0], [0, 1]]

    def test_rejects_ragged(self):
        from kas3.errors import SchemaError

        with pytest.raises(SchemaError):
            matrix_from_doc({"n": 2, "rows": [[1, 0, 0], [0, 1, 0]]})
