"""Cubic lattices, dimer pipelines and the geometric realization."""

import itertools
import math
from dataclasses import replace

import pytest

from conftest import (
    dimers_1x2xn,
    dimers_2x2xn,
    dimers_by_transfer,
    embedding_crossings,
    permanent2_bruteforce,
    places_made,
    signed_biadjacency,
)
import kas3.core as core
import kas3.lattice as lattice
from kas3.algebra import Polynomial
from kas3.core import CoverIndex, TriangularConfiguration, find_vertex_tripartition
from kas3.errors import GuardExceeded, ToolkitError
from kas3.lattice import (
    GRID,
    LATTICE_MAX_VERTICES,
    REALIZATION_MAX_VERTICES,
    check_embedding,
    cubic_lattice,
    dimer_polynomial,
    embed_T,
)
from kas3.tensor3 import (
    BipartiteGraph,
    determinant2,
    determinant3,
    find_pfaffian_signing,
    permanent2,
    permanent3,
    vertex_adjacency,
)
from kas3.kasteleyn_construct import build_T


class TestLatticeConstruction:
    def test_two_one_one_is_single_edge(self):
        q = cubic_lattice(2, 1, 1)
        assert q.vertex_count == 2
        assert q.edge_count == 1

    def test_two_two_one_is_four_cycle(self):
        q = cubic_lattice(2, 2, 1)
        assert q.vertex_count == 4
        assert q.edge_count == 4

    def test_cube_counts(self):
        q = cubic_lattice(2, 2, 2)
        assert q.vertex_count == 8
        assert q.edge_count == 12

    def test_bipartition_by_parity(self):
        q = cubic_lattice(3, 2, 1)
        assert all(sum(p) % 2 == 0 for p in q.graph.left)
        assert all(sum(p) % 2 == 1 for p in q.graph.right)

    def test_rejects_empty_box(self):
        with pytest.raises(ToolkitError):
            cubic_lattice(0, 2, 2)

    @pytest.mark.parametrize("dims", [(1, 1, LATTICE_MAX_VERTICES + 1), (2, 256, 129)])
    def test_size_guard_fires_before_building(self, dims):
        with pytest.raises(GuardExceeded, match="lattice guard"):
            cubic_lattice(*dims)


class TestDimerCounts:
    def test_known_counts(self):
        assert dimer_polynomial(cubic_lattice(2, 1, 1))(1) == 1
        assert dimer_polynomial(cubic_lattice(2, 2, 1))(1) == 2
        assert dimer_polynomial(cubic_lattice(2, 2, 2))(1) == 9

    def test_cube_count_against_bruteforce_permanent(self):
        q = cubic_lattice(2, 2, 2)
        assert permanent2_bruteforce(q.graph.biadjacency()) == 9

    def test_odd_boxes_have_no_matchings(self):
        assert not dimer_polynomial(cubic_lattice(3, 1, 1))
        assert not dimer_polynomial(cubic_lattice(3, 3, 1))

    def test_polynomial_form(self):
        assert dimer_polynomial(cubic_lattice(2, 2, 1)) == Polynomial({2: 2})

    def test_weighted_polynomial(self):
        q = cubic_lattice(2, 2, 1)
        heavy = next(iter(sorted(q.graph.edges)))
        weights = {heavy: 3}
        poly = dimer_polynomial(q, edge_weights=weights)
        # one matching uses the heavy edge (3 + 1), the other does not (1 + 1)
        assert poly == Polynomial({4: 1, 2: 1})

    @pytest.mark.parametrize("explicit_units", [True, False])
    def test_negative_weight_with_non_negative_totals(self, explicit_units):
        # an edge left out of the weight map counts as weight 1, the same as
        # an edge listed with weight 1
        q = cubic_lattice(2, 2, 1)
        heavy = min(q.graph.edges)
        weights = {e: 1 for e in q.graph.edges} if explicit_units else {}
        weights[heavy] = -1
        poly = dimer_polynomial(q, edge_weights=weights)
        assert poly == Polynomial({0: 1, 2: 1})

    def test_negative_total_weight_raises(self):
        q = cubic_lattice(2, 2, 1)
        with pytest.raises(ToolkitError, match="negative exponent -4"):
            dimer_polynomial(q, edge_weights={min(q.graph.edges): -5})

    def test_polynomial_lists_no_matching(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the dimer polynomial listed its matchings")

        monkeypatch.setattr(core.CoverIndex, "covers", refuse)
        assert dimer_polynomial(cubic_lattice(2, 2, 3)) == Polynomial({6: 32})

    def test_negative_weight_outside_every_matching_is_ignored(self):
        # the middle edge of a four-vertex path lies in no perfect matching
        q = cubic_lattice(4, 1, 1)
        middle = ((2, 0, 0), (1, 0, 0))
        assert middle in q.graph.edges
        assert dimer_polynomial(q, edge_weights={middle: -7}) == Polynomial({2: 1})

    def test_symmetry_under_axis_permutation(self):
        for dims in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 2, 3)]:
            counts = {
                dimer_polynomial(cubic_lattice(*perm))(1)
                for perm in itertools.permutations(dims)
            }
            assert len(counts) == 1

    def test_pipeline_agreement_small_boxes(self):
        # the fold's count against the Ryser permanent of the support matrix,
        # per3 and det3 (the paper's claim) of the `build_T` tensor and the
        # transfer oracle, on every even box of at most 32 vertices up to axis order
        boxes = [
            dims
            for dims in itertools.combinations_with_replacement(range(1, 33), 3)
            if math.prod(dims) <= 32 and math.prod(dims) % 2 == 0
        ]
        assert len(boxes) == 52
        for dims in boxes + [(2, 4, 5)]:
            q = cubic_lattice(*dims)
            biadj = q.graph.biadjacency()
            tensor = build_T(biadj).tensor
            counts = (
                dimer_polynomial(q)(1), permanent2(biadj), permanent3(tensor), determinant3(tensor),
                dimers_by_transfer(*dims),
            )
            assert len(set(counts)) == 1, (dims, counts)

    def test_count_is_one_fold(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dimer count ran a second pipeline")

        monkeypatch.setattr(BipartiteGraph, "biadjacency", refuse)
        monkeypatch.setattr(lattice, "build_T", refuse)
        assert dimer_polynomial(cubic_lattice(2, 2, 3)) == Polynomial({6: 32})

    def test_two_by_two_by_four(self):
        from kas3.tensor3 import permanent2

        q = cubic_lattice(2, 2, 4)
        direct = dimer_polynomial(q)(1)
        assert direct == 121
        assert permanent2(q.graph.biadjacency()) == 121
        assert permanent3(build_T(q.graph.biadjacency()).tensor) == 121

    def test_guard(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched or built past the Ryser guard")

        monkeypatch.setattr(lattice, "CoverIndex", refuse)
        monkeypatch.setattr(BipartiteGraph, "biadjacency", refuse)
        # 44 vertices: colour classes of 22, above the Ryser guard's 20
        with pytest.raises(GuardExceeded, match=r"^Ryser guard is n <= 20, got n = 22$"):
            dimer_polynomial(cubic_lattice(2, 2, 11))
        # the guard is on an even box's colour class: an odd box answers 0 unsearched
        assert dimer_polynomial(cubic_lattice(3, 3, 3)) == Polynomial.zero()

    def test_one_by_two_boxes_against_fibonacci(self):
        for n in range(1, 21):  # up to 40 vertices
            assert dimer_polynomial(cubic_lattice(1, 2, n)) == Polynomial({n: dimers_1x2xn(n)})

    def test_two_by_two_boxes_against_recurrence(self):
        assert [dimers_2x2xn(n) for n in (5, 8, 10)] == [450, 23409, 326041]
        for n in range(1, 11):  # up to 40 vertices
            assert dimer_polynomial(cubic_lattice(2, 2, n)) == Polynomial({2 * n: dimers_2x2xn(n)})

    def test_transfer_oracle_against_the_recurrences(self):
        for n in range(1, 31):
            assert dimers_by_transfer(1, 2, n) == dimers_by_transfer(n, 1, 2) == dimers_1x2xn(n)
            assert dimers_by_transfer(2, 2, n) == dimers_by_transfer(2, n, 2) == dimers_2x2xn(n)
        assert dimers_by_transfer(3, 3, 3) == dimers_by_transfer(1, 1, 1) == 0
        with pytest.raises(GuardExceeded, match=r"^transfer oracle limited to 16 cells a layer, got 5 x 5$"):
            dimers_by_transfer(5, 6, 5)

    def test_matching_fold_past_40_vertices_against_the_transfer_oracle(self):
        # the box's matching problem has no colour-class guard, so its fold
        # answers past the Ryser oracle's 40 vertices
        boxes = {
            (2, 2, 30): 89_582_406_128_846_401,
            (2, 3, 10): 422_983_905,
            (2, 4, 6): 9_049_169,
            (3, 4, 4): 10_885_344,
        }
        for dims, count in boxes.items():
            graph = cubic_lattice(*dims).graph
            fold = CoverIndex(*graph.matching_problem(sorted(graph.edges))).count()
            assert fold == dimers_by_transfer(*dims) == count, dims


class TestPlanarSlabs:
    """Kasteleyn's theorem on a x b x 1 slabs: a planar grid graph has a
    signing whose determinant counts its dimers (Kasteleyn, Physica 27, 1961)."""

    @pytest.mark.parametrize(
        "a, b, count", [(2, 3, 3), (3, 4, 11), (4, 4, 36), (4, 5, 95), (6, 6, 6728), (8, 8, 12_988_816)]
    )
    def test_kasteleyn_signing_determinant_counts_the_dimers(self, a, b, count):
        graph = cubic_lattice(a, b, 1).graph
        # each edge along axis 1 takes the sign (-1)^x of its axis-0 coordinate x
        kasteleyn = {(p, q): -1 if p[1] != q[1] and p[0] % 2 else 1 for p, q in graph.edges}
        pfaffian = find_pfaffian_signing(graph)
        assert pfaffian is not None
        for signing in (kasteleyn, pfaffian):
            assert abs(determinant2(signed_biadjacency(graph, signing))) == count, (a, b)
        assert dimers_by_transfer(a, b, 1) == count
        if a * b <= 40:  # within the Ryser guard
            assert dimer_polynomial(cubic_lattice(a, b, 1)) == Polynomial({a * b // 2: count})


class TestEmbedding:
    def test_lattice_points_preserved(self):
        q = cubic_lattice(2, 1, 1)
        emb = embed_T(q)
        assert emb.coordinates["v(1,0)"] == (0, 0, 0)
        assert emb.coordinates["v(2,0)"] == (GRID * 1, 0, 0)

    def test_edge_vertices_cluster_at_midpoints(self):
        q = cubic_lattice(2, 2, 1)
        emb = embed_T(q)
        for ei, (i, j) in enumerate(emb.construction.edge_list):
            p = emb.lattice.graph.left[i]
            r = emb.lattice.graph.right[j]
            midpoint = tuple(GRID * (p[k] + r[k]) // 2 for k in range(3))
            for prefix in ("w(0,e", "w(1,e", "w(2,e"):
                point = emb.coordinates[f"{prefix}{ei})"]
                dist_sq = sum((point[k] - midpoint[k]) ** 2 for k in range(3))
                assert dist_sq < (GRID // 4) ** 2

    def test_audit_is_clean(self):
        emb = embed_T(cubic_lattice(2, 2, 2))
        assert check_embedding(emb) == []

    @staticmethod
    def tampered(name, point=None):
        """The 2x2x2 realization with `name` moved to `point` (removed when None).

        `point` is a function of the first support edge's midpoint, in grid units.
        """
        emb = embed_T(cubic_lattice(2, 2, 2))
        graph = emb.lattice.graph
        i, j = emb.construction.edge_list[0]
        mid = tuple(GRID * (a + b) // 2 for a, b in zip(graph.left[i], graph.right[j]))
        if point is None:
            del emb.coordinates[name]
        else:
            emb.coordinates[name] = point(mid)
        return check_embedding(emb)

    def test_coincident_point_is_reported(self):
        emb = embed_T(cubic_lattice(2, 2, 2))
        emb.coordinates["w(0,e0)"] = emb.coordinates["w(1,e0)"]
        problems = check_embedding(emb)
        assert any("w(1,e0) and w(0,e0) coincide" in p for p in problems)

    def test_degenerate_triangle_is_reported(self):
        # the midpoint lies on the segment from v(1,i) to v(2,j), the other two vertices of tri:edge[0]
        problems = self.tampered("w(0,e0)", lambda mid: mid)
        assert problems == ["triangle 'tri:edge[0]' is degenerate"]

    def test_triangle_without_vertices_is_reported(self):
        # a triangle over three edges that have no ends
        emb = embed_T(cubic_lattice(2, 2, 2))
        config = emb.construction.config
        edges = {e: config.edge_ends(e) for e in config.edge_ids} | dict.fromkeys(["x", "y", "z"])
        triangles = {t: config.triangle_edges(t) for t in config.triangle_ids} | {"bare": ("x", "y", "z")}
        bare = TriangularConfiguration(edges, triangles, config.vertices)
        emb = replace(emb, construction=replace(emb.construction, config=bare))
        assert check_embedding(emb) == ["triangle 'bare' lacks three vertices"]

    @pytest.mark.parametrize(
        "point",
        [
            pytest.param(lambda mid: tuple(c + 10 * GRID for c in mid), id="far-stray"),
            pytest.param(lambda mid: (GRID // 2, GRID // 2, 0), id="face-centre"),
            pytest.param(lambda mid: (mid[0] + GRID // 4, mid[1], mid[2]), id="quarter-x"),
            pytest.param(lambda mid: (mid[0], mid[1] + GRID // 4, mid[2]), id="quarter-y"),
            pytest.param(lambda mid: tuple(c + 5 for c in mid), id="diagonal"),
        ],
    )
    def test_stray_point_is_reported(self, point):
        problems = self.tampered("w(0,e0)", point)
        assert problems == ["w(0,e0) strays 1/4 or more from every anchor"]

    @pytest.mark.parametrize(
        "point",
        [
            pytest.param(lambda mid: (mid[0] + GRID // 4 - 1, mid[1], mid[2]), id="axis"),
            pytest.param(lambda mid: tuple(c + 4 for c in mid), id="diagonal"),
        ],
    )
    def test_point_just_inside_the_radius_passes(self, point):
        assert self.tampered("w(0,e0)", point) == []

    def test_missing_vertex_is_reported(self):
        problems = self.tampered("w(0,e0)")
        assert problems == ["vertices without coordinates: ['w(0,e0)']"]

    def test_realization_guard_fires_before_the_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built past the guard")

        monkeypatch.setattr(BipartiteGraph, "biadjacency", refuse)
        with pytest.raises(GuardExceeded, match="realization guard is 4096 vertices, got 4097"):
            embed_T(cubic_lattice(REALIZATION_MAX_VERTICES + 1, 1, 1))

    @pytest.mark.parametrize(
        "dims",
        [dims for dims in itertools.product(range(1, 5), repeat=3) if math.prod(dims) % 2 == 0],
        ids=lambda dims: "x".join(map(str, dims)),
    )
    def test_export_is_an_embedding(self, dims):
        # every even box with sides 1..4, in every axis order: triangles meet only in shared faces
        assert embedding_crossings(embed_T(cubic_lattice(*dims))) == []

    @pytest.mark.parametrize(
        "dims, count",
        [
            ((2, 1, 1), 1), ((2, 2, 1), 2), ((2, 2, 2), 9), ((2, 2, 3), 32),
            ((2, 3, 3), 229), ((2, 3, 4), 1845), ((2, 2, 6), 1681), ((4, 4, 1), 36),
        ],
    )
    def test_exported_complex_counts_the_dimers(self, dims, count):
        # the paper's last claim from the exported object alone: the OFF faces,
        # read back with vertex k named k, give a vertex-tripartite complex
        # whose unit vertex-adjacency 3-matrix has per3 = |det3| = the dimer count
        lines = embed_T(cubic_lattice(*dims)).to_off().splitlines()
        nv = int(lines[1].split()[0])
        edges, triangles = {}, {}
        for f, line in enumerate(lines[2 + nv :]):
            a, b, c = sorted(map(int, line.split()[1:]))
            triangles[f"f{f}"] = [f"{u}~{v}" for u, v in ((a, b), (a, c), (b, c))]
            edges.update({f"{u}~{v}": (str(u), str(v)) for u, v in ((a, b), (a, c), (b, c))})
        config = TriangularConfiguration(edges, triangles)
        tensor, _ = vertex_adjacency(config, find_vertex_tripartition(config), {})
        assert permanent3(tensor) == abs(determinant3(tensor)) == count
        assert dimers_by_transfer(*dims) == dimer_polynomial(cubic_lattice(*dims))(1) == count

    def test_off_export_shape(self, monkeypatch):
        made = places_made(monkeypatch)
        emb = embed_T(cubic_lattice(2, 1, 1))
        text = emb.to_off()
        # the audit and the export read one set of vertex places
        assert made == [sorted(emb.construction.config.vertices)]
        lines = text.strip().split("\n")
        assert lines[0] == "OFF"
        nv, nf, ne = map(int, lines[1].split())
        assert nv == len(emb.coordinates)
        assert nf == len(emb.construction.config.triangle_ids)
        assert len(lines) == 2 + nv + nf
        for face_line in lines[2 + nv :]:
            parts = face_line.split()
            assert parts[0] == "3"
            assert all(0 <= int(p) < nv for p in parts[1:])

    def test_off_coordinates_are_exact_decimals(self):
        emb = embed_T(cubic_lattice(2, 1, 1))
        for line in emb.to_off().strip().split("\n")[2 : 2 + len(emb.coordinates)]:
            for token in line.split():
                assert float(token) is not None  # parses
                if "." in token:
                    assert not token.endswith(".")
