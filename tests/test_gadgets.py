"""Gadget certification suites, linking, and the tripartite reduction."""

import random
from dataclasses import replace

import pytest

from conftest import brute_force_matchings, random_config
from kas3.algebra import Polynomial
from kas3.core import (
    check_edge_tripartition,
    defect,
    enumerate_matchings_with_defect_within,
    perfect_matching_polynomial,
    perfect_matchings,
    validate,
)
import kas3.gadgets as gadgets
from kas3.errors import CertificationError, ToolkitError
from kas3.gadgets import (
    certify_mtt,
    certify_s5,
    certify_tunnel,
    link_by_mtt,
    make_matching_triangular_triangle,
    make_s5,
    make_tunnel,
    tripartite_reduction,
)
from kas3.core import TriangularConfiguration
from kas3.tensor3 import triadjacency


class TestTunnel:
    def test_certificate_passes(self):
        gadget = make_tunnel()
        assert all(check.passed for check in gadget.certificate)
        assert len(gadget.config.edge_ids) == 12
        assert len(gadget.config.triangle_ids) == 6
        assert validate(gadget.config) == []

    def test_matchings_against_brute_force(self):
        gadget = make_tunnel(certify=False)
        found = enumerate_matchings_with_defect_within(gadget.config, gadget.end_edge_union())
        assert found == brute_force_matchings(gadget.config, gadget.end_edge_union())
        assert len(found) == 2

    def test_defects_are_full_end_triples(self):
        gadget = make_tunnel(certify=False)
        defects = {
            defect(gadget.config, m)
            for m in enumerate_matchings_with_defect_within(
                gadget.config, gadget.end_edge_union()
            )
        }
        assert defects == {frozenset(gadget.ends[0]), frozenset(gadget.ends[1])}

    def test_no_perfect_matching(self):
        gadget = make_tunnel(certify=False)
        assert perfect_matchings(gadget.config) == []


class TestS5:
    def test_certificate_passes(self):
        gadget = make_s5()
        assert all(check.passed for check in gadget.certificate)
        assert len(gadget.config.triangle_ids) == 5
        assert len(gadget.config.edge_ids) == 12

    def test_unique_perfect_matching_of_size_four(self):
        gadget = make_s5(certify=False)
        perfect = perfect_matchings(gadget.config)
        assert perfect == [tuple(sorted(gadget.matchings["perfect"]))]
        assert len(perfect[0]) == 4

    def test_unique_matching_with_defect_on_all_ends(self):
        gadget = make_s5(certify=False)
        nine = frozenset(gadget.end_edge_union())
        assert len(nine) == 9
        hits = [
            m
            for m in brute_force_matchings(gadget.config, nine)
            if defect(gadget.config, m) == nine
        ]
        assert hits == [tuple(sorted(gadget.matchings["all_ends_defect"]))]
        assert len(hits[0]) == 1

    def test_all_ends_defect_matching_leaves_nine_edges(self):
        gadget = make_s5(certify=False)
        gap = defect(gadget.config, gadget.matchings["all_ends_defect"])
        assert gap == frozenset(gadget.end_edge_union())

    def test_unit_weight_polynomial(self):
        gadget = make_s5(certify=False)
        assert perfect_matching_polynomial(gadget.config) == Polynomial({4: 1})


class TestMtt:
    def test_certificate_passes(self):
        gadget = make_matching_triangular_triangle()
        assert all(check.passed for check in gadget.certificate)
        assert len(gadget.config.edge_ids) == 39
        assert len(gadget.config.triangle_ids) == 23
        assert validate(gadget.config) == []

    def test_exactly_two_matchings_within_outer_ends(self):
        gadget = make_matching_triangular_triangle(certify=False)
        within = enumerate_matchings_with_defect_within(
            gadget.config, gadget.end_edge_union()
        )
        expected = sorted(
            [
                tuple(sorted(gadget.matchings["perfect"])),
                tuple(sorted(gadget.matchings["all_ends_defect"])),
            ]
        )
        assert within == expected
        defects = sorted((defect(gadget.config, m) for m in within), key=len)
        assert defects[0] == frozenset()
        assert defects[1] == frozenset(gadget.end_edge_union())

    def test_perfect_matching_is_block_union(self):
        gadget = make_matching_triangular_triangle(certify=False)
        m1 = set(gadget.matchings["perfect"])
        assert {"s5:t1", "s5:t2", "s5:t4", "s5:t5"} <= m1
        assert sum(1 for t in m1 if ":dn" in t) == 9
        m0 = set(gadget.matchings["all_ends_defect"])
        assert "s5:t3" in m0
        assert sum(1 for t in m0 if ":up" in t) == 9

    def test_pinned_end_classes(self):
        gadget = make_matching_triangular_triangle(certify=False)
        from kas3.core import find_edge_tripartition

        pins = {}
        for cls, triple in enumerate(gadget.ends, start=1):
            for e in triple:
                pins[e] = cls
        classes = find_edge_tripartition(gadget.config, pins=pins)
        assert classes is not None
        assert check_edge_tripartition(gadget.config, classes) == []


def with_triangles(gadget, extra_edges=(), **triangles):
    """The gadget with more edges and triangles, its ends and classes kept."""
    config = gadget.config
    kept = {t: config.triangle_edges(t) for t in config.triangle_ids}
    return replace(gadget, config=TriangularConfiguration([*config.edge_ids, *extra_edges], {**kept, **triangles}))


class TestBrokenGadgets:
    """Each suite rejects a broken gadget, and the refusal names exactly the checks that failed."""

    SUITES = {
        "tunnel": (make_tunnel, certify_tunnel, "_tunnel_uncertified", "tripartite_with_monochromatic_ends"),
        "s5": (make_s5, certify_s5, "_s5_uncertified", "tripartite_with_ends_in_distinct_classes"),
        "matching triangular triangle": (
            make_matching_triangular_triangle, certify_mtt, "_mtt_uncertified", "tripartite_with_pinned_end_classes",
        ),
    }

    def refusal(self, monkeypatch, kind, broken) -> str:
        make, certify, uncertified, _ = self.SUITES[kind]
        monkeypatch.setattr(gadgets, uncertified, lambda: broken)
        with pytest.raises(CertificationError) as raised:
            make()
        message = str(raised.value)
        assert message.startswith(f"{kind} failed certification: ")
        checks = certify(broken)
        assert any(not c.passed for c in checks)
        for check in checks:
            assert (f"{check.name}: " in message) == (not check.passed), check
        return message

    @pytest.mark.parametrize("kind", SUITES)
    def test_end_filled_by_a_triangle(self, monkeypatch, kind):
        gadget = getattr(gadgets, self.SUITES[kind][2])()
        end = gadget.ends[0]
        message = self.refusal(monkeypatch, kind, with_triangles(gadget, fill=end))
        assert f"ends_are_disjoint_empty_triangles: end {end} is filled by a triangle" in message

    @pytest.mark.parametrize("kind", SUITES)
    def test_ends_sharing_an_edge(self, monkeypatch, kind):
        gadget = getattr(gadgets, self.SUITES[kind][2])()
        first, second, *rest = gadget.ends
        shared = first[0]
        broken = replace(gadget, ends=(first, (shared, *second[1:]), *rest))
        message = self.refusal(monkeypatch, kind, broken)
        assert f"ends_are_disjoint_empty_triangles: end edge {shared!r} appears in two end triples" in message

    @pytest.mark.parametrize("kind", SUITES)
    def test_pins_that_no_tripartition_extends(self, monkeypatch, kind):
        # two edges of one end share a new triangle, but the pins put them in one class
        gadget = getattr(gadgets, self.SUITES[kind][2])()
        a, b, _ = gadget.ends[0]
        message = self.refusal(monkeypatch, kind, with_triangles(gadget, ["z"], clash=(a, b, "z")))
        assert f"{self.SUITES[kind][3]}: no tripartition extends the pins" in message

    @pytest.mark.parametrize("kind", SUITES)
    def test_end_edge_missing_from_the_configuration(self, monkeypatch, kind):
        gadget = getattr(gadgets, self.SUITES[kind][2])()
        first, *rest = gadget.ends
        message = self.refusal(monkeypatch, kind, replace(gadget, ends=(("zz", *first[1:]), *rest)))
        assert "ends_are_disjoint_empty_triangles: end edge 'zz' missing from configuration" in message

    @pytest.mark.parametrize("kind", SUITES)
    def test_end_with_a_repeated_edge(self, monkeypatch, kind):
        gadget = getattr(gadgets, self.SUITES[kind][2])()
        (a, _, c), *rest = gadget.ends
        message = self.refusal(monkeypatch, kind, replace(gadget, ends=((a, a, c), *rest)))
        assert f"ends_are_disjoint_empty_triangles: end {(a, a, c)} has repeated edges; " in message
        assert "appears in two end triples" not in message

    def test_tunnel_class_sizes(self, monkeypatch):
        # a disjoint triangle, stored in classes 1, 2 and 3, leaves a valid
        # tripartition with monochromatic ends but the wrong class sizes
        gadget = with_triangles(gadgets._tunnel_uncertified(), ["x", "y", "z"], extra=("x", "y", "z"))
        broken = replace(gadget, edge_classes={**gadget.edge_classes, "x": 1, "y": 2, "z": 3})
        message = self.refusal(monkeypatch, "tunnel", broken)
        assert "tripartite_with_monochromatic_ends: class sizes (4, 4, 7) != expected (3, 3, 6)" in message
        assert "stored_tripartition_valid: " not in message


class TestLink:
    def three_disjoint(self):
        edges = [f"e{i}" for i in range(9)]
        triangles = {
            "x": ("e0", "e1", "e2"),
            "y": ("e3", "e4", "e5"),
            "z": ("e6", "e7", "e8"),
        }
        return TriangularConfiguration(edges, triangles)

    def test_counts(self):
        config = self.three_disjoint()
        linked = link_by_mtt(config, "x", "y", "z")
        assert len(linked.triangle_ids) == 3 + 23
        assert len(linked.edge_ids) == 9 + 30
        assert validate(linked) == []
        # originals survive
        for t in ("x", "y", "z"):
            assert linked.has_triangle(t)

    def test_linking_the_same_targets_twice_is_refused(self):
        linked = link_by_mtt(self.three_disjoint(), "x", "y", "z")
        with pytest.raises(ToolkitError, match=r"block triangle id 'mtt\[x\|y\|z\]:\S+' collides"):
            link_by_mtt(linked, "x", "y", "z")

    def test_rejects_unknown_target(self):
        with pytest.raises(ToolkitError, match="^unknown triangle 'zz'$"):
            link_by_mtt(self.three_disjoint(), "x", "y", "zz")

    def test_rejects_repeated_target(self):
        config = self.three_disjoint()
        with pytest.raises(ToolkitError):
            link_by_mtt(config, "x", "x", "y")

    def test_rejects_edge_sharing_targets(self):
        edges = [f"e{i}" for i in range(7)]
        config = TriangularConfiguration(
            edges,
            {"x": ("e0", "e1", "e2"), "y": ("e2", "e3", "e4"), "z": ("e4", "e5", "e6")},
        )
        with pytest.raises(ToolkitError):
            link_by_mtt(config, "x", "y", "z")

    def test_reduction_block_equals_manual_link(self):
        source = TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})
        result = tripartite_reduction(source)
        copies = TriangularConfiguration(
            {f"c{i}:{e}": None for i in (1, 2, 3) for e in ("a", "b", "c")},
            {f"c{i}:t": (f"c{i}:a", f"c{i}:b", f"c{i}:c") for i in (1, 2, 3)},
        )
        linked = link_by_mtt(copies, "c1:t", "c2:t", "c3:t")
        manual = TriangularConfiguration(
            {e: linked.edge_ends(e) for e in linked.edge_ids},
            {t: linked.triangle_edges(t) for t in linked.triangle_ids if t not in ("c1:t", "c2:t", "c3:t")},
        )
        assert manual == result.config


class TestReduction:
    def test_single_triangle(self):
        source = TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})
        result = tripartite_reduction(source, {"t": 3})
        assert perfect_matching_polynomial(source, {"t": 3}) == Polynomial({3: 1})
        assert perfect_matching_polynomial(result.config, result.weighting) == Polynomial({3: 1})

    def test_shared_edge_gives_zero(self):
        source = TriangularConfiguration(
            ["a", "b", "c", "d", "e"], {"t1": ("a", "b", "c"), "t2": ("c", "d", "e")}
        )
        result = tripartite_reduction(source)
        assert not perfect_matching_polynomial(result.config, result.weighting)

    def test_two_disjoint_triangles(self):
        source = TriangularConfiguration(
            [f"e{i}" for i in range(6)],
            {"t1": ("e0", "e1", "e2"), "t2": ("e3", "e4", "e5")},
        )
        result = tripartite_reduction(source)
        assert perfect_matching_polynomial(result.config, result.weighting) == Polynomial({2: 1})

    def test_forward_map_refuses_unknown_triangles(self):
        result = tripartite_reduction(TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")}))
        with pytest.raises(ToolkitError, match=r"^unknown source triangles \['zz'\]$"):
            result.forward(["zz"])

    def test_forward_map_is_weight_preserving_bijection(self):
        rng = random.Random(21)
        checked = 0
        while checked < 8:
            source = random_config(rng)
            matchings = perfect_matchings(source)
            if not matchings:
                continue
            checked += 1
            weights = {t: rng.randint(0, 5) for t in source.triangle_ids}
            result = tripartite_reduction(source, weights)
            reduced_pms = set(perfect_matchings(result.config))
            images = {result.forward(m) for m in matchings}
            assert images == reduced_pms
            for m in matchings:
                src_weight = sum(weights[t] for t in m)
                img_weight = sum(result.weighting[t] for t in result.forward(m))
                assert src_weight == img_weight

    def test_tripartition_classes_balanced(self):
        rng = random.Random(22)
        for _ in range(6):
            source = random_config(rng)
            result = tripartite_reduction(source)
            sizes = [
                sum(1 for c in result.edge_classes.values() if c == cls)
                for cls in (1, 2, 3)
            ]
            assert sizes[0] == sizes[1] == sizes[2]
            assert check_edge_tripartition(result.config, result.edge_classes) == []

    def test_sweep_reductions_pass_the_public_checks(self, reduction_sweep):
        # tripartite_reduction checks none of its own classes; triadjacency
        # refuses invalid ones, and the public checkers run here on every
        # reduction of the acceptance sweep
        for _config, _w, result, _sp, _rp in reduction_sweep:
            assert validate(result.config) == []
            assert check_edge_tripartition(result.config, result.edge_classes) == []
            tensor, axes = triadjacency(result.config, result.edge_classes, result.weighting)
            assert len(tensor.entries) == len(result.config.triangle_ids)
            assert sorted(e for axis in axes for e in axis) == sorted(result.config.edge_ids)

    def test_rejects_invalid_input(self):
        broken = TriangularConfiguration(["a", "b"], {"t": ("a", "b", "ghost")})
        with pytest.raises(ToolkitError):
            tripartite_reduction(broken)

    def test_copy_edges_carry_copy_classes(self):
        source = TriangularConfiguration(["a", "b", "c"], {"t": ("a", "b", "c")})
        result = tripartite_reduction(source)
        for i in (1, 2, 3):
            for e in ("a", "b", "c"):
                assert result.edge_classes[f"c{i}:{e}"] == i
