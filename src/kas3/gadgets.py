"""Certified building blocks for the matching-preserving tripartite reduction.

The three shipped constructions (tunnel band, five-triangle sphere piece,
and the triangle-linking block glued from one sphere piece and three
tunnels) are octahedron-based candidates defined purely at the edge level.
Nothing downstream relies on their particular shape: each carries a
certification suite that re-proves the required matching and tripartition
properties by exhaustive enumeration, and any construction passing the
suite would do. One routine, `_glue`, does all gluing: it builds the
linking block from its pieces, and `link_by_mtt` and `tripartite_reduction`
call it straight to glue the linking block onto three end triples.
It works from a form of each reference block compiled once (`_compile`),
with names by slot and suffix and triangle edges and matchings in sorted
slot order, so a block costs string concatenations and no sort. The
reduction reads a block's triangles, matchings and interior classes from
the names `_glue` returns, by the template's slots. The configurations it
builds are stored as built (`TriangularConfiguration._make`).
"""

from __future__ import annotations

import functools
import operator
from bisect import insort
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    TriangularConfiguration,
    _edge_places,
    build_config_doc,
    check_edge_tripartition,
    defect,
    enumerate_matchings_with_defect_within,
    find_edge_tripartition,
    perfect_matchings,
    validate,
)
from .errors import CertificationError, ToolkitError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_doc(self) -> dict:
        doc = {"name": self.name, "passed": self.passed}
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass(frozen=True)
class Gadget:
    """A configuration with labeled end triples and a re-runnable certificate.

    `matchings` holds the distinguished matchings the suite pins down (for the
    tunnel: one per end-triple defect; for the others: the unique perfect
    matching and the unique all-ends-defect matching). `edge_classes` is a
    tripartition with every end triple monochromatic.
    """

    config: TriangularConfiguration
    ends: tuple[tuple[str, str, str], ...]
    matchings: dict[str, tuple[str, ...]] = field(default_factory=dict)
    edge_classes: dict[str, int] = field(default_factory=dict)
    certificate: tuple[CheckResult, ...] = ()

    def end_edge_union(self) -> tuple[str, ...]:
        """The end edges the configuration has, sorted; the end checks report any other."""
        return tuple(sorted(e for triple in self.ends for e in triple if self.config.has_edge(e)))

    def to_doc(self) -> dict:
        doc = build_config_doc(self.config, edge_classes=self.edge_classes or None)
        doc["ends"] = [list(triple) for triple in self.ends]
        return doc

    def certificate_doc(self) -> list[dict]:
        return [check.to_doc() for check in self.certificate]


def _end_structure_checks(gadget: Gadget) -> list[CheckResult]:
    problems = []
    seen: set[str] = set()
    triples = {
        tuple(sorted(gadget.config.triangle_edges(t)))
        for t in gadget.config.triangle_ids
    }
    for triple in gadget.ends:
        if len(set(triple)) != 3:
            problems.append(f"end {triple} has repeated edges")
        for e in dict.fromkeys(triple):
            if not gadget.config.has_edge(e):
                problems.append(f"end edge {e!r} missing from configuration")
            if e in seen:
                problems.append(f"end edge {e!r} appears in two end triples")
            seen.add(e)
        if tuple(sorted(triple)) in triples:
            problems.append(f"end {triple} is filled by a triangle")
    ok = not problems
    return [CheckResult("ends_are_disjoint_empty_triangles", ok, "; ".join(problems))]


def _tripartition_checks(
    gadget: Gadget, pins: Mapping[str, int], name: str, expect_sizes: tuple[int, ...] | None = None
) -> list[CheckResult]:
    checks = []
    pins = {e: cls for e, cls in pins.items() if gadget.config.has_edge(e)}  # the end checks report the rest
    stored_problems = check_edge_tripartition(gadget.config, gadget.edge_classes)
    checks.append(
        CheckResult("stored_tripartition_valid", not stored_problems, "; ".join(stored_problems))
    )
    found = find_edge_tripartition(gadget.config, pins=pins)
    detail = ""
    ok = found is not None
    if found is not None:
        leftover = check_edge_tripartition(gadget.config, found)
        if leftover:
            ok = False
            detail = "; ".join(leftover)
        elif expect_sizes is not None:
            sizes = tuple(sorted(sum(1 for v in found.values() if v == cls) for cls in (1, 2, 3)))
            if sizes != tuple(sorted(expect_sizes)):
                ok = False
                detail = f"class sizes {sizes} != expected {tuple(sorted(expect_sizes))}"
    else:
        detail = "no tripartition extends the pins"
    checks.append(CheckResult(name, ok, detail))
    return checks


def _finish(
    kind: str, gadget: Gadget, suite: Callable[[Gadget], list[CheckResult]], certify: bool
) -> Gadget:
    """`gadget` as built, or with `certify` the gadget carrying `suite`'s checks.

    A failed check raises `CertificationError` naming every failed check.
    """
    if not certify:
        return gadget
    checks = suite(gadget)
    failed = [c for c in checks if not c.passed]
    if failed:
        raise CertificationError(
            f"{kind} failed certification: "
            + "; ".join(f"{c.name}: {c.detail}" for c in failed)
        )
    return replace(gadget, certificate=tuple(checks))


# -- tunnel ---------------------------------------------------------------------


def _tunnel_uncertified() -> Gadget:
    """Antiprism band: an octahedron surface minus two opposite faces."""
    edges = ["a1", "b1", "c1", "a2", "b2", "c2"] + [f"d{i}" for i in range(1, 7)]
    triangles = {
        "up1": ("a1", "d1", "d2"),
        "dn1": ("a2", "d2", "d3"),
        "up2": ("b1", "d3", "d4"),
        "dn2": ("b2", "d4", "d5"),
        "up3": ("c1", "d5", "d6"),
        "dn3": ("c2", "d6", "d1"),
    }
    config = TriangularConfiguration(edges, triangles)
    classes = {e: 1 for e in ("a1", "b1", "c1", "a2", "b2", "c2")}
    classes.update({f"d{i}": (2 if i % 2 else 3) for i in range(1, 7)})
    return Gadget(
        config=config,
        ends=(("a1", "b1", "c1"), ("a2", "b2", "c2")),
        matchings={
            "defect_end1": ("dn1", "dn2", "dn3"),
            "defect_end2": ("up1", "up2", "up3"),
        },
        edge_classes=classes,
    )


def certify_tunnel(gadget: Gadget) -> list[CheckResult]:
    checks = _end_structure_checks(gadget)
    found = enumerate_matchings_with_defect_within(gadget.config, gadget.end_edge_union())
    expected = sorted(
        [tuple(sorted(gadget.matchings["defect_end1"])), tuple(sorted(gadget.matchings["defect_end2"]))]
    )
    checks.append(
        CheckResult(
            "exactly_two_matchings_within_ends",
            found == expected,
            f"found {len(found)} matchings with defect inside the end edges",
        )
    )
    defects_ok = all(
        defect(gadget.config, gadget.matchings[f"defect_end{i}"]) == frozenset(gadget.ends[i - 1])
        for i in (1, 2)
    )
    checks.append(
        CheckResult(
            "defects_are_exactly_the_end_triples",
            defects_ok,
            "each distinguished matching leaves exactly one full end uncovered",
        )
    )
    pins = {e: 1 for triple in gadget.ends for e in triple}
    checks.extend(
        _tripartition_checks(
            gadget, pins, "tripartite_with_monochromatic_ends", expect_sizes=(6, 3, 3)
        )
    )
    return checks


def make_tunnel(certify: bool = True) -> Gadget:
    return _finish("tunnel", _tunnel_uncertified(), certify_tunnel, certify)


# -- five-triangle sphere piece ----------------------------------------------------


def _s5_uncertified() -> Gadget:
    """Octahedron surface with five faces filled and three left as ends."""
    edges = ["a", "b", "c", "ap", "bp", "cp"] + [f"d{i}" for i in range(1, 7)]
    triangles = {
        "t1": ("a", "d1", "d2"),
        "t2": ("b", "d3", "d4"),
        "t3": ("a", "b", "c"),
        "t4": ("c", "d5", "d6"),
        "t5": ("ap", "bp", "cp"),
    }
    config = TriangularConfiguration(edges, triangles)
    classes = {
        "a": 2, "b": 3, "c": 1,
        "ap": 1, "d2": 1, "d3": 1,
        "bp": 2, "d4": 2, "d5": 2,
        "cp": 3, "d1": 3, "d6": 3,
    }
    return Gadget(
        config=config,
        ends=(("ap", "d2", "d3"), ("bp", "d4", "d5"), ("cp", "d1", "d6")),
        matchings={
            "perfect": ("t1", "t2", "t4", "t5"),
            "all_ends_defect": ("t3",),
        },
        edge_classes=classes,
    )


def certify_s5(gadget: Gadget) -> list[CheckResult]:
    checks = _end_structure_checks(gadget)
    perfect = perfect_matchings(gadget.config)
    checks.append(
        CheckResult(
            "unique_perfect_matching_of_size_4",
            perfect == [tuple(sorted(gadget.matchings["perfect"]))]
            and len(gadget.matchings["perfect"]) == 4,
            f"found {len(perfect)} perfect matchings",
        )
    )
    end_union = frozenset(gadget.end_edge_union())
    within = enumerate_matchings_with_defect_within(gadget.config, end_union)
    full_defect = [m for m in within if defect(gadget.config, m) == end_union]
    checks.append(
        CheckResult(
            "unique_matching_with_defect_on_all_ends",
            full_defect == [tuple(sorted(gadget.matchings["all_ends_defect"]))]
            and len(gadget.matchings["all_ends_defect"]) == 1,
            f"found {len(full_defect)} matchings with defect on all nine end edges",
        )
    )
    pins = {e: cls for cls, triple in enumerate(gadget.ends, start=1) for e in triple}
    checks.extend(
        _tripartition_checks(gadget, pins, "tripartite_with_ends_in_distinct_classes")
    )
    return checks


def make_s5(certify: bool = True) -> Gadget:
    return _finish("s5", _s5_uncertified(), certify_s5, certify)


# -- matching triangular triangle ---------------------------------------------------


@dataclass(frozen=True)
class _Template:
    """A reference gadget compiled once for `_glue`.

    Edge slot s is the reference's s-th edge (its edge place) and triangle
    slot s its s-th triangle, both in sorted id order, so names that share
    a prefix stay in that order. Per slot, a suffix is `:x` for name `x`.
    An end's slots follow its sorted edges. A triangle holds its interior
    edge slots, ascending, and its end edge slots. A matching is its
    triangle slots, ascending. `classes` pairs each classed edge slot with
    its class, in the order of the stored classes, and `interior_classes`
    is its interior part.
    """

    edge_suffixes: tuple[str, ...]
    end_slots: tuple[tuple[int, ...], ...]
    triangle_suffixes: tuple[str, ...]
    triangle_slots: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    matchings: dict[str, tuple[int, ...]]
    classes: tuple[tuple[int, int], ...]
    interior_classes: tuple[tuple[int, int], ...]


def _compile(ref: Gadget) -> _Template:
    config = ref.config
    edge_slot, members = _edge_places(config)
    end_slots = tuple(tuple(edge_slot[e] for e in sorted(end)) for end in ref.ends)
    on_end = {s for slots in end_slots for s in slots}
    triangle_slots = tuple(
        (tuple(s for s in slots if s not in on_end), tuple(s for s in slots if s in on_end))
        for slots in members.values()
    )
    classes = tuple((edge_slot[e], c) for e, c in ref.edge_classes.items())
    return _Template(
        edge_suffixes=tuple(f":{e}" for e in config.edge_ids),
        end_slots=end_slots,
        triangle_suffixes=tuple(f":{t}" for t in config.triangle_ids),
        triangle_slots=triangle_slots,
        matchings={k: tuple(sorted(map(config.triangle_ids.index, m))) for k, m in ref.matchings.items()},
        classes=classes,
        interior_classes=tuple((s, c) for s, c in classes if s not in on_end),
    )


def _glue(
    edges: dict[str, tuple[str, str] | None],
    triangles: dict[str, tuple[str, ...]],
    template: _Template,
    prefix: str,
    triples: Sequence[Sequence[str]],
) -> tuple[list[str], list[str]]:
    """Add a fresh copy of `template`'s gadget to `edges` and `triangles`, glued onto `triples`.

    End i of the gadget, sorted, becomes `triples[i]` edge by edge; every
    other edge and every triangle `x` becomes `prefix:x`. New edges carry
    no endpoints, and an edge already present keeps its own. Each
    triangle's edges come out sorted: its interior names share the prefix,
    so they are in slot order, and each end name is inserted among them.
    Returns the new edge and triangle names, by slot.
    """
    names = [prefix + x for x in template.edge_suffixes]
    for slots, triple in zip(template.end_slots, triples):
        for s, e in zip(slots, triple):
            names[s] = e
    add = edges.setdefault
    for e in names:
        add(e, None)
    triangle_names = [prefix + x for x in template.triangle_suffixes]
    for t, (interior, on_end) in zip(triangle_names, template.triangle_slots):
        if t in triangles:
            raise ToolkitError(f"block triangle id {t!r} collides; already linked here?")
        tri = [names[s] for s in interior]
        for s in on_end:
            insort(tri, names[s])
        triangles[t] = tuple(tri)
    return names, triangle_names


def _mtt_uncertified() -> Gadget:
    """Glue one tunnel onto each end of the sphere piece.

    The sphere piece's edges and triangles are named `s5:x`. Tunnel i's inner
    end is glued onto the sphere piece's end i, its outer end becomes the
    block's end i, `end{i}:a/b/c`, and its other names get the prefix `t{i}:`.
    """
    s5, tunnel = _compile(_s5_uncertified()), _compile(_tunnel_uncertified())
    edges: dict[str, tuple[str, str] | None] = {}
    triangles: dict[str, tuple[str, ...]] = {}
    s5_names, s5_triangles = _glue(edges, triangles, s5, "s5", ())
    m1 = [s5_triangles[s] for s in s5.matchings["perfect"]]
    m0 = [s5_triangles[s] for s in s5.matchings["all_ends_defect"]]
    classes = {s5_names[s]: cls for s, cls in s5.classes}
    ends = []
    for i, slots in enumerate(s5.end_slots, start=1):
        outer = (f"end{i}:a", f"end{i}:b", f"end{i}:c")
        inner = [s5_names[s] for s in slots]  # sorted: the slots follow the sorted end
        names, triangle_names = _glue(edges, triangles, tunnel, f"t{i}", [inner, outer])
        # the sphere piece's perfect matching covers end i, so tunnel i leaves its inner end
        m1.extend(triangle_names[s] for s in tunnel.matchings["defect_end1"])
        m0.extend(triangle_names[s] for s in tunnel.matchings["defect_end2"])
        # tunnel classes 1, 2, 3 become i and the other two in order
        order = (i, *sorted({1, 2, 3} - {i}))
        classes.update({names[s]: order[cls - 1] for s, cls in tunnel.classes})
        ends.append(outer)
    return Gadget(
        config=TriangularConfiguration._make(edges, triangles),
        ends=tuple(ends),  # type: ignore[arg-type]
        matchings={"perfect": tuple(sorted(m1)), "all_ends_defect": tuple(sorted(m0))},
        edge_classes=classes,
    )


def certify_mtt(gadget: Gadget) -> list[CheckResult]:
    checks = _end_structure_checks(gadget)
    end_union = frozenset(gadget.end_edge_union())
    within = enumerate_matchings_with_defect_within(gadget.config, end_union)
    expected = sorted(
        [tuple(sorted(gadget.matchings["perfect"])), tuple(sorted(gadget.matchings["all_ends_defect"]))]
    )
    checks.append(
        CheckResult(
            "exactly_two_matchings_within_outer_ends",
            within == expected,
            f"found {len(within)} matchings with defect inside the nine outer edges",
        )
    )
    defects = sorted(
        (sorted(defect(gadget.config, m)) for m in within), key=len
    )
    checks.append(
        CheckResult(
            "no_proper_nonempty_defect",
            len(defects) == 2 and defects[0] == [] and frozenset(defects[1]) == end_union,
            "defects inside the outer edges are exactly the empty set and all nine",
        )
    )
    pins = {e: cls for cls, triple in enumerate(gadget.ends, start=1) for e in triple}
    checks.extend(
        _tripartition_checks(gadget, pins, "tripartite_with_pinned_end_classes")
    )
    return checks


def make_matching_triangular_triangle(certify: bool = True) -> Gadget:
    return _finish("matching triangular triangle", _mtt_uncertified(), certify_mtt, certify)


@functools.cache
def _reference_mtt() -> _Template:
    return _compile(_mtt_uncertified())


# -- linking and reduction ------------------------------------------------------------


# `_glue`'s prefix for the own edges and the triangles of a linking block onto triangles t1, t2, t3
_BLOCK_PREFIX = "mtt[{}|{}|{}]"


@dataclass(frozen=True)
class MttBlock:
    """The perfect matching `m1` and the all-ends-defect matching `m0` of one
    linking block that `tripartite_reduction` glued, by name in the result."""

    m1: tuple[str, ...]
    m0: tuple[str, ...]


def link_by_mtt(
    config: TriangularConfiguration, t1: str, t2: str, t3: str
) -> TriangularConfiguration:
    """Attach a fresh linking block whose end triples are the three target triangles."""
    targets = (t1, t2, t3)
    if len(set(targets)) != 3:
        raise ToolkitError(f"link targets must be three distinct triangles, got {targets}")
    triples = []
    for t in targets:
        if not config.has_triangle(t):
            raise ToolkitError(f"unknown triangle {t!r}")
        triples.append(tuple(sorted(config.triangle_edges(t))))
    for i in range(3):
        for j in range(i + 1, 3):
            if set(triples[i]) & set(triples[j]):
                raise ToolkitError(
                    f"link targets {targets[i]!r} and {targets[j]!r} share an edge"
                )
    edges = {e: config.edge_ends(e) for e in config.edge_ids}
    triangles = {t: config.triangle_edges(t) for t in config.triangle_ids}
    _glue(edges, triangles, _reference_mtt(), _BLOCK_PREFIX.format(*targets), triples)
    # the block's edges have no ends, so the vertices stay the source's
    return TriangularConfiguration._make(edges, triangles, config.vertices)


@dataclass(frozen=True)
class ReductionResult:
    """Tripartite rewrite of a configuration with matchings preserved.

    `blocks` maps each source triangle to its linking block; the forward map
    sends a triangle subset S to the union of the perfect block matchings for
    members of S and the all-ends-defect block matchings for non-members.
    """

    source: TriangularConfiguration
    config: TriangularConfiguration
    weighting: dict[str, int]
    edge_classes: dict[str, int]
    blocks: dict[str, MttBlock]

    def forward(self, triangle_subset: Iterable[str]) -> tuple[str, ...]:
        chosen = set(triangle_subset)
        unknown = chosen - set(self.blocks)
        if unknown:
            raise ToolkitError(f"unknown source triangles {sorted(unknown)}")
        out: list[str] = []
        for t, block in self.blocks.items():
            out.extend(block.m1 if t in chosen else block.m0)
        return tuple(sorted(out))

    def to_doc(self) -> dict:
        doc = {
            "config": build_config_doc(
                self.config, weights=self.weighting, edge_classes=self.edge_classes
            ),
            "blocks": {
                t: {"m1": list(block.m1), "m0": list(block.m0)}
                for t, block in sorted(self.blocks.items())
            },
        }
        return doc


def tripartite_reduction(
    config: TriangularConfiguration,
    weighting: Mapping[str, int] | None = None,
) -> ReductionResult:
    """Three disjoint copies, one linking block per source triangle, copies deleted.

    The designated triangle of each block (lowest id in its perfect matching)
    inherits the source triangle's weight; every other block triangle weighs 0.
    Copy-i edges land in class i and each block's interior edges take the
    reference block's stored classes, which put its end i in class i, so
    the result is tripartite by construction and its classes are not
    checked here: `triadjacency` checks the classes it is given, and the
    tests run the public checks on every reduction they make.
    """
    problems = validate(config)
    if problems:
        raise ToolkitError("reduction input is invalid: " + "; ".join(problems))
    classes = {f"c{i}:{e}": i for i in (1, 2, 3) for e in config.edge_ids}
    edges: dict[str, tuple[str, str] | None] = dict.fromkeys(classes)
    # the copies' triangles are only the blocks' end triples: the result drops them
    triangles: dict[str, tuple[str, ...]] = {}
    blocks: dict[str, MttBlock] = {}
    weights: dict[str, int] = {}
    ref = _reference_mtt()
    for t in config.triangle_ids:
        tri = config.triangle_edges(t)
        triples = [tuple(f"c{i}:{e}" for e in tri) for i in (1, 2, 3)]
        prefix = _BLOCK_PREFIX.format(f"c1:{t}", f"c2:{t}", f"c3:{t}")
        names, triangle_names = _glue(edges, triangles, ref, prefix, triples)
        m1 = tuple(triangle_names[s] for s in ref.matchings["perfect"])
        blocks[t] = MttBlock(m1, tuple(triangle_names[s] for s in ref.matchings["all_ends_defect"]))
        weights.update(dict.fromkeys(triangle_names, 0))
        weights[m1[0]] = operator.index(weighting.get(t, 1)) if weighting is not None else 1
        classes.update({names[s]: cls for s, cls in ref.interior_classes})
    # every triangle is a block's, with its edges sorted by `_glue`; no edge has ends
    work = TriangularConfiguration._make(edges, triangles)
    return ReductionResult(source=config, config=work, weighting=weights, edge_classes=classes, blocks=blocks)

