"""Builders that skip the public checks make exactly what the public constructors make.

`TriangularConfiguration`, `Tensor3` and `Polynomial` check outside input in
their constructors; kas3's own builders store finished data through each
class's `_make`. Every result here is rebuilt through the public constructor
from the inputs that constructor would have been given, and must come out
equal, with the same vertex order and id tuples.
"""

import random
from fractions import Fraction

import pytest

from conftest import edge_values, random_config
from kas3.algebra import Polynomial
from kas3.core import TriangularConfiguration, build_config_doc, parse_config_doc
from kas3.errors import ToolkitError
from kas3.gadgets import link_by_mtt, make_matching_triangular_triangle, tripartite_reduction
from kas3.kasteleyn_construct import build_T
from kas3.tensor3 import (
    RectMatrixTriple,
    Tensor3,
    apply_signing,
    binet_cauchy_C,
    projection_graphs,
    triadjacency,
    vertex_adjacency,
)


def assert_public(config: TriangularConfiguration, vertices=()) -> None:
    """`config` equals the public construction from its maps and `vertices`."""
    public = TriangularConfiguration(
        {e: config.edge_ends(e) for e in config.edge_ids},
        {t: config.triangle_edges(t) for t in config.triangle_ids},
        vertices,
    )
    assert config == public
    assert type(config.vertices) is frozenset
    assert config.edge_ids == public.edge_ids
    assert config.triangle_ids == public.triangle_ids
    # equal maps hold equal values, and tuples are not equal to lists
    assert config._edges == public._edges and config._triangles == public._triangles


def assert_public_tensor(tensor: Tensor3) -> None:
    public = Tensor3(tensor.dims, dict(tensor.entries))
    assert tensor == public
    assert type(tensor.dims) is tuple and all(type(d) is int for d in tensor.dims)
    assert all(type(i) is int for key in tensor.entries for i in key)


def assert_public_polynomial(poly) -> None:
    if isinstance(poly, int):
        return
    assert poly == Polynomial(poly._coeffs)
    assert poly._coeffs == Polynomial(poly._coeffs)._coeffs
    assert all(type(e) is int and type(c) is int and c for e, c in poly._coeffs.items())


def random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.choice((0, 0, 1, 2, -1, 3)) for _ in range(n)] for _ in range(n)]


class TestInternalBuilds:
    def test_reductions_and_their_tensors(self):
        rng = random.Random(2104)
        for _ in range(60):
            config = random_config(rng)
            weights = {t: rng.randint(0, 5) for t in config.triangle_ids}
            result = tripartite_reduction(config, weights)
            assert_public(result.config)
            tensor, _axes = triadjacency(result.config, result.edge_classes, result.weighting)
            assert_public_tensor(tensor)
            assert len(tensor.entries) == len(result.config.triangle_ids)

    def test_linked_configurations(self):
        rng = random.Random(2105)
        linked = 0
        for _ in range(60):
            config = random_config(rng) if rng.random() < 0.5 else build_T(random_matrix(rng, rng.randint(1, 3))).config
            if len(config.triangle_ids) < 3:
                continue
            try:
                result = link_by_mtt(config, *rng.sample(config.triangle_ids, 3))
            except ToolkitError as exc:
                assert "share an edge" in str(exc)
                continue
            linked += 1
            assert_public(result, config.vertices)
        assert linked >= 20

    def test_the_reference_block(self):
        assert_public(make_matching_triangular_triangle(certify=False).config)

    def test_constructions_signings_and_contractions(self):
        rng = random.Random(2106)
        for _ in range(40):
            n = rng.randint(1, 4)
            matrix = random_matrix(rng, n)
            if rng.random() < 0.3:
                matrix = [[Fraction(v, 2) for v in row] for row in matrix]
            tc = build_T(matrix)
            assert_public(tc.config, list(tc.w0) + list(tc.w1) + list(tc.w2))
            assert_public_tensor(tc.tensor)
            tensor, _orders = vertex_adjacency(tc.config, tc.vertex_classes, edge_values(tc))
            assert_public_tensor(tensor)
            graphs = projection_graphs(tc.tensor)
            sign1 = {edge: rng.choice((1, -1)) for edge in graphs.g1.edges}
            sign2 = {edge: rng.choice((1, -1)) for edge in graphs.g2.edges}
            assert_public_tensor(apply_signing(tc.tensor, sign1, sign2))
            r = rng.randint(1, 3)
            cols = rng.randint(r, 4)
            rows = [[[rng.randint(-2, 2) for _ in range(cols)] for _ in range(r)] for _ in range(3)]
            assert_public_tensor(binet_cauchy_C(RectMatrixTriple.from_rows(*rows)))

    def test_a_zero_entry_value_makes_no_cell(self):
        tc = build_T([[1, 2], [3, 4]])
        values = edge_values(tc)
        tensor, _orders = vertex_adjacency(tc.config, tc.vertex_classes, {**values, "tri:edge[0]": 0})
        full, _orders = vertex_adjacency(tc.config, tc.vertex_classes, values)
        assert len(tensor.entries) == len(full.entries) - 1
        assert 0 not in tensor.entries.values()
        assert_public_tensor(tensor)

    def test_parsed_documents(self):
        rng = random.Random(2107)
        for _ in range(100):
            config = random_config(rng)
            doc = build_config_doc(config)
            names = [f"v{i}" for i in range(6)]
            for entry in doc["edges"]:
                if rng.random() < 0.7:
                    entry["ends"] = rng.choices(names, k=2)
            for entry in doc["triangles"]:
                rng.shuffle(entry["edges"])
            doc["vertices"] = rng.sample(names, rng.randint(0, 6)) * rng.randint(1, 2)
            parsed = parse_config_doc(doc)[0]
            assert_public(parsed, doc["vertices"])
            assert parsed.edge_ends(doc["edges"][0]["id"]) == (
                tuple(sorted(doc["edges"][0]["ends"])) if "ends" in doc["edges"][0] else None
            )


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_arithmetic(seed):
    rng = random.Random(seed)

    def poly():
        return Polynomial({rng.randint(0, 5): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})

    for _ in range(200):
        p, q = poly(), poly()
        k = rng.choice((0, 1, -1, 2, True))
        for result in (p + q, p - q, p - p, q * p, p * q, -p, p * k, k * p, p + k, k + p, p - k, k - p, p**2):
            assert_public_polynomial(result)
    x = Polynomial.monomial(1)
    assert_public_polynomial((1 + x) * (1 - x))
    assert (1 + x) * (1 - x) == 1 - x * x
