"""Polynomials, GF(p) kernels and binary-code enumerators."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kas3.algebra import (
    BinaryCode,
    Polynomial,
    fold_enumerator,
    gf_p_echelon,
    gf_p_nullspace,
    gf_p_weight_enumerator,
    parse_polynomial,
    weight_enumerator,
)
from kas3.errors import GuardExceeded, SchemaError, ToolkitError


def nullspace(rows, ncols, p):
    """`gf_p_nullspace` of a dense matrix, through `gf_p_echelon` of its rows."""
    return gf_p_nullspace(gf_p_echelon([dict(enumerate(row)) for row in rows], p), ncols, p)


small_polys = st.dictionaries(
    st.integers(0, 12), st.integers(-50, 50), max_size=6
).map(Polynomial)


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        assert Polynomial({3: 0, 1: 2}).terms() == [(1, 2)]
        assert not Polynomial(0)

    def test_negative_power_is_refused(self):
        with pytest.raises(ToolkitError, match="^negative powers not supported$"):
            Polynomial({1: 1}) ** -1

    def test_hash_agrees_with_equality(self):
        for c in (0, 1, -1, 3, 2**70, -(2**70)):
            assert Polynomial(c) == c and hash(Polynomial(c)) == hash(c)
            assert len({Polynomial(c), c}) == 1
        assert hash(Polynomial({0: 3})) == hash(Polynomial(3))
        x = Polynomial.monomial(1)
        assert x + 2 != 2 and len({x + 2, 2, 3 * x}) == 3
        assert hash(x + 2) == hash(2 + x) and {x + 2: "a"}[2 + x] == "a"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ToolkitError):
            Polynomial({-1: 2})

    def test_text_round_trip_examples(self):
        for text in ["0", "5", "x^1", "1 + 3*x^2", "1 + x^4", "2*x^3 - x^5 + 7"]:
            poly = parse_polynomial(text)
            assert parse_polynomial(poly.to_text()) == poly

    def test_parse_tolerates_missing_whitespace(self):
        assert parse_polynomial("1+x^6") == parse_polynomial("1 + x^6")
        assert parse_polynomial("-2*x^3+4") == Polynomial({3: -2, 0: 4})

    def test_text_form_matches_expected(self):
        assert Polynomial({0: 1, 2: 3}).to_text() == "1 + 3*x^2"
        assert Polynomial({1: 1, 0: 1}).to_text() == "1 + x^1"
        assert Polynomial({2: -1}).to_text() == "-x^2"
        assert Polynomial({0: 1, 3: -2}).to_text() == "1 - 2*x^3"

    def test_parse_rejects_junk(self):
        for text in ["", "x^", "1 +", "x**2", "- -1", "1 + y"]:
            with pytest.raises(SchemaError):
                parse_polynomial(text)

    def test_evaluate(self):
        p = Polynomial({0: 1, 2: 3})
        assert p(1) == 4
        assert p(2) == 13

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + Polynomial.zero() == a
        assert a * Polynomial.one() == a
        assert a - a == Polynomial.zero()

    @settings(max_examples=40, deadline=None)
    @given(small_polys, st.integers(-5, 5))
    def test_evaluation_is_ring_morphism(self, a, x):
        b = Polynomial({1: 2, 0: -1})
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


class TestFold:
    def test_examples(self):
        assert fold_enumerator(parse_polynomial("1 + x^6"), 4).to_text() == "1 + x^1"
        assert fold_enumerator(Polynomial({0: 1, 4: 1}), 8) == Polynomial({0: 1, 2: 1})

    def test_odd_residue_names_exponent(self):
        with pytest.raises(ToolkitError, match="exponent 5"):
            fold_enumerator(Polynomial({2: 1, 5: 1}), 4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 10).map(lambda i: 2 * i), st.integers(1, 9), max_size=5),
        st.integers(1, 6).map(lambda e: 2 * e),
    )
    def test_total_coefficient_sum_preserved(self, coeffs, e):
        poly = Polynomial(coeffs)
        assert fold_enumerator(poly, e)(1) == poly(1)


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace([[1, 0], [0, 1]], 2, 2) == []

    def test_single_parity_row(self):
        assert nullspace([[1, 1]], 2, 2) == [{0: 1, 1: 1}]

    def test_no_rows_means_full_space(self):
        basis = nullspace([], 3, 2)
        assert len(basis) == 3

    def test_gf3(self):
        basis = nullspace([[1, 2]], 2, 3)
        assert basis == [{0: 1, 1: 1}]  # 1*1 + 2*1 = 3 = 0 mod 3

    def test_rejects_composite_modulus(self):
        with pytest.raises(ToolkitError):
            nullspace([[1, 0]], 2, 4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 1), min_size=5, max_size=5), min_size=0, max_size=5)
    )
    def test_basis_vectors_lie_in_kernel(self, rows):
        echelon = gf_p_echelon([dict(enumerate(row)) for row in rows], 2)
        basis = gf_p_nullspace(echelon, 5, 2)
        free = [c for c in range(5) if c not in echelon]
        for f, vec in zip(free, basis, strict=True):
            # sparse: no stored zero, 1 at its own free column, no other free column
            assert 0 not in vec.values()
            assert vec[f] == 1 and set(vec) & set(free) == {f}
            for row in rows:
                assert sum(r * vec.get(j, 0) for j, r in enumerate(row)) % 2 == 0
        # rank-nullity over GF(2)
        rank = 5 - len(basis)
        assert 0 <= rank <= min(len(rows), 5)


def _dual_code(code: BinaryCode) -> BinaryCode:
    rows = [[(row >> j) & 1 for j in range(code.n)] for row in code.rows]
    basis = nullspace(rows, code.n, 2)
    return BinaryCode.from_rows([[v.get(j, 0) for j in range(code.n)] for v in basis], code.n)


def _macwilliams_transform(enum: Polynomial, n: int, k: int) -> Polynomial:
    one_minus = Polynomial({0: 1, 1: -1})
    one_plus = Polynomial({0: 1, 1: 1})
    total = Polynomial.zero()
    for w, coeff in enum.terms():
        total = total + coeff * (one_minus**w) * (one_plus ** (n - w))
    scaled = {}
    for exp, c in total.terms():
        q, r = divmod(c, 1 << k)
        assert r == 0, "MacWilliams transform must divide exactly"
        scaled[exp] = q
    return Polynomial(scaled)


class TestWeightEnumerator:
    def test_repetition_code(self):
        code = BinaryCode.from_rows([[1, 1, 1]])
        assert weight_enumerator(code) == Polynomial({0: 1, 3: 1})

    def test_even_weight_code(self):
        code = BinaryCode.from_rows([[1, 1, 0], [0, 1, 1]])
        assert weight_enumerator(code) == Polynomial({0: 1, 2: 3})

    def test_zero_dimensional_code(self):
        code = BinaryCode.from_rows([], n=4)
        assert weight_enumerator(code) == Polynomial({0: 1})

    def test_dependent_rows_rejected(self):
        with pytest.raises(ToolkitError):
            BinaryCode.from_rows([[1, 1, 0], [1, 1, 0]])

    def test_row_outside_the_code_length_rejected(self):
        with pytest.raises(ToolkitError, match="^generator row outside code length$"):
            BinaryCode(2, [4])

    def test_dimension_guard(self):
        # the guard is on the total dimension, however small the direct-sum blocks
        units = [[1 if j == i else 0 for j in range(30)] for i in range(25)]
        rep2_blocks = [[1 if j // 2 == i else 0 for j in range(50)] for i in range(25)]
        for rows in (units, rep2_blocks):
            with pytest.raises(GuardExceeded, match="code dimension 25 exceeds enumeration guard 24"):
                weight_enumerator(BinaryCode.from_rows(rows))
        assert weight_enumerator(BinaryCode.from_rows(rep2_blocks[:24])) == Polynomial({0: 1, 2: 1}) ** 24

    def test_enumerator_invariants(self):
        code = BinaryCode.from_rows([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]])
        enum = weight_enumerator(code)
        assert enum(1) == 1 << code.k
        assert enum.coefficient(0) == 1

    def test_macwilliams_cross_check(self):
        # independent sanity oracle: dual enumerator two ways
        for rows in ([[1, 1, 1]], [[1, 1, 0], [0, 1, 1]], [[1, 0, 1, 1], [0, 1, 1, 0]]):
            code = BinaryCode.from_rows(rows)
            dual = _dual_code(code)
            direct = weight_enumerator(dual)
            transformed = _macwilliams_transform(weight_enumerator(code), code.n, code.k)
            assert direct == transformed

    def test_doc_round_trip(self):
        code = BinaryCode.from_rows([[1, 0, 1], [0, 1, 1]])
        again = BinaryCode.from_doc(code.to_doc())
        assert again.rows == code.rows and again.n == code.n


def span_enumerator(n: int, rows) -> Polynomial:
    """Reference: x^weight summed over the XOR of every subset of the rows."""
    counts: dict[int, int] = {}
    for r in range(len(rows) + 1):
        for subset in itertools.combinations(rows, r):
            word = [0] * n
            for row in subset:
                word = [a ^ b for a, b in zip(word, row)]
            counts[sum(word)] = counts.get(sum(word), 0) + 1
    return Polynomial(counts)


BLOCKS = {
    "rep2": [[1, 1]],
    "rep3": [[1, 1, 1]],
    "even4": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
    "hamming7": [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]],
    "simplex7": [[1, 0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, 1]],
    "full2": [[1, 0], [0, 1]],
}


class TestFactoredEnumerator:
    """Enumerators of codes that split into direct-sum blocks, against independent references."""

    def test_random_codes_match_span_enumeration(self):
        rng = random.Random(11)
        for _ in range(120):
            k = rng.randint(0, 10)
            n = rng.randint(k, 14)
            rows: list[list[int]] = []
            while len(rows) < k:
                row = [int(rng.random() < 0.3) for _ in range(n)]
                try:
                    BinaryCode.from_rows(rows + [row], n)
                except ToolkitError:
                    continue
                rows.append(row)
            code = BinaryCode.from_rows(rows, n)
            assert weight_enumerator(code) == span_enumerator(n, rows)

    def test_direct_sums_with_permuted_columns_and_mixed_rows(self):
        rng = random.Random(12)
        for _ in range(40):
            names = [rng.choice(sorted(BLOCKS)) for _ in range(rng.randint(1, 5))]
            n = sum(len(BLOCKS[b][0]) for b in names)
            rows, offset, expected = [], 0, Polynomial.one()
            for b in names:
                width = len(BLOCKS[b][0])
                rows += [[0] * offset + gen + [0] * (n - offset - width) for gen in BLOCKS[b]]
                expected = expected * span_enumerator(width, BLOCKS[b])
                offset += width
            perm = rng.sample(range(n), n)
            rows = [[row[perm[j]] for j in range(n)] for row in rows]
            for _ in range(2 * len(rows)):
                if len(rows) > 1:
                    i, j = rng.sample(range(len(rows)), 2)
                    rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
            assert weight_enumerator(BinaryCode.from_rows(rows, n)) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_gf_p_span_matches_coefficient_enumeration(self, p):
        rng = random.Random(p)
        for _ in range(30):
            ncols = rng.randint(1, 8 if p < 5 else 6 if p < 7 else 5)
            rows = [
                [rng.randrange(1, p) if rng.random() < 0.4 else 0 for _ in range(ncols)]
                for _ in range(rng.randint(0, ncols))
            ]
            basis = nullspace(rows, ncols, p)
            counts: dict[int, int] = {}
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                word = [sum(c * vec.get(j, 0) for c, vec in zip(coeffs, basis)) % p for j in range(ncols)]
                w = sum(1 for v in word if v)
                counts[w] = counts.get(w, 0) + 1
            assert gf_p_weight_enumerator(basis, p) == Polynomial(counts)
