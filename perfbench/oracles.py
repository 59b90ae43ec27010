"""Independent reference values for the benchmark's per-job checks.

Nothing here calls into kas3: polynomials are plain exponent -> coefficient
dicts, permanents come from the n! definition, and matchings from filtering
every triangle subset. Each check compares a timed kas3 result against a
value computed another way, never against a second call of the same function.
"""

from __future__ import annotations

import itertools

# Perfect-matching counts of the open cubic boxes the dimer jobs use.
DIMER_COUNTS = {(2, 2, 3): 32, (2, 3, 3): 229, (2, 2, 5): 450}

# Weight enumerators of the small binary codes the generated codes are built
# from (direct sums of these, with columns permuted and rows recombined).
CODE_CATALOG = {
    "rep2": (2, 1, {0: 1, 2: 1}),
    "rep3": (3, 1, {0: 1, 3: 1}),
    "even3": (3, 2, {0: 1, 2: 3}),
    "even4": (4, 3, {0: 1, 2: 6, 4: 1}),
    "hamming7": (7, 4, {0: 1, 3: 7, 4: 7, 7: 1}),
}
CODE_GENERATORS = {
    "rep2": [[1, 1]],
    "rep3": [[1, 1, 1]],
    "even3": [[1, 1, 0], [0, 1, 1]],
    "even4": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
    "hamming7": [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1],
    ],
}

# GF(p) cycle-space enumerators of single blocks, by exhaustive enumeration of
# every coefficient vector: the tetrahedron boundary over GF(2), and the
# nine-triangle Latin block {R_i, C_j, S_(i+j mod 3)} over GF(3).
TETRAHEDRON_GF2 = {0: 1, 4: 1}
LATIN_GF3 = {0: 1, 6: 24, 9: 2}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_pow(a: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_of(value) -> dict:
    """kas3 ring value (int or Polynomial) as an exponent -> coefficient dict."""
    if isinstance(value, int):
        return {0: value} if value else {}
    return dict(value.terms())


def parse_poly_text(text: str) -> dict:
    """Read the `c0 + c1*x^e1 - ...` text form the CLI prints."""
    out: dict[int, int] = {}
    if text.strip() == "0":
        return out
    sign = 1
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        if token[0] in "+-":
            sign = -1 if token[0] == "-" else 1
            token = token[1:]
        if "x" in token:
            coeff, _, exp = token.partition("x^")
            coeff = coeff.rstrip("*")
            out[int(exp)] = out.get(int(exp), 0) + sign * (int(coeff) if coeff else 1)
        else:
            out[0] = out.get(0, 0) + sign * int(token)
        sign = 1
    return out


def matrix_permanent(matrix) -> tuple[int, int]:
    """(permanent, number of permutations with a nonzero product) by definition."""
    n = len(matrix)
    total = 0
    nonzero = 0
    for perm in itertools.permutations(range(n)):
        product = 1
        for i in range(n):
            product *= matrix[i][perm[i]]
            if not product:
                break
        if product:
            total += product
            nonzero += 1
    return total, nonzero


def _parity(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inversions & 1 else 1


def dense_per_det(side: int, entries: dict) -> tuple[int, int]:
    """Permanent and determinant of a small integer 3-matrix over S_n x S_n."""
    per = det = 0
    perms = list(itertools.permutations(range(side)))
    for s1 in perms:
        p1 = _parity(s1)
        for s2 in perms:
            product = 1
            for i in range(side):
                product *= entries.get((i, s1[i], s2[i]), 0)
                if not product:
                    break
            per += product
            det += product * p1 * _parity(s2)
    return per, det


def matching_polynomial(triangles: dict, edges, weights: dict) -> dict:
    """Perfect-matching polynomial by filtering every subset of triangles."""
    all_edges = set(edges)
    names = sorted(triangles)
    out: dict[int, int] = {}
    for r in range(len(names) + 1):
        for subset in itertools.combinations(names, r):
            covered: set = set()
            for t in subset:
                tri = set(triangles[t])
                if covered & tri:
                    break
                covered |= tri
            else:
                if covered == all_edges:
                    w = sum(weights[t] for t in subset)
                    out[w] = out.get(w, 0) + 1
    return out


def fold(poly: dict, e: int) -> dict:
    out: dict[int, int] = {}
    for exp, coeff in poly.items():
        half = (exp % e) // 2
        out[half] = out.get(half, 0) + coeff
    return {k: v for k, v in out.items() if v}
