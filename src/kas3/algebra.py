"""Exact univariate polynomials, sparse GF(p) echelon forms and binary-code enumerators.

Coefficients are Python big integers throughout; nothing here ever rounds.
"""

from __future__ import annotations

import math
import operator
import re
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

from ._util import int_text, read_array, read_int
from .errors import GuardExceeded, SchemaError, ToolkitError

WEIGHT_ENUM_MAX_DIM = 24


class Polynomial:
    """Sparse exact univariate polynomial: exponent -> big-integer coefficient.

    Exponents are non-negative integers and zero coefficients are never
    stored, so two polynomials are equal iff their coefficient maps are.
    Instances are treated as immutable values. The constructor checks every
    term it is given; arithmetic builds its results with `_make`, which
    stores a map that already holds only int exponents >= 0 and nonzero int
    coefficients.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | int = 0):
        if isinstance(coeffs, int):
            coeffs = {0: coeffs} if coeffs else {}
        clean: dict[int, int] = {}
        for exp, coeff in coeffs.items():
            exp = operator.index(exp)
            coeff = operator.index(coeff)
            if exp < 0:
                raise ToolkitError(f"negative exponent {exp} not representable")
            if coeff:
                clean[exp] = coeff
        self._coeffs = clean

    @classmethod
    def _make(cls, coeffs: dict[int, int]) -> "Polynomial":
        """A polynomial holding `coeffs` as given: the caller guarantees what `__init__` checks."""
        poly = cls.__new__(cls)
        poly._coeffs = coeffs
        return poly

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "Polynomial":
        return cls({exponent: coefficient})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(0)

    @classmethod
    def one(cls) -> "Polynomial":
        return cls(1)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._coeffs.keys() <= {0}:  # a constant equals its integer, so it hashes like it
            return hash(self._coeffs.get(0, 0))
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._coeffs)
        for exp, coeff in other._coeffs.items():
            coeff += merged.get(exp, 0)
            if coeff:
                merged[exp] = coeff
            else:
                del merged[exp]
        return Polynomial._make(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                out[exp] = out.get(exp, 0) + c1 * c2
        return Polynomial._make({e: c for e, c in out.items() if c} if 0 in out.values() else out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ToolkitError("negative powers not supported")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        return sum(c * x**e for e, c in self._coeffs.items())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Stable text form `c0 + c1*x^e1 + ...` with ascending exponents."""
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.terms():
            mag = abs(coeff)
            if exp == 0:
                body = int_text(mag)
            elif mag == 1:
                body = f"x^{int_text(exp)}"
            else:
                body = f"{int_text(mag)}*x^{int_text(exp)}"
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)


def _coerce(value) -> "Polynomial":
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial._make({0: int(value)} if value else {})  # int(): a bool is stored as its int
    return NotImplemented


_TERM_RE = re.compile(r"^(?:(\d+)\s*\*?\s*)?x(?:\^(\d+))?$|^(\d+)$")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the text form accepted and produced by `Polynomial.to_text`."""
    s = text.strip()
    if not s:
        raise SchemaError("empty polynomial text")
    # re.split with a captured separator alternates term, sign, term, ...:
    # an odd number of pieces, so every sign has a term after it
    pieces = re.split(r"\s*([+-])\s*", s)
    sign = 1
    idx = 0
    if pieces[0] == "":  # a leading sign
        sign = -1 if pieces[1] == "-" else 1
        idx = 2
    coeffs: dict[int, int] = {}
    while idx < len(pieces):
        match = _TERM_RE.match(pieces[idx].strip())
        if not match:
            raise SchemaError(f"cannot parse polynomial term {pieces[idx]!r}")
        try:
            if match.group(3) is not None:
                exp, coeff = 0, int(match.group(3))
            else:
                coeff = int(match.group(1)) if match.group(1) else 1
                exp = int(match.group(2)) if match.group(2) else 1
        except ValueError as exc:  # more digits than the interpreter reads as an integer
            raise SchemaError(f"cannot parse polynomial term: {exc}") from None
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        idx += 1
        if idx < len(pieces):
            sign = -1 if pieces[idx] == "-" else 1
            idx += 1
    return Polynomial(coeffs)


def fold_enumerator(poly: Polynomial, e: int) -> Polynomial:
    """Collapse exponents i to (i mod e) / 2, merging coefficients.

    Every exponent carrying a nonzero coefficient must have an even residue
    mod `e`; an odd residue is an error naming the offending exponent rather
    than a silent guess.
    """
    if e <= 0:
        raise ToolkitError(f"fold modulus must be positive, got {e}")
    folded: dict[int, int] = {}
    for exp, coeff in poly.terms():
        residue = exp % e
        if residue % 2:
            raise ToolkitError(
                f"exponent {exp} has odd residue {residue} mod {e}; cannot halve"
            )
        half = residue // 2
        folded[half] = folded.get(half, 0) + coeff
    return Polynomial(folded)


def is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def gf_p_echelon(rows: Iterable[Mapping[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Echelon form over GF(p) of sparse rows (column -> value maps), keyed by pivot column.

    Each kept row is 1 at its pivot, its leftmost column, and stores no zero.
    p is tested for primality before the first row is read.
    """
    if not is_prime(p):
        raise ToolkitError(f"{p} is not prime")
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            pivot_row = echelon.get(col)
            if pivot_row is None:
                inv = pow(row[col], -1, p)
                echelon[col] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot_row.items():
                row[c] = (row.get(c, 0) - factor * v) % p
            row = {c: v for c, v in row.items() if v}
    return echelon


def gf_p_nullspace(echelon: Mapping[int, Mapping[int, int]], ncols: int, p: int) -> list[dict[int, int]]:
    """Kernel basis of a `gf_p_echelon` form over GF(p): one sparse vector per free column, ascending.

    Each vector is a column -> value map storing no zero. The vector of free
    column f is 1 at f and holds no other free column, which fixes it; its
    pivot entries are back-substituted right to left. Only the pivots whose
    rows meet the vector's support so far can be nonzero, so those alone
    are taken, highest first: a row holds columns right of its pivot only,
    so each pivot is met after every column its value reads.
    """
    meets: dict[int, list[int]] = {}  # column -> the pivots whose rows hold it
    for pivot, row in echelon.items():
        for col in row:
            if col != pivot:
                meets.setdefault(col, []).append(-pivot)
    basis: list[dict[int, int]] = []
    for free in range(ncols):
        if free in echelon:
            continue
        vec = {free: 1}
        pending = list(meets.get(free, ()))  # negated pivots, a max-heap
        heapify(pending)
        queued = set(pending)
        while pending:
            col = -heappop(pending)
            # vec has no entry at col yet, so the pivot's own entry adds nothing
            value = -sum(v * vec.get(c, 0) for c, v in echelon[col].items()) % p
            if value:
                vec[col] = value
                for neg in meets.get(col, ()):
                    if neg not in queued:
                        queued.add(neg)
                        heappush(pending, neg)
        basis.append(vec)
    return basis


class BinaryCode:
    """Binary linear code given by a full-rank k x n generator matrix over GF(2)."""

    __slots__ = ("k", "n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        self.rows = tuple(operator.index(r) for r in rows)
        self.n = operator.index(n)
        self.k = len(self.rows)
        if self.n < 0:
            raise ToolkitError("code length must be non-negative")
        for row in self.rows:
            if row < 0 or row >> self.n:
                raise ToolkitError("generator row outside code length")
        if len(_gf2_echelon(self.rows)) != self.k:
            raise ToolkitError("generator rows are linearly dependent")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n: int | None = None) -> "BinaryCode":
        if n is None:
            n = len(rows[0]) if rows else 0
        masks = []
        for r, row in enumerate(rows):
            if len(read_array(row, f"rows[{r}]")) != n:
                raise SchemaError("ragged generator matrix")
            mask = 0
            for j, bit in enumerate(row):
                bit = read_int(bit, f"rows[{r}][{j}]")
                if bit not in (0, 1):
                    raise SchemaError(f"generator entry {bit} is not a bit")
                mask |= bit << j
            masks.append(mask)
        return cls(n, masks)

    @classmethod
    def from_doc(cls, doc) -> "BinaryCode":
        try:
            k, n, rows = read_int(doc["k"], "k"), read_int(doc["n"], "n"), read_array(doc["rows"], "rows")
            if len(rows) != k:
                raise SchemaError(f"expected {k} generator rows, got {len(rows)}")
            return cls.from_rows(rows, n)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ToolkitError):
                raise
            raise SchemaError(f"bad code document: {exc}") from exc

    def to_doc(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "rows": [[(row >> j) & 1 for j in range(self.n)] for row in self.rows],
        }


def _gf2_insert(basis: list[int], mask: int) -> None:
    """Add a bit mask to a reduced echelon basis in place (see `_gf2_echelon`).

    The basis stays sorted by descending top bit, so the row 1, when the
    span holds it, is the last vector.
    """
    for b in basis:
        mask = min(mask, mask ^ b)
    if mask:
        top = 1 << (mask.bit_length() - 1)
        basis[:] = [b ^ mask if b & top else b for b in basis]
        basis.append(mask)
        basis.sort(reverse=True)


def _gf2_echelon(masks: Iterable[int]) -> list[int]:
    """Reduced echelon basis of the GF(2) span of bit masks, by descending top bit.

    Each basis vector's top bit is its pivot, and no other basis vector has
    that bit set.
    """
    basis: list[int] = []
    for mask in masks:
        _gf2_insert(basis, mask)
    return basis


def _support_blocks(basis: Sequence[Mapping[int, int]]) -> list[list[Mapping[int, int]]]:
    """Split sparse vectors into blocks whose supports are pairwise disjoint.

    Two vectors land in one block when a chain of vectors with overlapping
    supports joins them. For a systematic basis the blocks are the span's
    direct-sum components, and its enumerator is the product of theirs.
    """
    blocks: list[tuple[int, list]] = []
    for vec in basis:
        support = sum(1 << j for j in vec)
        members = [vec]
        for block in [b for b in blocks if b[0] & support]:
            blocks.remove(block)
            support |= block[0]
            members = block[1] + members
        blocks.append((support, members))
    return [members for _, members in blocks]


def _gray_enumerator(rows: Sequence[Mapping[int, int]], p: int) -> Polynomial:
    """Sum of x^weight over the GF(p) span of independent sparse rows, by a p-ary Gray code.

    Step s adds row v_p(s), the number of times p divides s. The modular
    Gray digits g_i = (s_i - s_(i+1)) mod p of the base-p digits s_i are a
    bijection on [0, p^k), and going from s - 1 to s raises exactly digit
    v_p(s) by 1, so every combination of the rows is met once (Knuth, TAOCP
    Vol. 4A, 7.2.1.1). For p = 2 the word is a bit mask and a step is one
    XOR; otherwise it is a column -> value map, and a step adds the row's
    entries and moves the weight by the columns that turn nonzero or zero.
    """
    counts = {0: 1}
    masks = [sum(1 << j for j in row) for row in rows] if p == 2 else []
    mask, word, w = 0, {}, 0
    for s in range(1, p ** len(rows)):
        if p == 2:
            mask ^= masks[(s & -s).bit_length() - 1]
            w = mask.bit_count()
        else:
            i, t = 0, s
            while not t % p:
                t //= p
                i += 1
            for c, v in rows[i].items():
                old = word.get(c, 0)
                word[c] = new = (old + v) % p
                w += (not old) - (not new)
        counts[w] = counts.get(w, 0) + 1
    return Polynomial._make(counts)


def weight_enumerator(code: BinaryCode) -> Polynomial:
    """Sum of x^weight over all 2^k codewords.

    The generators are brought to reduced echelon form, a systematic basis,
    whose rows go to `gf_p_weight_enumerator` as maps of their set bits.
    """
    if code.k > WEIGHT_ENUM_MAX_DIM:
        raise GuardExceeded(f"code dimension {code.k} exceeds enumeration guard {WEIGHT_ENUM_MAX_DIM}")
    rows = [{j: 1 for j in range(mask.bit_length()) if mask >> j & 1} for mask in _gf2_echelon(code.rows)]
    return gf_p_weight_enumerator(rows, 2)


def gf_p_weight_enumerator(basis: Sequence[Mapping[int, int]], p: int) -> Polynomial:
    """Sum of x^weight over the GF(p) span of a systematic basis, such as `gf_p_nullspace`'s.

    Each vector is a column -> value map with values in 1..p-1 and no zero
    stored. Each vector has a column where it is 1 and every other vector is
    0, so the vectors are independent and their direct-sum blocks are found
    from their supports alone. Each block is spanned by one p-ary Gray-code
    walk and the block enumerators are multiplied. The caller guards the
    total count p^len(basis).
    """
    out = Polynomial.one()
    for block in _support_blocks(basis):
        out = out * _gray_enumerator(block, p)
    return out
