"""The workloads: seeded inputs, the timed pipeline of each job, its checks.

A workload is a list of rounds and a round is a list of jobs. The runner
cycles through the rounds until the run's time is up, always finishing the
round it is in, so every run sees the workload's job mix in whole rounds.
`run` is the timed part of a job and calls kas3 only through the tracer;
`check` is untimed, compares the outputs with `oracles`, and returns the
job's digest value and work counters. A check that disagrees raises
`OracleMismatch`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

import kas3
import kas3.cli
import kas3.gadgets
from kas3 import (
    TriangularConfiguration,
    build_T,
    cubic_lattice,
    determinant3,
    dimer_polynomial,
    perfect_matching_polynomial,
    permanent3,
    triadjacency,
    tripartite_reduction,
    validate,
)
from kas3._util import canonical_json
from kas3.kasteleyn_construct import certify_trivial_signing, strong_matching_bijection_check

THREADS = 2  # nproc of the reference machine; passed wherever kas3 accepts it


class OracleMismatch(Exception):
    """A timed result disagrees with its independent reference value."""


@dataclass
class Job:
    kind: str
    data: dict = field(default_factory=dict)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


# -- reduction-sweep ---------------------------------------------------------------


def _sweep_triangles(rng: random.Random, style: str, target: int = 6) -> tuple[list[str], dict]:
    """One configuration of the acceptance-sweep family, by style.

    `covers<d>`: two interleaved exact covers on nine edges with d triangles
    deleted; `base`: one or two disjoint triangles plus noise; `uniform`:
    random triangles, usually without a perfect matching. The last two stop
    at `target` triangles (or earlier, when no more fit).
    """
    triangles: dict[str, tuple] = {}
    if style.startswith("covers"):
        names = [f"e{i}" for i in range(9)]
        rng.shuffle(names)
        for b in range(3):
            triangles[f"t{b}"] = tuple(sorted(names[3 * b : 3 * b + 3]))
        for i in range(3):
            triangles[f"t{3 + i}"] = tuple(sorted([names[i], names[3 + i], names[6 + i]]))
        for t in rng.sample(sorted(triangles), int(style[-1])):
            del triangles[t]
        return names, triangles
    if style == "base":
        k = rng.randint(1, 2)
        edges = [f"e{i}" for i in range(3 * k + rng.randint(0, 3))]
        for b in range(k):
            triangles[f"t{b}"] = (f"e{3 * b}", f"e{3 * b + 1}", f"e{3 * b + 2}")
    else:
        edges = [f"e{i}" for i in range(rng.randint(3, 10))]
    attempts = 0
    while len(triangles) < target and attempts < 60:
        attempts += 1
        tri = tuple(sorted(rng.sample(edges, 3)))
        if tri in triangles.values():
            continue
        if any(len(set(tri) & set(prev)) >= 2 for prev in triangles.values()):
            continue
        triangles[f"t{len(triangles)}"] = tri
    return edges, triangles


class ReductionSweep:
    """configuration -> tripartite reduction -> triadjacency tensor -> per3."""

    name = "reduction-sweep"
    # One round holds the style mix of the acceptance sweep in fixed counts
    # (style, triangle target), so each round carries exactly one side-69
    # tensor (the heavy tail) and runs differ only in the drawn instances.
    ROUND_STYLES = [("covers0", 6), ("covers1", 5), ("covers2", 4)]
    ROUND_STYLES += [("base", t) for t in (3, 4, 5, 6)] + [("uniform", t) for t in (2, 3, 4, 5, 6)]
    ROUNDS = 64
    min_rounds = 8

    def __init__(self, rng: random.Random, smoke: bool, workdir: Path):
        styles = [s for s in self.ROUND_STYLES if s[0] != "covers0"] if smoke else self.ROUND_STYLES
        self.min_rounds = 1 if smoke else self.min_rounds
        self.rounds = []
        for _ in range(1 if smoke else self.ROUNDS):
            jobs = []
            for style, target in rng.sample(styles, len(styles)):
                edges, triangles = _sweep_triangles(rng, style, target)
                weights = {t: rng.randint(0, 5) for t in sorted(triangles)}
                kind = style if style.startswith("covers") else f"{style}{target}"
                jobs.append(Job(kind, {"weights": weights, "edges": edges, "triangles": triangles}))
            self.rounds.append(jobs)

    patches = ()

    def run(self, tr, job: Job):
        config = tr.call("core.TriangularConfiguration", TriangularConfiguration, job.data["edges"], job.data["triangles"])
        weights = job.data["weights"]
        problems = tr.call("core.validate", validate, config)
        reduced = tr.call("gadgets.tripartite_reduction", tripartite_reduction, config, weights)
        source_poly = tr.call("core.perfect_matching_polynomial", perfect_matching_polynomial, config, weights)
        reduced_poly = tr.call(
            "core.perfect_matching_polynomial", perfect_matching_polynomial, reduced.config, reduced.weighting
        )
        tensor, _axes = tr.call(
            "tensor3.triadjacency", triadjacency, reduced.config, reduced.edge_classes, reduced.weighting
        )
        per = tr.call("tensor3.permanent3", permanent3, tensor)
        return problems, reduced, source_poly, reduced_poly, tensor, per

    def check(self, job: Job, outputs):
        problems, reduced, source_poly, reduced_poly, tensor, per = outputs
        expected = oracles.matching_polynomial(job.data["triangles"], job.data["edges"], job.data["weights"])
        _expect(problems == [], f"validate rejected a valid configuration: {problems}")
        for label, value in (("source", source_poly), ("reduced", reduced_poly), ("per3", per)):
            _expect(oracles.poly_of(value) == expected, f"{label} polynomial differs from subset enumeration")
        out_triangles = len(reduced.config.triangle_ids)
        _expect(out_triangles == 23 * len(job.data["triangles"]), "reduction has the wrong triangle count")
        counters = {
            "tensor3.support.side_max": tensor.cube_side,
            "tensor3.support.nnz": len(tensor.entries),
            "tensor3.support.leaves": sum(expected.values()),
            "core.perfect_matching_polynomial.matchings": 2 * sum(expected.values()),
            "gadgets.tripartite_reduction.out_triangles": out_triangles,
        }
        return [sorted(expected.items()), out_triangles, tensor.cube_side, len(tensor.entries)], counters


# -- kasteleyn-certify ---------------------------------------------------------------


class KasteleynCertify:
    """matrix -> build_T -> per3, det3, trivial signing, matching bijection; dimers."""

    name = "kasteleyn-certify"
    BOXES = [(2, 2, 3), (2, 3, 3), (2, 2, 5)]
    # Dense n = 7 is left out: one such job takes about 8 s, a third of a run.
    MATRICES = [("ones", 6), ("dense", 5), ("dense", 6), ("sparse", 5), ("sparse", 6), ("sparse", 7)]
    # Sparse supports are circulants, rows and columns permuted by the seed,
    # so the search work per job barely depends on the seed.
    CIRCULANT_OFFSETS = {5: (0, 1, 3), 6: (0, 1, 3), 7: (0, 1, 2, 4)}
    ROUNDS = 24
    min_rounds = 3

    def __init__(self, rng: random.Random, smoke: bool, workdir: Path):
        matrices = [("dense", 5), ("sparse", 5)] if smoke else self.MATRICES
        boxes = self.BOXES[:1] if smoke else self.BOXES
        self.min_rounds = 1 if smoke else self.min_rounds
        self.rounds = []
        for _ in range(1 if smoke else self.ROUNDS):
            jobs = [Job("box{}x{}x{}".format(*dims), {"dims": dims}) for dims in boxes]
            for style, n in matrices:
                jobs.append(Job(f"{style}{n}", {"matrix": self._matrix(rng, style, n)}))
            rng.shuffle(jobs)
            self.rounds.append(jobs)

    @classmethod
    def _matrix(cls, rng: random.Random, style: str, n: int) -> list[list[int]]:
        if style == "ones":
            return [[1] * n for _ in range(n)]
        nonzero = [-3, -2, -1, 1, 2, 3]
        if style == "dense":
            return [[rng.choice(nonzero) for _ in range(n)] for _ in range(n)]
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for offset in cls.CIRCULANT_OFFSETS[n]:
                matrix[rows[i]][cols[(i + offset) % n]] = rng.choice(nonzero)
        return matrix

    patches = ()

    def run(self, tr, job: Job):
        if "dims" in job.data:
            lattice = tr.call("lattice.cubic_lattice", cubic_lattice, *job.data["dims"])
            return tr.call("lattice.dimer_polynomial", dimer_polynomial, lattice, threads=THREADS)
        tc = tr.call("kasteleyn_construct.build_T", build_T, job.data["matrix"])
        per = tr.call("tensor3.permanent3", permanent3, tc.tensor, threads=THREADS)
        det = tr.call("tensor3.determinant3", determinant3, tc.tensor, threads=THREADS)
        signing = tr.call(
            "kasteleyn_construct.certify_trivial_signing", certify_trivial_signing, tc, threads=THREADS
        )
        bijection = tr.call(
            "kasteleyn_construct.strong_matching_bijection_check",
            strong_matching_bijection_check,
            tc,
            threads=THREADS,
        )
        return tc, per, det, signing, bijection

    def check(self, job: Job, outputs):
        if "dims" in job.data:
            dims = job.data["dims"]
            count = oracles.DIMER_COUNTS[dims]
            half = dims[0] * dims[1] * dims[2] // 2
            _expect(oracles.poly_of(outputs) == {half: count}, f"dimer polynomial of {dims} is wrong")
            return [list(dims), count], {"lattice.dimer_polynomial.count": count}
        tc, per, det, signing, bijection = outputs
        matrix = job.data["matrix"]
        value, terms = oracles.matrix_permanent(matrix)
        support = sum(1 for row in matrix for v in row if v)
        _expect(per == value, f"per3 = {per}, brute-force permanent = {value}")
        _expect(det == value, f"det3 = {det}, brute-force permanent = {value}")
        _expect(tc.m == 2 * len(matrix) + support, "side is not 2n + |E|")
        _expect(signing.passed and signing.contributing_pairs == terms, "trivial signing not certified")
        _expect(
            bijection.passed and bijection.graph_matchings == bijection.strong_matchings == terms,
            "strong-matching bijection not certified",
        )
        counters = {
            "tensor3.support.side_max": tc.tensor.cube_side,
            "tensor3.support.nnz": len(tc.tensor.entries),
            "tensor3.support.leaves": signing.contributing_pairs,
            "kasteleyn_construct.certify_trivial_signing.pairs": signing.contributing_pairs,
            "kasteleyn_construct.strong_matching_bijection_check.matchings": bijection.strong_matchings,
        }
        return [matrix, value, terms], counters


# -- cli-mix -----------------------------------------------------------------------------


def _code_doc(rng: random.Random, k: int) -> tuple[dict, dict]:
    """Direct sum of catalog codes with dimension k, columns permuted, rows mixed."""
    blocks = []
    dim = 0
    while dim < k:
        name = rng.choice([c for c, (_n, kk, _e) in oracles.CODE_CATALOG.items() if kk <= k - dim])
        blocks.append(name)
        dim += oracles.CODE_CATALOG[name][1]
    n = sum(oracles.CODE_CATALOG[b][0] for b in blocks)
    rows: list[list[int]] = []
    expected = {0: 1}
    offset = 0
    for b in blocks:
        length, _dim, enum = oracles.CODE_CATALOG[b]
        for gen in oracles.CODE_GENERATORS[b]:
            rows.append([0] * offset + gen + [0] * (n - offset - length))
        expected = oracles.poly_mul(expected, enum)
        offset += length
    perm = rng.sample(range(n), n)
    rows = [[row[perm[j]] for j in range(n)] for row in rows]
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2)
        rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
    return {"k": k, "n": n, "rows": rows}, expected


def _tetrahedra_doc(rng: random.Random, m: int) -> dict:
    edges, triangles = [], []
    for b in rng.sample(range(m), m):
        for a, c in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            edges.append({"id": f"q{b}e{a}{c}", "ends": [f"q{b}v{a}", f"q{b}v{c}"]})
        for a, c, d in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            triangles.append({"id": f"q{b}f{a}{c}{d}", "edges": [f"q{b}e{a}{c}", f"q{b}e{a}{d}", f"q{b}e{c}{d}"]})
    return {"edges": edges, "triangles": triangles}


def _latin_doc(rng: random.Random, m: int) -> dict:
    edges, triangles = [], []
    for b in rng.sample(range(m), m):
        edges += [{"id": f"L{b}{axis}{i}"} for axis in "RCS" for i in range(3)]
        for i in range(3):
            for j in range(3):
                triangles.append({"id": f"L{b}t{i}{j}", "edges": [f"L{b}R{i}", f"L{b}C{j}", f"L{b}S{(i + j) % 3}"]})
    return {"edges": edges, "triangles": triangles}


def _strip(rng: random.Random, size: int) -> dict:
    """Edge-sharing strip: triangle i spans vertices i, i+1, i+2 (no perfect matching)."""
    labels = rng.sample(range(size + 2), size + 2)
    edges: dict[str, tuple[str, str]] = {}

    def edge(a: int, b: int) -> str:
        u, v = sorted((f"v{labels[a]}", f"v{labels[b]}"))
        edges[f"{u}~{v}"] = (u, v)
        return f"{u}~{v}"

    names = rng.sample(range(size), size)
    triangles = {f"t{names[i]}": (edge(i, i + 1), edge(i + 1, i + 2), edge(i, i + 2)) for i in range(size)}
    return {"edges": edges, "triangles": triangles}


def _random_tensor(rng: random.Random, side: int, density: float) -> dict:
    entries = []
    for i in range(side):
        for j in range(side):
            for k in range(side):
                if rng.random() < density:
                    entries.append([i, j, k, rng.choice([-2, -1, 1, 2, 3])])
    return {"dims": [side, side, side], "entries": entries}


class CliMix:
    """In-process `kas3.cli.run` plus `canonical_json` over every subcommand."""

    name = "cli-mix"
    CODE_K = 18
    TETRAHEDRA = 12
    LATIN_BLOCKS = 3
    STRIP = 1000  # find_edge_tripartition's recursive search overflows the stack here
    LATTICE = (2, 2, 2)
    DIMER_BOX = (2, 2, 3)
    min_rounds = 10

    def __init__(self, rng: random.Random, smoke: bool, workdir: Path):
        self.min_rounds = 1 if smoke else self.min_rounds
        code_k = 8 if smoke else self.CODE_K
        docs: dict[str, object] = {}
        docs["code"], code_enum = _code_doc(rng, code_k)
        docs["tetrahedra"] = _tetrahedra_doc(rng, self.TETRAHEDRA)
        docs["latin"] = _latin_doc(rng, self.LATIN_BLOCKS)
        edges, triangles = _sweep_triangles(rng, "base", 4)
        weights = {t: rng.randint(0, 5) for t in sorted(triangles)}
        docs["config"] = {
            "edges": [{"id": e} for e in edges],
            "triangles": [{"id": t, "edges": list(tri)} for t, tri in sorted(triangles.items())],
            "weights": weights,
        }
        docs["bad_weights"] = dict(docs["config"], weights={t: "abc" for t in weights})
        strip = _strip(rng, self.STRIP)
        docs["strip"] = {
            "edges": [{"id": e, "ends": list(ends)} for e, ends in sorted(strip["edges"].items())],
            "triangles": [{"id": t, "edges": list(tri)} for t, tri in sorted(strip["triangles"].items())],
        }
        docs["dup_edge"] = {"edges": [{"id": "a"}, {"id": "a"}], "triangles": []}
        docs["tensor"] = _random_tensor(rng, 4, 0.3)
        docs["small_tensor"] = _random_tensor(rng, 3, 0.45)
        docs["bad_tensor"] = {"entries": []}
        matrix = [[rng.choice([-2, -1, 1, 2]) for _ in range(3)] for _ in range(3)]
        docs["matrix"] = {"n": 3, "rows": matrix}
        docs["ragged"] = {"n": 3, "rows": [[1, 2, 3], [4, 5]]}
        workdir.mkdir(parents=True, exist_ok=True)
        path = {name: str(workdir / f"{name}.json") for name in list(docs) + ["not_json"]}
        for name, doc in docs.items():
            Path(path[name]).write_text(json.dumps(doc), encoding="utf-8")
        Path(path["not_json"]).write_text("{not json", encoding="utf-8")
        self.off_path = workdir / "lattice.off"

        e = rng.choice([4, 6, 8])
        fold_poly = {}
        for _ in range(6):
            exp = e * rng.randint(0, 5) + 2 * rng.randint(0, e // 2 - 1)
            fold_poly[exp] = fold_poly.get(exp, 0) + rng.randint(1, 9)
        fold_text = " + ".join(f"{c}*x^{x}" for x, c in sorted(fold_poly.items()))
        bc_seed = rng.randint(0, 10**6)
        tensor_entries = {tuple(r[:3]): r[3] for r in docs["tensor"]["entries"]}
        small_entries = {tuple(r[:3]): r[3] for r in docs["small_tensor"]["entries"]}

        ok, schema = 0, 2
        jobs = [
            Job("code-wenum", {"argv": ["code", "wenum", path["code"]], "status": ok, "enum": code_enum}),
            Job("kernel-p2", {"argv": ["kernel-wenum", path["tetrahedra"], "--p", "2"], "status": ok,
                              "enum": oracles.poly_pow(oracles.TETRAHEDRON_GF2, self.TETRAHEDRA)}),
            Job("kernel-p3", {"argv": ["kernel-wenum", path["latin"], "--p", "3"], "status": ok,
                              "enum": oracles.poly_pow(oracles.LATIN_GF3, self.LATIN_BLOCKS)}),
            Job("fold", {"argv": ["fold", fold_text, "--e", str(e)], "status": ok,
                         "enum": oracles.fold(fold_poly, e)}),
            Job("gadget", {"argv": ["gadget", "mtt", "--certify"], "status": ok}),
            Job("export-off", {"argv": ["lattice", *map(str, self.LATTICE), "--export-off", str(self.off_path)],
                               "status": ok}),
            Job("dimers", {"argv": ["lattice", *map(str, self.DIMER_BOX), "--dimers"], "status": ok}),
            Job("reduce", {"argv": ["reduce", path["config"]], "status": ok, "triangles": len(triangles)}),
            Job("triadj", {"argv": ["triadj", path["tetrahedra"]], "status": ok}),
            Job("per3", {"argv": ["per3", path["tensor"]], "status": ok,
                         "value": oracles.dense_per_det(4, tensor_entries)[0]}),
            Job("det3", {"argv": ["det3", path["tensor"]], "status": ok,
                         "value": oracles.dense_per_det(4, tensor_entries)[1]}),
            Job("sign-k1", {"argv": ["sign-k1", path["small_tensor"]], "status": ok,
                            "per": oracles.dense_per_det(3, small_entries)[0]}),
            Job("bc-check", {"argv": ["bc-check", "--r", "3", "--n", "6", "--seed", str(bc_seed)], "status": ok}),
            Job("kasteleyn", {"argv": ["kasteleyn", "build", path["matrix"], "--certify"], "status": ok,
                              "terms": oracles.matrix_permanent(matrix)[1]}),
            Job("bad-tensor", {"argv": ["per3", path["bad_tensor"]], "status": schema}),
            Job("dup-edge", {"argv": ["reduce", path["dup_edge"]], "status": schema}),
            Job("not-json", {"argv": ["code", "wenum", path["not_json"]], "status": schema}),
            Job("ragged", {"argv": ["kasteleyn", "build", path["ragged"]], "status": schema}),
            # Known defects: a RecursionError on a strip that is trivially
            # edge-tripartite, and a plain ValueError instead of exit status 2.
            Job("triadj-strip", {"argv": ["triadj", path["strip"]], "status": ok}),
            Job("bad-weights", {"argv": ["reduce", path["bad_weights"]], "status": schema}),
            Job("threads-0", {"argv": ["per3", path["tensor"], "--threads", "0"], "status": schema}),
        ]
        if smoke:
            jobs = [j for j in jobs if j.kind not in ("export-off", "dimers")]
        self.rounds = [jobs]

    @property
    def patches(self):
        """Calls from the cli layer into the others, plus gadget certification."""
        out = []
        for attr in (
            "parse_config_doc", "matrix_from_doc", "weight_enumerator", "fold_enumerator",
            "cycle_space_weight_enumerator", "find_edge_tripartition", "tripartite_reduction",
            "build_T", "certify_trivial_signing", "strong_matching_bijection_check",
            "cubic_lattice", "dimer_polynomial", "embed_T", "permanent3", "determinant3",
            "triadjacency", "kasteleyn_sign_via_k1", "binet_cauchy_C", "binet_cauchy_rhs",
        ):
            fn = getattr(kas3.cli, attr)
            out.append((kas3.cli, attr, f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"))
        for attr in ("certify_tunnel", "certify_s5", "certify_mtt"):
            out.append((kas3.gadgets, attr, "gadgets.certify"))
        return out

    def run(self, tr, job: Job):
        result = tr.call("cli.run", kas3.cli.run, job.data["argv"])
        text = tr.call("cli.serialize", canonical_json, result.payload)
        return result.status, result.payload, text

    def check(self, job: Job, outputs):
        status, payload, text = outputs
        _expect(status == job.data["status"], f"{job.kind}: exit status {status}, expected {job.data['status']}")
        counters = {"cli.payload_bytes": len(text)}
        kind = job.kind
        if "enum" in job.data:
            got = oracles.parse_poly_text(payload.get("enumerator", payload.get("folded", "")))
            _expect(got == job.data["enum"], f"{kind}: enumerator differs from the reference")
            if kind == "code-wenum":
                counters["algebra.weight_enumerator.codewords"] = sum(got.values())
            elif kind.startswith("kernel"):
                counters["core.cycle_space_weight_enumerator.codewords"] = sum(got.values())
        elif kind == "gadget":
            checks = payload["certificate"]
            _expect(checks and all(c["passed"] for c in checks), "gadget certificate has a failed check")
        elif kind == "export-off":
            lines = self.off_path.read_text(encoding="utf-8").splitlines()
            a, b, c = self.LATTICE
            edge_count = (a - 1) * b * c + a * (b - 1) * c + a * b * (c - 1)
            side = a * b * c + edge_count
            _expect(lines[0] == "OFF" and lines[1].split()[:2] == [str(3 * side), str(4 * edge_count)],
                    "OFF header has the wrong counts")
            _expect(payload["vertices"] == 3 * side and payload["faces"] == 4 * edge_count, "export counts")
            _expect(len(lines) == 2 + 3 * side + 4 * edge_count, "OFF body has the wrong length")
        elif kind == "dimers":
            _expect(payload["count"] == oracles.DIMER_COUNTS[self.DIMER_BOX], "dimer count is wrong")
        elif kind == "reduce":
            tris = len(payload["config"]["triangles"])
            _expect(tris == 23 * job.data["triangles"], "reduction has the wrong triangle count")
            _expect(len(payload["blocks"]) == job.data["triangles"], "reduction has the wrong block count")
            counters["gadgets.tripartite_reduction.out_triangles"] = tris
        elif kind == "triadj-strip":
            _expect(len(payload["tensor"]["entries"]) == self.STRIP, "strip tensor has the wrong entry count")
        elif kind == "triadj":
            entries = payload["tensor"]["entries"]
            _expect(len(entries) == 4 * self.TETRAHEDRA and payload["tensor"]["dims"] == [2 * self.TETRAHEDRA] * 3,
                    "triadjacency tensor has the wrong shape")
            _expect(all(row[3] == {"poly": {"1": 1}} for row in entries), "triadjacency entries are not x^1")
        elif kind in ("per3", "det3"):
            _expect(payload["value"] == job.data["value"], f"{kind} differs from the dense definition")
        elif kind == "sign-k1" and payload["certified"]:
            signed = {tuple(r[:3]): r[3] for r in payload["tensor"]["entries"]}
            _expect(oracles.dense_per_det(3, signed)[1] == job.data["per"], "resigned determinant != permanent")
        elif kind == "bc-check":
            _expect(payload["equal"] is True and payload["lhs"] == payload["rhs"], "bc-check sides differ")
        elif kind == "kasteleyn":
            cert = payload["certification"]
            _expect(cert["trivial_signing"]["passed"] and cert["strong_matching_bijection"]["passed"],
                    "kasteleyn build certificate failed")
            _expect(cert["trivial_signing"]["contributing_pairs"] == job.data["terms"], "contributing pairs")
        return [kind, status, text], counters


WORKLOADS = {w.name: w for w in (ReductionSweep, KasteleynCertify, CliMix)}
