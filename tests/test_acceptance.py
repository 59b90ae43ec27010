"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every check is exact (==); there are no tolerances anywhere. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import random

from kas3.algebra import BinaryCode, Polynomial, fold_enumerator, weight_enumerator
from kas3.cli import main as cli_main
from kas3.core import (
    cycle_space_weight_enumerator,
    defect,
    enumerate_matchings_with_defect_within,
    perfect_matchings,
)
from kas3.errors import ToolkitError
from kas3.gadgets import (
    make_matching_triangular_triangle,
    make_s5,
    make_tunnel,
)
from kas3.kasteleyn_construct import build_T, certify_trivial_signing
from kas3.lattice import cubic_lattice, dimer_polynomial
from kas3.tensor3 import (
    Tensor3,
    determinant3,
    kasteleyn_sign_via_k1,
    permanent2,
    permanent3,
    triadjacency,
)
from conftest import permanent2_bruteforce, tetrahedron_boundary


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_gadget_suites():
    tunnel = make_tunnel(certify=False)
    within = enumerate_matchings_with_defect_within(tunnel.config, tunnel.end_edge_union())
    tunnel_ok = (
        len(within) == 2
        and {defect(tunnel.config, m) for m in within}
        == {frozenset(tunnel.ends[0]), frozenset(tunnel.ends[1])}
    )

    s5 = make_s5(certify=False)
    s5_perfect = perfect_matchings(s5.config)
    nine = frozenset(s5.end_edge_union())
    s5_full_defect = [
        m
        for m in enumerate_matchings_with_defect_within(s5.config, nine)
        if defect(s5.config, m) == nine
    ]
    s5_ok = (
        len(s5_perfect) == 1
        and len(s5_perfect[0]) == 4
        and len(s5_full_defect) == 1
        and len(s5_full_defect[0]) == 1
    )

    mtt = make_matching_triangular_triangle(certify=False)
    outer = frozenset(mtt.end_edge_union())
    mtt_within = enumerate_matchings_with_defect_within(mtt.config, outer)
    mtt_defects = sorted((defect(mtt.config, m) for m in mtt_within), key=len)
    mtt_ok = (
        sorted(mtt_within)
        == sorted(
            [
                tuple(sorted(mtt.matchings["perfect"])),
                tuple(sorted(mtt.matchings["all_ends_defect"])),
            ]
        )
        and mtt_defects[0] == frozenset()
        and mtt_defects[1] == outer
        and len(mtt_defects) == 2
    )

    ok = tunnel_ok and s5_ok and mtt_ok
    report(
        1,
        ok,
        f"tunnel defects = end triples ({len(within)} matchings); "
        f"sphere piece: unique perfect (size 4) and unique all-ends defect (size 1); "
        f"linking block: exactly two matchings inside outer ends, defects empty/full",
    )
    assert ok


def test_criterion_2_reduction_soundness(reduction_sweep):
    mismatches = []
    unbalanced = []
    nonzero = 0
    for config, _w, result, source_poly, reduced_poly in reduction_sweep:
        if source_poly != reduced_poly:
            mismatches.append(config)
        if source_poly:
            nonzero += 1
            sizes = [
                sum(1 for c in result.edge_classes.values() if c == cls)
                for cls in (1, 2, 3)
            ]
            if not sizes[0] == sizes[1] == sizes[2]:
                unbalanced.append(config)
    ok = not mismatches and not unbalanced
    report(
        2,
        ok,
        f"50 random configurations: matching polynomials preserved exactly "
        f"({nonzero} nonzero); class sizes balanced whenever matchings exist",
    )
    assert ok


def test_criterion_3_permanent_of_triadjacency(reduction_sweep):
    bad = 0
    for _config, _w, result, _sp, reduced_poly in reduction_sweep:
        tensor, _ = triadjacency(result.config, result.edge_classes, result.weighting)
        if permanent3(tensor) != reduced_poly:
            bad += 1
    ok = bad == 0
    report(
        3,
        ok,
        f"permanent of the edge-adjacency tensor equals the matching polynomial "
        f"on all {len(reduction_sweep)} reduced configurations",
    )
    assert ok


def test_criterion_4_matrix_to_tensor_permanents():
    rng = random.Random(61)
    failures = 0
    for trial in range(100):
        n = rng.randint(1, 4)
        if trial % 2:
            matrix = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        else:
            matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        tc = build_T(matrix)
        value = permanent2(matrix)
        signing = certify_trivial_signing(tc)
        if not (
            permanent3(tc.tensor) == value
            and determinant3(tc.tensor) == value
            and signing.passed
            and tc.m == 2 * n + len(tc.edge_list) <= n * n + 2 * n
        ):
            failures += 1
    ok = failures == 0
    report(
        4,
        ok,
        "100 random matrices (0/1 and [-3,3], n <= 4): matrix permanent = tensor "
        "permanent = tensor determinant, side bound holds, all sign products +1",
    )
    assert ok


def test_criterion_5_projection_signings():
    rng = random.Random(62)
    certified = 0
    failures = 0
    attempts = 0
    while certified < 20 and attempts < 400:
        attempts += 1
        n = rng.randint(2, 3)
        entries = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rng.random() < 0.3:
                        entries[(i, j, k)] = rng.randint(1, 3)
        tensor = Tensor3((n, n, n), entries)
        outcome = kasteleyn_sign_via_k1(tensor)
        if outcome is None:
            continue
        certified += 1
        signed, _s1, _s2 = outcome
        if determinant3(signed) != permanent3(tensor):
            failures += 1
    ok = certified >= 20 and failures == 0
    report(
        5,
        ok,
        f"{certified} random sparse tensors resigned via projection-graph signings; "
        "determinant of every resigned tensor equals the original permanent",
    )
    assert ok


def test_criterion_6_binet_cauchy():
    rng = random.Random(63)
    from kas3.tensor3 import RectMatrixTriple, binet_cauchy_C, binet_cauchy_rhs

    failures = 0
    for _ in range(100):
        r = rng.randint(1, 3)
        n = rng.randint(r, 5)
        draw = lambda: [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        triple = RectMatrixTriple.from_rows(draw(), draw(), draw())
        if determinant3(binet_cauchy_C(triple)) != binet_cauchy_rhs(triple):
            failures += 1
    ok = failures == 0
    report(
        6,
        ok,
        "100 random matrix triples (r <= 3, n <= 5): contracted-tensor determinant "
        "equals the per/det column-subset sum exactly",
    )
    assert ok


def test_criterion_7_lattice_counts():
    expected = {(2, 1, 1): 1, (2, 2, 1): 2, (2, 2, 2): 9}
    results = {}
    for dims, want in expected.items():
        q = cubic_lattice(*dims)
        direct = dimer_polynomial(q)(1)
        pipeline = permanent3(build_T(q.graph.biadjacency()).tensor)
        results[dims] = (direct, pipeline, want)
    brute = permanent2_bruteforce(cubic_lattice(2, 2, 2).graph.biadjacency())
    ok = all(d == p == w for d, p, w in results.values()) and brute == 9
    report(
        7,
        ok,
        f"dimer counts {[(k, v[0]) for k, v in sorted(results.items())]} agree between "
        "direct enumeration and the tensor pipeline (cube independently brute-forced: "
        f"{brute})",
    )
    assert ok


def test_criterion_8_codes_and_folds():
    even = weight_enumerator(BinaryCode.from_rows([[1, 1, 0], [0, 1, 1]]))
    kernel = cycle_space_weight_enumerator(tetrahedron_boundary(), 2)
    folded = fold_enumerator(Polynomial({0: 1, 6: 1}), 4)
    rejected = False
    try:
        fold_enumerator(Polynomial({2: 1, 5: 1}), 4)
    except ToolkitError:
        rejected = True
    ok = (
        even == Polynomial({0: 1, 2: 3})
        and kernel == Polynomial({0: 1, 4: 1})
        and folded == Polynomial({0: 1, 1: 1})
        and rejected
    )
    report(
        8,
        ok,
        f"even-weight enumerator {even.to_text()}; tetrahedron kernel {kernel.to_text()}; "
        f"fold gives {folded.to_text()} and rejects odd residues",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path, capsys):
    tensor_doc = {
        "dims": [2, 2, 2],
        "entries": [[i, j, k, 1] for i in range(2) for j in range(2) for k in range(2)],
    }
    tensor_path = tmp_path / "tensor.json"
    tensor_path.write_text(json.dumps(tensor_doc))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "edges": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
                "triangles": [{"id": "t", "edges": ["a", "b", "c"]}],
                "weights": {"t": 2},
            }
        )
    )
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({"n": 2, "rows": [[1, 1], [1, 1]]}))
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps({"k": 2, "n": 3, "rows": [[1, 1, 0], [0, 1, 1]]}))
    off_path = tmp_path / "out.off"
    commands = [
        ["gadget", "tunnel", "--certify", "--json"],
        ["gadget", "s5", "--certify", "--json"],
        ["gadget", "mtt", "--certify", "--json"],
        ["reduce", str(config_path), "--json"],
        ["per3", str(tensor_path), "--json"],
        ["det3", str(tensor_path), "--json"],
        ["triadj", str(config_path), "--json"],
        ["kasteleyn", "build", str(matrix_path), "--certify", "--json"],
        ["sign-k1", str(tensor_path), "--json"],
        ["lattice", "2", "2", "2", "--dimers"],
        ["lattice", "2", "2", "1", "--export-off", str(off_path), "--json"],
        ["code", "wenum", str(code_path), "--json"],
        ["fold", "1 + x^6", "--e", "4"],
        ["kernel-wenum", str(config_path), "--p", "2", "--json"],
        ["bc-check", "--r", "3", "--n", "5", "--seed", "42", "--json"],
    ]

    def capture(argv):
        status = cli_main(list(argv))
        out = capsys.readouterr().out
        off = off_path.read_bytes() if off_path.exists() else b""
        return status, out, off

    stable = True
    for argv in commands:
        first = capture(argv)
        second = capture(argv)
        if not (first == second and first[0] == 0):
            stable = False
    ok = stable
    report(
        9,
        ok,
        f"all {len(commands)} subcommands produce byte-identical output across repeat "
        "runs (seeded sweeps and file exports included)",
    )
    assert ok
