"""Command-line behavior: outputs, schemas, determinism, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import disjoint_union, places_made, tetrahedron_boundary
import kas3
from kas3._util import canonical_json
from kas3.algebra import BinaryCode, Polynomial
from kas3.cli import main, run
from kas3.core import check_edge_tripartition, parse_config_doc
from kas3.errors import SchemaError, ToolkitError
from kas3.kasteleyn_construct import matrix_from_doc
from kas3.lattice import cubic_lattice
from kas3.tensor3 import BipartiteGraph, Tensor3


needs_default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the interpreter's default int/str conversion limit of 4300 digits",
)


def invoke(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


@pytest.fixture
def tensor_file(tmp_path):
    doc = {
        "dims": [2, 2, 2],
        "entries": [[i, j, k, 1] for i in range(2) for j in range(2) for k in range(2)],
    }
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    doc = {
        "vertices": [],
        "edges": [{"id": e} for e in ("a", "b", "c")],
        "triangles": [{"id": "t", "edges": ["a", "b", "c"]}],
        "weights": {"t": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"n": 2, "rows": [[1, 1], [1, 1]]}))
    return str(path)


class TestCommands:
    def test_lattice_prints_its_size(self, capsys):
        assert invoke(capsys, "lattice", "2", "2", "2") == (0, "8 vertices, 12 edges\n")
        assert invoke(capsys, "lattice", "2", "2", "2", "--json") == (0, '{"dims":[2,2,2],"edges":12,"vertices":8}\n')

    def test_lattice_dimers_prints_count(self, capsys):
        status, out = invoke(capsys, "lattice", "2", "2", "2", "--dimers")
        assert status == 0
        assert out == "9\n"

    def test_fold(self, capsys):
        status, out = invoke(capsys, "fold", "1 + x^6", "--e", "4")
        assert status == 0
        assert out == "1 + x^1\n"

    def test_fold_odd_residue_is_operation_error(self, capsys):
        status, out = invoke(capsys, "fold", "x^2 + x^5", "--e", "4")
        assert status == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "operation"
        assert "exponent 5" in payload["error"]["message"]

    def test_per3_of_a_polynomial_valued_tensor_prints_its_text(self, capsys, tmp_path):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(Tensor3((1, 1, 1), {(0, 0, 0): Polynomial({0: 1, 1: 2})}).to_doc()))
        assert invoke(capsys, "per3", str(path)) == (0, "1 + 2*x^1\n")

    def test_gadget_mtt_certify(self, capsys):
        status, out = invoke(capsys, "gadget", "mtt", "--certify", "--json")
        assert status == 0
        payload = json.loads(out)
        assert len(payload["ends"]) == 3
        assert all(check["passed"] for check in payload["certificate"])
        config, _, classes, _ = parse_config_doc(payload)
        assert len(config.edge_ids) == 39
        assert classes is not None

    def test_per3_det3(self, capsys, tensor_file):
        status, out = invoke(capsys, "per3", tensor_file)
        assert (status, out) == (0, "4\n")
        status, out = invoke(capsys, "det3", tensor_file)
        assert (status, out) == (0, "0\n")

    def test_triadj_round_trip(self, capsys, config_file):
        status, out = invoke(capsys, "triadj", config_file, "--json")
        assert status == 0
        payload = json.loads(out)
        tensor = Tensor3.from_doc(payload["tensor"])
        assert len(tensor.entries) == 1
        assert payload["axes"] == [["a"], ["b"], ["c"]]

    def test_reduce_round_trip(self, capsys, config_file):
        status, out = invoke(capsys, "reduce", config_file, "--json")
        assert status == 0
        payload = json.loads(out)
        config, weights, classes, _ = parse_config_doc(payload["config"])
        assert len(config.triangle_ids) == 23
        assert weights is not None and classes is not None
        assert set(payload["blocks"]) == {"t"}

    def test_kasteleyn_build_certify(self, capsys, matrix_file):
        status, out = invoke(capsys, "kasteleyn", "build", matrix_file, "--certify", "--json")
        assert status == 0
        payload = json.loads(out)
        assert payload["m"] == 8
        assert payload["certification"]["trivial_signing"]["passed"]
        assert payload["certification"]["strong_matching_bijection"]["passed"]
        Tensor3.from_doc(payload["tensor"])  # re-parses

    def test_sign_k1(self, capsys, tensor_file):
        status, out = invoke(capsys, "sign-k1", tensor_file, "--json")
        assert status == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        signed = Tensor3.from_doc(payload["tensor"])
        assert len(signed.entries) == 8

    def test_sign_k1_on_box_graph_projection(self, capsys, tmp_path):
        # the projection along axes (0, 1) is the 2x3x3 box graph (33 edges), which has no Pfaffian signing
        g = cubic_lattice(2, 3, 3).graph
        left = {u: i for i, u in enumerate(g.left)}
        right = {v: j for j, v in enumerate(g.right)}
        entries = [[left[u], right[v], left[u], 1] for u, v in sorted(g.edges)]
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"dims": [9, 9, 9], "entries": entries}))
        assert invoke(capsys, "sign-k1", str(path), "--json") == (0, '{"certified":false}\n')

    def test_code_wenum(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"k": 2, "n": 3, "rows": [[1, 1, 0], [0, 1, 1]]}))
        status, out = invoke(capsys, "code", "wenum", str(path))
        assert (status, out) == (0, "1 + 3*x^2\n")

    def test_kernel_wenum(self, capsys, tmp_path):
        doc = {
            "edges": [{"id": f"e{a}{b}"} for a, b in
                      [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]],
            "triangles": [
                {"id": "f123", "edges": ["e12", "e13", "e23"]},
                {"id": "f124", "edges": ["e12", "e14", "e24"]},
                {"id": "f134", "edges": ["e13", "e14", "e34"]},
                {"id": "f234", "edges": ["e23", "e24", "e34"]},
            ],
        }
        path = tmp_path / "tetra.json"
        path.write_text(json.dumps(doc))
        status, out = invoke(capsys, "kernel-wenum", str(path), "--p", "2")
        assert (status, out) == (0, "1 + x^4\n")

    def test_bc_check(self, capsys):
        status, out = invoke(capsys, "bc-check", "--r", "2", "--n", "4", "--seed", "11", "--json")
        assert status == 0
        payload = json.loads(out)
        assert payload["equal"] is True

    def test_lattice_export_off(self, capsys, tmp_path):
        target = tmp_path / "out.off"
        status, _ = invoke(capsys, "lattice", "2", "1", "1", "--export-off", str(target))
        assert status == 0
        assert target.read_text().startswith("OFF\n")


class TestErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lattice", "a", "1", "1"], "kas3 lattice: argument a: invalid int value: 'a'"),
            (["per3"], "kas3 per3: the following arguments are required: tensor"),
            (["bogus"], "kas3: argument command: invalid choice: 'bogus'"),
            (["fold", "-x", "--e", "2"], "kas3 fold: "),
            (["per3", "a.json", "b.json"], "kas3: unrecognized arguments: b.json"),
            (["bc-check", "--r", "0", "--n", "1"], "need 1 <= r <= n, got r=0, n=1"),
            (["bc-check", "--r", "3", "--n", "2"], "need 1 <= r <= n, got r=3, n=2"),
        ],
        ids=["bad_int", "missing_path", "unknown_command", "unknown_option", "extra_argument", "r_zero", "r_above_n"],
    )
    def test_argument_error_is_one_json_error(self, capsys, argv, message):
        # argparse printed its usage on stderr and nothing on stdout
        status = main(argv)
        out, err = capsys.readouterr()
        assert (status, err) == (2, "")
        assert out.endswith("\n") and out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "schema" and error["message"].startswith(message)

    def test_fold_by_zero_exits_1(self, capsys):
        assert invoke(capsys, "fold", "x^2", "--e", "0") == (
            1, canonical_json({"error": {"type": "operation", "message": "fold modulus must be positive, got 0"}}) + "\n"
        )

    def test_repeated_edge_id_exits_2(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "edges": [{"id": "a"}, {"id": "a"}, {"id": "b"}, {"id": "c"}],
            "triangles": [{"id": "t", "edges": ["a", "b", "c"]}],
        }))
        assert invoke(capsys, "reduce", str(path)) == (
            2, canonical_json({"error": {"type": "schema", "message": "duplicate edge id 'a'"}}) + "\n"
        )

    def test_negative_code_length_exits_1(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"k": 0, "n": -1, "rows": []}))
        assert invoke(capsys, "code", "wenum", str(path)) == (
            1, canonical_json({"error": {"type": "operation", "message": "code length must be non-negative"}}) + "\n"
        )

    def test_too_few_generator_rows_exit_2(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"k": 2, "n": 3, "rows": [[1, 0, 0]]}))
        assert invoke(capsys, "code", "wenum", str(path)) == (
            2, canonical_json({"error": {"type": "schema", "message": "expected 2 generator rows, got 1"}}) + "\n"
        )

    def test_code_file_that_is_not_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text("{nope")
        status, out = invoke(capsys, "code", "wenum", str(path))
        error = json.loads(out)["error"]
        assert (status, error["type"]) == (2, "schema")
        assert error["message"].startswith(f"{path} is not valid JSON: ")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["lattice", "--help"])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kas3 lattice")

    def test_missing_file_is_schema_error(self, capsys):
        status, out = invoke(capsys, "per3", "/nonexistent.json")
        assert status == 2
        assert json.loads(out)["error"]["type"] == "schema"

    def test_bad_poly_is_schema_error(self, capsys):
        status, out = invoke(capsys, "fold", "x**2", "--e", "2")
        assert status == 2

    def test_bad_tensor_doc(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [1, 1, 1], "entries": [[0, 0, 0]]}))
        status, _ = invoke(capsys, "per3", str(path))
        assert status == 2

    def test_guard_is_operation_error(self, capsys, monkeypatch):
        import kas3.lattice

        def refuse(*args):
            raise AssertionError("searched past the Ryser guard")

        monkeypatch.setattr(kas3.lattice, "CoverIndex", refuse)
        status, out = invoke(capsys, "lattice", "2", "2", "11", "--dimers")
        assert status == 1
        assert json.loads(out)["error"] == {"type": "operation", "message": "Ryser guard is n <= 20, got n = 22"}

    def test_lattice_guard_fires_before_allocation(self, capsys):
        # a billion lattice points would exhaust memory if the box were built first
        start = time.perf_counter()
        status, out = invoke(capsys, "lattice", "1000", "1000", "1000")
        assert time.perf_counter() - start < 1.0
        assert status == 1
        error = json.loads(out)["error"]
        assert error["type"] == "operation"
        assert "lattice guard" in error["message"]

    @pytest.mark.parametrize("command", ["per3", "det3"])
    def test_cover_graph_guard_is_operation_error(self, monkeypatch, tensor_file, command):
        import kas3.core

        monkeypatch.setattr(kas3.core, "COVER_GRAPH_MAX_SIZE", 3)
        result = run([command, str(tensor_file)])
        assert result.status == 1
        assert result.payload["error"] == {
            "type": "operation",
            "message": "cover graph guard is 3 states visited plus arcs kept; the search passed it",
        }

    def test_realization_guard_is_operation_error(self, capsys, tmp_path, monkeypatch):
        def refuse(self):
            raise MemoryError("dense matrix built past the guard")

        monkeypatch.setattr(BipartiteGraph, "biadjacency", refuse)
        target = tmp_path / "big.off"
        status, out = invoke(capsys, "lattice", "17", "16", "16", "--export-off", str(target))
        assert status == 1
        error = json.loads(out)["error"]
        assert error == {
            "type": "operation",
            "message": "realization guard is 4096 vertices, got 4352",
        }
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["per3"], {"dims": [1, 1, 1], "entries": 5}),
            (["per3"], {"dims": [1, 1, 1], "entries": [[0, 0, 0, {"poly": "x"}]]}),
            (["triadj"], {"edges": [], "triangles": [], "edge_classes": [1, 2]}),
            (["triadj"], {"edges": [], "triangles": [], "weights": [1]}),
            (["kasteleyn", "build"], {"n": 1, "rows": [5]}),
            (["kasteleyn", "build"], [1, 2]),
            (["code", "wenum"], {"k": 1, "n": 2, "rows": 3}),
            (["reduce"], {"edges": [], "triangles": [], "weights": {"t": "abc"}}),
            (["triadj"], {"edges": [], "triangles": [], "edge_classes": {"a": "one"}}),
            (["triadj"], {"edges": [], "triangles": [], "vertex_classes": {"u": [1]}}),
            (["per3"], {"dims": [2, 2], "entries": []}),
            (["per3"], {"dims": [2, -1, 2], "entries": []}),
            (["per3"], {"dims": [2, 2, 2], "entries": [[0, 2, 0, 1]]}),
            (["triadj"], {"edges": [], "triangles": [], "edge_classes": {"a": 4}}),
            (["code", "wenum"], {"k": 1, "n": 2, "rows": [[1, 2]]}),
        ],
    )
    def test_malformed_documents_exit_2(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        status, out = invoke(capsys, *command, str(path))
        assert status == 2
        assert json.loads(out)["error"]["type"] == "schema"

    @pytest.mark.parametrize(
        "command, text",
        [("per3", "[" * 2000 + "]" * 2000), ("reduce", '{"a": ' * 2000 + "1" + "}" * 2000)],
        ids=["array", "object"],
    )
    def test_deeply_nested_document_is_schema_error(self, capsys, tmp_path, command, text):
        # past the interpreter's recursion limit; written as text, since json.dumps would recurse too
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert invoke(capsys, command, str(path)) == (2, canonical_json({"error": {
            "type": "schema", "message": f"{path} is nested too deeply to read as JSON",
        }}) + "\n")

    def test_two_triangles_on_one_edge_triple_is_operation_error(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({
            "edges": [{"id": e} for e in "abc"],
            "triangles": [{"id": t, "edges": ["a", "b", "c"]} for t in ("t1", "t2")],
        }))
        assert invoke(capsys, "triadj", str(path)) == (1, canonical_json({"error": {
            "type": "operation", "message": "two triangles map to tensor cell (0, 0, 0)",
        }}) + "\n")

    @pytest.mark.parametrize("poly", [{"1": 2, "01": 5}, {" 1": 2, "1": 5, "+1": 7}])
    def test_duplicate_polynomial_exponent_exit_2(self, capsys, tmp_path, poly):
        # each key reads as the exponent 1
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"dims": [1, 1, 1], "entries": [[0, 0, 0, {"poly": poly}]]}))
        status, out = invoke(capsys, "per3", str(path))
        assert status == 2
        assert json.loads(out)["error"] == {"type": "schema", "message": "duplicate polynomial exponent 1"}

    @pytest.mark.parametrize("dims, classes", [((3, 3, 3), (14, 13)), ((1, 1, 1), (1, 0))])
    def test_odd_box_export_names_the_box(self, capsys, tmp_path, monkeypatch, dims, classes):
        def refuse(self):
            raise AssertionError("support matrix built for an odd box")

        monkeypatch.setattr(BipartiteGraph, "biadjacency", refuse)
        target = tmp_path / "odd.off"
        status, out = invoke(capsys, "lattice", *map(str, dims), "--export-off", str(target))
        assert status == 1
        assert json.loads(out) == {"error": {
            "type": "operation",
            "message": "cannot realize the {}x{}x{} box: its colour classes have {} and {} vertices, "
                       "and the construction needs them equal".format(*dims, *classes),
        }}
        assert not target.exists()

    @pytest.mark.parametrize("target", ["missing/lattice.off", "."], ids=["missing_directory", "directory"])
    def test_unwritable_export_path_is_schema_error(self, capsys, tmp_path, target):
        path = tmp_path / target
        status, out = invoke(capsys, "lattice", "2", "2", "2", "--export-off", str(path))
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "schema"
        assert error["message"].startswith(f"cannot write {path}: ")
        assert not any(tmp_path.iterdir())  # no file, no directory made

    @pytest.mark.parametrize(
        "r, n, message",
        [
            (80, 80, "Ryser guard is r <= 20, got r = 80"),
            (21, 21, "Ryser guard is r <= 20, got r = 21"),
            (10, 40, "847660528 column subsets exceed the guard"),
        ],
    )
    def test_bc_check_guards_fire_before_the_matrices_are_drawn(self, monkeypatch, r, n, message):
        import kas3.cli

        def refuse(*rows):
            raise AssertionError("matrices drawn past a guard")

        monkeypatch.setattr(kas3.cli.RectMatrixTriple, "from_rows", refuse)
        result = run(["bc-check", "--r", str(r), "--n", str(n)])
        assert (result.status, result.payload) == (1, {"error": {"type": "operation", "message": message}})

    def test_kernel_wenum_refuses_a_huge_prime_before_testing_it(self, capsys, config_file, monkeypatch):
        import kas3.algebra

        def refuse(p):
            raise AssertionError("primality tested past the guard")

        monkeypatch.setattr(kas3.algebra, "is_prime", refuse)
        status, out = invoke(capsys, "kernel-wenum", config_file, "--p", "1000000000000000003")
        assert status == 1
        assert json.loads(out) == {"error": {
            "type": "operation",
            "message": "GF(1000000000000000003) is beyond the enumeration guard: "
                       "any nonzero kernel has p codewords or more",
        }}

    @pytest.mark.parametrize(
        "read, doc, field",
        [
            (matrix_from_doc, {"n": 2, "rows": [[1.5, 0], [0, 2.9]]}, "rows[0][0]"),
            (matrix_from_doc, {"n": 2.0, "rows": [[1, 0], [0, 1]]}, "n"),
            (Tensor3.from_doc, {"dims": [2.7, 2, 2], "entries": []}, "dims[0]"),
            (Tensor3.from_doc, {"dims": [2, 2, 2], "entries": [[1, 0.9, 0, 3]]}, "entries[0][1]"),
            (Tensor3.from_doc, {"dims": [2, 2, 2], "entries": [[0, 0, True, 3]]}, "entries[0][2]"),
            (parse_config_doc, {"triangles": [], "weights": {"t": 1.5}}, "weights['t']"),
            (parse_config_doc, {"triangles": [], "edge_classes": {"a": True}}, "edge_classes['a']"),
            (parse_config_doc, {"triangles": [], "vertex_classes": {"u": 2.0}}, "vertex_classes['u']"),
            (BinaryCode.from_doc, {"k": 1.9, "n": 2, "rows": [[1, 1]]}, "k"),
            (BinaryCode.from_doc, {"k": 1, "n": 2, "rows": [[True, 1]]}, "rows[0][0]"),
        ],
    )
    def test_bools_and_floats_are_not_read_as_integers(self, read, doc, field):
        with pytest.raises(SchemaError, match=re.escape(f"{field} is not an integer")):
            read(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"edges": [{"id": e} for e in "abc"], "triangles": [{"id": "t", "edges": "abc"}]}, "triangle 't' edges"),
            ({"edges": [{"id": "e", "ends": "uv"}], "triangles": []}, "edge 'e' ends"),
            ({"edges": [{"id": "e", "ends": ["u", "v", "z"]}], "triangles": []}, "edge 'e' ends"),
            ({"edges": [], "triangles": [], "vertices": "xyz"}, "vertices"),
            ({"edges": "abc", "triangles": []}, "edges"),
            ({"edges": [], "triangles": {"t": ["a", "b", "c"]}}, "triangles"),
        ],
    )
    def test_strings_are_not_read_as_arrays(self, capsys, tmp_path, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        status, out = invoke(capsys, "triadj", str(path))
        assert status == 2
        error = json.loads(out)["error"]
        assert error["type"] == "schema"
        assert error["message"].startswith(f"{field} must be an array")

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            (["code", "wenum"], {"k": 1, "n": 2, "rows": ["10"]}, "rows[0]"),
            (["kasteleyn", "build"], {"n": 2, "rows": ["12", "34"]}, "rows[0]"),
            (["per3"], {"dims": [1, 1, 1], "entries": ["0001"]}, "entries[0]"),
            (["per3"], {"dims": "111", "entries": []}, "dims"),
        ],
        ids=["code_row", "matrix_rows", "tensor_entry", "tensor_dims"],
    )
    def test_strings_are_not_read_as_rows(self, capsys, tmp_path, command, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert invoke(capsys, *command, str(path)) == (
            2, canonical_json({"error": {"type": "schema", "message": f"{field} must be an array"}}) + "\n"
        )

    def test_integers_and_integer_strings_are_read(self):
        assert matrix_from_doc({"n": "2", "rows": [[1, "-3"], [0, 2**70]]}) == [[1, -3], [0, 2**70]]
        assert Tensor3.from_doc({"dims": ["2", 2, 2], "entries": [["1", 0, 1, 5]]}).entries == {(1, 0, 1): 5}
        assert parse_config_doc({"triangles": [], "weights": {"t": "-4"}})[1] == {"t": -4}
        assert BinaryCode.from_doc({"k": "1", "n": 2, "rows": [[0, 1]]}).rows == (2,)

    @pytest.mark.parametrize("command", [["reduce"], ["triadj"], ["kernel-wenum", "--p", "2"]], ids=lambda c: c[0])
    def test_a_configuration_document_must_name_a_configuration(self, capsys, tmp_path, command):
        # once read as the empty configuration, with exit status 0
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1, 0], [0, 1]]}))
        message = "configuration document holds none of edges, triangles and vertices"
        assert invoke(capsys, *command, str(path)) == (
            2, canonical_json({"error": {"type": "schema", "message": message}}) + "\n"
        )

    @pytest.mark.parametrize("command", [["triadj"], ["reduce"], ["kernel-wenum", "--p", "2"]], ids=lambda c: c[0])
    def test_names_are_strings_or_integers(self, capsys, tmp_path, command):
        # once read as the edge names "['a']", "True" and "1.5", with exit status 0
        doc = {
            "edges": [{"id": ["a"]}, {"id": True}, {"id": 1.5}],
            "triangles": [{"id": {"x": 1}, "edges": [["a"], True, 1.5]}],
        }
        path = tmp_path / "names.json"
        path.write_text(json.dumps(doc))
        assert invoke(capsys, command[0], str(path), *command[1:]) == (2, canonical_json({"error": {
            "type": "schema", "message": "edges[0] id is not a name (a string or an integer): ['a']",
        }}) + "\n")

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"edges": [{"id": "a"}, {"id": 1.5}]}, "edges[1] id"),
            ({"edges": [{"id": "e", "ends": ["u", True]}]}, "edge 'e' ends[1]"),
            ({"triangles": [{"id": {"x": 1}, "edges": []}]}, "triangles[0] id"),
            ({"triangles": [{"id": "t", "edges": ["a", ["b"], "c"]}]}, "triangle 't' edges[1]"),
            ({"vertices": ["u", None]}, "vertices[1]"),
        ],
        ids=["edge_id", "edge_end", "triangle_id", "triangle_edge", "vertex"],
    )
    def test_every_name_field_is_checked(self, doc, field):
        with pytest.raises(SchemaError, match=re.escape(f"{field} is not a name")):
            parse_config_doc(doc)

    def test_integer_names_are_read_as_decimal_text(self):
        doc = {
            "vertices": [7],
            "edges": [{"id": 1, "ends": [7, 8]}, {"id": 2, "ends": [8, 9]}, {"id": 3, "ends": [7, 9]}],
            "triangles": [{"id": -4, "edges": [1, 2, 3]}],
        }
        config = parse_config_doc(doc)[0]
        assert config.edge_ids == ("1", "2", "3") and config.triangle_ids == ("-4",)
        assert config.triangle_edges("-4") == ("1", "2", "3") and config.edge_ends("1") == ("7", "8")
        assert config.vertices == {"7", "8", "9"}

    @needs_default_digit_limit
    @pytest.mark.parametrize("command", ["reduce", "triadj"])
    def test_integer_literal_past_the_digit_limit_is_schema_error(self, capsys, tmp_path, command):
        path = tmp_path / "weights.json"
        path.write_text(
            '{"edges": [{"id": "a"}, {"id": "b"}, {"id": "c"}], "triangles": [{"id": "t", "edges": ["a", "b", "c"]}],'
            ' "weights": {"t": ' + "7" * 5000 + "}}"
        )
        status, out = invoke(capsys, command, str(path))
        error = json.loads(out)["error"]
        assert (status, error["type"]) == (2, "schema")
        assert error["message"].startswith(f"cannot read {path} as JSON: Exceeds the limit (4300 digits)")

    def test_bytes_that_are_not_utf8_are_schema_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"edges": [{"id": "é"}]}'.encode("latin-1"))
        status, out = invoke(capsys, "triadj", str(path))
        error = json.loads(out)["error"]
        assert (status, error["type"]) == (2, "schema")
        assert error["message"].startswith(f"cannot read {path} as JSON: 'utf-8' codec can't decode byte 0xe9")

    @needs_default_digit_limit
    def test_polynomial_past_the_digit_limit_is_schema_error(self, capsys):
        status, out = invoke(capsys, "fold", "x^" + "1" * 5000, "--e", "2")
        error = json.loads(out)["error"]
        assert (status, error["type"]) == (2, "schema")
        assert error["message"].startswith("cannot parse polynomial term: Exceeds the limit (4300 digits)")

    @needs_default_digit_limit
    @pytest.mark.parametrize("command", ["per3", "det3"])
    def test_result_past_the_digit_limit_is_operation_error(self, capsys, tmp_path, command):
        # each entry has 4000 digits, the product 7999
        entry = "1" + "0" * 3999
        path = tmp_path / "diagonal.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [[0, 0, 0, entry], [1, 1, 1, entry]]}))
        for argv in ([command, str(path)], [command, str(path), "--json"]):
            status, out = invoke(capsys, *argv)
            error = json.loads(out)["error"]
            assert (status, error["type"]) == (1, "operation")
            assert error["message"].startswith("cannot print the result: Exceeds the limit (4300 digits)")
        with pytest.raises(ToolkitError, match=re.escape("Exceeds the limit (4300 digits)")):
            Polynomial({1: 10**5000}).to_text()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_unknown_option_exit_2(self, capsys, tensor_file, threads):
        # the CLI has no `--threads`: like any unknown option it is malformed input
        status = main(["per3", str(tensor_file), "--threads", threads])
        captured = capsys.readouterr()
        assert status == 2 and captured.err == ""
        doc = json.loads(captured.out)
        assert list(doc) == ["error"] and doc["error"]["type"] == "schema"
        assert "--threads" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "boolean is not a ring value"),
            ("12x", "bad big-integer string '12x'"),
            ({"poly": {"1": {"poly": {"0": 1}}}}, "polynomial coefficients must be integers"),
        ],
        ids=["boolean", "bad_integer_string", "polynomial_coefficient"],
    )
    def test_bad_tensor_values_exit_2(self, capsys, tmp_path, value, message):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"dims": [1, 1, 1], "entries": [[0, 0, 0, value]]}))
        assert invoke(capsys, "per3", str(path)) == (
            2, canonical_json({"error": {"type": "schema", "message": message}}) + "\n"
        )

    def test_failed_certificate_exits_1(self, capsys, monkeypatch, matrix_file):
        # a rewired tensor with a sign -1 pair, and the edge triangle's cell weighted 7
        from dataclasses import replace

        import kas3.cli as cli

        build = cli.build_T

        def tampered(matrix):
            tc = build([[1]])
            entries = dict(tc.tensor.entries)
            row1 = next(key for key in entries if key[0] == 1)
            row2 = next(key for key in entries if key[0] == 2)
            del entries[row1], entries[row2]
            entries[(1, row2[1], row1[2])] = entries[(2, row1[1], row2[2])] = 1
            entries[(0, 1, 2)] = 7
            return replace(tc, tensor=Tensor3(tc.tensor.dims, entries))

        monkeypatch.setattr(cli, "build_T", tampered)
        status, out = invoke(capsys, "kasteleyn", "build", matrix_file, "--certify", "--json")
        assert status == 1
        assert json.loads(out)["certification"] == {
            "trivial_signing": {"passed": False, "contributing_pairs": 1, "witness": [[1, 2, 0], [2, 1, 0]]},
            "strong_matching_bijection": {
                "passed": False,
                "graph_matchings": 1,
                "strong_matchings": 1,
                "detail": "the tensor's cells are not the configuration's triangles; "
                "weights disagree on (('v(1,0)', 'v(2,0)'),)",
            },
        }


class TestScale:
    def test_triadj_on_long_strip(self, capsys, tmp_path):
        # triangle i spans vertices i, i+1, i+2; search depth grows with the strip
        size = 1500
        edges, triangles = {}, []
        for i in range(size):
            names = []
            for a, b in ((i, i + 1), (i + 1, i + 2), (i, i + 2)):
                eid = f"v{a}~v{b}"
                edges[eid] = [f"v{a}", f"v{b}"]
                names.append(eid)
            triangles.append({"id": f"t{i}", "edges": names})
        doc = {"edges": [{"id": e, "ends": ends} for e, ends in edges.items()], "triangles": triangles}
        path = tmp_path / "strip.json"
        path.write_text(json.dumps(doc))
        status, out = invoke(capsys, "triadj", str(path), "--json")
        assert status == 0
        payload = json.loads(out)
        classes = {e: cls for cls, axis in enumerate(payload["axes"], start=1) for e in axis}
        config, _, _, _ = parse_config_doc(doc)
        assert check_edge_tripartition(config, classes) == []
        assert len(payload["tensor"]["entries"]) == size

    def test_triadj_on_disjoint_classed_triangles_builds_no_cover_index(self, capsys, tmp_path, monkeypatch):
        # 10000 disjoint triangles with stored classes: a cover index would hold
        # 10000 options * 30000 items = 3e8 bits, past the mask guard, and triadj folds nothing
        import kas3.core

        made = []
        first_pass = kas3.core.CoverIndex._graph

        def recording(index):
            made.append(index.item_count)
            return first_pass(index)

        monkeypatch.setattr(kas3.core.CoverIndex, "_graph", recording)
        places = places_made(monkeypatch)
        size = 10000
        doc = {
            "edges": [{"id": f"e{i}{c}"} for i in range(size) for c in "abc"],
            "triangles": [{"id": f"t{i}", "edges": [f"e{i}a", f"e{i}b", f"e{i}c"]} for i in range(size)],
            "edge_classes": {f"e{i}{c}": cls for i in range(size) for cls, c in enumerate("abc", start=1)},
        }
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(doc))
        status, out = invoke(capsys, "triadj", str(path), "--json")
        assert status == 0
        tensor = json.loads(out)["tensor"]
        assert tensor["dims"] == [size] * 3 and len(tensor["entries"]) == size
        assert made == []
        # the cells are placed by the one set of edge places the configuration keeps
        assert [len(names) for names in places] == [3 * size]

    def test_huge_side_answers_without_a_large_allocation(self, tmp_path):
        # side 2 * 10^10 with one entry: nothing of the cube's size may be built
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": [20_000_000_000] * 3, "entries": [[0, 0, 0, 1]]}))
        child = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20)); "
            "from kas3.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kas3.__file__).resolve().parents[1])}
        signed = {"dims": [20_000_000_000] * 3, "entries": [[0, 0, 0, 1]]}
        for command, expected in (
            ("per3", {"value": 0}),
            ("det3", {"value": 0}),
            ("sign-k1", {"certified": True, "tensor": signed, "sign1": [[0, 0, 1]], "sign2": [[0, 0, 1]]}),
        ):
            proc = subprocess.run(
                [sys.executable, "-c", child, command, str(path), "--json"], capture_output=True, text=True, env=env
            )
            assert (proc.returncode, proc.stderr, json.loads(proc.stdout)) == (0, "", expected)


    def test_large_sparse_support_is_refused_before_its_masks(self, tmp_path):
        # a 30000-side diagonal: its masks would take nnz * 3 * side = 2.7e9 bits
        path = tmp_path / "diagonal.json"
        path.write_text(json.dumps({"dims": [30000] * 3, "entries": [[i, i, i, 1] for i in range(30000)]}))
        child = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20)); "
            "from kas3.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kas3.__file__).resolve().parents[1])}
        for command in ("per3", "det3"):
            proc = subprocess.run(
                [sys.executable, "-c", child, command, str(path), "--json"], capture_output=True, text=True, env=env
            )
            assert (proc.returncode, proc.stderr) == (1, "")
            assert "cover mask guard" in json.loads(proc.stdout)["error"]["message"]


    def test_kernel_guard_fires_before_any_kernel_vector(self, capsys, tmp_path, monkeypatch):
        # 1000 disjoint tetrahedra: E = 6000, T = 4000 and a 1000-dimensional GF(2) kernel
        import kas3.core

        def refuse(*args):
            raise AssertionError("kernel vectors built past the guard")

        monkeypatch.setattr(kas3.core, "gf_p_nullspace", refuse)
        path = tmp_path / "tetrahedra.json"
        path.write_text(json.dumps(disjoint_union([tetrahedron_boundary()] * 1000).to_doc()))
        assert invoke(capsys, "kernel-wenum", str(path), "--p", "2") == (1, canonical_json({"error": {
            "type": "operation", "message": "kernel has 2^1000 codewords, beyond the enumeration guard",
        }}) + "\n")


class TestGoldenBytes:
    """Exact stdout bytes of the support-search commands, pinned across rewrites."""

    @pytest.fixture
    def golden_tensor(self, tmp_path):
        entries = [
            [i, j, k, (i * 7 + j * 3 + k * 5) % 7 - 3 or 4]
            for i in range(4) for j in range(4) for k in range(4)
            if (i + 2 * j + 3 * k) % 3
        ]
        path = tmp_path / "golden_tensor.json"
        path.write_text(json.dumps({"dims": [4, 4, 4], "entries": entries}))
        return str(path)

    @pytest.fixture
    def golden_matrix(self, tmp_path):
        rows = [[1, -2, 0, 3], [2, 1, 1, 0], [0, 3, -1, 2], [1, 0, 2, 1]]
        path = tmp_path / "golden_matrix.json"
        path.write_text(json.dumps({"n": 4, "rows": rows}))
        return str(path)

    @pytest.fixture
    def golden_config(self, tmp_path):
        edges = {"a": "pq", "b": "qr", "c": "pr", "d": "qs", "e": "rs", "f": "ps"}
        doc = {
            "edges": [{"id": e, "ends": list(ends)} for e, ends in edges.items()],
            "triangles": [
                {"id": "t1", "edges": ["a", "b", "c"]},
                {"id": "t2", "edges": ["b", "d", "e"]},
                {"id": "t3", "edges": ["c", "e", "f"]},
            ],
            "weights": {"t1": 2, "t3": 1},
        }
        path = tmp_path / "golden_config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "kind, size, digest",
        [
            ("tunnel", 1001, "1a4afb1154bbe0fa89470f5e69a68b9624a7c66ef840a90bcf0307ed76d67739"),
            ("s5", 934, "c76188b9e22510ef4e8139cf978f24c18182764fe24c87362b3a00eb9dc8d459"),
            ("mtt", 2740, "206e26b8314622d17eddd1f85effbb30a5af9fe51301aa4920dbbbd0450dbbb8"),
        ],
    )
    def test_gadget_certify(self, capsys, kind, size, digest):
        status, out = invoke(capsys, "gadget", kind, "--certify", "--json")
        data = out.encode()
        assert (status, len(data)) == (0, size)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_reduce(self, capsys, golden_config):
        status, out = invoke(capsys, "reduce", golden_config, "--json")
        data = out.encode()
        assert (status, len(data)) == (0, 20581)
        assert hashlib.sha256(data).hexdigest() == (
            "a47a4b3900c708ae02b6be3c93ac06030fa2d618da6e73d5ee5bff8eba6ccb4b"
        )

    def test_bc_check(self, capsys):
        assert invoke(capsys, "bc-check", "--r", "3", "--n", "6", "--json") == (
            0,
            '{"equal":true,"lhs":6474,"n":6,"r":3,"rhs":6474,"seed":0}\n',
        )

    def test_per3_det3(self, capsys, golden_tensor):
        assert invoke(capsys, "per3", golden_tensor, "--json") == (0, '{"value":-288}\n')
        assert invoke(capsys, "det3", golden_tensor, "--json") == (0, '{"value":-312}\n')

    def test_kasteleyn_build_certify(self, capsys, golden_matrix):
        assert invoke(capsys, "kasteleyn", "build", golden_matrix, "--certify") == (
            0,
            "side m = 20 (= 2n + |E| = 2*4 + 12), 48 triangles\n"
            "trivial signing: ok (9 contributing pairs)\n"
            "matching bijection: ok (9 <-> 9)\n",
        )
        status, out = invoke(capsys, "kasteleyn", "build", golden_matrix, "--certify", "--json")
        data = out.encode()
        assert (status, len(data)) == (0, 13389)
        assert hashlib.sha256(data).hexdigest() == (
            "2ac9212861ba7fa37bd97b39338cba86d8d24a1c8855b38939ea6f5e1ce40f0d"
        )

    def test_lattice_dimers(self, capsys):
        assert invoke(capsys, "lattice", "2", "3", "4", "--dimers") == (0, "1845\n")
        assert invoke(capsys, "lattice", "2", "3", "4", "--dimers", "--json") == (
            0,
            '{"count":1845,"dims":[2,3,4],"odd_vertices":false,"polynomial":"1845*x^12"}\n',
        )

    @pytest.mark.parametrize(
        "dims, digest",
        [
            ("222", "4dede8022ce784c501f1024d017a02ab52f738388c8bfc739b0221af2f632140"),
            ("234", "c91669e46b95ba96e3efe8f8e4d3d2cc3d2aef13cd7e8be52bcca9dd218c19bc"),
        ],
    )
    def test_lattice_export_off(self, capsys, tmp_path, dims, digest):
        target = tmp_path / "lattice.off"
        status, _ = invoke(capsys, "lattice", *dims, "--export-off", str(target))
        assert status == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


class TestDeterminism:
    def runs_identically(self, capsys, *argv):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
        return first

    def test_repeat_runs_byte_identical(self, capsys, tensor_file, matrix_file):
        self.runs_identically(capsys, "gadget", "mtt", "--certify", "--json")
        self.runs_identically(capsys, "per3", tensor_file, "--json")
        self.runs_identically(capsys, "kasteleyn", "build", matrix_file, "--certify", "--json")
        self.runs_identically(capsys, "bc-check", "--r", "3", "--n", "5", "--seed", "7", "--json")

    def test_seed_changes_payload_reproducibly(self, capsys):
        a1 = invoke(capsys, "bc-check", "--r", "2", "--n", "5", "--seed", "1", "--json")
        a2 = invoke(capsys, "bc-check", "--r", "2", "--n", "5", "--seed", "1", "--json")
        b = invoke(capsys, "bc-check", "--r", "2", "--n", "5", "--seed", "2", "--json")
        assert a1 == a2
        assert json.loads(a1[1])["seed"] != json.loads(b[1])["seed"]

    def test_run_returns_payload(self):
        result = run(["lattice", "2", "2", "1", "--dimers"])
        assert result.status == 0
        assert result.payload["count"] == 2
        assert canonical_json(result.payload) == canonical_json(json.loads(canonical_json(result.payload)))


SEED_DOCS = {
    "reduce": {
        "edges": [{"id": e, "ends": list(ends)} for e, ends in
                  [("ab", "uv"), ("bc", "vw"), ("ca", "wu"), ("cd", "wx"), ("da", "xu")]],
        "triangles": [{"id": "t", "edges": ["ab", "bc", "ca"]}, {"id": "s", "edges": ["ca", "cd", "da"]}],
        "weights": {"t": 2, "s": 1},
    },
    "triadj": {
        "edges": [{"id": e} for e in ("a", "b", "c", "d", "e")],
        "triangles": [{"id": "t", "edges": ["a", "b", "c"]}, {"id": "s", "edges": ["c", "d", "e"]}],
        "weights": {"t": 3},
        "edge_classes": {"a": 1, "b": 2, "c": 3, "d": 1, "e": 2},
    },
    "per3": {"dims": [2, 2, 2], "entries": [[0, 0, 0, 1], [1, 1, 1, {"poly": {"2": 3}}], [0, 1, 1, -2]]},
    "code": {"k": 2, "n": 4, "rows": [[1, 1, 0, 0], [0, 1, 1, 1]]},
    "matrix": {"n": 3, "rows": [[1, 2, 0], [0, 1, -1], [3, 0, 1]]},
    "kernel": {
        "edges": [{"id": e} for e in ("a", "b", "c", "d", "e", "f")],
        "triangles": [{"id": "t", "edges": ["a", "b", "c"]}, {"id": "s", "edges": ["a", "d", "e"]},
                      {"id": "r", "edges": ["b", "d", "f"]}, {"id": "q", "edges": ["c", "e", "f"]}],
    },
}
ARGV = {
    "reduce": ["reduce"], "triadj": ["triadj"], "per3": ["per3"], "code": ["code", "wenum"],
    "matrix": ["kasteleyn", "build", "--certify"], "kernel": ["kernel-wenum", "--p", "2"],
}

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.sampled_from([10**6, -(10**18), 2**70]),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["", "a", "x^2", "1", "-1", "abc"]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["id", "a", "t", "0", "poly"]), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_documents(draw):
    kind = draw(st.sampled_from(sorted(SEED_DOCS)))
    doc = json.loads(json.dumps(SEED_DOCS[kind]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[path[-1]] = draw(json_values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(json.loads(json.dumps(parent[path[-1]])))
        else:
            parent[draw(st.sampled_from(["extra", "id", "0"]))] = parent[path[-1]]
    return kind, doc


TRIADJ_TRIANGLES = SEED_DOCS["triadj"]["triangles"]
DANGLING_EDGE = {"edges": [{"id": "a"}, {"id": "b"}], "triangles": [{"id": "t", "edges": ["a", "b", "zz"]}]}
# a float where an integer belongs is malformed input: these must exit 2
FLOAT_MATRIX_ENTRY = ("matrix", {"n": 2, "rows": [[1.5, 0], [0, 2]]})
FLOAT_TENSOR_INDEX = ("per3", {"dims": [2, 2, 2], "entries": [[0, 1.0, 0, 1]]})


class TestFuzz:
    # escapes found by this test, each once a KeyError or ValueError traceback:
    # dangling edges with and without stored classes (through triadj and
    # kernel-wenum), and a four-edge triangle
    @example(case=("kernel", DANGLING_EDGE))
    @example(case=("triadj", {"triangles": TRIADJ_TRIANGLES, "edge_classes": SEED_DOCS["triadj"]["edge_classes"]}))
    @example(case=("triadj", {"triangles": TRIADJ_TRIANGLES}))
    @example(case=("triadj", {
        "edges": SEED_DOCS["triadj"]["edges"],
        "triangles": [{"id": "t", "edges": ["a", "b", "c"]}, {"id": "s", "edges": ["c", "c", "d", "e"]}],
    }))
    @example(case=FLOAT_MATRIX_ENTRY)
    @example(case=FLOAT_TENSOR_INDEX)
    @settings(max_examples=200, deadline=None)
    @given(mutated_documents())
    def test_mutated_documents_keep_the_exit_contract(self, tmp_path_factory, case):
        kind, doc = case
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc))
        result = run([*ARGV[kind], str(path)])
        assert result.status in (0, 1, 2)
        if case in (FLOAT_MATRIX_ENTRY, FLOAT_TENSOR_INDEX):
            assert result.status == 2
        canonical_json(result.payload)
