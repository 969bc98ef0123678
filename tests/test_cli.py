"""End-to-end command line behavior: outputs, files, and exit codes."""

import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

from pwanet import cli, network
from pwanet.cli import main
from pwanet.formats import parse_network, parse_pwa, serialize_pwa
from pwanet.numeric import ColVec, Mat, parse_scalar
from pwanet.polyhedra import LinearConstraint, Polyhedron, full_space
from pwanet.pwa import AffinePiece, PwaFn, Univalent, check_univalence, evaluate
from pwanet.network import MAX_PIECES, MAX_RATIONALS, relu_nd

from genutil import scaling_doc
from oracles import relu_1d

EXAMPLE_NET = """{
  "input_dim": 2,
  "output_dim": 2,
  "layers": [
    {"kind": "linear",
     "weights": [["2.7", "0"], ["1", "0.01"]],
     "bias": ["1", "0.25"]},
    {"kind": "relu", "dim": 2},
    {"kind": "output"}
  ]
}"""

# Feeds the line (x, x - 1) into a 2-d ReLU; the orthant asking for
# x <= 0 and x - 1 >= 0 is contradictory, so one of the four compiled
# pieces is empty.
ONE_EMPTY_PIECE_NET = """{
  "input_dim": 1,
  "output_dim": 2,
  "layers": [
    {"kind": "linear", "weights": [["1"], ["1"]], "bias": ["0", "-1"]},
    {"kind": "relu", "dim": 2},
    {"kind": "output"}
  ]
}"""


# A 1-d input fed to 13 ReLUs of x, x - 1, ..., x - 12: 14 live pieces.
STAIRCASE_13 = json.dumps(
    {
        "input_dim": 1,
        "output_dim": 13,
        "layers": [
            {"kind": "linear", "weights": [["1"]] * 13, "bias": [str(-k) for k in range(13)]},
            {"kind": "relu", "dim": 13},
            {"kind": "output"},
        ],
    }
)
# Taken from prune_empty(transform(net)) before compile --prune folded
# layer by layer.
STAIRCASE_13_PRUNED_SHA256 = "cdc5b21a5ad8fdf0ee9c41c068dd78e916bbe1e572f23f544d8ccaf9506fc825"

# The two-hidden-layer and the 3-input networks of the CI console-script
# step, with the sha256 of export-smt on their pruned compiles (the second
# with --assert-domain), as written before export_smt wrote each rational
# from its numerator and denominator.
DEEP = (
    '{"input_dim": 2, "output_dim": 2, "layers": [{"kind": "linear", "weights": '
    '[["1", "-1"], ["1/2", "1"]], "bias": ["0", "-1"]}, {"kind": "relu", "dim": 2}, '
    '{"kind": "linear", "weights": [["1", "-2"], ["-1/3", "1"]], "bias": ["1/2", "0"]}, '
    '{"kind": "relu", "dim": 2}, {"kind": "output"}]}'
)
THREE = (
    '{"input_dim": 3, "output_dim": 2, "layers": [{"kind": "linear", "weights": '
    '[["0", "-1", "1"], ["-2", "-2", "2"], ["-2", "0", "2"]], "bias": ["-1", "1", "-1"]}, '
    '{"kind": "relu", "dim": 3}, {"kind": "linear", "weights": [["-2", "-2", "1"], '
    '["1", "-2", "-1"]], "bias": ["-1", "1"]}, {"kind": "relu", "dim": 2}, {"kind": "output"}]}'
)
PRUNED_SMT_SHA256 = {
    "deep": "9152966d8559a151d6c14009f3c8c89fb1859a7deccb358cbb9db09274f83587",
    "three": "ea5ef5565985d49d42b65e20fdd1dc159757cc9ba0b576b77967b59fbf8d544c",
}


def relu_net(dim: int) -> str:
    """A network that is one ReLU of the given width."""
    layers = [{"kind": "relu", "dim": dim}, {"kind": "output"}]
    return json.dumps({"input_dim": dim, "output_dim": dim, "layers": layers})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


TOO_LONG = f"error: a rational has more than {sys.get_int_max_str_digits()} digits to write\n"


def conflicting_doc() -> str:
    fn = PwaFn(
        1,
        1,
        (
            AffinePiece(full_space(1), Mat([["1"]]), ColVec(["0"])),
            AffinePiece(full_space(1), Mat([["2"]]), ColVec(["0"])),
        ),
    )
    return serialize_pwa(fn)


class TestCompile:
    def test_example_network(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        out = str(tmp_path / "fn.json")
        assert main(["compile", "--network", net, "--out", out]) == 0
        fn = parse_pwa((tmp_path / "fn.json").read_text())
        assert len(fn.pieces) == 4
        assert fn.univalence == "verified"
        assert evaluate(fn, ColVec(["1", "1"])) == ColVec(["37/10", "63/50"])

    def test_output_is_byte_deterministic(self, tmp_path):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        assert main(["compile", "--network", net, "--out", first]) == 0
        assert main(["compile", "--network", net, "--out", second]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_output_only_network_compiles_to_identity_piece(self, tmp_path):
        net = write(
            tmp_path,
            "net.json",
            '{"input_dim": 2, "output_dim": 2, "layers": [{"kind": "output"}]}',
        )
        out = str(tmp_path / "fn.json")
        assert main(["compile", "--network", net, "--out", out]) == 0
        fn = parse_pwa((tmp_path / "fn.json").read_text())
        assert len(fn.pieces) == 1
        assert fn.pieces[0].polyhedron.constraints == ()
        assert evaluate(fn, ColVec(["3", "-4"])) == ColVec(["3", "-4"])

    def test_verified_tag_agrees_with_the_checker(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        out = str(tmp_path / "fn.json")
        assert main(["compile", "--network", net, "--out", out]) == 0
        fn = parse_pwa((tmp_path / "fn.json").read_text())
        assert fn.univalence == "verified"
        assert isinstance(check_univalence(PwaFn(2, 2, fn.pieces)), Univalent)
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--network", net, "--out", out, "--check-univalence"])
        assert exc.value.code == 2

    def test_prune_drops_the_contradictory_piece(self, tmp_path):
        net = write(tmp_path, "net.json", ONE_EMPTY_PIECE_NET)
        kept = str(tmp_path / "kept.json")
        pruned = str(tmp_path / "pruned.json")
        assert main(["compile", "--network", net, "--out", kept]) == 0
        assert main(["compile", "--network", net, "--out", pruned, "--prune"]) == 0
        assert len(parse_pwa((tmp_path / "kept.json").read_text()).pieces) == 4
        assert len(parse_pwa((tmp_path / "pruned.json").read_text()).pieces) == 3

    def test_exact_scalar_survives_the_round_trip(self, tmp_path):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 0
        text = out.read_text()
        assert '"27/10"' in text
        assert "2.7000000000000002" not in text

    def test_unknown_layer_reported_by_index(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "input_dim": 2,
                "output_dim": 2,
                "layers": [
                    {"kind": "linear", "weights": [["1", "0"], ["0", "1"]], "bias": ["0", "0"]},
                    {"kind": "relu", "dim": 2},
                    {"kind": "unknown", "in_dim": 2, "out_dim": 2},
                    {"kind": "output"},
                ],
            }
        )
        net = write(tmp_path, "net.json", doc)
        code = main(["compile", "--network", net, "--out", str(tmp_path / "fn.json")])
        assert code == 4
        assert capsys.readouterr().err == "error: layer 2: not piecewise-affine\n"

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "input_dim": 2,
                "output_dim": 2,
                "layers": [
                    {"kind": "linear", "weights": [["1", "0"]], "bias": ["0"]},
                    {"kind": "relu", "dim": 2},
                    {"kind": "output"},
                ],
            }
        )
        net = write(tmp_path, "net.json", doc)
        code = main(["compile", "--network", net, "--out", str(tmp_path / "fn.json")])
        assert code == 3
        assert "layer 1" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", "{broken")
        code = main(["compile", "--network", net, "--out", str(tmp_path / "fn.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_exponent_exits_2_with_one_line(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", EXAMPLE_NET.replace('"2.7"', '"1e2000000"'))
        code = main(["compile", "--network", net, "--out", str(tmp_path / "fn.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed rational literal" in err
        assert err.count("\n") == 1

    def test_missing_input_file_exits_2(self, tmp_path):
        code = main(
            ["compile", "--network", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_wide_relu_evaluates_but_does_not_compile(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", relu_net(24))
        xs = [Fraction(k - 12, 3) for k in range(24)]
        point = "--point=" + ",".join(str(x) for x in xs)
        assert main(["eval", "--network", net, point]) == 0
        assert capsys.readouterr().out == ", ".join(str(max(x, 0)) for x in xs) + "\n"
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == f"error: the compiled function would have more than {MAX_PIECES} pieces\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", [10**9, 10**18])
    def test_huge_relu_width_ends_at_once_with_one_line(self, tmp_path, capsys, dim):
        net = write(tmp_path, "net.json", relu_net(dim))
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == f"error: the compiled function would have more than {MAX_PIECES} pieces\n"
        assert not out.exists()
        assert main(["eval", "--network", net, "--point", "1,2"]) == 3
        assert capsys.readouterr().err == f"error: input of dim 2 into network on dim {dim}\n"

    @pytest.mark.parametrize("dim", [10**9, 10**18])
    def test_huge_relu_width_ends_at_once_under_prune(self, tmp_path, capsys, dim):
        # One piece of a pruned compile would already pass MAX_RATIONALS.
        net = write(tmp_path, "net.json", relu_net(dim))
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out), "--prune"]) == 6
        err = capsys.readouterr().err
        assert err == f"error: the compiled function would hold more than {MAX_RATIONALS} rationals\n"
        assert not out.exists()

    def test_prune_bounds_the_live_pieces_not_the_product(self, tmp_path, capsys):
        # 2^13 = 8,192 pieces, of which 14 are live; the pruned file is the
        # one prune_empty(transform(net)) writes.
        net = write(tmp_path, "net.json", STAIRCASE_13)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == f"error: the compiled function would have more than {MAX_PIECES} pieces\n"
        assert not out.exists()
        assert main(["compile", "--network", net, "--out", str(out), "--prune"]) == 0
        assert sha256(out.read_bytes()).hexdigest() == STAIRCASE_13_PRUNED_SHA256
        assert main(["regions", "--pwa", str(out)]) == 0
        assert capsys.readouterr() == ("14\n", "")

    @pytest.mark.parametrize(
        "name, doc, switches", [("deep", DEEP, []), ("three", THREE, ["--assert-domain"])]
    )
    def test_export_smt_of_a_parsed_pruned_file_is_pinned(self, tmp_path, name, doc, switches):
        net, pwa, smt = write(tmp_path, "net.json", doc), tmp_path / "fn.json", tmp_path / "fn.smt2"
        assert main(["compile", "--network", net, "--out", str(pwa), "--prune"]) == 0
        assert main(["export-smt", "--pwa", str(pwa), "--out", str(smt), *switches]) == 0
        text = smt.read_text()
        assert sha256(text.encode()).hexdigest() == PRUNED_SMT_SHA256[name]
        # Zero coefficients are dropped, and unit ones are the bare variable.
        assert "(* 0 " not in text and "(* 1 " not in text and " x_0 " in text
        if name == "deep":
            assert "(- (/ " in text

    def test_prune_refuses_past_a_smaller_live_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(network, "MAX_PIECES", 14)
        stair = write(tmp_path, "stair.json", STAIRCASE_13)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", stair, "--out", str(out), "--prune"]) == 0
        assert len(parse_pwa(out.read_text(encoding="utf-8")).pieces) == 14
        # A 4-d ReLU on its input: all 16 orthants are live.
        wide = write(tmp_path, "wide.json", relu_net(4))
        refused = tmp_path / "refused.json"
        assert main(["compile", "--network", wide, "--out", str(refused), "--prune"]) == 6
        assert capsys.readouterr() == ("", "error: the compiled function would have more than 14 pieces\n")
        assert not refused.exists()

    def test_piece_product_past_the_bound_exits_6_with_one_line(self, tmp_path, capsys):
        # 2^7 * 2^6 = 8,192 pieces, though neither ReLU alone passes 4,096.
        doc = json.dumps(
            {
                "input_dim": 7,
                "output_dim": 6,
                "layers": [
                    {"kind": "relu", "dim": 7},
                    {"kind": "linear", "weights": [["1"] * 7] * 6, "bias": ["0"] * 6},
                    {"kind": "relu", "dim": 6},
                    {"kind": "output"},
                ],
            }
        )
        net = write(tmp_path, "net.json", doc)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == f"error: the compiled function would have more than {MAX_PIECES} pieces\n"
        assert not out.exists()

    @pytest.mark.parametrize("weights", [["1e4300"], ["1e3000", "1e3000"]])
    def test_rational_too_long_to_write_exits_6(self, tmp_path, capsys, weights):
        # 10^4300 has 4,301 digits; two layers of 10^3000 multiply to 10^6000.
        layers = [{"kind": "linear", "weights": [[w]], "bias": ["0"]} for w in weights]
        doc = {"input_dim": 1, "output_dim": 1, "layers": layers + [{"kind": "output"}]}
        net = write(tmp_path, "net.json", json.dumps(doc))
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        assert capsys.readouterr().err == TOO_LONG
        assert not out.exists()


    def test_output_past_the_rational_bound_exits_6_with_one_line(self, tmp_path, capsys):
        # 4,096 pieces of 49 * (12 + 12) rationals each: 4.8 million, past the bound.
        doc = json.dumps(
            {
                "input_dim": 48,
                "output_dim": 12,
                "layers": [
                    {"kind": "linear", "weights": [["1"] * 48] * 12, "bias": ["0"] * 12},
                    {"kind": "relu", "dim": 12},
                    {"kind": "output"},
                ],
            }
        )
        net = write(tmp_path, "net.json", doc)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == (
            f"error: the compiled function would hold more than {network.MAX_RATIONALS} rationals\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("dim", [10**9, 10**4000], ids=["1e9", "1e4000"])
    def test_huge_output_only_network_ends_at_once(self, tmp_path, capsys, monkeypatch, dim):
        def refuse(n):
            raise AssertionError(f"built the identity on dim {n}")

        monkeypatch.setattr(network, "identity_pwaf", refuse)
        doc = json.dumps({"input_dim": dim, "output_dim": dim, "layers": [{"kind": "output"}]})
        net = write(tmp_path, "net.json", doc)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == (
            f"error: the compiled function would hold more than {network.MAX_RATIONALS} rationals\n"
        )
        assert not out.exists()

    def test_wide_linear_layer_needs_no_identity_seed(self, tmp_path, monkeypatch):
        identity_pwaf = network.identity_pwaf

        def small_identity(dim):
            if dim > 12:
                raise AssertionError(f"built the identity on dim {dim}")
            return identity_pwaf(dim)

        monkeypatch.setattr(network, "identity_pwaf", small_identity)
        weights = [[str(k % 7 - 3) for k in range(2000)]]
        layers = [{"kind": "linear", "weights": weights, "bias": ["1/2"]}, {"kind": "output"}]
        net = write(
            tmp_path, "net.json", json.dumps({"input_dim": 2000, "output_dim": 1, "layers": layers})
        )
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 0
        fn = parse_pwa(out.read_text(encoding="utf-8"))
        assert len(fn.pieces) == 1 and fn.pieces[0].polyhedron == full_space(2000)
        assert fn.pieces[0].M == Mat(weights) and fn.pieces[0].b == ColVec(["1/2"])


class TestEval:
    def test_network_at_example_point(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        assert main(["eval", "--network", net, "--point", "1,1"]) == 0
        assert capsys.readouterr().out == "37/10, 63/50\n"

    def test_pwa_relu_at_zero(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        assert main(["eval", "--pwa", fn, "--point", "0"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_point_text_is_parsed_exactly(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        assert main(["eval", "--pwa", fn, "--point", "2.7"]) == 0
        assert capsys.readouterr().out == "27/10\n"
        # Leading dashes need the equals form so argparse keeps its hands off.
        assert main(["eval", "--pwa", fn, "--point=-1/3"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_outside_domain(self, tmp_path, capsys):
        half_line = Polyhedron(1, (LinearConstraint(ColVec(["1"]), parse_scalar("0")),))
        doc = serialize_pwa(
            PwaFn(1, 1, (AffinePiece(half_line, Mat([["1"]]), ColVec(["0"])),))
        )
        fn = write(tmp_path, "half.json", doc)
        assert main(["eval", "--pwa", fn, "--point", "5"]) == 0
        assert capsys.readouterr().out == "outside domain\n"

    def test_undefined_network_value(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "input_dim": 1,
                "output_dim": 1,
                "layers": [
                    {"kind": "unknown", "in_dim": 1, "out_dim": 1},
                    {"kind": "output"},
                ],
            }
        )
        net = write(tmp_path, "net.json", doc)
        assert main(["eval", "--network", net, "--point", "1"]) == 0
        assert capsys.readouterr().out == "undefined\n"

    def test_wrong_point_width_exits_3(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        assert main(["eval", "--network", net, "--point", "1,2,3"]) == 3
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        assert main(["eval", "--pwa", fn, "--point", "1,2"]) == 3

    def test_malformed_point_exits_2(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        assert main(["eval", "--pwa", fn, "--point", "1,,2"]) == 2
        assert "point" in capsys.readouterr().err

    def test_huge_exponent_in_the_point_exits_2(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        assert main(["eval", "--pwa", fn, "--point", "1e2000000"]) == 2
        err = capsys.readouterr().err
        assert "malformed rational literal" in err and err.count("\n") == 1

    def test_value_too_long_to_write_exits_6(self, tmp_path, capsys):
        fn = write(tmp_path, "id.json", scaling_doc("1"))
        assert main(["eval", "--pwa", fn, "--point", "1e4300"]) == 6
        captured = capsys.readouterr()
        assert captured.err == TOO_LONG and captured.out == ""

    def test_network_with_bad_dims_exits_3_before_evaluating(self, tmp_path, capsys):
        doc = json.dumps(
            {
                "input_dim": 2,
                "output_dim": 2,
                "layers": [{"kind": "relu", "dim": 3}, {"kind": "output"}],
            }
        )
        net = write(tmp_path, "net.json", doc)
        assert main(["eval", "--network", net, "--point", "1,2"]) == 3

    def test_pwa_and_network_flags_are_mutually_exclusive(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--pwa", fn, "--network", fn, "--point", "0"])
        assert exc.value.code == 2


class TestCheck:
    def test_univalent_file(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        assert main(["check", "--pwa", fn]) == 0
        assert capsys.readouterr().out == "univalent\n"

    def test_violation_exits_5_with_a_genuine_witness(self, tmp_path, capsys):
        fn = write(tmp_path, "bad.json", conflicting_doc())
        assert main(["check", "--pwa", fn]) == 5
        out = capsys.readouterr().out
        assert out.startswith("violation: pieces 0 and 1 differ in row 0 at point (")
        witness = parse_scalar(out[out.index("(") + 1 : out.rindex(")")])
        # The pieces compute x and 2x, so any nonzero point separates them.
        assert witness != 0

    def test_verified_tag_in_the_file_is_not_trusted(self, tmp_path, capsys):
        doc = json.loads(conflicting_doc())
        doc["univalence"] = "verified"
        fn = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["check", "--pwa", fn]) == 5
        assert capsys.readouterr().out.startswith("violation: pieces 0 and 1")

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        fn = write(tmp_path, "deep.json", "[" * 100000)
        assert main(["check", "--pwa", fn]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1

    def test_jobs_env_is_ignored(self, tmp_path, capsys, monkeypatch):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_nd(2)))
        assert main(["check", "--pwa", fn]) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("PWANET_JOBS", "two")
        assert main(["check", "--pwa", fn]) == 0
        assert capsys.readouterr() == plain == ("univalent\n", "")

    def test_non_utf8_file_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["check", "--pwa", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


class TestRegions:
    def test_relu_nd_two(self, tmp_path, capsys):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_nd(2)))
        assert main(["regions", "--pwa", fn]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_pieces_without_constraints_need_no_tableau(self, tmp_path, capsys):
        # A root tableau on R^(10^12) would hold 10^12 zeros.
        piece = {"constraints": [], "M": [], "b": []}
        doc = {"in_dim": 10**12, "out_dim": 0, "univalence": "unchecked", "pieces": [piece] * 2}
        fn = write(tmp_path, "fn.json", json.dumps(doc))
        assert main(["regions", "--pwa", fn]) == 0
        assert capsys.readouterr() == ("2\n", "")
        assert main(["check", "--pwa", fn]) == 0
        assert capsys.readouterr() == ("univalent\n", "")

    def test_contradictory_piece_is_not_counted(self, tmp_path, capsys):
        net = write(tmp_path, "net.json", ONE_EMPTY_PIECE_NET)
        out = str(tmp_path / "fn.json")
        assert main(["compile", "--network", net, "--out", out]) == 0
        assert main(["regions", "--pwa", out]) == 0
        assert capsys.readouterr().out == "3\n"


class TestExportSmt:
    def test_identity_script(self, tmp_path):
        doc = serialize_pwa(
            PwaFn(1, 1, (AffinePiece(full_space(1), Mat([["1"]]), ColVec(["0"])),))
        )
        fn = write(tmp_path, "id.json", doc)
        out = tmp_path / "id.smt2"
        assert main(["export-smt", "--pwa", fn, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("(set-logic QF_LRA)\n")
        assert "(= y_0 x_0)" in text
        assert "check-sat" not in text

    def test_compiled_example_has_four_implications(self, tmp_path):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        fn_path = str(tmp_path / "fn.json")
        assert main(["compile", "--network", net, "--out", fn_path]) == 0
        out = tmp_path / "fn.smt2"
        assert main(["export-smt", "--pwa", fn_path, "--out", str(out)]) == 0
        assert out.read_text().count("(assert (=>") == 4

    def test_assert_domain_flag(self, tmp_path):
        fn = write(tmp_path, "relu.json", serialize_pwa(relu_1d()))
        out = tmp_path / "relu.smt2"
        assert main(["export-smt", "--pwa", fn, "--out", str(out), "--assert-domain"]) == 0
        assert "(assert (or " in out.read_text()

    def test_rational_too_long_to_write_exits_6(self, tmp_path, capsys):
        fn = write(tmp_path, "big.json", scaling_doc("1e4300"))
        out = tmp_path / "big.smt2"
        assert main(["export-smt", "--pwa", fn, "--out", str(out)]) == 6
        assert capsys.readouterr().err == TOO_LONG
        assert not out.exists()

    @pytest.mark.parametrize(
        "dims, pieces",
        [
            ((10**18, 0), []),
            ((10**18, 0), [{"constraints": [], "M": [], "b": []}]),
            ((MAX_RATIONALS, 1), []),
        ],
        ids=["no_pieces", "unconstrained_piece", "one_past_the_bound"],
    )
    def test_too_many_variables_exits_6_with_one_line(self, tmp_path, capsys, dims, pieces):
        in_dim, out_dim = dims
        doc = {"in_dim": in_dim, "out_dim": out_dim, "univalence": "unchecked", "pieces": pieces}
        fn = write(tmp_path, "wide.json", json.dumps(doc))
        out = tmp_path / "wide.smt2"
        assert main(["export-smt", "--pwa", fn, "--out", str(out)]) == 6
        assert capsys.readouterr().err == (
            f"error: the SMT script would declare more than {MAX_RATIONALS} variables\n"
        )
        assert not out.exists()


def compiled(tmp_path, name, doc, *switches) -> Path:
    """The file `compile` writes for doc at a fresh path."""
    net = write(tmp_path, f"{name}.net", doc)
    out = tmp_path / name
    assert main(["compile", "--network", net, "--out", str(out), *switches]) == 0
    return out


class TestOutputFiles:
    """An existing output is rewritten in place, and ends as a fresh file's bytes."""

    @pytest.mark.parametrize("kind", ["file", "symlink", "hardlink"])
    def test_a_shorter_compile_over_a_longer_output(self, tmp_path, kind):
        longer = compiled(tmp_path, "longer.json", DEEP).read_bytes()
        fresh = compiled(tmp_path, "fresh.json", EXAMPLE_NET).read_bytes()
        assert len(fresh) < len(longer)
        target = tmp_path / "target.json"
        target.write_bytes(longer)
        inode = target.stat().st_ino
        out = tmp_path / "out.json"
        if kind == "file":
            out = target
        elif kind == "symlink":
            out.symlink_to(target)
        else:
            os.link(target, out)
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        assert main(["compile", "--network", net, "--out", str(out)]) == 0
        assert out.is_symlink() == (kind == "symlink")
        assert target.stat().st_ino == inode
        assert target.read_bytes() == out.read_bytes() == fresh

    @pytest.mark.parametrize("mask", [0o022, 0o077])
    @pytest.mark.parametrize("existing", [None, 0o640])
    def test_mode_of_the_output(self, tmp_path, mask, existing):
        out = tmp_path / "out.json"
        if existing is not None:
            out.write_text("old")
            out.chmod(existing)
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        old = os.umask(mask)
        try:
            assert main(["compile", "--network", net, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        expected = 0o666 & ~mask if existing is None else existing
        assert out.stat().st_mode & 0o7777 == expected

    @pytest.mark.parametrize("sink", ["devnull", "fifo"])
    def test_an_output_with_no_length_to_cut(self, tmp_path, capsys, sink):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        if sink == "devnull":
            assert main(["compile", "--network", net, "--out", os.devnull]) == 0
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("no named pipes")
            fresh = compiled(tmp_path, "fresh.json", EXAMPLE_NET).read_bytes()
            fifo = tmp_path / "fifo"
            os.mkfifo(fifo)
            # The pipe's buffer holds the whole compile, so one process can
            # write it all before reading it back.
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            try:
                assert main(["compile", "--network", net, "--out", str(fifo)]) == 0
                assert os.read(reader, 2 * len(fresh)) == fresh
            finally:
                os.close(reader)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "where, code",
        [("a_directory", errno.EISDIR), ("missing/out.json", errno.ENOENT)],
    )
    def test_an_output_that_cannot_be_opened_exits_2(self, tmp_path, capsys, where, code):
        (tmp_path / "a_directory").mkdir()
        out = str(tmp_path / where)
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        assert main(["compile", "--network", net, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno {code}] {os.strerror(code)}: {out!r}\n")

    @pytest.mark.parametrize("command", ["compile", "export-smt"])
    def test_a_refusal_leaves_an_existing_output_as_it_was(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_bytes(b"old bytes\n")
        if command == "compile":
            argv = ["compile", "--network", write(tmp_path, "wide.json", relu_net(13))]
            err = f"error: the compiled function would have more than {MAX_PIECES} pieces\n"
        else:
            doc = {"in_dim": 10**18, "out_dim": 0, "univalence": "unchecked", "pieces": []}
            argv = ["export-smt", "--pwa", write(tmp_path, "wide.json", json.dumps(doc))]
            err = f"error: the SMT script would declare more than {MAX_RATIONALS} variables\n"
        assert main(argv + ["--out", str(out)]) == 6
        assert capsys.readouterr() == ("", err)
        assert out.read_bytes() == b"old bytes\n"

    def test_a_failed_write_leaves_what_truncating_first_leaves(self, tmp_path):
        # A child process whose files may not grow past `limit` bytes, with
        # SIGXFSZ ignored so that the write fails with EFBIG. It compiles
        # over a longer file, then runs the writer that truncates first on
        # a fresh path, as reference.
        pytest.importorskip("resource")
        fresh = compiled(tmp_path, "fresh.json", DEEP, "--prune").read_bytes()
        out = tmp_path / "out.json"
        out.write_bytes(compiled(tmp_path, "longer.json", DEEP).read_bytes())
        assert len(out.read_bytes()) > len(fresh)
        limit = len(fresh) // 2 + 1
        net = write(tmp_path, "net.json", DEEP)
        reference = tmp_path / "reference.json"
        code = (
            "import resource, signal, sys\n"
            "from pwanet import cli\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "limit, net, out, reference, fresh = sys.argv[1:]\n"
            "with open(fresh, encoding='utf-8') as handle:\n"
            "    text = handle.read()\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(limit), hard))\n"
            "code = cli.main(['compile', '--network', net, '--out', out, '--prune'])\n"
            "try:\n"
            "    with open(reference, 'w', encoding='utf-8') as handle:\n"
            "        handle.write(text)\n"
            "except OSError:\n"
            "    pass\n"
            "sys.exit(code)\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        args = [str(limit), net, str(out), str(reference), str(tmp_path / "fresh.json")]
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert out.read_bytes() == reference.read_bytes() == fresh[:limit]


class TestNoReluPieces:
    """A ReLU after the first layer is never built as explicit pieces: the
    example network (linear, then ReLU) evaluates and compiles without relu_nd."""

    def test_example_network_needs_neither_relu_builder(self, tmp_path, capsys, monkeypatch):
        net_path = write(tmp_path, "net.json", EXAMPLE_NET)
        expected = serialize_pwa(network.transform(parse_network(EXAMPLE_NET)))

        def refuse(*args):
            raise AssertionError("a ReLU was built as explicit pieces")

        monkeypatch.setattr(network, "relu_nd", refuse)
        net = parse_network(EXAMPLE_NET)
        assert network.nn_eval(net, ColVec(["1", "1"])) == ColVec(["3.7", "1.26"])
        assert serialize_pwa(network.transform(net)) == expected
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net_path, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected
        assert main(["eval", "--network", net_path, "--point", "1,1"]) == 0
        assert capsys.readouterr() == ("37/10, 63/50\n", "")


def chain_doc(*layers) -> str:
    return json.dumps({"input_dim": 2, "output_dim": 2, "layers": list(layers)})


# Every chain error a network document can produce, with its stderr line.
# The output marker always takes the declared output_dim, so a marker of the
# wrong width cannot be written down.
CHAIN_ERRORS = {
    "first_layer_width": (
        chain_doc(
            {"kind": "linear", "weights": [["1", "0", "0"]] * 2, "bias": ["0", "0"]},
            {"kind": "output"},
        ),
        "error: layer 0: expects input dim 3, gets dim 2\n",
    ),
    "layer_to_layer": (
        chain_doc(
            {"kind": "linear", "weights": [["1", "0"]], "bias": ["0"]},
            {"kind": "relu", "dim": 2},
            {"kind": "output"},
        ),
        "error: layer 1: expects input dim 2, gets dim 1\n",
    ),
    "marker_before_the_end": (
        chain_doc({"kind": "output"}, {"kind": "relu", "dim": 2}, {"kind": "output"}),
        "error: layer 0: output layer before the end of the network\n",
    ),
    "no_marker": (
        chain_doc({"kind": "relu", "dim": 2}),
        "error: network has no output layer\n",
    ),
}


class TestChainErrors:
    @pytest.mark.parametrize("case", sorted(CHAIN_ERRORS))
    def test_compile_exits_3_with_one_line(self, tmp_path, capsys, case):
        doc, line = CHAIN_ERRORS[case]
        net = write(tmp_path, "net.json", doc)
        out = tmp_path / "fn.json"
        assert main(["compile", "--network", net, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", line)
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(CHAIN_ERRORS))
    def test_eval_exits_3_with_one_line(self, tmp_path, capsys, case):
        doc, line = CHAIN_ERRORS[case]
        net = write(tmp_path, "net.json", doc)
        assert main(["eval", "--network", net, "--point", "1,2"]) == 3
        assert capsys.readouterr() == ("", line)


def call(argv):
    """Exit code, stdout and stderr of one main call, each stream redirected at that call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_call(argv):
    """The same call through a parser built for it alone."""
    built = cli._build_parser.__wrapped__()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_build_parser", lambda: built)
        return call(argv)


class TestReusedParser:
    """main builds its parser once per process; every call must behave as a fresh one."""

    @pytest.fixture
    def files(self, tmp_path):
        net = write(tmp_path, "net.json", EXAMPLE_NET)
        return {
            "net": net,
            "fn": write(tmp_path, "fn.json", serialize_pwa(network.transform(parse_network(EXAMPLE_NET)))),
            "bad": write(tmp_path, "bad.json", conflicting_doc()),
            "out": str(tmp_path / "out.json"),
        }

    def good_calls(self, files):
        return [
            ["check", "--pwa", files["fn"]],
            ["check", "--pwa", files["bad"]],
            ["regions", "--pwa", files["fn"]],
            ["eval", "--network", files["net"], "--point=-1/3,2"],
            ["eval", "--pwa", files["fn"], "--point", "1,1"],
            ["compile", "--network", files["net"], "--out", files["out"], "--prune"],
        ]

    def test_the_same_argv_twice_gives_the_same_result(self, files):
        for argv in self.good_calls(files):
            first = call(argv)
            assert call(argv) == first == fresh_call(argv)

    @pytest.mark.parametrize(
        "bad_argv, last_line",
        [
            (["frobnicate"], "pwanet: error: argument command: invalid choice: 'frobnicate'"),
            (["check"], "pwanet check: error: the following arguments are required: --pwa"),
            ([], "pwanet: error: the following arguments are required: command"),
        ],
    )
    def test_a_usage_error_between_good_calls(self, files, bad_argv, last_line):
        good = ["check", "--pwa", files["bad"]]
        before = call(good)
        assert before[0] == 5
        code, out, err = call(bad_argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: pwanet")
        assert err.splitlines()[-1].startswith(last_line)
        assert (code, out, err) == fresh_call(bad_argv)
        assert call(good) == before

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["eval", "--help"]])
    def test_help_is_the_same_twice_and_follows_columns(self, monkeypatch, argv):
        cli._build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "40")
        narrow = call(argv)
        assert narrow[0] == 0 and narrow[1].startswith("usage: pwanet")
        assert call(argv) == narrow == fresh_call(argv)
        monkeypatch.setenv("COLUMNS", "200")
        wide = call(argv)
        assert len(wide[1].splitlines()) < len(narrow[1].splitlines())
        assert call(argv) == wide == fresh_call(argv)

    def test_the_parser_is_built_once_over_many_calls(self, files, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        for argv in 3 * self.good_calls(files) + [["check"], ["--help"]]:
            call(argv)
        assert built.count("pwanet") == 1
        assert cli._build_parser.cache_info().misses == 1

    def test_importing_the_cli_builds_no_parser(self):
        code = (
            "import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k): built.append(1); init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import pwanet.cli\n"
            "print(len(built), pwanet.cli._build_parser.cache_info().misses)"
        )
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert proc.stdout.split() == ["0", "0"]
