"""JSON document parsing and serialization, plus the SMT-LIB export."""

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwanet.cli import main
from pwanet.numeric import ColVec, DimensionError, Mat, ScalarTooLong, format_scalar
from pwanet.polyhedra import LinearConstraint, Polyhedron
from pwanet.pwa import (
    REFUTED,
    UNCHECKED,
    VERIFIED,
    AffinePiece,
    PwaFn,
    Univalent,
    UnivalenceViolation,
    check_univalence,
    evaluate,
    identity_pwaf,
    linear_pwaf,
    prune_empty,
)
from pwanet.pwa_algebra import compose, concat
from pwanet.network import (
    Network,
    OutputLayer,
    PwaLayer,
    ReluLayer,
    UnknownLayer,
    nn_eval,
    relu_nd,
    transform,
)
from pwanet.formats import ParseError, export_smt, parse_network, parse_pwa, serialize_pwa

from genutil import (
    dense_network,
    point,
    random_network,
    restricted_affine,
    scaling_doc,
    single_piece,
    univalent_fn,
)
from oracles import (
    careful_parse_pwa,
    json_serialize_pwa,
    parse_sexprs,
    read_pwa,
    relu_1d,
    smt_reference,
)

NETWORK_DOC = """{
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


def roundtrips_byte_identically(fn: PwaFn) -> bool:
    once = serialize_pwa(fn)
    return serialize_pwa(parse_pwa(once)) == once


class TestParseNetwork:
    def test_example_document(self):
        net = parse_network(NETWORK_DOC)
        assert (net.input_dim, net.output_dim) == (2, 2)
        assert len(net.layers) == 3
        linear = net.layers[0]
        assert isinstance(linear, PwaLayer)
        assert linear.fn.pieces[0].M.entries[0][0] == Fraction(27, 10)
        assert linear.fn.pieces[0].M.entries[1][1] == Fraction(1, 100)
        assert isinstance(net.layers[2], OutputLayer)
        got = nn_eval(net, ColVec(["1", "1"]))
        assert got == ColVec([Fraction(37, 10), Fraction(63, 50)])

    def test_output_layer_takes_the_declared_output_dim(self):
        net = parse_network('{"input_dim": 3, "output_dim": 3, "layers": [{"kind": "output"}]}')
        assert net.layers == (OutputLayer(3),)

    def test_unknown_layer(self):
        doc = json.dumps(
            {
                "input_dim": 2,
                "output_dim": 2,
                "layers": [
                    {"kind": "unknown", "in_dim": 2, "out_dim": 2},
                    {"kind": "output"},
                ],
            }
        )
        net = parse_network(doc)
        assert net.layers[0] == UnknownLayer(2, 2)
        assert nn_eval(net, ColVec([1, 1])) is None
        assert transform(net) is None

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_network("{not json")

    def test_unrecognized_layer_kind(self):
        doc = '{"input_dim": 1, "output_dim": 1, "layers": [{"kind": "conv"}]}'
        with pytest.raises(ParseError, match="unknown kind"):
            parse_network(doc)

    def test_numeric_weight_rejected(self):
        doc = json.dumps(
            {
                "input_dim": 1,
                "output_dim": 1,
                "layers": [
                    {"kind": "linear", "weights": [[2.7]], "bias": ["0"]},
                    {"kind": "output"},
                ],
            }
        )
        with pytest.raises(ParseError, match="scalars must be strings"):
            parse_network(doc)

    def test_empty_weights_rejected(self):
        doc = json.dumps(
            {
                "input_dim": 1,
                "output_dim": 0,
                "layers": [{"kind": "linear", "weights": [], "bias": []}],
            }
        )
        with pytest.raises(ParseError, match="non-empty"):
            parse_network(doc)

    def test_bias_length_must_match_weight_rows(self):
        doc = json.dumps(
            {
                "input_dim": 1,
                "output_dim": 2,
                "layers": [
                    {"kind": "linear", "weights": [["1"], ["2"]], "bias": ["0"]},
                    {"kind": "output"},
                ],
            }
        )
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_network(doc)

    def test_missing_top_level_key(self):
        with pytest.raises(ParseError, match="missing key"):
            parse_network('{"input_dim": 1, "layers": []}')

    def test_dims_must_be_nonnegative_integers(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_network('{"input_dim": "2", "output_dim": 2, "layers": []}')
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_network('{"input_dim": -1, "output_dim": 2, "layers": []}')
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_network('{"input_dim": true, "output_dim": 2, "layers": []}')

    def test_relu_dim_must_be_an_integer(self):
        doc = '{"input_dim": 2, "output_dim": 2, "layers": [{"kind": "relu", "dim": "2"}]}'
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_network(doc)

    def test_layers_must_be_a_list(self):
        with pytest.raises(ParseError, match="expected a list"):
            parse_network('{"input_dim": 1, "output_dim": 1, "layers": {}}')

    @pytest.mark.parametrize("dim", [13, 24, 10**9])
    def test_a_relu_of_any_width_parses_as_its_width(self, dim):
        layers = f'[{{"kind": "relu", "dim": {dim}}}, {{"kind": "output"}}]'
        doc = f'{{"input_dim": {dim}, "output_dim": {dim}, "layers": {layers}}}'
        assert parse_network(doc).layers == (ReluLayer(dim), OutputLayer(dim))

    def test_integer_literal_past_the_digit_limit(self):
        doc = '{"input_dim": ' + "1" * 5000 + ', "output_dim": 1, "layers": []}'
        with pytest.raises(ParseError, match="^invalid JSON"):
            parse_network(doc)


class TestParsePwa:
    def test_decimal_strings_become_exact_rationals(self):
        doc = json.dumps(
            {
                "in_dim": 1,
                "out_dim": 1,
                "univalence": "unchecked",
                "pieces": [
                    {
                        "constraints": [{"c": ["1"], "b": "0.5"}],
                        "M": [["2.7"]],
                        "b": ["-0.25"],
                    }
                ],
            }
        )
        fn = parse_pwa(doc)
        piece = fn.pieces[0]
        assert piece.polyhedron.constraints[0].b == Fraction(1, 2)
        assert piece.M.entries[0][0] == Fraction(27, 10)
        assert piece.b[0] == Fraction(-1, 4)

    def test_noncanonical_input_serializes_canonically(self):
        doc = json.dumps(
            {
                "in_dim": 1,
                "out_dim": 1,
                "univalence": "unchecked",
                "pieces": [{"constraints": [], "M": [["0.50"]], "b": ["2/4"]}],
            }
        )
        out = serialize_pwa(parse_pwa(doc))
        assert '"1/2"' in out
        assert "0.50" not in out and "2/4" not in out

    def test_univalence_tag_survives(self):
        for tag in (UNCHECKED, VERIFIED, REFUTED):
            fn = PwaFn(1, 1, (), univalence=tag)
            assert parse_pwa(serialize_pwa(fn)).univalence == tag

    def test_verified_tag_does_not_carry_through_compose(self):
        # The file claims x and 2x on all of R agree; they differ at x = -1.
        conflicting = PwaFn(
            1,
            1,
            (
                AffinePiece(Polyhedron(1), Mat([["1"]]), ColVec(["0"])),
                AffinePiece(Polyhedron(1), Mat([["2"]]), ColVec(["0"])),
            ),
            univalence=VERIFIED,
        )
        parsed = parse_pwa(serialize_pwa(conflicting))
        assert parsed.univalence == VERIFIED and parsed.claimed
        composed = compose(identity_pwaf(1), parsed)
        assert composed.univalence == UNCHECKED
        assert compose(parsed, identity_pwaf(1)).univalence == UNCHECKED
        assert concat(parsed, identity_pwaf(1)).univalence == UNCHECKED
        assert check_univalence(composed) == UnivalenceViolation(0, 1, 0, ColVec(["-1"]))

    def test_checked_document_is_carried(self):
        parsed = parse_pwa(serialize_pwa(relu_nd(2)))
        assert compose(identity_pwaf(2), parsed).univalence == UNCHECKED
        assert check_univalence(parsed) == Univalent() and not parsed.claimed
        assert compose(identity_pwaf(2), parsed).univalence == VERIFIED

    def test_unknown_univalence_tag_rejected(self):
        doc = '{"in_dim": 1, "out_dim": 1, "univalence": "maybe", "pieces": []}'
        with pytest.raises(ParseError, match="unknown tag"):
            parse_pwa(doc)

    def test_numeric_scalar_rejected(self):
        doc = json.dumps(
            {
                "in_dim": 1,
                "out_dim": 1,
                "univalence": "unchecked",
                "pieces": [{"constraints": [], "M": [[1]], "b": ["0"]}],
            }
        )
        with pytest.raises(ParseError, match="scalars must be strings"):
            parse_pwa(doc)

    def test_constraint_width_must_match_in_dim(self):
        doc = json.dumps(
            {
                "in_dim": 2,
                "out_dim": 1,
                "univalence": "unchecked",
                "pieces": [
                    {
                        "constraints": [{"c": ["1"], "b": "0"}],
                        "M": [["1", "0"]],
                        "b": ["0"],
                    }
                ],
            }
        )
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_pwa(doc)

    def test_matrix_row_count_must_match_out_dim(self):
        doc = json.dumps(
            {
                "in_dim": 1,
                "out_dim": 2,
                "univalence": "unchecked",
                "pieces": [{"constraints": [], "M": [["1"]], "b": ["0", "0"]}],
            }
        )
        with pytest.raises(ParseError, match="expected 2 rows"):
            parse_pwa(doc)

    def test_malformed_scalar_text(self):
        doc = json.dumps(
            {
                "in_dim": 1,
                "out_dim": 1,
                "univalence": "unchecked",
                "pieces": [{"constraints": [], "M": [["1/2/3"]], "b": ["0"]}],
            }
        )
        with pytest.raises(ParseError):
            parse_pwa(doc)

    def test_pieces_must_be_a_list(self):
        doc = '{"in_dim": 1, "out_dim": 1, "univalence": "unchecked", "pieces": 4}'
        with pytest.raises(ParseError, match="expected a list"):
            parse_pwa(doc)

    # A repeated literal or row is read once per document; these pin that a
    # repeat fails exactly as a first reading of the same text would.
    @staticmethod
    def assert_parse_error(pieces, message):
        doc = json.dumps({"in_dim": 2, "out_dim": 1, "univalence": "unchecked", "pieces": pieces})
        with pytest.raises(ParseError) as raised:
            parse_pwa(doc)
        assert str(raised.value) == message

    def test_a_row_read_as_b_is_checked_again_as_a_wider_c(self):
        pieces = [
            {"constraints": [], "M": [["1", "0"]], "b": ["5"]},
            {"constraints": [{"c": ["5"], "b": "0"}], "M": [["1", "0"]], "b": ["5"]},
        ]
        self.assert_parse_error(pieces, "piece 1 constraint 0.c: expected 2 entries, got 1")

    @pytest.mark.parametrize("entry, shown", [(0, "0"), (["0"], "['0']"), (True, "True")])
    def test_a_repeated_row_with_a_non_string_entry(self, entry, shown):
        pieces = [
            {"constraints": [{"c": ["1", "0"], "b": "0"}], "M": [["1", "0"]], "b": ["0"]},
            {"constraints": [{"c": ["1", entry], "b": "0"}], "M": [["1", "0"]], "b": ["0"]},
        ]
        self.assert_parse_error(
            pieces, f"piece 1 constraint 0.c[1]: scalars must be strings, got {shown}"
        )

    def test_a_malformed_spelling_after_a_valid_one_of_the_same_value(self):
        pieces = [
            {"constraints": [{"c": ["0", "1"], "b": "0"}], "M": [["1", "0"]], "b": ["0"]},
            {"constraints": [{"c": ["0e5000", "1"], "b": "0"}], "M": [["1", "0"]], "b": ["0"]},
        ]
        self.assert_parse_error(
            pieces, "piece 1 constraint 0.c[0]: malformed rational literal '0e5000'"
        )

    # A constraint is looked up by its raw text before anything else is
    # read; a damaged repeat of one that parsed must still fail as a first
    # reading of it does.
    @pytest.mark.parametrize(
        "first, repeat, message",
        [
            ({"c": ["1", "0"], "b": "0"}, {"c": "10", "b": "0"}, ".c: expected a list"),
            (
                {"c": ["1", "0"], "b": "0"},
                {"c": ["1", "0"], "b": 0},
                ".b: scalars must be strings, got 0",
            ),
            ({"c": ["1", "0"], "b": "0"}, {"c": ["1", "0"]}, ": missing key 'b'"),
            (
                {"c": ["1", "1"], "b": "0"},
                {"c": ["1", True], "b": "0"},
                ".c[1]: scalars must be strings, got True",
            ),
            (
                {"c": ["1", "0"], "b": "0"},
                {"c": [["1", "0"], "0"], "b": "0"},
                ".c[0]: scalars must be strings, got ['1', '0']",
            ),
            (
                {"c": ["1", "0"], "b": "0"},
                {"c": ["1", "0"], "b": ["0"]},
                ".b: scalars must be strings, got ['0']",
            ),
        ],
        ids=["c_string", "b_number", "b_missing", "c_bool", "c_nested", "b_list"],
    )
    def test_a_damaged_repeat_of_a_constraint(self, first, repeat, message):
        def piece(*constraints):
            return {"constraints": list(constraints), "M": [["1", "0"]], "b": ["0"]}

        self.assert_parse_error([piece(repeat)], "piece 0 constraint 0" + message)
        self.assert_parse_error([piece(first), piece(repeat)], "piece 1 constraint 0" + message)
        self.assert_parse_error([piece(first, repeat)], "piece 0 constraint 1" + message)

    def test_an_extra_key_in_a_constraint_is_ignored(self):
        plain = {"c": ["1", "0"], "b": "0"}
        extra = {**plain, "note": [1]}
        pieces = [
            {"constraints": [plain, extra], "M": [["1", "0"]], "b": ["0"]},
            {"constraints": [extra, plain], "M": [["1", "0"]], "b": ["0"]},
        ]
        doc = {"in_dim": 2, "out_dim": 1, "univalence": "unchecked", "pieces": pieces}
        fn = parse_pwa(json.dumps(doc))
        first, second = (piece.polyhedron.constraints for piece in fn.pieces)
        assert first == second == (LinearConstraint(ColVec([1, 0]), Fraction(0)),) * 2
        assert "note" not in serialize_pwa(fn)


def _second_piece(**change) -> str:
    piece = {"constraints": [{"c": ["1"], "b": "0"}], "M": [["1"]], "b": ["0"]}
    pieces = [piece, {**piece, **change}]
    return json.dumps({"in_dim": 1, "out_dim": 1, "univalence": "unchecked", "pieces": pieces})


def _linear_layer(**change) -> str:
    layer = {"kind": "linear", "weights": [["1", "0"], ["0", "1"]], "bias": ["0", "0"], **change}
    return json.dumps({"input_dim": 2, "output_dim": 2, "layers": [layer, {"kind": "output"}]})


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_pwa, _second_piece(M=[["x"]]), "piece 1.M[0][0]: malformed rational literal 'x'"),
        (parse_pwa, _second_piece(b=["1/0"]), "piece 1.b[0]: zero denominator in '1/0'"),
        (
            parse_network,
            _linear_layer(weights=[["1", "0"], ["0", 2]]),
            "layer 0.weights[1][1]: scalars must be strings, got 2",
        ),
        (
            parse_network,
            _linear_layer(bias=["0", "1e9999"]),
            "layer 0.bias[1]: malformed rational literal '1e9999'",
        ),
    ],
    ids=["M", "b", "weights", "bias"],
)
def test_a_bad_entry_is_located_inside_its_row(parse, text, message):
    with pytest.raises(ParseError) as raised:
        parse(text)
    assert str(raised.value) == message


class TestRoundTrip:
    def test_relu_nd(self):
        assert roundtrips_byte_identically(relu_nd(2))

    def test_compiled_example_network(self):
        fn = transform(parse_network(NETWORK_DOC))
        assert fn is not None
        assert roundtrips_byte_identically(fn)

    def test_zero_dims_and_zero_pieces(self):
        assert roundtrips_byte_identically(identity_pwaf(0))
        assert roundtrips_byte_identically(PwaFn(2, 1, ()))

    def test_parse_inverts_serialize_semantically(self):
        rng = random.Random(7701)
        fn = univalent_fn(rng, 2)
        back = parse_pwa(serialize_pwa(fn))
        assert (back.in_dim, back.out_dim) == (fn.in_dim, fn.out_dim)
        assert back.pieces == fn.pieces
        for _ in range(100):
            x = point(rng, 2)
            assert evaluate(back, x) == evaluate(fn, x)

    def test_random_functions(self):
        rng = random.Random(7702)
        for _ in range(40):
            fn = univalent_fn(rng, rng.randint(1, 3))
            assert roundtrips_byte_identically(fn)

    def test_serialized_form_is_stable(self):
        fn = relu_1d()
        assert serialize_pwa(fn) == serialize_pwa(fn)
        assert serialize_pwa(fn).endswith("\n")


def _writer_corpus():
    """Compiles of random_network prefixes and of dense 2-3-3, 2-4-4 and
    3-4-4-2 networks, restricted_affine pieces and univalent_fn functions."""
    rng = random.Random(7705)
    built = []
    for _ in range(30):
        net = random_network(rng)
        dim = net.input_dim
        for cut, layer in enumerate(net.layers):
            prefix = net.layers[:cut] + (OutputLayer(dim),)
            built.append(transform(Network(net.input_dim, dim, prefix)))
            dim = layer.out_dim
    for widths in [(2, 3, 3), (2, 4, 4), (3, 4, 4, 2)]:
        built.append(transform(dense_network(rng, widths)))
    for k in range(30):
        built.append(restricted_affine(rng, rng.randint(0, 3), k % 4))
        built.append(univalent_fn(rng, rng.randint(1, 3)))
    return built


_NOWHERE = Polyhedron(0, (LinearConstraint(ColVec([]), Fraction(-1)),))
_ROW = ColVec([1, -1])
_STRIP = Polyhedron(2, (LinearConstraint(_ROW, Fraction(1)), LinearConstraint(_ROW, Fraction(2))))
_EDGE_SHAPES = {
    "no_pieces": PwaFn(2, 1, ()),
    "no_pieces_no_dims": PwaFn(0, 0, ()),
    "in_dim_0": linear_pwaf(Mat([[], []]), ColVec(["1", "-1/2"])),
    "in_dim_0_constrained": single_piece(_NOWHERE, Mat([[]])),
    "out_dim_0": linear_pwaf(Mat([], cols=2), ColVec([])),
    "out_dim_0_constrained": single_piece(_STRIP),
    "one_row_two_bounds": single_piece(_STRIP, Mat([_ROW.entries, _ROW.entries])),
    "no_dims": identity_pwaf(0),
    "no_constraints": identity_pwaf(2),
    **{tag: PwaFn(1, 1, relu_1d().pieces, tag) for tag in (UNCHECKED, VERIFIED, REFUTED)},
}


class TestWriterMatchesJsonDumps:
    """serialize_pwa writes the bytes of the json.dumps writer it replaced."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _writer_corpus()

    @pytest.mark.parametrize("form", ["built", "pruned", "parsed"])
    def test_corpus(self, corpus, form):
        for fn in corpus:
            if form == "pruned":
                fn = prune_empty(fn)
            elif form == "parsed":
                fn = parse_pwa(json_serialize_pwa(fn))
            assert serialize_pwa(fn) == json_serialize_pwa(fn)
        assert len(corpus) >= 150 and max(len(fn.pieces) for fn in corpus) == 1024

    @pytest.mark.parametrize("fn", _EDGE_SHAPES.values(), ids=_EDGE_SHAPES.keys())
    def test_edge_shapes(self, fn):
        assert serialize_pwa(fn) == json_serialize_pwa(fn)
        assert serialize_pwa(parse_pwa(serialize_pwa(fn))) == json_serialize_pwa(fn)


def _too_long_fns():
    """One rational past the digit limit, in a constraint two pieces share,
    in a map row two pieces share, and in an offset."""
    huge = Fraction(10) ** sys.get_int_max_str_digits()
    zero = Fraction(0)
    ok = LinearConstraint(ColVec([1, 0]), zero)
    shared = LinearConstraint(ColVec([1, 1]), 1 / huge)
    row = (huge, zero)

    def fn(*pieces):
        return PwaFn(2, 1, pieces)

    def piece(*constraints, m=Mat([[1, 0]]), b=ColVec([0])):
        return AffinePiece(Polyhedron(2, constraints), m, b)

    return {
        "constraint": fn(piece(ok), piece(ok, shared), piece(shared)),
        "map_row": fn(piece(ok), piece(ok, m=Mat([row])), piece(m=Mat([row]))),
        "offset": fn(piece(ok), piece(ok, b=ColVec([-huge]))),
    }


_TOO_LONG = _too_long_fns()


@pytest.mark.parametrize("fn", _TOO_LONG.values(), ids=_TOO_LONG.keys())
def test_a_rational_too_long_to_write_raises_as_before(fn):
    with pytest.raises(ScalarTooLong) as expected:
        json_serialize_pwa(fn)
    for _ in range(2):
        with pytest.raises(ScalarTooLong, match=f"^{re.escape(str(expected.value))}$"):
            serialize_pwa(fn)


def _oracle_compiles():
    """Compiles of the 40 random chains and of a dense 2-3-3-2 network."""
    rng = random.Random(7703)
    nets = [random_network(rng) for _ in range(40)]
    nets.append(dense_network(random.Random(7704), (2, 3, 3, 2)))
    return [transform(net) for net in nets]


class TestParseTables:
    """parse_pwa reads each distinct literal and row once per document."""

    @pytest.fixture(scope="class")
    def compiles(self):
        return _oracle_compiles()

    def test_pieces_equal_a_raw_reading(self, compiles):
        for fn in compiles:
            text = serialize_pwa(fn)
            in_dim, out_dim, raw = read_pwa(text)
            parsed = parse_pwa(text)
            assert (parsed.in_dim, parsed.out_dim) == (in_dim, out_dim)
            assert len(parsed.pieces) == len(raw)
            for piece, (cons, m, b) in zip(parsed.pieces, raw):
                got = [(list(lc.c), lc.b) for lc in piece.polyhedron.constraints]
                assert got == cons
                assert [list(row) for row in piece.M.entries] == m
                assert list(piece.b) == b

    def test_pieces_and_sharing_match_the_careful_reader(self, compiles):
        for fn in compiles:
            text = serialize_pwa(fn)
            assert _read(parse_pwa, text) == _read(careful_parse_pwa, text)
        # The dense compile reads most of its items from the table.
        sharing = _read(parse_pwa, text)[1]
        assert len(set(sharing)) < len(sharing) // 4

    @pytest.mark.parametrize("assert_domain", [False, True])
    def test_smt_bytes_match_a_fresh_rendering(self, compiles, assert_domain):
        for fn in compiles:
            text = serialize_pwa(fn)
            expected = smt_reference(text, assert_domain)
            assert export_smt(fn, assert_domain) == expected
            assert export_smt(parse_pwa(text), assert_domain) == expected

    def test_repeated_rows_are_one_object(self, compiles):
        parsed = parse_pwa(serialize_pwa(compiles[-1]))
        objects = {}
        count = 0
        for piece in parsed.pieces:
            for lc in piece.polyhedron.constraints:
                count += 1
                for value in (lc, lc.c, lc.b):
                    assert objects.setdefault((type(value), value), value) is value
            for value in (piece.b, *piece.b, *(e for row in piece.M.entries for e in row)):
                assert objects.setdefault((type(value), value), value) is value
        # The compile does repeat itself, so the checks above were not vacuous.
        distinct = sum(1 for kind, _ in objects if kind is LinearConstraint)
        assert distinct < count // 4

    def test_matrix_rows_are_the_readers_rows(self, compiles):
        # A map row is the very tuple of the ColVec the reader built for
        # that text, whether the text came as a map row, a constraint row or
        # an offset.
        parsed = parse_pwa(serialize_pwa(compiles[-1]))
        rows = {}
        for piece in parsed.pieces:
            for lc in piece.polyhedron.constraints:
                rows.setdefault(lc.c.entries, lc.c.entries)
            rows.setdefault(piece.b.entries, piece.b.entries)
        m_rows = [row for piece in parsed.pieces for row in piece.M.entries]
        for row in m_rows:
            assert rows.setdefault(row, row) is row
        assert len({id(row) for row in m_rows}) < len(m_rows) // 4

    def test_matrices_equal_the_checked_constructors(self, compiles):
        # The reader builds each Mat without Mat's checks, from rows it has
        # already read and width-checked; each must equal the Mat that the
        # checked constructor builds from the same rows.
        edge = [
            '{"in_dim": 2, "out_dim": 0, "univalence": "unchecked", '
            '"pieces": [{"constraints": [], "M": [], "b": []}]}',
            '{"in_dim": 0, "out_dim": 2, "univalence": "unchecked", '
            '"pieces": [{"constraints": [], "M": [[], []], "b": ["1", "-1/2"]}]}',
        ]
        mats = [
            piece.M
            for text in [serialize_pwa(fn) for fn in compiles] + edge
            for piece in parse_pwa(text).pieces
        ]
        mats.append(parse_network(NETWORK_DOC).layers[0].fn.pieces[0].M)
        assert {(m.rows, m.cols) for m in mats} >= {(2, 0), (0, 2), (2, 2)}
        for m in mats:
            checked = Mat(m.entries, cols=m.cols)
            assert type(m) is Mat
            assert (m, m.rows, m.cols, m.entries) == (
                checked, checked.rows, checked.cols, checked.entries
            )


class TestExportSmt:
    def test_header_declares_logic_and_variables(self):
        text = export_smt(linear_pwaf(Mat([["1", "0"]]), ColVec(["0"])))
        lines = text.splitlines()
        assert lines[0] == "(set-logic QF_LRA)"
        assert "(declare-const x_0 Real)" in lines
        assert "(declare-const x_1 Real)" in lines
        assert "(declare-const y_0 Real)" in lines
        assert "check-sat" not in text

    def test_identity_emits_bare_variable_equation(self):
        text = export_smt(identity_pwaf(1))
        assert "(assert (=> true (= y_0 x_0)))" in text.splitlines()

    def test_relu_script_exactly(self):
        text = export_smt(relu_1d())
        assert text == (
            "(set-logic QF_LRA)\n"
            "(declare-const x_0 Real)\n"
            "(declare-const y_0 Real)\n"
            "(assert (=> (<= x_0 0) (= y_0 0)))\n"
            "(assert (=> (<= (* (- 1) x_0) 0) (= y_0 x_0)))\n"
        )

    def test_rational_rendering(self):
        fn = linear_pwaf(Mat([["27/10", "-27/10"]]), ColVec(["-3"]))
        text = export_smt(fn)
        assert (
            "(= y_0 (+ (* (/ 27 10) x_0) (* (- (/ 27 10)) x_1) (- 3)))" in text
        )

    def test_one_implication_per_piece(self):
        fn = relu_nd(3)
        text = export_smt(fn)
        assert text.count("(assert (=>") == len(fn.pieces) == 8

    def test_whole_script_is_well_formed(self):
        rng = random.Random(7703)
        for _ in range(10):
            fn = univalent_fn(rng, rng.randint(1, 3))
            text = export_smt(fn, assert_domain=rng.random() < 0.5)
            forms = parse_sexprs(text)
            assert forms[0] == ["set-logic", "QF_LRA"]
            for form in forms:
                assert isinstance(form, list)
                assert form[0] in ("set-logic", "declare-const", "assert")

    def test_assert_domain_appends_a_disjunction(self):
        plain = export_smt(relu_1d())
        with_domain = export_smt(relu_1d(), assert_domain=True)
        assert with_domain.startswith(plain)
        extra = with_domain[len(plain):]
        assert extra == "(assert (or (<= x_0 0) (<= (* (- 1) x_0) 0)))\n"

    def test_assert_domain_of_nowhere_defined_function_is_false(self):
        text = export_smt(PwaFn(1, 1, ()), assert_domain=True)
        assert "(assert false)" in text

    def test_multirow_piece_conjoins_outputs(self):
        fn = identity_pwaf(2)
        text = export_smt(fn)
        assert "(assert (=> true (and (= y_0 x_0) (= y_1 x_1))))" in text

    def test_empty_domain_condition_of_single_constraint(self):
        poly = Polyhedron(1, (LinearConstraint(ColVec(["2"]), Fraction(3)),))
        fn = PwaFn(1, 1, (AffinePiece(poly, Mat([["1"]]), ColVec(["0"])),))
        text = export_smt(fn)
        assert "(assert (=> (<= (* 2 x_0) 3) (= y_0 x_0)))" in text

    def test_export_is_deterministic(self):
        rng = random.Random(7704)
        fn = univalent_fn(rng, 2)
        assert export_smt(fn) == export_smt(fn)


# Literals parse_scalar accepts, in canonical and non-canonical spellings.
_LITERALS = st.one_of(
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-8, 8)),
    st.sampled_from(["0", "-0", "+3", "0.50", "2/4", " 7 ", "-2.75", "1E2"]),
)
# An explicit alphabet: a default st.text() would first build a Unicode
# table, seconds of work that trip hypothesis's slow-generation check.
_CHARS = '0123456789+-/.eEnaif _x{}[]":,\\'
# Scalar texts, mostly broken ones.
_TEXTS = st.one_of(
    _LITERALS,
    st.sampled_from(["1/0", "1e5000", "nan", "inf", "", "1//2", "0x10", "1_0"]),
    st.text(_CHARS, max_size=6),
)
_KEYS = st.sampled_from(
    ["kind", "dim", "in_dim", "out_dim", "weights", "bias", "constraints", "c", "b", "M"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=False) | _TEXTS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_KEYS | st.text(_CHARS, max_size=3), kids, max_size=3),
    max_leaves=8,
)
_DIMS = st.integers(0, 3)


def _scalars(scalar, size):
    return st.lists(scalar, min_size=size, max_size=size)


@st.composite
def _pwa_docs(draw, scalar=_LITERALS):
    """A PWA document with every shape right and scalars drawn from scalar."""
    n, m = draw(_DIMS), draw(_DIMS)
    piece = st.fixed_dictionaries(
        {
            "constraints": st.lists(
                st.fixed_dictionaries({"c": _scalars(scalar, n), "b": scalar}), max_size=3
            ),
            "M": st.lists(_scalars(scalar, n), min_size=m, max_size=m),
            "b": _scalars(scalar, m),
        }
    )
    return {
        "in_dim": n,
        "out_dim": m,
        "univalence": draw(st.sampled_from([UNCHECKED, VERIFIED, REFUTED])),
        "pieces": draw(st.lists(piece, max_size=3)),
    }


@st.composite
def _network_docs(draw, scalar=_TEXTS):
    """A network document of loosely right shapes and scalar texts."""
    linear = st.fixed_dictionaries(
        {
            "kind": st.just("linear"),
            "weights": st.lists(st.lists(scalar, max_size=3), max_size=3),
            "bias": st.lists(scalar, max_size=3),
        }
    )
    relu = st.fixed_dictionaries(
        # A relu is read as its width alone, so 13, 24 and 10**9 parse as fast as 3.
        {"kind": st.just("relu"), "dim": st.sampled_from([0, 1, 2, 3, 13, 24, 10**9])}
    )
    unknown = st.fixed_dictionaries(
        {"kind": st.just("unknown"), "in_dim": _DIMS, "out_dim": _DIMS}
    )
    other = st.fixed_dictionaries({"kind": st.sampled_from(["output", "conv"])})
    layers = st.lists(linear | relu | unknown | other, max_size=4)
    return {"input_dim": draw(_DIMS), "output_dim": draw(_DIMS), "layers": draw(layers)}


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def _damaged(draw, docs):
    """A drawn document, its text, with up to two nodes replaced or deleted."""
    doc = draw(docs)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = draw(_JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON)
    return json.dumps(doc)


_FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))


class TestParserFuzz:
    """Drawn documents end in the documented errors, never anything else."""

    @_FUZZ
    @given(_damaged(_network_docs()) | st.text(_CHARS, max_size=40))
    def test_parse_network_raises_only_documented_errors(self, text):
        try:
            parse_network(text)
        except (ParseError, DimensionError):
            pass

    @_FUZZ
    @given(_damaged(_pwa_docs(scalar=_TEXTS)) | st.text(_CHARS, max_size=40))
    def test_parse_pwa_raises_only_documented_errors(self, text):
        try:
            parse_pwa(text)
        except (ParseError, DimensionError):
            pass

    @_FUZZ
    @given(_pwa_docs())
    def test_valid_documents_round_trip(self, doc):
        once = serialize_pwa(parse_pwa(json.dumps(doc)))
        assert serialize_pwa(parse_pwa(once)) == once

    @_FUZZ
    @given(_pwa_docs())
    def test_valid_documents_write_as_json_dumps(self, doc):
        fn = parse_pwa(json.dumps(doc))
        assert serialize_pwa(fn) == json_serialize_pwa(fn)


# A few spellings, so that drawn documents repeat their rows and constraints
# and parse_pwa reads most items from its table.
_REPEATS = st.sampled_from(["0", "1", "-1", "1/2", "-0.5"])


@st.composite
def _repeating_docs(draw, scalar=_REPEATS):
    """A valid PWA document whose pieces take their constraints, map rows and
    offsets from a small pool, so that most items repeat earlier text."""
    n, m = draw(_DIMS), draw(_DIMS)
    rows = draw(st.lists(_scalars(scalar, n), min_size=1, max_size=2))
    offsets = draw(st.lists(_scalars(scalar, m), min_size=1, max_size=2))
    bounds = draw(st.lists(scalar, min_size=1, max_size=2))

    def pick(pool):
        return list(draw(st.sampled_from(pool)))

    def piece():
        constraints = [
            {"c": pick(rows), "b": draw(st.sampled_from(bounds))}
            for _ in range(draw(st.integers(0, 3)))
        ]
        return {"constraints": constraints, "M": [pick(rows) for _ in range(m)], "b": pick(offsets)}

    pieces = [piece() for _ in range(draw(st.integers(1, 4)))]
    return {"in_dim": n, "out_dim": m, "univalence": UNCHECKED, "pieces": pieces}


def _read(parse, text):
    """What parse makes of text: the function with the sharing of its value
    objects (each as the index of its first appearance), or the error."""
    try:
        fn = parse(text)
    except (ParseError, DimensionError) as exc:
        return type(exc), str(exc)
    objects = []
    for piece in fn.pieces:
        for lc in piece.polyhedron.constraints:
            objects += [lc, lc.c, *lc.c.entries, lc.b]
        objects += [piece.M, *piece.M.entries, *(e for row in piece.M.entries for e in row)]
        objects += [piece.b, *piece.b.entries]
    first = {}
    sharing = [first.setdefault(id(obj), len(first)) for obj in objects]
    return (fn.in_dim, fn.out_dim, fn.univalence, fn.claimed, fn.pieces), sharing


@st.composite
def _mangled(draw, docs):
    """A drawn document, its text, with up to two nodes turned into a near
    miss of text it repeats: a list of strings joined into one string or
    made the keys of an object, a list one entry short or long or nested
    one level deeper, or a string made a number."""
    doc = draw(docs)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_nodes(doc["pieces"], ("pieces",)))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if isinstance(node, list) and all(isinstance(v, str) for v in node):
            options = ["".join(node), dict.fromkeys(node, 1), node[:-1], node + node[:1], [node]]
        elif isinstance(node, str):
            options = [0, float(len(node)), [node]]
        else:
            options = [node[:-1] if isinstance(node, list) else node, "".join(map(str, path))]
        parent[path[-1]] = draw(st.sampled_from(options))
    return json.dumps(doc)


def _doc(n, m, pieces) -> str:
    """A document of pieces given as (constraints, M, b), each constraint
    as the text of its c entries and then its b, one character each."""
    return json.dumps(
        {
            "in_dim": n,
            "out_dim": m,
            "univalence": UNCHECKED,
            "pieces": [
                {"constraints": [{"c": [*cb[:-1]], "b": cb[-1]} for cb in cs], "M": rows, "b": b}
                for cs, rows, b in pieces
            ],
        }
    )


class TestReaderOracle:
    """parse_pwa reads each document as the careful reader alone does."""

    @settings(derandomize=True, database=None, max_examples=600, deadline=timedelta(seconds=5))
    # Near misses of a row read before at another width, or as a string.
    @example(_doc(2, 1, [(["100"], [["1", "0"]], ["1"]), (["100"], [["1"]], ["1"])]))
    @example(_doc(2, 1, [(["100"], [["1", "0"]], ["1"]), (["100"], [["1", "0"]], ["1", "0"])]))
    @example(_doc(2, 2, [([], [["1", "0"], ["0", "1"]], ["1", "0"]), ([], [["0", "1"]] * 2, "10")]))
    @example(_doc(2, 1, [([], [["1", "0"]], ["1"]), ([], ["10"], ["1"])]))
    @example(_doc(2, 1, [([], [["1", "0"]], ["1"]), ([], [{"1": 0, "0": 0}], ["1"])]))
    @given(
        _repeating_docs().map(json.dumps)
        | _mangled(_repeating_docs())
        | _damaged(_repeating_docs(_REPEATS | _TEXTS))
        | _damaged(_pwa_docs(scalar=_TEXTS))
    )
    def test_pieces_sharing_and_errors_match(self, text):
        assert _read(parse_pwa, text) == _read(careful_parse_pwa, text)


# Scalars a writer must render with care: zero terms are dropped, a unit
# coefficient is the bare variable, and a negative one is wrapped in (- ...).
_HOSTILE = st.sampled_from([0, 1, -1, 2, -3, Fraction(-1, 2), Fraction(-27, 10), Fraction(5, 3)])
_HOSTILE_SCALARS = _HOSTILE.map(Fraction) | st.fractions(-20, 20, max_denominator=12)


@st.composite
def _hostile_fns(draw, least=0):
    """A function whose pieces share constraint, row and scalar objects,
    with at least least input and output dims and pieces."""
    n, m = draw(st.integers(least, 3)), draw(st.integers(least, 3))
    scalars = draw(st.lists(_HOSTILE_SCALARS, min_size=1, max_size=6))

    def entries(k):
        return [draw(st.sampled_from(scalars)) for _ in range(k)]

    pool = [
        LinearConstraint(ColVec(entries(n)), entries(1)[0]) for _ in range(draw(st.integers(1, 3)))
    ]
    rows = [tuple(entries(n)) for _ in range(draw(st.integers(1, 3)))]
    pieces = []
    for _ in range(draw(st.integers(least, 3))):
        constraints = draw(st.lists(st.sampled_from(pool), min_size=least, max_size=3))
        m_rows = [draw(st.sampled_from(rows)) for _ in range(m)]
        pieces.append(
            AffinePiece(Polyhedron(n, tuple(constraints)), Mat(m_rows, cols=n), ColVec(entries(m)))
        )
    return PwaFn(n, m, tuple(pieces), draw(st.sampled_from([UNCHECKED, VERIFIED, REFUTED])))


def _with_huge(fn: PwaFn, where: str, huge: Fraction) -> PwaFn:
    """fn with huge in piece 0: in a constraint's c or b, or in M or the offset."""
    first, *rest = fn.pieces
    cons, m, b = first.polyhedron.constraints, first.M.entries, first.b.entries
    if where in ("c", "b"):
        c = (huge, *cons[0].c.entries[1:]) if where == "c" else cons[0].c.entries
        cons = cons + (LinearConstraint(ColVec(c), huge if where == "b" else Fraction(0)),)
    elif where == "M":
        m = ((huge, *m[0][1:]), *m[1:])
    else:
        b = (huge, *b[1:])
    piece = AffinePiece(Polyhedron(fn.in_dim, cons), Mat(m, cols=fn.in_dim), ColVec(b))
    return PwaFn(fn.in_dim, fn.out_dim, (piece, first, *rest))


class TestWritersOnHostileValues:
    """Both writers match their references on zero, unit and negative values."""

    @_FUZZ
    @given(_hostile_fns())
    def test_writers_match_their_references(self, fn):
        text = json_serialize_pwa(fn)
        assert serialize_pwa(fn) == text
        for assert_domain in (False, True):
            expected = smt_reference(text, assert_domain)
            assert export_smt(fn, assert_domain) == expected
            assert export_smt(parse_pwa(text), assert_domain) == expected

    @pytest.mark.parametrize("where", ["c", "b", "M", "offset"])
    @settings(derandomize=True, database=None, max_examples=25, deadline=timedelta(seconds=5))
    @given(fn=_hostile_fns(least=1), sign=st.sampled_from([1, -1]), inverse=st.booleans())
    def test_a_rational_too_long_to_write(self, where, fn, sign, inverse):
        huge = sign * Fraction(10) ** sys.get_int_max_str_digits()
        fn = _with_huge(fn, where, 1 / huge if inverse else huge)
        with pytest.raises(ScalarTooLong) as expected:
            format_scalar(huge)
        message = f"^{re.escape(str(expected.value))}$"
        for write in (json_serialize_pwa, serialize_pwa, export_smt, lambda f: export_smt(f, True)):
            with pytest.raises(ScalarTooLong, match=message):
                write(fn)


# Literals that parse but whose results may pass the 4,300-digit limit on
# writing an int as text: 10^4300 has 4,301 digits, and 10^3000 squared
# has 6,001.
_HUGE = st.sampled_from(["1e4300", "-1e4300", "1e-4300", "1e3000"])
_ANY_SCALAR = _TEXTS | _HUGE
# Document bytes: mostly UTF-8, sometimes behind bytes no UTF-8 text starts with.
_PREFIXES = st.sampled_from([b""] * 4 + [b"\xff\xfe", b"\x80"])
# Placeholders for the input and output paths in a drawn command line.
_IN, _OUT = object(), object()
_COMMANDS = [
    ("compile", "--network"),
    ("eval", "--network"),
    ("eval", "--pwa"),
    ("check", "--pwa"),
    ("regions", "--pwa"),
    ("export-smt", "--pwa"),
]
# The commands that write --out, with their one optional switch.
_SWITCHES = {"compile": "--prune", "export-smt": "--assert-domain"}


def _documented_exit_codes() -> set[int]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = re.findall(r"^\| (\d+) \|", readme.read_text(encoding="utf-8"), re.M)
    return {int(code) for code in table}


def _linear_chain(*weights: str) -> bytes:
    layers = [{"kind": "linear", "weights": [[w]], "bias": ["0"]} for w in weights]
    doc = {"input_dim": 1, "output_dim": 1, "layers": layers + [{"kind": "output"}]}
    return json.dumps(doc).encode()


@st.composite
def _chain_docs(draw, scalar):
    """A network document whose layer chain type-checks (at most 64 pieces)."""
    dim = input_dim = draw(st.integers(1, 2))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.sampled_from(["linear", "relu"])) == "linear":
            rows = draw(st.integers(1, 2))
            weights = draw(st.lists(_scalars(scalar, dim), min_size=rows, max_size=rows))
            bias = draw(_scalars(scalar, rows))
            layers.append({"kind": "linear", "weights": weights, "bias": bias})
            dim = rows
        else:
            layers.append({"kind": "relu", "dim": dim})
    return {"input_dim": input_dim, "output_dim": dim, "layers": layers + [{"kind": "output"}]}


@st.composite
def _cli_runs(draw):
    """(argv with _IN/_OUT placeholders, input file bytes) for one drawn subcommand."""
    command, flag = draw(st.sampled_from(_COMMANDS))
    if flag == "--network":
        valid, loose = _chain_docs(_HUGE | _LITERALS), _network_docs(_ANY_SCALAR)
    else:
        valid, loose = _pwa_docs(_HUGE | _LITERALS), _pwa_docs(_ANY_SCALAR)
    doc = valid.map(json.dumps) | _damaged(valid) | _damaged(loose)
    data = draw(_PREFIXES) + draw(doc | st.text(_CHARS, max_size=40)).encode()
    argv = [command, flag, _IN]
    if command == "eval":
        argv.append("--point=" + ",".join(draw(st.lists(_HUGE | _LITERALS, max_size=3))))
    elif command in _SWITCHES:
        argv += ["--out", _OUT] + draw(st.sampled_from([[], [_SWITCHES[command]]]))
    return argv, data


class TestCliFuzz:
    """Every subcommand on drawn input ends in a documented exit code.

    Errors are one stderr line without a traceback, and a failed compile or
    export leaves no output file.
    """

    @settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=5))
    @given(_cli_runs())
    # The reported repros, which the drawn runs need not reach.
    @example((["compile", "--network", _IN, "--out", _OUT], _linear_chain("1e3000", "1e3000")))
    @example((["eval", "--pwa", _IN, "--point=1e4300"], scaling_doc("1").encode()))
    @example((["export-smt", "--pwa", _IN, "--out", _OUT], scaling_doc("1e4300").encode()))
    @example((["check", "--pwa", _IN], b"\xff\xfe" + scaling_doc("1").encode()))
    def test_exit_code_is_documented_and_errors_are_one_line(self, run):
        argv, data = run
        with tempfile.TemporaryDirectory() as tmp:
            source, out = Path(tmp, "in.json"), Path(tmp, "out")
            source.write_bytes(data)
            paths = {_IN: str(source), _OUT: str(out)}
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([paths.get(arg, arg) for arg in argv])
            written = out.exists()
        err = stderr.getvalue()
        assert code in _documented_exit_codes()
        if code in (0, 5):
            # A univalence violation (5) is an answer on stdout, not an error.
            assert err == "" and (code == 0 or stdout.getvalue().startswith("violation: "))
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err and not written
