"""Exact scalar parsing and vector/matrix arithmetic."""

import random
import sys
from datetime import timedelta
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwanet.numeric import (
    ColVec,
    DimensionError,
    Mat,
    as_scalar,
    dot,
    format_scalar,
    identity,
    mat_mul,
    mat_vec_mul,
    parse_scalar,
    scaled_ints,
    vec_add,
    vec_scale,
    zeros_vec,
)

from pwanet.polyhedra import full_space
from pwanet.pwa import evaluate, identity_pwaf
from pwanet.pwa_algebra import concat

from genutil import colvec_of, mat_of, single_piece
import oracles


class TestParseScalar:
    def test_decimal_string_parses_exactly(self):
        assert parse_scalar("2.7") == Fraction(27, 10)
        assert parse_scalar("0.01") == Fraction(1, 100)
        assert parse_scalar("-0.25") == Fraction(-1, 4)

    def test_fraction_string(self):
        assert parse_scalar("-1/3") == Fraction(-1, 3)
        assert parse_scalar("6/4") == Fraction(3, 2)

    def test_integer_string(self):
        assert parse_scalar("5") == Fraction(5)
        assert parse_scalar("-12") == Fraction(-12)

    def test_surrounding_whitespace(self):
        assert parse_scalar("  2.7\n") == Fraction(27, 10)

    @pytest.mark.parametrize(
        "bad",
        # Underscores and "p / q" parse on some Python versions only, and
        # non-ASCII digits on all of them; the literal grammar refuses them.
        ["", "abc", "1/2/3", "2.7.1", "1 2", "1_000", "1e2_0", "1 / 3", "\u0661", "\uff11"],
    )
    def test_malformed_literal(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    def test_exponent_within_the_bound(self):
        assert parse_scalar("1e4300") == Fraction(10**4300)
        assert parse_scalar("-2.5E-4300") == Fraction(-25, 10**4301)

    @pytest.mark.parametrize(
        "bad", ["1e4301", "1E-4301", "1e2000000", "-3.5e+2000000", "1e" + "9" * 5000]
    )
    def test_exponent_beyond_the_bound_is_malformed(self, bad):
        with pytest.raises(ValueError, match="malformed rational literal"):
            parse_scalar(bad)

    # Integers and p/q in ASCII digits, with at most a leading "-", skip the
    # regex; every other text takes it. Both must agree on every text.
    @settings(derandomize=True, database=None, max_examples=500, deadline=timedelta(seconds=5))
    @given(
        st.text("0123456789-+/ ._eE\u0661\uff11\u00b2", max_size=8)
        | st.builds("{}/{}".format, st.integers(-(10**9), 10**9), st.integers(-3, 10**9))
        | st.integers(-(10**30), 10**30).map(str)
    )
    # A numerator, or a denominator, past the digit limit, and a zero one.
    @example("1" * (sys.get_int_max_str_digits() + 1))
    @example("-1" + "0" * sys.get_int_max_str_digits() + "/0")
    @example("1/" + "1" * (sys.get_int_max_str_digits() + 1))
    @example("-0/0")
    @example("00/007")
    def test_the_literal_fast_path_agrees_with_the_regex(self, text):
        def outcome(parse):
            try:
                q = parse(text)
            except ValueError as exc:
                return "error", str(exc)
            return type(q), q

        assert outcome(parse_scalar) == outcome(oracles.regex_parse_scalar)

    def test_format_is_canonical(self):
        assert format_scalar(parse_scalar("0.50")) == "1/2"
        assert format_scalar(parse_scalar("27/10")) == "27/10"
        assert format_scalar(parse_scalar("-8/4")) == "-2"
        assert format_scalar(0) == "0"


class TestScalarCoercion:
    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            as_scalar(2.7)
        with pytest.raises(TypeError):
            ColVec([0.5])
        with pytest.raises(TypeError):
            Mat([[1.5]])

    def test_int_string_fraction_accepted(self):
        assert as_scalar(3) == Fraction(3)
        assert as_scalar("2.7") == Fraction(27, 10)
        assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)


class TestColVec:
    def test_entries_become_fractions(self):
        v = ColVec([1, "2.5", Fraction(1, 3)])
        assert v.entries == (Fraction(1), Fraction(5, 2), Fraction(1, 3))
        assert v.dim == 3

    def test_equality_and_hash(self):
        assert ColVec([1, 2]) == ColVec(["1", "2"])
        assert ColVec([1]) != ColVec([1, 0])
        assert hash(ColVec([1, 2])) == hash(ColVec([Fraction(1), Fraction(2)]))

    def test_empty_vector(self):
        assert ColVec().dim == 0
        assert list(ColVec()) == []


class TestMat:
    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            Mat([[1, 2], [3]])

    def test_no_rows_needs_explicit_width(self):
        with pytest.raises(DimensionError):
            Mat([])
        m = Mat([], cols=3)
        assert (m.rows, m.cols) == (0, 3)

    def test_zero_width_rows(self):
        m = Mat([[], [], []])
        assert (m.rows, m.cols) == (3, 0)

    def test_shape_is_part_of_equality(self):
        assert Mat([], cols=2) != Mat([], cols=3)
        assert Mat([[1, 2]]) == Mat([["1", "2"]])

    def test_declared_cols_must_match(self):
        with pytest.raises(DimensionError):
            Mat([[1, 2]], cols=3)

    def test_fraction_tuple_rows_are_kept_and_other_rows_coerced(self):
        row = (Fraction(1), Fraction(-2, 3))
        m = Mat([row, [1, "2/3"], ("-1", Fraction(5)), (7, 8)])
        assert m.entries[0] is row
        assert m.entries == (
            (1, Fraction(-2, 3)),
            (1, Fraction(2, 3)),
            (-1, 5),
            (7, 8),
        )
        assert all(type(e) is Fraction for r in m.entries for e in r)
        with pytest.raises(TypeError):
            Mat([(Fraction(1), 0.5)])


class TestDot:
    def test_known_value(self):
        assert dot(ColVec([1, 2]), ColVec([3, 4])) == Fraction(11)

    def test_empty_product_is_zero(self):
        assert dot(ColVec(), ColVec()) == Fraction(0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dot(ColVec([1]), ColVec([1, 2]))


def _huge_or_small(rng: random.Random) -> Fraction:
    """Small rationals, zeros, and ones with 40-digit parts, any sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40))


def _matrix(rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat(([_huge_or_small(rng) for _ in range(cols)] for _ in range(rows)), cols=cols)


class TestIntegerKernels:
    """The integer dot kernels against raw Fraction loops, entry for entry."""

    SHAPES = [(0, 0, 0), (0, 2, 3), (2, 0, 3), (2, 3, 0), (1, 1, 1), (3, 4, 2), (4, 2, 5)]

    def test_scaled_ints(self):
        assert scaled_ints(()) == (1, [])
        den, ints = scaled_ints([Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5)])
        assert (den, ints) == (12, [2, -9, 0, 60])
        rng = random.Random(1104)
        entries = [_huge_or_small(rng) for _ in range(8)]
        den, ints = scaled_ints(entries)
        assert den == lcm(*(e.denominator for e in entries))
        assert [Fraction(a, den) for a in ints] == entries

    def test_dot(self):
        rng = random.Random(1105)
        for dim in (0, 1, 2, 5, 9):
            for _ in range(10):
                v = ColVec(_huge_or_small(rng) for _ in range(dim))
                w = ColVec(_huge_or_small(rng) for _ in range(dim))
                assert dot(v, w) == oracles.dot(v, w)

    @pytest.mark.parametrize("rows, inner, cols", SHAPES)
    def test_mat_mul(self, rows, inner, cols):
        rng = random.Random(1106 + rows * 100 + inner * 10 + cols)
        for _ in range(5):
            a = _matrix(rng, rows, inner)
            b = _matrix(rng, inner, cols)
            naive = [
                [oracles.dot(a.entries[i], [row[j] for row in b.entries]) for j in range(cols)]
                for i in range(rows)
            ]
            product = mat_mul(a, b)
            assert (product.rows, product.cols) == (rows, cols)
            assert product == Mat(naive, cols=cols)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 3)])
    def test_mat_vec_mul(self, rows, cols):
        rng = random.Random(1107 + rows * 10 + cols)
        for _ in range(5):
            m = _matrix(rng, rows, cols)
            x = ColVec(_huge_or_small(rng) for _ in range(cols))
            assert mat_vec_mul(m, x) == ColVec(oracles.dot(row, x) for row in m.entries)


class TestVectorOps:
    def test_add_sub_scale(self):
        v = ColVec([1, "1/2"])
        w = ColVec(["1/3", 2])
        assert vec_add(v, w) == ColVec([Fraction(4, 3), Fraction(5, 2)])
        assert vec_scale(-2, v) == ColVec([-2, -1])

    def test_mismatches_raise(self):
        with pytest.raises(DimensionError):
            vec_add(ColVec([1]), ColVec([1, 2]))

    def test_concat_and_extend(self):
        # A stacked point is its halves' entries end to end; concat of two
        # identities maps it to itself, a zero-dim half included.
        for top, bottom in (
            (ColVec([1]), ColVec([2, 3])),
            (ColVec([1, 2]), zeros_vec(2)),
            (zeros_vec(2), ColVec([1, 2])),
            (ColVec([1]), zeros_vec(0)),
        ):
            joint = ColVec(top.entries + bottom.entries)
            assert joint.dim == top.dim + bottom.dim
            assert joint.entries[: top.dim] == top.entries
            stacked = concat(identity_pwaf(top.dim), identity_pwaf(bottom.dim))
            assert evaluate(stacked, joint) == joint


class TestMatrixOps:
    def test_identity_multiplication(self):
        m = Mat([[1, 2], [3, 4]])
        assert mat_mul(identity(2), m) == m
        assert mat_mul(m, identity(2)) == m
        assert mat_vec_mul(identity(2), ColVec([5, 7])) == ColVec([5, 7])

    def test_known_product(self):
        a = Mat([[1, 2], [3, 4]])
        b = Mat([[0, 1], [1, 0]])
        assert mat_mul(a, b) == Mat([[2, 1], [4, 3]])
        assert mat_vec_mul(a, ColVec([1, "1/2"])) == ColVec([2, 5])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mat_mul(Mat([[1, 2]]), Mat([[1, 2]]))
        with pytest.raises(DimensionError):
            mat_vec_mul(Mat([[1, 2]]), ColVec([1]))

    def test_product_associativity_random(self):
        rng = random.Random(1101)
        for _ in range(25):
            a = mat_of(rng, rng.randint(1, 3), rng.randint(1, 3), num=9, den=5)
            b = mat_of(rng, a.cols, rng.randint(1, 3), num=9, den=5)
            c = mat_of(rng, b.cols, rng.randint(1, 3), num=9, den=5)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))

    def test_mat_vec_distributes_random(self):
        rng = random.Random(1103)
        for _ in range(25):
            m = mat_of(rng, rng.randint(1, 4), rng.randint(1, 4), num=9, den=5)
            x = colvec_of(rng, m.cols, num=9, den=5)
            y = colvec_of(rng, m.cols, num=9, den=5)
            assert mat_vec_mul(m, vec_add(x, y)) == vec_add(
                mat_vec_mul(m, x), mat_vec_mul(m, y)
            )


class TestBlockDiag:
    """The block-diagonal map of a concat piece: f's map rows padded with zeros
    on the right, g's on the left."""

    def test_empty_blocks_are_neutral(self):
        m = Mat([[1, 2], [3, 4]])
        f = single_piece(full_space(2), m)
        empty = single_piece(full_space(0), Mat([], cols=0))
        for stacked in (concat(empty, f), concat(f, empty)):
            (piece,) = stacked.pieces
            assert piece.M == m

    def test_extension_preserves_dot_products(self):
        rng = random.Random(1105)
        for _ in range(25):
            n = rng.randint(0, 3)
            m = rng.randint(0, 3)
            c = colvec_of(rng, n, num=9, den=5)
            x = colvec_of(rng, n, num=9, den=5)
            y = colvec_of(rng, m, num=9, den=5)
            joint = ColVec(x.entries + y.entries)
            d = colvec_of(rng, m, num=9, den=5)
            f = single_piece(full_space(n), Mat([c.entries], cols=n))
            g = single_piece(full_space(m), Mat([d.entries], cols=m))
            (piece,) = concat(f, g).pieces
            f_row, g_row = (ColVec(row) for row in piece.M.entries)
            assert dot(f_row, joint) == dot(c, x)
            assert dot(g_row, joint) == dot(d, y)


class TestZeros:
    def test_shapes(self):
        assert zeros_vec(3) == ColVec([0, 0, 0])
