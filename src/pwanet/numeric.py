"""Exact rational scalars, column vectors, and dense matrices.

Everything is built from `fractions.Fraction`, so arithmetic is exact.
Floats are rejected outright: a binary float that sneaks into a weight
or constraint would silently break the exact-equality reasoning the
rest of the library depends on. Decimal strings like "2.7" are parsed
exactly (27/10), as are "p/q" forms; a decimal exponent may be at most
4300 in absolute value. parse_scalar reads one ASCII grammar, whatever
the running Python's Fraction accepts.

The products (dot, mat_vec_mul, mat_mul) run on integers: each operand
row or column is scaled by the lcm of its denominators (scaled_ints),
and each output entry is one integer dot product over the two scales'
product, reduced once. That builds one Fraction per entry instead of a
normalized intermediate per term, and gives the same exact value. They
build their results with the private _unchecked_mat and _unchecked_vec,
which skip the constructors' checks: each entry is a Fraction made from
checked operands, and each width is read off their checked shapes.
network.nn_eval carries a point as scaled_ints gives it, (den, ints),
and _unscaled turns that back into a ColVec.

The library's record types (lp's outcomes, constraints and polyhedra,
affine pieces and univalence verdicts, layers and networks) are plain
classes on the private base _Frozen, written by hand like ColVec and
Mat rather than generated by dataclasses: importing dataclasses loads
inspect, ast, dis and tokenize, and each generated class execs its
methods, a cost every process that imports pwanet would pay.

Writing a rational as text can fail even when computing it did not:
CPython refuses to convert an int past its digit limit (4300 by default)
to a string. format_scalar raises ScalarTooLong then.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Union

Scalar = Fraction
ScalarLike = Union[int, str, Fraction]


class DimensionError(ValueError):
    """Raised when operand shapes do not line up."""


# An exponent bound matching CPython's default int-string digit limit, which
# already bounds long mantissas: "1e2000000" would otherwise build a
# two-million-digit integer from nine bytes of input.
_MAX_EXPONENT = 4300

_LITERAL = re.compile(
    r"\s*[-+]?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE](?P<exponent>[-+]?\d+))?)\s*",
    re.ASCII,
)


def parse_scalar(text: str) -> Fraction:
    """Parse a decimal literal ("2.7", "-0.25", "1e-3") or a fraction ("p/q") exactly.

    A literal is an optional sign, then either p/q or a decimal (digits
    with an optional point, or a point and digits) with an optional
    exponent e or E and signed digits, with ASCII whitespace allowed
    around it. Digits are ASCII 0-9 only. Exponents beyond +-4300 are
    refused as malformed. An integer or p/q in ASCII digits, with at most
    a leading "-", is built from two ints without a regex.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a string literal, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    try:
        if text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        match = _LITERAL.fullmatch(text)
        if match is None or abs(int(match["exponent"] or 0)) > _MAX_EXPONENT:
            raise ValueError
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational literal {text!r}") from None


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction. Floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: floats are not exact, pass a string or Fraction"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ScalarTooLong(ValueError):
    """A rational whose numerator or denominator is too long to write as text."""


def format_scalar(value: ScalarLike) -> str:
    """Canonical text for a scalar: "3", "-2", or reduced "p/q"; ScalarTooLong if too long."""
    q = as_scalar(value)
    try:
        return str(q)
    except ValueError:
        raise _too_long() from None


def _too_long() -> ScalarTooLong:
    return ScalarTooLong(f"a rational has more than {sys.get_int_max_str_digits()} digits to write")


class _Frozen:
    """Base of the immutable record types: equality, hash, repr, no assignment.

    A subclass names its fields, in order, in __match_args__, which
    pattern matching reads too, and its __init__ checks its arguments and
    stores them with self.__dict__.update(...), as the private unchecked
    builders do. Two records are equal when their classes are the same
    and their fields in _compared, all of __match_args__ unless the class
    names fewer, are equal; hash agrees with that, and repr reads
    Name(field=value, ...) over the same fields. Assigning or deleting an
    attribute raises dataclasses.FrozenInstanceError, as it did when
    these types were frozen dataclasses; dataclasses is imported only
    then. A value may cache a derived form of itself in its instance
    dict, under a name that is not a field: equality, hash and repr never
    read it, and __getstate__ leaves it out, so pickling and copying see
    the fields alone and fill the copy's instance dict directly.
    dataclasses.fields, replace, asdict and is_dataclass do not apply.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls.__match_args__

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self._compared])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = self.__dict__
        body = ", ".join(f"{name}={fields[name]!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({body})"

    def __getstate__(self):
        """The fields by name, or None for a record without fields, as the
        default state of an instance with an empty dict: no cache."""
        fields = self.__dict__
        return {name: fields[name] for name in self.__match_args__} or None

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ColVec:
    """Immutable column vector of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[ScalarLike] = ()):
        self.entries: tuple[Fraction, ...] = tuple(as_scalar(e) for e in entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColVec) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "ColVec([%s])" % ", ".join(str(e) for e in self.entries)


def _unchecked_vec(entries: tuple[Fraction, ...]) -> ColVec:
    """ColVec(entries) without its checks: entries is a tuple of Fractions."""
    v = object.__new__(ColVec)
    v.entries = entries
    return v


class Mat:
    """Immutable dense matrix of exact rationals.

    `cols` must be passed explicitly when there are zero rows, since the
    width cannot be inferred from an empty row list. Zero-width rows are
    fine without it. A row that is already a tuple of Fractions is kept as
    it is, so rows shared between matrices stay one object.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]] = (), cols: int | None = None):
        body = tuple(
            row
            if type(row) is tuple and all(isinstance(e, Fraction) for e in row)
            else tuple(as_scalar(e) for e in row)
            for row in entries
        )
        if body:
            width = len(body[0])
            for row in body[1:]:
                if len(row) != width:
                    raise DimensionError("matrix rows have differing lengths")
            if cols is not None and cols != width:
                raise DimensionError(f"declared cols={cols} but rows have length {width}")
        else:
            if cols is None:
                raise DimensionError("a matrix with no rows needs an explicit cols")
            width = cols
        if width < 0:
            raise DimensionError("matrix width must be nonnegative")
        self.entries: tuple[tuple[Fraction, ...], ...] = body
        self.rows: int = len(body)
        self.cols: int = width

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"Mat({self.rows}x{self.cols}: [{rows}])"


def _unchecked_mat(entries: tuple[tuple[Fraction, ...], ...], cols: int) -> Mat:
    """The Mat(entries, cols=cols) that passes every check, built without
    running them: the caller guarantees cols >= 0 and a tuple of rows
    that are each a tuple of cols Fractions."""
    m = object.__new__(Mat)
    m.entries = entries
    m.rows = len(entries)
    m.cols = cols
    return m


def zeros_vec(dim: int) -> ColVec:
    return ColVec([0] * dim)


def identity(n: int) -> Mat:
    return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def scaled_ints(entries: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(den, ints): den is the lcm of the denominators, ints[k] = den * entries[k].

    No entries give (1, []).
    """
    entries = tuple(entries)
    den = lcm(*(e.denominator for e in entries))
    return den, [e.numerator * (den // e.denominator) for e in entries]


def _unscaled(den: int, ints: list[int]) -> ColVec:
    """The ColVec ints / den: scaled_ints undone."""
    return _unchecked_vec(tuple([Fraction(a, den) for a in ints]))


def _int_dot(da: int, a: list[int], db: int, b: list[int]) -> Fraction:
    return Fraction(sum(map(mul, a, b)), da * db)


def dot(v: ColVec, w: ColVec) -> Fraction:
    """Inner product. The empty product is 0."""
    if v.dim != w.dim:
        raise DimensionError(f"dot of dim {v.dim} against dim {w.dim}")
    return _int_dot(*scaled_ints(v.entries), *scaled_ints(w.entries))


def vec_add(v: ColVec, w: ColVec) -> ColVec:
    if v.dim != w.dim:
        raise DimensionError(f"vec_add of dim {v.dim} against dim {w.dim}")
    return _unchecked_vec(tuple([a + b for a, b in zip(v.entries, w.entries)]))


def vec_scale(s: ScalarLike, v: ColVec) -> ColVec:
    f = as_scalar(s)
    return ColVec(f * a for a in v.entries)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise DimensionError(f"mat_mul of {a.rows}x{a.cols} against {b.rows}x{b.cols}")
    columns = [scaled_ints(col) for col in zip(*b.entries)] if b.rows else [(1, [])] * b.cols
    rows = (tuple([_int_dot(*row, *col) for col in columns]) for row in map(scaled_ints, a.entries))
    return _unchecked_mat(tuple(rows), b.cols)


def mat_vec_mul(m: Mat, x: ColVec) -> ColVec:
    if m.cols != x.dim:
        raise DimensionError(f"mat_vec_mul of {m.rows}x{m.cols} against dim {x.dim}")
    scaled_x = scaled_ints(x.entries)
    return _unchecked_vec(tuple([_int_dot(*scaled_ints(row), *scaled_x) for row in m.entries]))
