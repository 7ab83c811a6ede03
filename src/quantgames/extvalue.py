"""Extended integers: Z together with -inf/+inf, with checked arithmetic.

All solver-facing values live in this domain.  Finite arithmetic is kept
inside +/- 2**62 so that results always fit a machine int64; crossing the
limit raises instead of wrapping.
"""

from __future__ import annotations

from typing import Union

FINITE_LIMIT = 2**62


class ValueOverflowError(ArithmeticError):
    """A finite intermediate left the +/- 2**62 range."""


class InfinityArithmeticError(ArithmeticError):
    """(+inf) + (-inf) has no value."""


class _Infinity:
    """Singleton endpoint of the value order; compares against ints."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int) -> None:
        self._sign = sign

    @property
    def sign(self) -> int:
        return self._sign

    def __repr__(self) -> str:
        return "+inf" if self._sign > 0 else "-inf"

    def __neg__(self) -> "_Infinity":
        return MINUS_INF if self._sign > 0 else PLUS_INF

    def __lt__(self, other: object) -> bool:
        if other is self:
            return False
        if isinstance(other, (int, _Infinity)):
            return self._sign < 0
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, (int, _Infinity)):
            return self._sign < 0
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other is self:
            return False
        if isinstance(other, (int, _Infinity)):
            return self._sign > 0
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, (int, _Infinity)):
            return self._sign > 0
        return NotImplemented


PLUS_INF = _Infinity(1)
MINUS_INF = _Infinity(-1)

ExtValue = Union[int, _Infinity]


def is_finite(x: ExtValue) -> bool:
    return isinstance(x, int)


def check_finite(x: int) -> int:
    if x > FINITE_LIMIT or x < -FINITE_LIMIT:
        raise ValueOverflowError(f"value {x} exceeds +/-2**62")
    return x


def ext_add(a: ExtValue, b: ExtValue) -> ExtValue:
    if isinstance(a, int) and isinstance(b, int):
        return check_finite(a + b)
    if isinstance(a, _Infinity) and isinstance(b, _Infinity):
        if a is not b:
            raise InfinityArithmeticError("(+inf) + (-inf) is undefined")
        return a
    return a if isinstance(a, _Infinity) else b


def to_json(x: ExtValue):
    if isinstance(x, _Infinity):
        return "+inf" if x.sign > 0 else "-inf"
    return x


def from_json(v) -> ExtValue:
    if v == "+inf":
        return PLUS_INF
    if v == "-inf":
        return MINUS_INF
    if isinstance(v, int):
        return v
    raise ValueError(f"not an extended integer: {v!r}")
