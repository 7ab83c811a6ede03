import pytest
from hypothesis import given, strategies as st

from quantgames.extvalue import (
    FINITE_LIMIT,
    MINUS_INF,
    PLUS_INF,
    InfinityArithmeticError,
    ValueOverflowError,
    ext_add,
    from_json,
    is_finite,
    to_json,
)

finite = st.integers(min_value=-(2**40), max_value=2**40)
ext = st.one_of(finite, st.just(PLUS_INF), st.just(MINUS_INF))


def test_ordering():
    assert MINUS_INF < -(10**18) < 0 < 10**18 < PLUS_INF
    assert not (PLUS_INF < PLUS_INF)
    assert PLUS_INF >= PLUS_INF
    assert MINUS_INF <= MINUS_INF
    assert -PLUS_INF is MINUS_INF


def test_add_rules():
    assert ext_add(3, 4) == 7
    assert ext_add(PLUS_INF, -5) is PLUS_INF
    assert ext_add(-5, MINUS_INF) is MINUS_INF
    assert ext_add(PLUS_INF, PLUS_INF) is PLUS_INF
    with pytest.raises(InfinityArithmeticError):
        ext_add(PLUS_INF, MINUS_INF)


def test_overflow_checked():
    with pytest.raises(ValueOverflowError):
        ext_add(FINITE_LIMIT, 1)
    assert ext_add(FINITE_LIMIT, 0) == FINITE_LIMIT


def test_json_round_trip():
    for v in (0, -3, PLUS_INF, MINUS_INF):
        assert from_json(to_json(v)) == v or from_json(to_json(v)) is v


@given(a=ext, b=ext)
def test_add_commutes(a, b):
    both_inf = not is_finite(a) and not is_finite(b)
    if both_inf and a is not b:
        return
    assert ext_add(a, b) == ext_add(b, a)


@given(a=ext, b=ext, c=ext)
def test_add_monotone(a, b, c):
    if a > b:
        a, b = b, a
    try:
        x, y = ext_add(a, c), ext_add(b, c)
    except InfinityArithmeticError:
        return
    assert x <= y

