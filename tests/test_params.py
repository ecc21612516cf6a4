import pytest

from q2quartic.errors import InvalidParams
from q2quartic.params import (
    GROUP_ORDER,
    FieldParams,
    GroupTag,
    MinusOneClass,
    aut_order,
    make_params,
    valid_param_sweep,
    validate,
)


def test_validate_q2_tuple_ok():
    validate(FieldParams(1, 1, 2, 2, MinusOneClass.RAMIFIED))


def test_validate_rejects_wrong_q():
    with pytest.raises(InvalidParams, match="q"):
        validate(FieldParams(1, 1, 4, 2, MinusOneClass.RAMIFIED))


def test_validate_rejects_d_over_bound():
    with pytest.raises(InvalidParams, match="bound"):
        validate(FieldParams(1, 1, 2, 4, MinusOneClass.RAMIFIED))


def test_validate_rejects_odd_d():
    with pytest.raises(InvalidParams, match="even"):
        validate(FieldParams(3, 1, 2, 3, MinusOneClass.RAMIFIED))


def test_validate_trichotomy_forces_zero_d():
    with pytest.raises(InvalidParams):
        validate(FieldParams(2, 1, 2, 2, MinusOneClass.SQUARE))
    with pytest.raises(InvalidParams):
        validate(FieldParams(2, 1, 2, 2, MinusOneClass.UNRAMIFIED))
    with pytest.raises(InvalidParams):
        validate(FieldParams(2, 1, 2, 0, MinusOneClass.RAMIFIED))


def test_aut_orders():
    assert aut_order(GroupTag.S4) == 1
    assert aut_order(GroupTag.A4) == 1
    assert aut_order(GroupTag.D4) == 2
    assert aut_order(GroupTag.C4) == 4
    assert aut_order(GroupTag.V4) == 4
    for g in GROUP_ORDER:
        assert 4 % aut_order(g) == 0
        assert (aut_order(g) == 4) == (g in (GroupTag.C4, GroupTag.V4))


def test_sweep_is_valid_and_deduplicated():
    seen = set(valid_param_sweep(6, 3))
    assert len(seen) == sum(1 for _ in valid_param_sweep(6, 3))
    for p in seen:
        validate(p)


def test_construction_validates():
    # every FieldParams in existence satisfies the invariants
    with pytest.raises(InvalidParams, match="q"):
        FieldParams(1, 1, 4, 2, MinusOneClass.RAMIFIED)
    with pytest.raises(InvalidParams, match="positive"):
        make_params(0, 1, 2, MinusOneClass.RAMIFIED)
    with pytest.raises(InvalidParams, match="bound"):
        FieldParams(1, 1, 2, 4, MinusOneClass.RAMIFIED)


def test_degree_bound_is_a_field_params_invariant():
    # e*f above MAX_DEGREE fails construction, and make_params refuses it
    # before it forms 2**f (test_cli times a refusal at f = 10**9)
    with pytest.raises(InvalidParams, match="e\\*f = 2049 exceeds 2048"):
        make_params(2049, 1, 0, MinusOneClass.SQUARE)
    with pytest.raises(InvalidParams, match="exceeds 2048"):
        FieldParams(2049, 1, 2, 0, MinusOneClass.SQUARE)
    with pytest.raises(InvalidParams, match="exceeds 2048"):
        make_params(1, 2049, 0, MinusOneClass.UNRAMIFIED)
    assert make_params(2048, 1, 0, MinusOneClass.SQUARE).q == 2
