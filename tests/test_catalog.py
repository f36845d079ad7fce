import dataclasses
import re

import pytest

from rdpdescent import UsageError, parse_poly, render
from rdpdescent.catalog import (E6_0_CHAR2_NOTE, _parse_line, _validate, all_records,
                                instantiate, pic_order_for, table_records)


def test_e_row_counts_per_characteristic():
    recs = table_records()
    assert sum(1 for r in recs if r.char == 2) == 11
    assert sum(1 for r in recs if r.char == 3) == 7
    assert sum(1 for r in recs if r.char == 5) == 4


def test_equations_round_trip_through_parser():
    for rec in table_records():
        ring = rec.ring()
        f = parse_poly(rec.equation, ring)
        assert parse_poly(render(f), ring) == f
        assert f.constant_coeff() == 0
        assert f.order() >= 2


def test_generated_family_equations_round_trip():
    for char in (2, 3, 5):
        for rec in all_records(char, max_n=9):
            ring = rec.ring()
            f = parse_poly(rec.equation, ring)
            assert parse_poly(render(f), ring) == f


def test_pic_orders_match_classification():
    assert pic_order_for("A", 7) == 8
    assert pic_order_for("D", 6) == 4
    assert pic_order_for("E", 6) == 3
    assert pic_order_for("E", 7) == 2
    assert pic_order_for("E", 8) == 1
    for rec in table_records():
        assert rec.pic_order == pic_order_for(rec.dynkin, rec.n)


@pytest.mark.parametrize("dynkin, n", [("X", 6), ("e", 6), ("E", 9), ("E", 5), ("D", 3), ("A", 0)])
def test_pic_order_rejects_what_is_no_rational_double_point(dynkin, n):
    with pytest.raises(UsageError, match="^no rational double point of type"):
        pic_order_for(dynkin, n)


@pytest.mark.parametrize("change", [{"dynkin": "X"}, {"n": 9}])
def test_validation_rejects_an_unknown_type(change):
    # A data line of no Dynkin type is a usage error, not a bare KeyError
    # or another type's Picard order.
    with pytest.raises(UsageError, match="^no rational double point of type"):
        _validate(dataclasses.replace(table_records()[0], **change))


def test_instantiate_examples():
    assert instantiate("D", 6, 0, 2).equation == "z^2+x^2*y+x*y^3"
    assert instantiate("E", 8, 1, 2).equation == "z^2+x^3+y^5+x*y^3*z"
    assert instantiate("A", 3, None, 2).equation == "z^4-x*y"
    assert instantiate("A", 3, None, 5).equation == "z^4-x*y"


def test_d_family_equations():
    assert instantiate("D", 4, 0, 2).equation == "z^2+x^2*y+x*y^2"
    assert instantiate("D", 4, 1, 2).equation == "z^2+x^2*y+x*y^2+x*y*z"
    assert instantiate("D", 5, 0, 2).equation == "z^2+x^2*y+y^2*z"
    assert instantiate("D", 5, 1, 2).equation == "z^2+x^2*y+y^2*z+x*y*z"
    assert instantiate("D", 9, 2, 2).equation == "z^2+x^2*y+y^4*z+x*y^2*z"
    assert instantiate("D", 4, None, 3).equation == "z^2+x^2*y+y^3"


def test_instantiate_range_errors():
    with pytest.raises(UsageError):
        instantiate("D", 4, 2, 2)       # r too large: 0 <= r <= floor(n/2)-1
    with pytest.raises(UsageError):
        instantiate("D", 3, 0, 2)       # D_n needs n >= 4
    with pytest.raises(UsageError):
        instantiate("D", 4, 1, 3)       # no co-index outside characteristic 2
    with pytest.raises(UsageError):
        instantiate("E", 8, 4, 3)       # E_8^4 exists only in characteristic 2
    with pytest.raises(UsageError):
        instantiate("E", 6, 0, 5)       # characteristic 5 has plain E_6 only
    with pytest.raises(UsageError, match=r"^A_n needs n >= 1, got 0$"):
        instantiate("A", 0, None, 2)
    with pytest.raises(UsageError):
        instantiate("F", 4, None, 2)


def test_char5_e6_e7_have_no_coindex():
    assert instantiate("E", 6, None, 5).label == "E_6"
    assert instantiate("E", 7, None, 5).label == "E_7"


def test_all_records_families():
    recs = all_records(2, max_n=8)
    labels = [r.label for r in recs]
    assert "A_1" in labels and "A_8" in labels
    assert "D_8^3" in labels and "D_8^0" in labels
    assert "E_8^4" in labels
    assert len([l for l in labels if l.startswith("D_")]) == 2 + 2 + 3 + 3 + 4
    recs3 = all_records(3, max_n=6)
    assert [r.label for r in recs3 if r.dynkin == "D"] == ["D_4", "D_5", "D_6"]
    with pytest.raises(UsageError):
        all_records(7)


def test_stored_lengths_and_verdicts_present():
    for rec in table_records():
        assert rec.ref_len_j > 0 and rec.ref_len_jp > 0
        assert rec.ref_theta_free is not None
        assert rec.known_verdict in ("DESCENDS", "BLOCKED")
        assert rec.citation


@pytest.mark.parametrize("field", ["ref_len_j", "ref_len_jp"])
@pytest.mark.parametrize("value", [0, -3])
def test_validation_rejects_stored_lengths_below_one(field, value):
    rec = table_records()[0]
    _validate(rec)
    with pytest.raises(UsageError, match="stored lengths must be positive"):
        _validate(dataclasses.replace(rec, **{field: value}))


def test_e6_0_char2_discrepancy_note():
    rec = instantiate("E", 6, 0, 2)
    assert rec.note == E6_0_CHAR2_NOTE
    assert rec.known_verdict == "BLOCKED"
    others = [r for r in table_records() if r is not rec]
    assert all(r.note is None for r in others)


def test_an_verdicts():
    assert instantiate("A", 7, None, 2).known_verdict == "DESCENDS"
    assert instantiate("A", 5, None, 2).known_verdict == "BLOCKED"
    assert instantiate("A", 4, None, 5).known_verdict == "DESCENDS"
    assert instantiate("A", 8, None, 3).known_verdict == "DESCENDS"


def test_a_catalog_line_needs_twelve_fields():
    line = "E;6;0;2;z^2+x^3+y^2*z;C3;3;8;32;yes;BLOCKED"
    with pytest.raises(UsageError, match="^malformed catalog line: 'E;6;0;2;"):
        _parse_line(line)
    assert _parse_line(line + ";a citation").label == "E_6^0"


@pytest.mark.parametrize("change, message", [
    ({"known_verdict": "DESCEND"}, "E_6^0: bad verdict 'DESCEND'"),
    ({"equation": "x+z^2+y^3"}, "E_6^0: equation must vanish at the origin with zero linear part"),
    ({"pic_order": 4}, "E_6^0: stored Picard order 4 disagrees with the classification value 3"),
], ids=["verdict", "linear_part", "picard_order"])
def test_validation_names_what_is_wrong(change, message):
    rec = instantiate("E", 6, 0, 2)
    _validate(rec)
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        _validate(dataclasses.replace(rec, **change))


@pytest.mark.parametrize("args, message", [
    (("E", 6, 0, 7), "^co-indexed catalog types exist only for p in 2, 3, 5$"),
    (("A", 3, 1, 2), "^A_n carries no co-index$"),
])
def test_instantiate_names_what_does_not_exist(args, message):
    with pytest.raises(UsageError, match=message):
        instantiate(*args)
