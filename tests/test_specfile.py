import json

import pytest

from cocheck import (
    SpecFileError,
    builtin,
    delta,
    dumps_spec,
    graded_dual,
    load_spec,
    loads_spec,
    save_spec,
)

NAMES = [f"example{k}" for k in range(1, 10)]


@pytest.mark.parametrize("name", NAMES)
def test_round_trip_preserves_rules(name):
    spec = builtin(name)
    reparsed = loads_spec(dumps_spec(spec))
    assert reparsed.same_rules(spec)
    assert reparsed.shift_bound == spec.shift_bound


@pytest.mark.parametrize("name", ["example1", "example6", "example9"])
def test_round_trip_evaluates_identically(name, tmp_path):
    spec = builtin(name)
    path = tmp_path / f"{name}.json"
    save_spec(spec, path)
    reparsed = load_spec(path)
    for label in spec.labels_upto(30):
        assert delta(reparsed, label) == delta(spec, label)


def test_minimal_spec_parses():
    text = json.dumps(
        {
            "field": "Q",
            "families": [{"name": "u", "range": [0, 0]}],
            "delta": [
                {
                    "family": "u",
                    "terms": [
                        {"coeff": "1", "left": ["u", "0"], "right": ["u", "0"]}
                    ],
                }
            ],
        }
    )
    spec = loads_spec(text)
    label = spec.label("u", 0)
    assert str(delta(spec, label)) == "u:0⊗u:0"


def test_syntax_error_cites_line_and_column():
    with pytest.raises(SpecFileError) as err:
        loads_spec('{\n  "field": "Q",\n  "families": [}\n}')
    assert err.value.line == 3
    assert err.value.column is not None


def test_missing_key_cites_path():
    with pytest.raises(SpecFileError) as err:
        loads_spec('{"field": "Q", "families": []}')
    assert err.value.key == "$"
    assert "delta" in str(err.value)


def test_wrong_field_rejected():
    with pytest.raises(SpecFileError) as err:
        loads_spec('{"field": "R", "families": [], "delta": []}')
    assert err.value.key == "$.field"


def test_bad_term_key_cited():
    text = json.dumps(
        {
            "field": "Q",
            "families": [{"name": "u", "range": [0, None]}],
            "delta": [
                {
                    "family": "u",
                    "terms": [
                        {
                            "coeff": "1",
                            "left": ["u", "n"],
                            "right": ["u", "n"],
                            "bogus": 1,
                        }
                    ],
                }
            ],
        }
    )
    with pytest.raises(SpecFileError) as err:
        loads_spec(text)
    assert "bogus" in str(err.value)


def test_bad_expression_cited():
    text = json.dumps(
        {
            "field": "Q",
            "families": [{"name": "u", "range": [0, None]}],
            "delta": [
                {
                    "family": "u",
                    "terms": [
                        {"coeff": "1", "left": ["u", "n*n"], "right": ["u", "n"]}
                    ],
                }
            ],
        }
    )
    with pytest.raises(SpecFileError) as err:
        loads_spec(text)
    assert "left" in err.value.key


def test_sum_upper_must_be_affine_in_n():
    text = json.dumps(
        {
            "field": "Q",
            "families": [{"name": "u", "range": [0, None]}],
            "delta": [
                {
                    "family": "u",
                    "terms": [
                        {
                            "coeff": "1",
                            "left": ["u", "i"],
                            "right": ["u", "n - i"],
                            "sum_to": "2*n",
                        }
                    ],
                }
            ],
        }
    )
    with pytest.raises(SpecFileError) as err:
        loads_spec(text)
    assert "sum_to" in err.value.key


def test_undeclared_family_in_rule():
    text = json.dumps(
        {
            "field": "Q",
            "families": [{"name": "u", "range": [0, None]}],
            "delta": [
                {
                    "family": "u",
                    "terms": [
                        {"coeff": "1", "left": ["w", "n"], "right": ["u", "n"]}
                    ],
                }
            ],
        }
    )
    with pytest.raises(SpecFileError):
        loads_spec(text)


def test_guard_round_trip():
    spec = builtin("example9")
    data = json.loads(dumps_spec(spec))
    f_entry = next(e for e in data["delta"] if e["family"] == "f")
    guards = [t.get("when") for t in f_entry["terms"]]
    assert {"mod": 3, "rem": 1} in guards


def test_repeated_expressions_parse_once_per_load():
    # graded-dual writes thousands of terms over a few dozen distinct
    # expressions: one load parses each text once, and a second load
    # parses again.
    spec = graded_dual(builtin("fx-diff-algebra", horizon=12), horizon=12)
    text = dumps_spec(spec)
    first, second = loads_spec(text), loads_spec(text)
    assert first.same_rules(spec) and second.same_rules(spec)
    coeffs = [t.coeff for terms in first.delta.values() for t in terms]
    assert len(coeffs) > len({id(c) for c in coeffs}) == len(set(coeffs))
    ones = [t.coeff for loaded in (first, second) for t in loaded.delta["x"]]
    assert len({id(c) for c in ones}) == 2  # every coefficient is "1"
    label = first.label("x", 12)
    assert delta(first, label) == delta(second, label) == delta(spec, label)


def test_error_in_a_repeated_expression_names_its_own_path():
    # "n*n" parses as a coefficient first; as an index it is an error,
    # cited at the index, not at the coefficient that parsed.
    term = {"coeff": "n*n", "left": ["u", "n"], "right": ["u", "n"]}
    bad = {"coeff": "1", "left": ["u", "n"], "right": ["u", "n*n"]}
    text = json.dumps({
        "field": "Q",
        "families": [{"name": "u", "range": [0, None]}],
        "delta": [{"family": "u", "terms": [term, term, bad]}],
    })
    with pytest.raises(SpecFileError) as err:
        loads_spec(text)
    assert err.value.key == "$.delta[0].terms[2].right[1]"
