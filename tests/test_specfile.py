import json

import pytest

from cocheck import (
    CoalgebraSpec,
    FamilyDecl,
    SpecFileError,
    antisymmetrize,
    builtin,
    delta,
    dumps_spec,
    gelfand_dorfman,
    graded_dual,
    kantor,
    load_spec,
    loads_spec,
    save_spec,
)
from cocheck.rules import Guard, delta_term, deriv_term
from cocheck.specfile import spec_from_dict

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


# One family with one term in each rule section; `doc_with` edits the
# term of one section.
BASE_TERMS = {
    "delta": {"coeff": "1", "left": ["u", "i"], "right": ["u", "n - i"], "sum_to": "n"},
    "coderivation": {"coeff": "n + 1", "target": ["u", "n + 1"]},
}


def doc_with(section=None, **changes):
    data = {"field": "Q", "families": [{"name": "u", "range": [0, None]}]}
    for key, term in BASE_TERMS.items():
        term = dict(term, **changes) if key == section else dict(term)
        data[key] = [{"family": "u", "terms": [term]}]
    return data


def load_error(data) -> SpecFileError:
    with pytest.raises(SpecFileError) as err:
        spec_from_dict(data)
    return err.value


class TestCoderivationSection:
    def test_base_document_loads(self):
        spec = spec_from_dict(doc_with())
        assert spec.differential and str(spec.coderivation["u"][0]) == "n + 1 * u[n + 1]"

    def test_unknown_term_key(self):
        err = load_error(doc_with("coderivation", bogus=1))
        assert err.key == "$.coderivation[0].terms[0].bogus"
        assert str(err).startswith("unknown key in coderivation term ")

    def test_undeclared_target_family(self):
        err = load_error(doc_with("coderivation", target=["w", "n"]))
        assert err.key == "$"
        assert "does not declare family 'w'" in str(err)

    @pytest.mark.parametrize("changes", [{"coeff": "i"}, {"target": ["u", "n - i"]}])
    def test_summation_index_in_a_term(self, changes):
        err = load_error(doc_with("coderivation", **changes))
        assert err.key == "$.coderivation[0].terms[0]"
        assert str(err).startswith("coderivation terms cannot use a summation index ")

    def test_null_section(self):
        data = doc_with()
        data["coderivation"] = None
        err = load_error(data)
        assert err.key == "$.coderivation"
        assert str(err).startswith("expected a list ")

    def test_absent_section_means_no_coderivation(self):
        data = doc_with()
        del data["coderivation"]
        assert not spec_from_dict(data).differential


@pytest.mark.parametrize("section", ["delta", "coderivation"])
@pytest.mark.parametrize("field, value", [
    pytest.param("coeff", "n^", id="bad-coeff"),
    pytest.param("when", {}, id="empty-guard"),
    pytest.param("when", {"mod": 1, "rem": 0}, id="invalid-guard"),
])
def test_term_error_names_its_key_once(section, field, value):
    err = load_error(doc_with(section, **{field: value}))
    assert err.key == f"$.{section}[0].terms[0].{field}"
    assert str(err).count("(key ") == 1


def _set(path, **keys):
    """An edit of a `doc_with` document: add `keys` to the object at `path`."""
    def edit(data):
        for step in path:
            data = data[step]
        data.update(keys)
    return edit


@pytest.mark.parametrize("edit, key, what", [
    pytest.param(_set((), gradde=True), "$.gradde", "spec", id="root"),
    pytest.param(_set(("families", 0), prity=1), "$.families[0].prity", "family", id="family"),
    pytest.param(_set(("delta", 0), bogus=1), "$.delta[0].bogus", "delta entry", id="delta-entry"),
    pytest.param(_set(("coderivation", 0), bogus=1), "$.coderivation[0].bogus",
                 "coderivation entry", id="coderivation-entry"),
    pytest.param(_set(("delta", 0, "terms", 0), when={"mod": 3, "rem": 1, "eq": 2, "bogus": 1}),
                 "$.delta[0].terms[0].when.bogus", "guard", id="guard"),
])
def test_every_object_rejects_unknown_keys(edit, key, what):
    data = doc_with()
    edit(data)
    err = load_error(data)
    assert err.key == key
    assert str(err).startswith(f"unknown key in {what} ")


@pytest.mark.parametrize("section", ["delta", "coderivation"])
def test_guard_with_eq_and_mod_is_refused(section):
    err = load_error(doc_with(section, when={"mod": 3, "rem": 1, "eq": 2}))
    assert err.key == f"$.{section}[0].terms[0].when"
    assert str(err).startswith('guard must carry "eq" or "mod"/"rem", not both ')


def test_misspelled_graded_key_is_refused():
    # Kantor's output is graded: a misspelled key that was dropped would
    # read it as ungraded, and its cocommutativity check would fail.
    text = dumps_spec(kantor(builtin("example4")))
    assert '"graded": true' in text
    with pytest.raises(SpecFileError) as err:
        loads_spec(text.replace('"graded"', '"gradde"'))
    assert err.value.key == "$.gradde"


CONSTRUCTED = {
    **{name: (lambda name=name: builtin(name)) for name in NAMES},
    **{
        f"{c.__name__}({name})": (lambda c=c, name=name: c(builtin(name)))
        for c in (gelfand_dorfman, kantor)
        for name in ("example1", "example4")
    },
    **{
        f"antisymmetrize({name})": (lambda name=name: antisymmetrize(builtin(name)))
        for name in ("example2", "example5", "example7", "example8")
    },
    "graded_dual(fx-diff-algebra)": lambda: graded_dual(
        builtin("fx-diff-algebra", horizon=12), horizon=12
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_dump_of_a_loaded_dump_is_the_same_text(name):
    text = dumps_spec(CONSTRUCTED[name]())
    assert dumps_spec(loads_spec(text)) == text


# Reports record the sha256 of the spec file they read, so these bytes
# are part of the format.
FORMAT_TEXT = """\
{
  "coderivation": [
    {
      "family": "e",
      "terms": []
    },
    {
      "family": "u",
      "terms": [
        {
          "coeff": "-n",
          "target": [
            "u",
            "n + 1"
          ],
          "when": {
            "eq": 3
          }
        }
      ]
    }
  ],
  "coderivation_max_index": 9,
  "delta": [
    {
      "family": "u",
      "terms": [
        {
          "coeff": "n - i",
          "left": [
            "u",
            "i + 1"
          ],
          "right": [
            "u",
            "n - i - 1"
          ],
          "sum_to": "n - 2"
        },
        {
          "coeff": "1/2",
          "left": [
            "e",
            "0"
          ],
          "right": [
            "u",
            "n"
          ],
          "when": {
            "mod": 2,
            "rem": 1
          }
        }
      ]
    }
  ],
  "description": "every key of the format",
  "families": [
    {
      "name": "e",
      "parity": 0,
      "range": [
        0,
        0
      ]
    },
    {
      "name": "u",
      "parity": 1,
      "range": [
        1,
        null
      ]
    }
  ],
  "field": "Q",
  "graded": true,
  "name": "format",
  "shift_bound": 1
}
"""


def test_dump_text_of_every_key():
    spec = CoalgebraSpec(
        name="format",
        families=(FamilyDecl("e", hi=0), FamilyDecl("u", parity=1, lo=1)),
        delta={
            "u": [
                delta_term("n - i", ("u", "i + 1"), ("u", "n - i - 1"), sum_upper=-2),
                delta_term("1/2", ("e", 0), ("u", "n"), guard=Guard.mod(2, 1)),
            ],
        },
        coderivation={"e": [], "u": [deriv_term("-n", ("u", "n + 1"), guard=Guard.eq(3))]},
        shift_bound=1,
        graded=True,
        coderivation_max_index=9,
        description="every key of the format",
    )
    assert dumps_spec(spec) == FORMAT_TEXT
    assert dumps_spec(loads_spec(FORMAT_TEXT)) == FORMAT_TEXT
