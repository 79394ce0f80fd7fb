"""Reading and writing coalgebra specs as JSON files.

Top-level keys: `field` (must be "Q"), `families`, `delta`, optional
`coderivation`, `shift_bound`, and optional `name`, `graded`,
`coderivation_max_index`, `description`.  Index expressions and
coefficients are strings in the rule DSL ("n - i + 1"); summation terms
carry "sum_to" with the upper bound "n + c"; guards are written
{"mod": m, "rem": r} or {"eq": k}, never both.  Every object accepts
only its own keys (`_Reader.only_keys`), so a misspelled key is an error
at its key path, not a setting silently dropped.  Syntax errors report
line and column; schema errors report the offending key path.

The two rule sections share one layout, a list of {"family", "terms"}
entries.  `_SECTIONS` pairs each section's key, which is also the
`CoalgebraSpec` field it fills, with its term reader and term writer;
`spec_from_dict` and `spec_to_dict` both walk it.
"""
from __future__ import annotations

import json
from typing import Optional

from .coalgebra import CoalgebraSpec, FamilyDecl
from .errors import EngineError, SpecError, SpecFileError
from .rules import (
    AffineIndex,
    DeltaTerm,
    DerivTerm,
    Guard,
    IndexPoly,
)

FORMAT_FIELD = "Q"


def loads_spec(text: str, source: str = "<string>") -> CoalgebraSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON in {source}: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from None
    except ValueError:  # an int past Python's int-string conversion limit
        raise SpecFileError(f"invalid JSON in {source}: integer literal too long") from None
    except RecursionError:
        raise SpecFileError(f"invalid JSON in {source}: nested too deeply") from None
    return spec_from_dict(data, source=source)


def load_spec(path) -> CoalgebraSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_spec(handle.read(), source=str(path))


def dumps_spec(spec: CoalgebraSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def save_spec(spec: CoalgebraSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_spec(spec))


class _Reader:
    """Walks parsed JSON tracking the key path for error messages.

    The readers of one document share `parsed`, a memo of the rule
    expressions parsed so far: (parser, text) -> value.  Only successful
    parses are kept, so an error always names its own key path.
    """

    def __init__(self, data, path, parsed=None):
        self.data = data
        self.path = path
        self.parsed = {} if parsed is None else parsed

    def fail(self, message):
        raise SpecFileError(message, key=self.path)

    def child(self, data, path):
        return _Reader(data, path, self.parsed)

    def require(self, key):
        if not isinstance(self.data, dict) or key not in self.data:
            self.fail(f"missing required key {key!r}")
        return self.child(self.data[key], f"{self.path}.{key}")

    def optional(self, key, default=None):
        if isinstance(self.data, dict) and key in self.data:
            return self.child(self.data[key], f"{self.path}.{key}")
        return self.child(default, f"{self.path}.{key}")

    def setting(self, key, read, default):
        """The optional setting `key` read by `read`, or `default` when
        it is absent or null."""
        value = self.optional(key)
        return default if value.data is None else read(value)

    def as_str(self):
        if not isinstance(self.data, str):
            self.fail("expected a string")
        return self.data

    def as_int(self):
        if not isinstance(self.data, int) or isinstance(self.data, bool):
            self.fail("expected an integer")
        return self.data

    def as_bool(self):
        if not isinstance(self.data, bool):
            self.fail("expected a boolean")
        return self.data

    def as_list(self):
        if not isinstance(self.data, list):
            self.fail("expected a list")
        return [self.child(item, f"{self.path}[{idx}]") for idx, item in enumerate(self.data)]

    def only_keys(self, keys: tuple, what: str) -> None:
        """Require an object whose keys are all among `keys`; an unknown
        key fails at its own key path, as an unknown key in `what`."""
        if not isinstance(self.data, dict):
            self.fail("expected an object")
        for key in self.data:
            if key not in keys:
                self.child(None, f"{self.path}.{key}").fail(f"unknown key in {what}")


def spec_from_dict(data, source: str = "<dict>") -> CoalgebraSpec:
    root = _Reader(data, "$")
    root.only_keys(_ROOT_KEYS, "spec")
    field = root.require("field").as_str()
    if field != FORMAT_FIELD:
        root.require("field").fail(f'field must be "{FORMAT_FIELD}"')

    families = []
    for fam in root.require("families").as_list():
        fam.only_keys(("name", "parity", "range"), "family")
        name = fam.require("name").as_str()
        parity = fam.optional("parity", 0).as_int()
        rng = fam.require("range").as_list()
        if len(rng) != 2:
            fam.require("range").fail("range must be [lo, hi] with hi null for infinite")
        lo = rng[0].as_int()
        hi = None if rng[1].data is None else rng[1].as_int()
        try:
            families.append(FamilyDecl(name=name, parity=parity, lo=lo, hi=hi))
        except EngineError as exc:
            fam.fail(str(exc))

    rules = {}  # only "delta" is required
    for key, read_term, _ in _SECTIONS:
        if key == "delta" or key in root.data:
            rule = rules[key] = {}
            for entry in root.require(key).as_list():
                entry.only_keys(("family", "terms"), f"{key} entry")
                fam = entry.require("family").as_str()
                terms = [read_term(t) for t in entry.require("terms").as_list()]
                rule.setdefault(fam, []).extend(terms)

    # Read before the `try` below: it re-keys every error at "$".
    shift_bound = root.setting("shift_bound", _Reader.as_int, 0)
    graded = root.setting("graded", _Reader.as_bool, False)
    d_max = root.setting("coderivation_max_index", _Reader.as_int, None)
    name = root.setting("name", _Reader.as_str, source)
    description = root.setting("description", _Reader.as_str, "")
    try:
        return CoalgebraSpec(
            name=name,
            families=tuple(families),
            shift_bound=shift_bound,
            graded=graded,
            coderivation_max_index=d_max,
            description=description,
            **rules,
        )
    except EngineError as exc:
        raise SpecFileError(str(exc), key="$") from None


def _read_guard(reader) -> Optional[Guard]:
    if reader.data is None:
        return None
    reader.only_keys(("eq", "mod", "rem"), "guard")
    if "eq" in reader.data and len(reader.data) > 1:
        reader.fail('guard must carry "eq" or "mod"/"rem", not both')
    try:
        if "eq" in reader.data:
            return Guard.eq(reader.require("eq").as_int())
        if "mod" in reader.data:
            return Guard.mod(reader.require("mod").as_int(), reader.require("rem").as_int())
    except SpecError as exc:
        reader.fail(str(exc))
    reader.fail('guard must carry "eq" or "mod"/"rem"')


def _read_parsed(reader, parse):
    key = (parse, reader.as_str())
    value = reader.parsed.get(key)
    if value is None:
        try:
            value = reader.parsed[key] = parse(key[1])
        except EngineError as exc:
            reader.fail(str(exc))
    return value


def _read_poly(reader) -> IndexPoly:
    return _read_parsed(reader, IndexPoly.parse)


def _read_affine(reader) -> AffineIndex:
    return _read_parsed(reader, AffineIndex.parse)


def _read_pair(reader):
    items = reader.as_list()
    if len(items) != 2:
        reader.fail("expected [family, index-expression]")
    return items[0].as_str(), _read_affine(items[1])


def _read_sum_to(reader) -> Optional[int]:
    if reader.data is None:
        return None
    affine = _read_affine(reader)
    if affine.n != 1 or affine.i != 0:
        reader.fail('summation upper bound must have the form "n + c"')
    return affine.const


def _read_delta_term(reader) -> DeltaTerm:
    reader.only_keys(("coeff", "left", "right", "sum_to", "when"), "delta term")
    lf, li = _read_pair(reader.require("left"))
    rf, ri = _read_pair(reader.require("right"))
    return DeltaTerm(
        coeff=_read_poly(reader.require("coeff")),
        left_family=lf,
        left_index=li,
        right_family=rf,
        right_index=ri,
        sum_upper=_read_sum_to(reader.optional("sum_to")),
        guard=_read_guard(reader.optional("when")),
    )


def _read_deriv_term(reader) -> DerivTerm:
    reader.only_keys(("coeff", "target", "when"), "coderivation term")
    fam, idx = _read_pair(reader.require("target"))
    coeff = _read_poly(reader.require("coeff"))
    guard = _read_guard(reader.optional("when"))
    try:
        return DerivTerm(coeff=coeff, family=fam, index=idx, guard=guard)
    except SpecError as exc:
        reader.fail(str(exc))


def _guard_to_json(guard: Optional[Guard]):
    if guard is None:
        return None
    if guard.exact is not None:
        return {"eq": guard.exact}
    return {"mod": guard.modulus, "rem": guard.residue}


def spec_to_dict(spec: CoalgebraSpec) -> dict:
    out = {
        "field": FORMAT_FIELD,
        "name": spec.name,
        "families": [
            {
                "name": f.name,
                "parity": f.parity,
                "range": [f.lo, f.hi],
            }
            for f in spec.families
        ],
        "shift_bound": spec.shift_bound,
    }
    for key, _, write_term in _SECTIONS:
        rule = getattr(spec, key)
        if rule is not None:
            out[key] = [
                {"family": fam, "terms": [write_term(t) for t in terms]}
                for fam, terms in sorted(rule.items())
            ]
    if spec.graded:
        out["graded"] = True
    if spec.description:
        out["description"] = spec.description
    if spec.coderivation_max_index is not None:
        out["coderivation_max_index"] = spec.coderivation_max_index
    return out


def _delta_term_to_json(t: DeltaTerm) -> dict:
    out = {
        "coeff": str(t.coeff),
        "left": [t.left_family, str(t.left_index)],
        "right": [t.right_family, str(t.right_index)],
    }
    if t.sum_upper is not None:
        out["sum_to"] = str(AffineIndex(n=1, const=t.sum_upper))
    if t.guard is not None:
        out["when"] = _guard_to_json(t.guard)
    return out


def _deriv_term_to_json(t: DerivTerm) -> dict:
    out = {
        "coeff": str(t.coeff),
        "target": [t.family, str(t.index)],
    }
    if t.guard is not None:
        out["when"] = _guard_to_json(t.guard)
    return out


# The keys a spec document may carry at its root.
_ROOT_KEYS = ("field", "families", "delta", "coderivation", "shift_bound", "name", "graded",
              "coderivation_max_index", "description")

# The rule sections: (key and `CoalgebraSpec` field, term reader, term writer).
_SECTIONS = (
    ("delta", _read_delta_term, _delta_term_to_json),
    ("coderivation", _read_deriv_term, _deriv_term_to_json),
)
