"""Rule-based coalgebras on countable bases, with structural checks.

A `CoalgebraSpec` pairs family declarations with a comultiplication rule
and an optional coderivation rule in the DSL of `rules`.  Checks run
over explicit finite index ranges and report exact witnesses; the engine
never claims unbounded verification.

`delta` and `d_label` are the rule evaluators.  On a label's first call
they run its family's compiled rule (`_rule`) once in integer
arithmetic and keep the result on the spec as a sorted term table with
integral coefficients as `int`, keyed by tuples of factors for both
rules.  That table is the one store of rule values: the coidentity
plan, `delta_linear`, `apply_d`, the dual oracle and
`validate_shift_bound` read it through `_int_terms`, which calls the
evaluator on a miss and asks it for the table alone.  A caller of
`delta` or `d_label` gets a `Fraction` view built from the table on
each call; no view is kept.

Every check reports through `scan`, the one place that collects
witnesses and stops at `MAX_WITNESSES`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace
from typing import Mapping, Optional, Union

from .errors import RangeError, SpecError
from .linalg import BasisLabel, FormalTensor, FormalVector, accumulate
from .rules import canonical_terms


@dataclass(frozen=True)
class FamilyDecl:
    """A named indexed family of basis vectors.

    Standalone basis vectors such as e or e_1 are families of range
    [0, 0]; `hi = None` means the family is infinite.
    """

    name: str
    parity: int = 0
    lo: int = 0
    hi: Optional[int] = None

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise SpecError(f"family {self.name!r}: parity must be 0 or 1")
        if self.lo < 0:
            raise SpecError(f"family {self.name!r}: lo must be nonnegative")
        if self.hi is not None and self.hi < self.lo:
            raise SpecError(f"family {self.name!r}: empty range [{self.lo}, {self.hi}]")

    @property
    def infinite(self) -> bool:
        return self.hi is None

    def contains(self, index: int) -> bool:
        return index >= self.lo and (self.hi is None or index <= self.hi)

    def range_str(self) -> str:
        return f"[{self.lo}, {'inf' if self.hi is None else self.hi}]"


@dataclass(frozen=True)
class Witness:
    """One exact counterexample: a subject and its nonzero residual."""

    subject: str
    residual: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.residual}"


@dataclass(frozen=True)
class CheckReport:
    """Verdict of a finite-range check with exact witnesses on failure.

    A report over a window that holds no label raises RangeError: a
    check that scanned nothing is never a pass.
    """

    name: str
    passed: bool
    checked: tuple  # ((family, lo, hi), ...): the window; a failing scan stops early
    witnesses: tuple = ()

    def __post_init__(self):
        if not self.checked:
            raise RangeError(
                f"{self.name}: the window holds no label, so nothing was checked"
            )
        if not self.passed and not self.witnesses:
            raise SpecError("failing report must carry a witness")

    def __str__(self) -> str:
        rng = ", ".join(f"{f}:{lo}..{hi}" for f, lo, hi in self.checked)
        head = f"{self.name}: {'PASS' if self.passed else 'FAIL'} (checked {rng})"
        for w in self.witnesses:
            head += f"\n  witness {w}"
        return head


MAX_WITNESSES = 3

# The rule attributes of a `CoalgebraSpec`: comultiplication, coderivation.
_RULE_KINDS = ("delta", "coderivation")


@dataclass(frozen=True)
class CoalgebraSpec:
    """Immutable description of a (differential, possibly graded) coalgebra.

    `delta` and `coderivation` map family names to rule-term tuples;
    missing entries and empty tuples both mean the zero map on that
    family.  `shift_bound` declares how far the rules move indices; see
    `validate_shift_bound`.  `coderivation_max_index` bounds where the
    coderivation is defined, for specs transposed from a finite window.
    """

    name: str
    families: tuple
    delta: Mapping[str, tuple]
    coderivation: Optional[Mapping[str, tuple]] = None
    shift_bound: int = 0
    graded: bool = False
    coderivation_max_index: Optional[int] = None
    description: str = ""

    def __post_init__(self):
        fams = tuple(self.families)
        names = [f.name for f in fams]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate family names in spec {self.name!r}")
        object.__setattr__(self, "families", fams)
        object.__setattr__(self, "_family_map", {f.name: f for f in fams})
        for kind in _RULE_KINDS:
            rule = getattr(self, kind)
            if rule is None:
                continue
            canonical = {}
            for fam, terms in dict(rule).items():
                self._require_family(fam)
                canonical[fam] = terms = canonical_terms(terms)
                for t in terms:
                    for target, _ in t.targets():
                        self._require_family(target)
            object.__setattr__(self, kind, canonical)
        if self.shift_bound < 0:
            raise SpecError("shift_bound must be nonnegative")
        # Rule evaluation, step kind -> label -> ((key, c), ...) sorted,
        # each key a tuple of factors ((l, r) for delta, (m,) for d) and
        # integral coefficients as int: the one store of rule values,
        # filled by `delta` and `d_label` and read through `_int_terms`.
        # `_rules` holds each family's rule compiled on first use and
        # `_labels` the labels it has built, family -> index -> label
        # (see `_rule`).
        object.__setattr__(self, "_int_cache", {"delta": {}, "d": {}})
        object.__setattr__(self, "_rules", {"delta": {}, "d": {}})
        object.__setattr__(self, "_labels", {})
        # The dual oracle's transposed delta, (l, r) -> [(k, c)] for the
        # labels k with index <= window; grown by `dual.dual_product`.
        object.__setattr__(self, "_product_table", SimpleNamespace(window=-1, hits={}))
        object.__setattr__(self, "parity_additive", self._audit_parity_additive())

    def _audit_parity_additive(self) -> bool:
        """True when every rule term respects parity additivity: the
        parities of a term's targets sum to its family's parity, so the
        factor parities of a delta term add up and the coderivation
        preserves parity.  This is a static rule property; the
        coidentity evaluator may then prune terms that the final parity
        projection is guaranteed to discard."""
        parity = {f.name: f.parity for f in self.families}
        for kind in _RULE_KINDS:
            for fam, terms in (getattr(self, kind) or {}).items():
                for t in terms:
                    total = parity[fam]
                    for target, _ in t.targets():
                        total += parity[target]
                    if total % 2:
                        return False
        return True

    def _require_family(self, name: str):
        if name not in self._family_map:
            raise SpecError(f"spec {self.name!r} does not declare family {name!r}")

    @property
    def differential(self) -> bool:
        return self.coderivation is not None

    def family(self, name: str) -> FamilyDecl:
        try:
            return self._family_map[name]
        except KeyError:
            raise SpecError(f"spec {self.name!r} does not declare family {name!r}") from None

    def label(self, family: str, index: int) -> BasisLabel:
        decl = self.family(family)
        if not decl.contains(index):
            raise RangeError(
                f"index {index} outside range {decl.range_str()} of family {family!r}"
            )
        return BasisLabel(family, index, decl.parity)

    def labels_upto(self, max_index: int):
        """All labels with index <= max_index, family order then index order."""
        out = []
        for decl in self.families:
            hi = max_index if decl.hi is None else min(decl.hi, max_index)
            out.extend(
                BasisLabel(decl.name, k, decl.parity) for k in range(decl.lo, hi + 1)
            )
        return out

    def checked_ranges(self, max_index: int) -> tuple:
        out = []
        for decl in self.families:
            hi = max_index if decl.hi is None else min(decl.hi, max_index)
            if hi >= decl.lo:
                out.append((decl.name, decl.lo, hi))
        return tuple(out)

    def same_rules(self, other: "CoalgebraSpec") -> bool:
        """Structural equality of families and canonical rules.

        Shift bounds and descriptions are engine metadata and are not
        compared.
        """
        return (
            self.families == other.families
            and self.graded == other.graded
            and all(_nonempty(getattr(self, kind)) == _nonempty(getattr(other, kind))
                    for kind in _RULE_KINDS)
        )


def _nonempty(rule: Optional[Mapping[str, tuple]]) -> Optional[dict]:
    if rule is None:
        return None
    return {fam: terms for fam, terms in rule.items() if terms}


def delta(spec: CoalgebraSpec, label: BasisLabel, _table: bool = False) -> FormalTensor:
    """Evaluate the comultiplication rule on one basis label.

    `_table` (for `_int_terms`) returns the integer term table instead
    and builds no `Fraction` view."""
    table = spec._int_cache["delta"].get(label)
    if table is None:
        decl = spec.family(label.family)
        if not decl.contains(label.index):
            raise RangeError(f"label {label} outside declared range {decl.range_str()}")
        table = _fill(spec, "delta", label, _delta_items)
    if _table:
        return table
    return FormalTensor._merged(_fraction_view(table, 2), ordered=True, arity=2)


def _delta_items(spec, terms, n: int):
    """The (key, c) terms of the compiled delta rule `terms` at index n,
    with c an `int` where it is integral."""
    for coeff, uses_i, upper, (lname, ln, li, lc, lrow), (rname, rn, ri, rc, rrow) in terms:
        c = None if uses_i else coeff.value(n)
        if c == 0:
            continue
        lbase, rbase = ln * n + lc, rn * n + rc
        for i in range(1 if upper is None else n + upper + 1):
            if uses_i:
                c = coeff.value(n, i)
                if not c:
                    continue
            l, r = lbase + li * i, rbase + ri * i
            left, right = lrow.get(l), rrow.get(r)
            if left is None:
                left = lrow[l] = spec.label(lname, l)
            if right is None:
                right = rrow[r] = spec.label(rname, r)
            yield (left, right), c


def delta_linear(spec: CoalgebraSpec, v: FormalVector) -> FormalTensor:
    """Linear extension of the comultiplication to formal vectors."""
    terms = ((key, c * c2) for label, c in v.items()
             for key, c2 in _int_terms(spec, "delta", label))
    return FormalTensor._merged(accumulate({}, terms), arity=2)


def d_label(spec: CoalgebraSpec, label: BasisLabel, _table: bool = False) -> FormalVector:
    """Evaluate the coderivation rule on one basis label; `_table` as
    for `delta`."""
    if not spec.differential:
        raise SpecError(f"spec {spec.name!r} has no coderivation")
    table = spec._int_cache["d"].get(label)
    if table is None:
        if (
            spec.coderivation_max_index is not None
            and label.index > spec.coderivation_max_index
        ):
            raise RangeError(
                f"coderivation of {spec.name!r} is only defined up to index "
                f"{spec.coderivation_max_index}, got {label}"
            )
        table = _fill(spec, "d", label, _d_items)
    if _table:
        return table
    return FormalVector._merged(_fraction_view(table, 1), ordered=True)


def _d_items(spec, terms, n: int):
    """The ((label,), c) terms of the compiled coderivation rule `terms`
    at index n, with c an `int` where it is integral."""
    for coeff, (name, cn, _, c0, row) in terms:
        c = coeff.value(n)
        if c:
            m = cn * n + c0
            label = row.get(m)
            if label is None:
                label = row[m] = spec.label(name, m)
            yield (label,), c


def _rule(spec: CoalgebraSpec, kind: str, family: str, n: int):
    """The compiled terms of `family`'s delta or d rule that apply at
    index n, in canonical order.

    Each family's rule is compiled on first use into its unguarded
    terms, its exact-guard terms indexed by their n, and its
    residue-guard terms.  A term's targets are (family, cn, ci, c0, row):
    its index expression and the family's row of `spec._labels`, so a
    label is built, and its range checked by `spec.label`, once per spec.
    """
    rules = spec._rules[kind]
    compiled = rules.get(family)
    if compiled is None:
        plain, exact, modular = [], {}, []
        rule = spec.delta if kind == "delta" else spec.coderivation
        for t in rule.get(family, ()):
            if kind == "delta":
                entry = (t.coeff, t.coeff.uses_i(), t.sum_upper,
                         _target(spec, t.left_family, t.left_index),
                         _target(spec, t.right_family, t.right_index))
            else:
                entry = (t.coeff, _target(spec, t.family, t.index))
            if t.guard is None:
                plain.append(entry)
            elif t.guard.exact is not None:
                exact.setdefault(t.guard.exact, []).append(entry)
            else:
                modular.append((t.guard, entry))
        compiled = rules[family] = (plain, exact, modular)
    plain, exact, modular = compiled
    if not exact and not modular:
        return plain
    return plain + exact.get(n, []) + [e for guard, e in modular if guard.matches(n)]


def _target(spec: CoalgebraSpec, family: str, index) -> tuple:
    row = spec._labels.setdefault(family, {})
    return (family, index.n, index.i, index.const, row)


def _fill(spec: CoalgebraSpec, kind: str, label: BasisLabel, items) -> tuple:
    """Store and return the integer term table of `kind`'s rule at
    `label`: the terms `items` yields for its compiled rule, merged by
    `accumulate` and sorted by key."""
    n = label.index
    terms = items(spec, _rule(spec, kind, label.family, n), n)
    table = spec._int_cache[kind][label] = tuple(sorted(accumulate({}, terms).items()))
    return table


def _fraction_view(table: tuple, arity: int) -> dict:
    """The terms of an integer term table as a sorted dict of `Fraction`s,
    one `Fraction` per distinct coefficient (most rules have a handful),
    so the view costs few allocations.  At `arity` 1 each key is the
    bare label, as `FormalVector` keys its terms."""
    fractions = {c: Fraction(c) for c in {c for _, c in table}}
    if arity == 1:
        return {key: fractions[c] for (key,), c in table}
    return {key: fractions[c] for key, c in table}


def _int_terms(spec: CoalgebraSpec, kind: str, label) -> tuple:
    """The terms of delta(spec, label) or d_label(spec, label) as
    ((key, c), ...), each key a tuple of factors and integral
    coefficients as int: the table that rule evaluation fills, without
    its `Fraction` view."""
    table = spec._int_cache[kind].get(label)
    if table is None:
        table = (delta if kind == "delta" else d_label)(spec, label, _table=True)
    return table


def apply_d(spec: CoalgebraSpec, v: Union[FormalVector, BasisLabel]) -> FormalVector:
    """Linear extension of the coderivation."""
    if isinstance(v, BasisLabel):
        return d_label(spec, v)
    terms = ((m, c * c2) for label, c in v.items()
             for (m,), c2 in _int_terms(spec, "d", label))
    return FormalVector._merged(accumulate({}, terms))


def scan(name, checked, subjects, residual, render=str) -> CheckReport:
    """Walk `subjects` lazily and report the first MAX_WITNESSES nonzero
    residuals as `Witness(render(subject), str(residual))`.

    `checked` is the window the report claims to cover.  Every check
    reports through here; a check with several faults per label yields
    them as (subject, residual) pairs, in order.
    """
    witnesses = []
    for subject in subjects:
        r = residual(subject)
        if r:
            witnesses.append(Witness(render(subject), str(r)))
            if len(witnesses) >= MAX_WITNESSES:
                break
    return CheckReport(
        name=name, passed=not witnesses, checked=checked, witnesses=tuple(witnesses)
    )


def coderivation_check(spec: CoalgebraSpec, max_index: int) -> CheckReport:
    """Verify delta(d(b)) = (d (x) id + id (x) d) delta(b) on a range, as
    the coidentity plan `identities.CODERIVATION`."""
    from .identities import CODERIVATION  # identities imports this module

    if not spec.differential:
        raise SpecError(f"spec {spec.name!r} has no coderivation")
    return scan(
        "coderivation",
        spec.checked_ranges(max_index),
        spec.labels_upto(max_index),
        lambda label: CODERIVATION.apply(spec, label),
    )


def cocommutativity_check(spec: CoalgebraSpec, max_index: int) -> CheckReport:
    """Verify delta = flip . delta on a range; graded flip on a graded spec."""

    def residual(label):
        t = delta(spec, label)
        return t - t.flip(1, graded=spec.graded)

    name = "cocommutativity" + (" (graded)" if spec.graded else "")
    return scan(
        name, spec.checked_ranges(max_index), spec.labels_upto(max_index), residual
    )


def validate_shift_bound(spec: CoalgebraSpec, max_index: int) -> CheckReport:
    """Check the declared shift bound on every label in range.

    For each produced tensor term l (x) r of delta(b_n):

    * any factor in an infinite family must have index <= n + s, and
    * index(l) + index(r) >= n - s.

    For each label m produced by the coderivation: m <= n + s when in an
    infinite family, and m >= n - s.  Together these guarantee that dual
    products and the transposed derivation of finitely supported
    functionals stay finitely supported, with support windows computable
    from s.  Each fault goes to `scan` as (label, message), in label
    order, so the report stops at the third even within one label.
    """
    s = spec.shift_bound

    def faults():
        for label in spec.labels_upto(max_index):
            n = label.index
            for (l, r), _ in _int_terms(spec, "delta", label):
                for factor in (l, r):
                    if spec.family(factor.family).infinite and factor.index > n + s:
                        yield str(label), f"factor {factor} exceeds index {n} + {s}"
                if l.index + r.index < n - s:
                    yield str(label), f"term {l}(x){r} has index sum below {n} - {s}"
            if spec.differential and (
                spec.coderivation_max_index is None or n <= spec.coderivation_max_index
            ):
                for (m,), _ in _int_terms(spec, "d", label):
                    if spec.family(m.family).infinite and m.index > n + s:
                        yield str(label), f"d image {m} exceeds index {n} + {s}"
                    if m.index < n - s:
                        yield str(label), f"d image {m} below index {n} - {s}"

    return scan(
        f"shift-bound ({s})",
        spec.checked_ranges(max_index),
        faults(),
        itemgetter(1),
        render=itemgetter(0),
    )
