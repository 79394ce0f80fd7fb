from fractions import Fraction

import dataclasses
import pytest
from hypothesis import given, strategies as st

from cocheck import (
    BasisLabel,
    CoalgebraSpec,
    FamilyDecl,
    FormalTensor,
    FormalVector,
    RangeError,
    SpecError,
    antisymmetrize,
    apply_d,
    builtin,
    builtin_identities,
    check_identity,
    cocommutativity_check,
    coderivation_check,
    delta,
    delta_linear,
    dual_derivation,
    dumps_spec,
    gelfand_dorfman,
    graded_dual,
    kantor,
    loads_spec,
    validate_shift_bound,
)
from cocheck import coalgebra
from cocheck.coalgebra import _int_terms, d_label, scan
from cocheck.rules import AffineIndex, Guard, delta_term, deriv_term
from conftest import vec


@pytest.fixture(scope="module")
def specs():
    return {name: builtin(name) for name in
            ["example1", "example2", "example3", "example4", "example5",
             "example6", "example7", "example8", "example9"]}


def T(spec, pairs):
    """Expected arity-2 tensor from ((family, idx, family, idx), coeff)."""
    return FormalTensor(
        2,
        {
            (spec.label(lf, li), spec.label(rf, ri)): Fraction(c)
            for (lf, li, rf, ri), c in pairs.items()
        },
    )


# Closed formulas written out independently of the rule DSL, used as
# oracles for every builtin example on indices 0..30.
def expected_delta(name, spec, fam, n):
    if name == "example1":
        if fam == "e":
            return T(spec, {("e", 0, "e", 0): 1})
        return T(spec, {("f", n, "e", 0): 1, ("e", 0, "f", n): 1})
    if name == "example2":
        if fam == "e":
            return FormalTensor(2)
        return T(spec, {("e", 0, "f", n + 1): 1})
    if name == "example3":
        if fam == "e":
            return FormalTensor(2)
        return T(spec, {("e", 0, "f", n + 1): 1, ("f", n + 1, "e", 0): -1})
    if name == "example4":
        return T(spec, {("x", i, "x", n - i): 1 for i in range(n + 1)})
    if name == "example5":
        return T(spec, {("x", i, "x", n - i + 1): n - i + 1 for i in range(n + 1)})
    if name == "example6":
        return T(
            spec,
            {
                ("x", i, "x", n + 1 - i): n + 1 - 2 * i
                for i in range(n + 2)
                if n + 1 - 2 * i
            },
        )
    if name == "example7":
        if fam == "e":
            return T(spec, {("e", 0, "e", 0): 1})
        if fam == "~e":
            return T(spec, {("e", 0, "~e", 0): 1, ("~e", 0, "e", 0): 1})
        if fam == "f":
            return T(
                spec,
                {
                    ("e", 0, "f", n): 1,
                    ("f", n, "e", 0): 1,
                    ("~e", 0, "~f", n + 1): 1,
                    ("~f", n + 1, "~e", 0): -1,
                },
            )
        return T(
            spec,
            {
                ("e", 0, "~f", n): 1,
                ("~f", n, "e", 0): 1,
                ("~e", 0, "f", n): 1,
                ("f", n, "~e", 0): 1,
            },
        )
    if name == "example8":
        if fam == "x":
            even = {("x", i, "x", n - i): 1 for i in range(n + 1)}
            odd = {
                ("~x", i, "~x", n - i + 1): n + 1 - 2 * i
                for i in range(n + 2)
                if n + 1 - 2 * i
            }
            return T(spec, {**even, **odd})
        return T(
            spec,
            {
                **{("~x", i, "x", n - i): 1 for i in range(n + 1)},
                **{("x", i, "~x", n - i): 1 for i in range(n + 1)},
            },
        )
    if name == "example9":
        if fam in ("e1", "e2"):
            return FormalTensor(2)
        if n % 3 == 1:
            return T(spec, {("e1", 0, "f", n + 2): 1})
        if n % 3 == 2:
            return T(spec, {("e2", 0, "f", n + 1): 1})
        return T(
            spec,
            {
                ("e2", 0, "f", n + 1): 1,
                ("f", n + 1, "e2", 0): -1,
                ("e1", 0, "f", n + 2): -1,
                ("f", n + 2, "e1", 0): 1,
            },
        )
    raise AssertionError(name)


class TestDeltaExamples:
    def test_example1_values(self, specs):
        ex1 = specs["example1"]
        assert str(delta(ex1, ex1.label("e", 0))) == "e:0⊗e:0"
        assert str(delta(ex1, ex1.label("f", 3))) == "e:0⊗f:3 + f:3⊗e:0"

    def test_example4_value(self, specs):
        ex4 = specs["example4"]
        assert delta(ex4, ex4.label("x", 3)) == T(
            ex4, {("x", 0, "x", 3): 1, ("x", 1, "x", 2): 1,
                  ("x", 2, "x", 1): 1, ("x", 3, "x", 0): 1}
        )

    def test_example9_values(self, specs):
        ex9 = specs["example9"]
        assert delta(ex9, ex9.label("f", 1)) == T(ex9, {("e1", 0, "f", 3): 1})
        assert delta(ex9, ex9.label("f", 3)) == T(
            ex9,
            {
                ("e2", 0, "f", 4): 1,
                ("f", 4, "e2", 0): -1,
                ("e1", 0, "f", 5): -1,
                ("f", 5, "e1", 0): 1,
            },
        )

    def test_example6_value_at_zero(self, specs):
        ex6 = specs["example6"]
        assert delta(ex6, ex6.label("x", 0)) == T(
            ex6, {("x", 0, "x", 1): 1, ("x", 1, "x", 0): -1}
        )

    @pytest.mark.parametrize("name", [f"example{k}" for k in range(1, 10)])
    def test_matches_closed_formulas_to_30(self, specs, name):
        spec = specs[name]
        for decl in spec.families:
            hi = 30 if decl.hi is None else min(decl.hi, 30)
            for n in range(decl.lo, hi + 1):
                label = spec.label(decl.name, n)
                assert delta(spec, label) == expected_delta(
                    name, spec, decl.name, n
                ), f"{name} delta({label})"

    def test_rule_evaluation_pure(self, specs):
        ex5 = specs["example5"]
        l = ex5.label("x", 7)
        assert delta(ex5, l) == delta(ex5, l)

    def test_out_of_range_label(self, specs):
        with pytest.raises(RangeError):
            delta(specs["example1"], specs["example1"].label("f", 1).__class__("f", 0, 0))


class TestLinearity:
    def test_delta_linear_zero(self, specs):
        assert not delta_linear(specs["example1"], FormalVector())

    def test_delta_linear_difference(self, specs):
        ex2 = specs["example2"]
        v = vec((ex2.label("f", 1), 1), (ex2.label("f", 2), -1))
        assert delta_linear(ex2, v) == T(
            ex2, {("e", 0, "f", 2): 1, ("e", 0, "f", 3): -1}
        )

    def test_delta_linear_scaling(self, specs):
        ex1 = specs["example1"]
        v = vec((ex1.label("e", 0), 2))
        assert delta_linear(ex1, v) == T(ex1, {("e", 0, "e", 0): 2})

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    def test_delta_linearity_random(self, a, b, i, j):
        ex4 = builtin("example4")
        u = vec((ex4.label("x", i), 1))
        v = vec((ex4.label("x", j), 1))
        lhs = delta_linear(ex4, u.scale(a) + v.scale(b))
        rhs = delta_linear(ex4, u).scale(a) + delta_linear(ex4, v).scale(b)
        assert lhs == rhs


class TestCoderivation:
    def test_apply_d_values(self, specs):
        ex1, ex4 = specs["example1"], specs["example4"]
        assert apply_d(ex1, ex1.label("f", 5)) == vec((ex1.label("f", 6), 1))
        assert apply_d(ex1, ex1.label("e", 0)) == FormalVector()
        assert apply_d(ex4, ex4.label("x", 2)) == vec((ex4.label("x", 3), 3))

    def test_apply_d_requires_coderivation(self, specs):
        with pytest.raises(SpecError):
            apply_d(specs["example2"], specs["example2"].label("f", 1))

    def test_coderivation_check_passes(self, specs):
        assert coderivation_check(specs["example1"], 50).passed
        assert coderivation_check(specs["example4"], 50).passed

    def test_coderivation_check_to_100(self, specs):
        assert coderivation_check(specs["example1"], 100).passed
        assert coderivation_check(specs["example4"], 100).passed

    def test_mutated_d_fails_with_witness(self, specs):
        ex1 = specs["example1"]
        broken = dataclasses.replace(
            ex1,
            name="example1-broken-d",
            coderivation={
                "e": [deriv_term(1, ("e", 0))],
                "f": [deriv_term(1, ("f", "n + 1"))],
            },
        )
        report = coderivation_check(broken, 10)
        assert not report.passed
        assert report.witnesses[0].subject == "e:0"
        # delta(d(e)) - (d(x)id + id(x)d) delta(e) = e(x)e - 2 e(x)e
        assert report.witnesses[0].residual == "-e:0⊗e:0"


def reference_coderivation_check(spec, max_index):
    """The coderivation law as a hand-written residual in FormalTensor
    arithmetic, independent of the coidentity plan that
    `coderivation_check` runs: delta(d(b)) - (d (x) id + id (x) d) delta(b)."""

    def residual(label):
        rhs = []
        for (l, r), c in delta(spec, label).items():
            rhs += [((m, r), c * cm) for m, cm in apply_d(spec, l).items()]
            rhs += [((l, m), c * cm) for m, cm in apply_d(spec, r).items()]
        return delta_linear(spec, apply_d(spec, label)) - FormalTensor(2, rhs)

    return scan(
        "coderivation",
        spec.checked_ranges(max_index),
        spec.labels_upto(max_index),
        residual,
    )


class TestCoderivationPlan:
    def test_reports_match_the_hand_written_residual(self):
        # 8 specs at 5 windows: the two builtin differential coalgebras,
        # their antisymmetrizations, a graded dual with a bounded
        # coderivation window and three broken coderivations, one with
        # non-integral residuals.
        ex1, ex4 = builtin("example1"), builtin("example4")
        specs = [
            ex1, ex4, antisymmetrize(ex1), antisymmetrize(ex4),
            graded_dual(builtin("fx-diff-algebra", horizon=48), horizon=48),
            dataclasses.replace(ex1, name="example1-d-e", coderivation={
                "e": [deriv_term(1, ("e", 0))], "f": [deriv_term(1, ("f", "n + 1"))]}),
            dataclasses.replace(ex4, name="example4-d-unit", coderivation={
                "x": [deriv_term(1, ("x", "n + 1"))]}),
            dataclasses.replace(ex4, name="example4-d-third", coderivation={
                "x": [deriv_term("(n + 2)/3", ("x", "n + 1"))]}),
        ]
        failing = 0
        for spec in specs:
            for window in (0, 1, 5, 17, 40):
                report = coderivation_check(spec, window)
                assert str(report) == str(reference_coderivation_check(spec, window))
                failing += not report.passed
        # example1-d-e fails from window 0, the example4 ones from 1.
        assert failing == 13
        residuals = [w.residual for spec in specs[5:]
                     for w in coderivation_check(spec, 5).witnesses]
        assert any("/3" in r for r in residuals)


def fraction_value(poly, n, i=0):
    """An IndexPoly evaluated term by term in Fraction arithmetic."""
    return sum((c * n**dn * i**di for (dn, di), c in poly.coeffs), Fraction(0))


def reference_delta(spec, label):
    """delta(spec, label) as the Fraction loop over the rule terms that
    evaluated it before the integer kernel."""
    n = label.index
    items = []
    for term in spec.delta.get(label.family, ()):
        if term.guard is not None and not term.guard.matches(n):
            continue
        upper = 0 if term.sum_upper is None else n + term.sum_upper
        for i in range(upper + 1):
            c = fraction_value(term.coeff, n, i)
            if c:
                l = spec.label(term.left_family, term.left_index.evaluate(n, i))
                r = spec.label(term.right_family, term.right_index.evaluate(n, i))
                items.append(((l, r), c))
    return FormalTensor(2, items)


def reference_d_label(spec, label):
    """d_label(spec, label) as the same Fraction loop."""
    n = label.index
    items = []
    for term in spec.coderivation.get(label.family, ()):
        if term.guard is None or term.guard.matches(n):
            c = fraction_value(term.coeff, n)
            if c:
                items.append((spec.label(term.family, term.index.evaluate(n)), c))
    return FormalVector(items)


def structure_scan_specs():
    """The seven construction outputs of the structure-scan benchmark,
    read back from their spec files, at its check window."""
    ex = {name: builtin(name) for name in ("example1", "example2", "example4", "example5")}
    built = [
        graded_dual(builtin("fx-diff-algebra", horizon=48), horizon=48),
        gelfand_dorfman(ex["example1"]), gelfand_dorfman(ex["example4"]),
        antisymmetrize(ex["example2"]), antisymmetrize(ex["example5"]),
        kantor(ex["example1"]), kantor(ex["example4"]),
    ]
    return [(loads_spec(dumps_spec(spec)), 32) for spec in built]


def fractional_specs():
    """example4 with rational rule coefficients, some integral at some n."""
    ex4 = builtin("example4")
    spec = dataclasses.replace(
        ex4, name="example4-fractional",
        delta={"x": [delta_term("(n - i)/2", ("x", "i"), ("x", "n - i"), sum_upper=0),
                     delta_term("n^2/3", ("x", 0), ("x", "n"), guard=Guard.mod(2, 1))]},
        coderivation={"x": [deriv_term("(n + 2)/3", ("x", "n + 1"))]},
    )
    return [(spec, 40)]


def keyed(kind, value):
    """A delta or d view's terms keyed as in the integer term table: a
    tuple of factors for both rules."""
    if kind == "d":
        return tuple(((m,), c) for m, c in value.items())
    return tuple(value.items())


# The structure-scan benchmark's windows for example1 and example4.
BUILTIN_WINDOWS = {"example1": 300, "example4": 70}


class TestIntegerKernel:
    @pytest.mark.parametrize("source", ["builtins", "structure-scan", "fractional"])
    def test_matches_the_fraction_loop(self, specs, source):
        if source == "builtins":
            cases = [(spec, BUILTIN_WINDOWS.get(name, 32)) for name, spec in specs.items()]
        else:
            cases = structure_scan_specs() if source == "structure-scan" else fractional_specs()
        kinds_seen = set()
        for spec, window in cases:
            for label in spec.labels_upto(window):
                kinds = [("delta", delta, reference_delta)]
                if spec.differential and (spec.coderivation_max_index is None
                                          or label.index <= spec.coderivation_max_index):
                    kinds.append(("d", d_label, reference_d_label))
                for kind, evaluate, reference in kinds:
                    value = evaluate(spec, label)
                    assert value == reference(spec, label), (spec.name, label)
                    table = _int_terms(spec, kind, label)
                    assert table == keyed(kind, value)
                    for _, c in table:
                        assert type(c) is (int if c.denominator == 1 else Fraction)
                        kinds_seen.add((kind, type(c)))
        if source == "fractional":
            assert len(kinds_seen) == 4

    def test_exact_guards_are_indexed(self):
        # graded-dual's transposed coderivation is one exact-guard term
        # per index: the compiled rule of a label holds only its own.
        spec = graded_dual(builtin("fx-diff-algebra", horizon=48), horizon=48)
        assert d_label(spec, spec.label("x", 7)) == reference_d_label(spec, spec.label("x", 7))
        plain, exact, modular = spec._rules["d"]["x"]
        assert not plain and not modular
        assert sorted(exact) == list(range(48))
        assert all(len(terms) == 1 for terms in exact.values())

    def test_range_error_names_the_label_out_of_range(self):
        spec = CoalgebraSpec(
            name="leave",
            families=(FamilyDecl("x"), FamilyDecl("y", parity=1, hi=2)),
            delta={"x": [delta_term("n - 3", ("y", "n"), ("y", "n"))],
                   "y": [delta_term(1, ("x", 0), ("y", "i + 1"), sum_upper=0)]},
            coderivation={"x": [deriv_term(1, ("y", "n"))]},
        )
        for n in range(3):
            label = spec.label("x", n)
            assert delta(spec, label) == reference_delta(spec, label)
            assert d_label(spec, label) == reference_d_label(spec, label)
        # A zero coefficient builds no label, as in the Fraction loop.
        assert not delta(spec, spec.label("x", 3))
        out_of_range = r"^index {} outside range \[0, 2\] of family 'y'$"
        with pytest.raises(RangeError, match=out_of_range.format(4)):
            delta(spec, spec.label("x", 4))
        with pytest.raises(RangeError, match=out_of_range.format(3)):
            delta(spec, spec.label("y", 2))
        with pytest.raises(RangeError, match=out_of_range.format(3)):
            d_label(spec, spec.label("x", 3))


    def test_fraction_view_is_built_from_the_table_on_demand(self, specs):
        cases = [(builtin(name), BUILTIN_WINDOWS.get(name, 32)) for name in specs]
        for spec, window in cases + fractional_specs():
            labels = spec.labels_upto(window)
            kinds = [("delta", delta, reference_delta)]
            if spec.differential:
                kinds.append(("d", d_label, reference_d_label))
            for kind, evaluate, reference in kinds:
                # The table first, then a fresh view of it on every call.
                tables = [_int_terms(spec, kind, label) for label in labels]
                for label, table in zip(labels, tables):
                    value = evaluate(spec, label)
                    assert value == reference(spec, label), (spec.name, label)
                    assert list(value.items()) == sorted(value.items())
                    assert all(type(c) is Fraction for _, c in value.items())
                    assert keyed(kind, value) == table
                    again = evaluate(spec, label)
                    assert again == value and again is not value
                    assert _int_terms(spec, kind, label) is table

    def test_the_plan_builds_no_fraction_view(self, monkeypatch):
        def refuse(table, arity):
            raise AssertionError("the plan built a Fraction view")

        monkeypatch.setattr(coalgebra, "_fraction_view", refuse)
        ex4, ex6 = builtin("example4"), builtin("example6")
        assert coderivation_check(ex4, 40).passed
        assert check_identity(ex6, builtin_identities()["jordan-linearized"], 6).passed
        for spec in (ex4, ex6):
            assert spec._int_cache["delta"]
        assert ex4._int_cache["d"]

    def test_errors_keep_their_messages_when_the_table_comes_first(self):
        spec = CoalgebraSpec(
            name="leave",
            families=(FamilyDecl("x"), FamilyDecl("y", parity=1, hi=2)),
            delta={"x": [delta_term("n - 3", ("y", "n"), ("y", "n"))]},
            coderivation={"x": [deriv_term(1, ("y", "n"))]},
        )
        with pytest.raises(RangeError, match=r"^index 4 outside range \[0, 2\] of family 'y'$"):
            _int_terms(spec, "delta", spec.label("x", 4))
        with pytest.raises(RangeError, match=r"^index 3 outside range \[0, 2\] of family 'y'$"):
            _int_terms(spec, "d", spec.label("x", 3))
        with pytest.raises(RangeError,
                           match=r"^label y:3 outside declared range \[0, 2\]$"):
            _int_terms(spec, "delta", BasisLabel("y", 3, 1))
        dual = graded_dual(builtin("fx-diff-algebra", horizon=48), horizon=48)
        with pytest.raises(RangeError, match=(
                r"^coderivation of 'graded-dual\(fx-diff-algebra\)' is only defined "
                r"up to index 47, got x:48$")):
            _int_terms(dual, "d", dual.label("x", 48))
        ex2 = builtin("example2")
        with pytest.raises(SpecError, match=r"^spec 'example2' has no coderivation$"):
            _int_terms(ex2, "d", ex2.label("e", 0))
        # A failed evaluation leaves no table behind.
        assert spec.label("x", 4) not in spec._int_cache["delta"]
        assert spec.label("x", 3) not in spec._int_cache["d"]
        assert dual.label("x", 48) not in dual._int_cache["d"]


@st.composite
def drawn_vectors(draw, spec, max_index=8):
    """A vector of up to four terms over the labels of spec up to max_index."""
    terms = draw(st.lists(st.tuples(
        st.sampled_from(spec.labels_upto(max_index)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ), max_size=4))
    return FormalVector(terms)


TABLE_READERS = ["example1", "example4", "example8"]


class TestTableReaders:
    """`delta_linear`, `apply_d` and `dual_derivation` read the integer
    term table; each must equal its definition over the `Fraction` views
    that `delta` and `d_label` return."""

    @pytest.mark.parametrize("name", TABLE_READERS)
    @given(data=st.data())
    def test_delta_linear_sums_the_delta_views(self, specs, name, data):
        spec = specs[name]
        v = data.draw(drawn_vectors(spec))
        expected = FormalTensor(2, [])
        for label, c in v.items():
            expected = expected + delta(spec, label).scale(c)
        value = delta_linear(spec, v)
        assert value == expected
        assert all(type(c) is Fraction for _, c in value.items())

    @pytest.mark.parametrize("name", TABLE_READERS)
    @given(data=st.data())
    def test_apply_d_sums_the_d_views(self, specs, name, data):
        spec = specs[name]
        v = data.draw(drawn_vectors(spec))
        if not spec.differential:
            if v:
                with pytest.raises(SpecError, match="has no coderivation"):
                    apply_d(spec, v)
            return
        expected = FormalVector()
        for label, c in v.items():
            expected = expected + d_label(spec, label).scale(c)
        value = apply_d(spec, v)
        assert value == expected
        assert all(type(c) is Fraction for _, c in value.items())

    @pytest.mark.parametrize("name", TABLE_READERS)
    @given(data=st.data())
    def test_dual_derivation_is_f_after_d(self, specs, name, data):
        spec = specs[name]
        f = data.draw(drawn_vectors(spec))
        if not spec.differential:
            with pytest.raises(SpecError, match="has no coderivation"):
                dual_derivation(spec, f)
            return
        # (d* f)(b) = f(d(b)) on every label b, a few past the window the
        # shift bound gives, where it must vanish.
        upto = (f.max_index() if f else 0) + spec.shift_bound + 3
        expected = FormalVector([
            (b, sum((c * f.coefficient(m) for m, c in d_label(spec, b).items()),
                    Fraction(0)))
            for b in spec.labels_upto(upto)
        ])
        value = dual_derivation(spec, f)
        assert value == expected
        assert all(type(c) is Fraction for _, c in value.items())


class TestCocommutativity:
    def test_example1_passes(self, specs):
        assert cocommutativity_check(specs["example1"], 50).passed

    def test_example2_fails_with_witness(self, specs):
        report = cocommutativity_check(specs["example2"], 20)
        assert not report.passed
        w = report.witnesses[0]
        assert w.subject == "f:1"
        assert w.residual == "e:0⊗f:2 - f:2⊗e:0"
        # The scan stops at the third witness.
        assert [w.subject for w in report.witnesses] == ["f:1", "f:2", "f:3"]

    def test_example7_graded_passes_plain_fails(self, specs):
        ex7 = specs["example7"]
        assert ex7.graded and cocommutativity_check(ex7, 20).passed
        plain = dataclasses.replace(ex7, graded=False)
        assert not cocommutativity_check(plain, 20).passed

    def test_example4_passes(self, specs):
        assert cocommutativity_check(specs["example4"], 50).passed


class TestShiftBound:
    def test_example1_bound_one(self, specs):
        assert validate_shift_bound(specs["example1"], 40).passed

    def test_example9_bound_two(self, specs):
        assert validate_shift_bound(specs["example9"], 40).passed

    def test_example9_bound_one_fails(self, specs):
        tight = dataclasses.replace(specs["example9"], shift_bound=1)
        assert not validate_shift_bound(tight, 20).passed

    def test_example4_zero_declared_fails(self, specs):
        bad = dataclasses.replace(specs["example4"], shift_bound=0)
        report = validate_shift_bound(bad, 20)
        assert not report.passed
        assert "d image" in report.witnesses[0].residual

    def test_witnesses_stop_at_the_cap_within_a_label(self):
        # Each label breaks the bound twice, once per factor: the scan
        # stops at the third fault, inside the second label.
        spec = CoalgebraSpec(
            name="overshoot",
            families=(FamilyDecl("x"),),
            delta={"x": [delta_term(1, ("x", "n + 1"), ("x", "n + 1"))]},
        )
        report = validate_shift_bound(spec, 5)
        assert not report.passed
        assert [str(w) for w in report.witnesses] == [
            "x:0: factor x:1 exceeds index 0 + 0",
            "x:0: factor x:1 exceeds index 0 + 0",
            "x:1: factor x:2 exceeds index 1 + 0",
        ]

    @pytest.mark.parametrize("name", [f"example{k}" for k in range(1, 10)])
    def test_all_builtins_validate(self, specs, name):
        assert validate_shift_bound(specs[name], 40).passed


MIXED = (FamilyDecl("u"), FamilyDecl("v", parity=1))


def test_targets_name_each_produced_factor():
    t = delta_term(1, ("u", "i"), ("v", "n - i"), sum_upper=0)
    assert t.targets() == (("u", AffineIndex(i=1)), ("v", AffineIndex(n=1, i=-1)))
    assert deriv_term(1, ("v", "n + 1")).targets() == (("v", AffineIndex(n=1, const=1)),)


class TestParityAudit:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: builtin("example7"), id="example7"),
        pytest.param(lambda: builtin("example8"), id="example8"),
        pytest.param(lambda: kantor(builtin("example1")), id="kantor(example1)"),
        pytest.param(lambda: kantor(builtin("example4")), id="kantor(example4)"),
    ])
    def test_super_coalgebras_are_parity_additive(self, make):
        assert make().parity_additive

    def test_delta_term_whose_factor_parities_do_not_add_up(self):
        odd_sum = delta_term(1, ("u", "n"), ("v", "n"))
        assert CoalgebraSpec(name="ok", families=MIXED, delta={"v": [odd_sum]}).parity_additive
        bad = CoalgebraSpec(name="bad", families=MIXED, delta={"u": [odd_sum]})
        assert not bad.parity_additive

    def test_coderivation_from_an_even_to_an_odd_family(self):
        to_odd = deriv_term(1, ("v", "n"))
        ok = CoalgebraSpec(name="ok", families=MIXED, delta={}, coderivation={"v": [to_odd]})
        assert ok.parity_additive
        bad = CoalgebraSpec(name="bad", families=MIXED, delta={}, coderivation={"u": [to_odd]})
        assert not bad.parity_additive


class TestSpecValidation:
    def test_duplicate_family_names(self):
        with pytest.raises(SpecError):
            CoalgebraSpec(
                name="dup",
                families=(FamilyDecl("a"), FamilyDecl("a")),
                delta={},
            )

    def test_rule_must_target_declared_family(self):
        from cocheck.rules import delta_term

        with pytest.raises(SpecError):
            CoalgebraSpec(
                name="bad",
                families=(FamilyDecl("a"),),
                delta={"a": [delta_term(1, ("a", "n"), ("b", "n"))]},
            )

    def test_labels_upto_order(self, specs):
        ex9 = specs["example9"]
        labels = ex9.labels_upto(2)
        assert [str(l) for l in labels] == ["e1:0", "e2:0", "f:1", "f:2"]
