import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cocheck import (
    CoalgebraSpec,
    FamilyDecl,
    FormalVector,
    ShiftBoundError,
    SpecError,
    bruteforce_identity,
    builtin,
    builtin_identities,
    check_identity,
    coordinate_functional,
    delta,
    dual_derivation,
    dual_product,
    grassmann_envelope_check,
)
from cocheck import dual
from cocheck.coalgebra import MAX_WITNESSES
from cocheck.dual import DualEvaluator, slot_classes
from cocheck.identities import Leaf, requires_coderivation
from cocheck.identlang import parse_identity
from cocheck.rules import Guard, delta_term
from conftest import symmetrized_st

UNGRADED = ["example1", "example2", "example3", "example4",
            "example5", "example6", "example9"]


def xi(spec, fam, i):
    return coordinate_functional(spec, fam, i)


def rescan(spec, f, g, upto):
    """The product fg on every label up to `upto`, straight from delta."""
    out = {}
    for label in spec.labels_upto(upto):
        total = sum(
            (c * f.coefficient(l) * g.coefficient(r)
             for (l, r), c in delta(spec, label).items()),
            Fraction(0),
        )
        if total:
            out[label] = total
    return FormalVector(out)


def naive_polynomial(spec, p, funcs):
    """p on the functionals `funcs` of slots 1..arity, by plain recursion
    through dual_product and dual_derivation with no memo at all."""

    def value(mono):
        if isinstance(mono, Leaf):
            f = funcs[mono.var.slot - 1]
            for _ in range(mono.var.deriv):
                f = dual_derivation(spec, f, validate=False)
            return f
        return dual_product(spec, value(mono.left), value(mono.right), validate=False)

    out = FormalVector()
    for coeff, mono in p.terms:
        out = out + value(mono).scale(coeff)
    return out


@pytest.fixture(scope="module")
def ex1():
    return builtin("example1")


@pytest.fixture(scope="module")
def cat():
    return builtin_identities()


class TestDualProduct:
    def test_idempotent_unit_like_element(self, ex1):
        assert dual_product(ex1, xi(ex1, "e", 0), xi(ex1, "e", 0)) == xi(ex1, "e", 0)

    def test_f_times_e(self, ex1):
        assert dual_product(ex1, xi(ex1, "f", 1), xi(ex1, "e", 0)) == xi(ex1, "f", 1)

    def test_f_times_f_vanishes(self, ex1):
        assert not dual_product(ex1, xi(ex1, "f", 1), xi(ex1, "f", 2))

    def test_example2_left_products_die(self):
        ex2 = builtin("example2")
        fg = dual_product(ex2, xi(ex2, "e", 0), xi(ex2, "f", 2))
        assert fg == xi(ex2, "f", 1)
        for fam, idx in (("e", 0), ("f", 1), ("f", 3)):
            assert not dual_product(ex2, fg, xi(ex2, fam, idx))
            assert not dual_product(ex2, xi(ex2, fam, idx), fg)
        # (xy)z = 0: any product of fg with anything vanishes.
        assert not dual_product(ex2, fg, xi(ex2, "f", 1))

    def test_convolution_product(self):
        ex4 = builtin("example4")
        assert dual_product(ex4, xi(ex4, "x", 2), xi(ex4, "x", 3)) == xi(ex4, "x", 5)

    def test_bilinear(self, ex1):
        f = xi(ex1, "f", 1) + xi(ex1, "e", 0).scale(2)
        g = xi(ex1, "e", 0)
        lhs = dual_product(ex1, f, g)
        rhs = dual_product(ex1, xi(ex1, "f", 1), g) + dual_product(
            ex1, xi(ex1, "e", 0), g
        ).scale(2)
        assert lhs == rhs

    def test_shift_bound_gate(self):
        bad = dataclasses.replace(builtin("example4"), shift_bound=0)
        with pytest.raises(ShiftBoundError):
            dual_derivation(bad, xi(bad, "x", 3))

    @pytest.mark.parametrize("name", ["example1", "example2", "example4",
                                      "example7", "example9"])
    def test_support_window_is_complete(self, name):
        # No product coefficient hides beyond the shift-bound window:
        # rescan far past it and compare.
        spec = builtin(name)
        labels = spec.labels_upto(6)
        for f_l, g_l in itertools.product(labels[:8], repeat=2):
            f, g = FormalVector.unit(f_l), FormalVector.unit(g_l)
            upto = f_l.index + g_l.index + spec.shift_bound + 20
            assert dual_product(spec, f, g) == rescan(spec, f, g, upto)

    @pytest.mark.parametrize("name", ["example1", "example2", "example4", "example9"])
    def test_table_matches_rescan_on_random_functionals(self, name):
        # The transposed-delta table grows with the largest window asked
        # for; products at every window up to 8 must still match a
        # rescan far past the window.
        spec = builtin(name)
        rng = random.Random(name)
        labels = spec.labels_upto(8)
        coeffs = [Fraction(c, d) for c in (-3, -1, 1, 2) for d in (1, 2)]

        def functional():
            return FormalVector(
                (rng.choice(labels), rng.choice(coeffs)) for _ in range(rng.randint(1, 3))
            )

        for _ in range(60):
            f, g = functional(), functional()
            upto = f.max_index() + g.max_index() + spec.shift_bound + 20
            assert dual_product(spec, f, g) == rescan(spec, f, g, upto)

    def test_table_keeps_only_the_callers_window(self):
        # delta(f_n) holds f_0 (x) f_0 for every n, so the declared shift
        # bound 0 fails from n = 1 on and xi_0 xi_0 is supported on every
        # label.  An unvalidated product still sees only its own window
        # f.max + g.max + s, even after the table has grown far past it.
        spec = CoalgebraSpec(
            name="leaky",
            families=(FamilyDecl("f"),),
            delta={"f": [delta_term(1, ("f", 0), ("f", 0)),
                         delta_term(1, ("f", "n"), ("f", 0))]},
            shift_bound=0,
        )
        f0, f20 = xi(spec, "f", 0), xi(spec, "f", 20)
        assert dual_product(spec, f20, f0, validate=False) == rescan(spec, f20, f0, 20)
        assert spec._product_table.window >= 20
        windowed = dual_product(spec, f0, f0, validate=False)
        assert windowed == rescan(spec, f0, f0, 0) == FormalVector({spec.label("f", 0): 2})
        assert rescan(spec, f0, f0, 20) != windowed
        with pytest.raises(ShiftBoundError):
            dual_product(spec, f20, f0)

    def test_associative_and_commutative_on_example1(self, ex1):
        labels = ex1.labels_upto(10)
        funcs = [FormalVector.unit(l) for l in labels]
        window = 3 * 10 + 3
        ev = DualEvaluator(ex1, window)
        for f, g in itertools.product(funcs, repeat=2):
            assert ev.product(f, g) == ev.product(g, f)
        for f, g, h in itertools.product(funcs[:6], repeat=3):
            assert ev.product(ev.product(f, g), h) == ev.product(f, ev.product(g, h))


class TestDualDerivation:
    def test_transpose_values(self, ex1):
        assert dual_derivation(ex1, xi(ex1, "f", 2)) == xi(ex1, "f", 1)
        assert not dual_derivation(ex1, xi(ex1, "f", 1))
        assert not dual_derivation(ex1, xi(ex1, "e", 0))

    def test_transpose_with_coefficients(self):
        ex4 = builtin("example4")
        assert dual_derivation(ex4, xi(ex4, "x", 3)) == xi(ex4, "x", 2).scale(3)
        assert not dual_derivation(ex4, xi(ex4, "x", 0))

    def test_leibniz_rule(self, ex1):
        # d*(fg) = d*(f) g + f d*(g) on sampled functionals.
        samples = [
            xi(ex1, "f", 1) + xi(ex1, "e", 0).scale(Fraction(1, 2)),
            xi(ex1, "f", 3) - xi(ex1, "f", 7).scale(2),
            xi(ex1, "e", 0),
            xi(ex1, "f", 10),
        ]
        for f, g in itertools.product(samples, repeat=2):
            lhs = dual_derivation(ex1, dual_product(ex1, f, g))
            rhs = dual_product(ex1, dual_derivation(ex1, f), g) + dual_product(
                ex1, f, dual_derivation(ex1, g)
            )
            assert lhs == rhs

    def test_derived_squares_vanish(self, ex1):
        # d*(f) d*(g) = 0 for all coordinate functionals up to index 10.
        for f, g in itertools.product(ex1.labels_upto(10), repeat=2):
            df = dual_derivation(ex1, FormalVector.unit(f))
            dg = dual_derivation(ex1, FormalVector.unit(g))
            assert not dual_product(ex1, df, dg)


class TestBruteforce:
    def test_xyz_on_example2(self, cat):
        assert bruteforce_identity(builtin("example2"), cat["(xy)z"], 10).passed

    def test_product_of_products_on_example9(self, cat):
        assert bruteforce_identity(builtin("example9"), cat["(xy)(zt)"], 10).passed

    def test_commutativity_on_example1(self, ex1, cat):
        assert bruteforce_identity(ex1, cat["commutativity"], 10).passed

    def test_differential_identity_oracle(self, ex1, cat):
        assert bruteforce_identity(ex1, cat["x'y'"], 12).passed

    def test_failure_has_witness(self, ex1, cat):
        report = bruteforce_identity(ex1, cat["anticommutativity"], 4)
        assert not report.passed
        assert "xi_" in report.witnesses[0].subject

    def test_witnesses_capped_in_tuple_order(self, ex1, cat):
        report = bruteforce_identity(ex1, cat["(xy)z"], 3)
        assert [str(w) for w in report.witnesses] == [
            "(xi_e:0, xi_e:0, xi_e:0): e:0",
            "(xi_e:0, xi_e:0, xi_f:1): f:1",
            "(xi_e:0, xi_e:0, xi_f:2): f:2",
        ]


def naive_failures(spec, p, bound, limit=None):
    """(tuple, residual) for the tuples of labels up to `bound` on which
    `naive_polynomial` is nonzero, in tuple order, at most `limit`."""
    out = []
    for tup in itertools.product(spec.labels_upto(bound), repeat=p.arity):
        r = naive_polynomial(spec, p, [FormalVector.unit(l) for l in tup])
        if r:
            out.append((tup, r))
            if len(out) == limit:
                break
    return out


def render(tup):
    return "(" + ", ".join(f"xi_{l}" for l in tup) + ")"


def witness_strings(failures):
    return [f"{render(tup)}: {r}" for tup, r in failures]


def nest_evaluator(spec, p, bound):
    """A DualEvaluator on the window `bruteforce_identity` uses for p."""
    depth = max(v.deriv for _, m in p.terms for v in m.leaves()) + 1
    return DualEvaluator(spec, p.arity * (bound + depth * spec.shift_bound) + spec.shift_bound)


def nest_failures(spec, p, bound):
    """The loop nest's (tuple, residual) list, residuals as FormalVectors."""
    found = nest_evaluator(spec, p, bound).nonzero_residuals(p, spec.labels_upto(bound))
    return [(tup, FormalVector(r)) for tup, r in found]


def half_spec():
    """delta(f_n) = sum_i (i + 1)/2 f_i (x) f_{n-i}: a table with both
    integral and non-integral coefficients, neither commutative nor
    associative."""
    return CoalgebraSpec(
        name="half",
        families=(FamilyDecl("f"),),
        delta={"f": [delta_term("i/2 + 1/2", ("f", "i"), ("f", "n - i"), sum_upper=0)]},
        shift_bound=0,
    )


RATIONAL = "1/2 (x1 x2) x3 - 1/3 x1 (x2 x3)"
RATIONAL_PRIMES = "(x1' x2) x3 - 2/3 x1 (x2' x3')"


class TestSubtreeMemo:
    @pytest.mark.parametrize("name", UNGRADED)
    def test_reports_match_naive_recursive_evaluator(self, name, cat):
        # Same verdict and witness strings as evaluating every monomial
        # tree afresh on every tuple.
        spec = builtin(name)
        for ident_name, p in cat.items():
            if p.arity > 4:
                continue
            if requires_coderivation(p) and not spec.differential:
                continue
            naive = witness_strings(naive_failures(spec, p, 3, MAX_WITNESSES))
            report = bruteforce_identity(spec, p, 3)
            assert report.passed == (not naive), ident_name
            assert [str(w) for w in report.witnesses] == naive, ident_name

    @pytest.mark.parametrize("spec_name, identity", [
        ("half", "associativity"),
        ("half", "commutativity"),
        ("half", "(xy)(zt)"),
        ("half", "jordan-linearized"),
        ("example1", RATIONAL),
        ("example4", RATIONAL),
        ("half", RATIONAL),
        ("example1", "x'y'"),
        ("example4", "x'y'"),
        ("example1", RATIONAL_PRIMES),
        ("example4", RATIONAL_PRIMES),
    ])
    def test_fraction_boundary(self, spec_name, identity, cat):
        # Non-integral table coefficients, rational identity coefficients
        # and derivative leaves: the loop nest finds exactly the naive
        # evaluator's nonzero tuples and values, and every witness is a
        # Fraction.
        spec = half_spec() if spec_name == "half" else builtin(spec_name)
        p = cat[identity] if identity in cat else parse_identity(identity)
        bound = 3
        naive = naive_failures(spec, p, bound)
        report = bruteforce_identity(spec, p, bound)
        assert report.passed == (not naive)
        assert [str(w) for w in report.witnesses] == witness_strings(naive[:MAX_WITNESSES])
        assert nest_failures(spec, p, bound) == naive
        evaluator = nest_evaluator(spec, p, bound)
        for tup, r in naive:
            rebuilt = evaluator.polynomial(p, [FormalVector.unit(l) for l in tup])
            assert rebuilt == r
            assert all(type(c) is Fraction for _, c in rebuilt.items())

    def test_nest_keeps_each_products_window(self, cat):
        # delta(f_20) gains f_0 (x) f_0, so the shift bound 0 holds only
        # below 20.  Once an unvalidated product has grown the table past
        # 20, the oracle on a small validated window must still match a
        # fresh spec: every product of the nest filters at the validated
        # window, which drops the table entries past it.
        def spec():
            return CoalgebraSpec(
                name="late-leak",
                families=(FamilyDecl("f"),),
                delta={"f": [delta_term(1, ("f", "i"), ("f", "n - i"), sum_upper=0),
                             delta_term(1, ("f", 0), ("f", 0), guard=Guard.eq(20))]},
                shift_bound=0,
            )

        grown = spec()
        dual_product(grown, xi(grown, "f", 20), xi(grown, "f", 0), validate=False)
        assert grown._product_table.window >= 20
        for ident in ("associativity", "jordan-linearized", "(xy)z", "(xy)(zt)"):
            fresh = bruteforce_identity(spec(), cat[ident], 2)
            assert fresh.passed == (ident in ("associativity", "jordan-linearized"))
            assert bruteforce_identity(grown, cat[ident], 2) == fresh, ident

    def test_witness_rebuild_must_agree_with_the_nest(self, ex1, cat, monkeypatch):
        # A nest residual that the Fraction rebuild does not reproduce is
        # an engine fault: it raises instead of being reported or dropped.
        def wrong(self, p, labels):
            yield (labels[0], labels[0]), {labels[0]: 7}

        monkeypatch.setattr(DualEvaluator, "nonzero_residuals", wrong)
        with pytest.raises(RuntimeError, match="disagree"):
            bruteforce_identity(ex1, cat["commutativity"], 2)

    def test_fraction_cases_reach_non_integral_values(self, cat):
        # The cases above would leave the Fraction branch untested if
        # every value they met were integral.
        spec = half_spec()
        bruteforce_identity(spec, cat["commutativity"], 2)
        coeffs = [c for found in spec._product_table.hits.values() for _, c in found]
        assert {type(c) for c in coeffs} == {int, Fraction}
        for spec, identity in ((spec, "associativity"), (builtin("example4"), RATIONAL)):
            p = cat[identity] if identity in cat else parse_identity(identity)
            failures = naive_failures(spec, p, 3)
            assert any(c.denominator > 1 for _, r in failures for _, c in r.items())


@pytest.fixture(scope="module")
def orbit_specs():
    return [builtin(name) for name in ("example1", "example4", "example6")]


class TestSlotOrbits:
    @pytest.mark.parametrize("identity, classes", [
        ("jordan-linearized", ((1, 2, 3), (4,))),
        ("moufang-linearized", ((1,), (2, 3), (4,))),
        ("right-alternativity-linearized", ((1,), (2, 3))),
        ("anticommutativity", ((1, 2),)),
        # Swapping the slots negates it: antisymmetric, not symmetric.
        ("commutativity", ((1,), (2,))),
        ("(x1' x2) + (x2' x1)", ((1, 2),)),
        ("(x1' x2) + (x1 x2')", ((1,), (2,))),
        ("((x1 x2) x3) + ((x3 x2) x1)", ((1, 3), (2,))),
    ])
    def test_slot_classes(self, cat, identity, classes):
        p = cat[identity] if identity in cat else parse_identity(identity)
        assert slot_classes(p) == classes

    @settings(max_examples=30, deadline=None)
    @given(symmetrized_st())
    def test_orbit_nest_matches_naive_evaluator(self, orbit_specs, case):
        # The same tuples, in the same order, with equal residuals, as
        # evaluating every tuple afresh.
        p, classes = case
        found = {s: set(cls) for cls in slot_classes(p) for s in cls}
        assert all(found[c[0]] >= set(c) for c in classes)
        for spec in orbit_specs:
            if requires_coderivation(p) and not spec.differential:
                continue
            assert nest_failures(spec, p, 2) == naive_failures(spec, p, 2), (spec.name, str(p))

    def test_jordan_runs_one_tuple_per_orbit(self, cat, monkeypatch):
        # Jordan is symmetric in slots 1, 2 and 3, so only the tuples
        # with sorted positions there are evaluated: n C(n+2, 3), not n^4.
        counted = []
        residual = dual._residual

        def counting(*args):
            counted.append(args)
            return residual(*args)

        monkeypatch.setattr(dual, "_residual", counting)
        spec = builtin("example6")
        assert bruteforce_identity(spec, cat["jordan-linearized"], 4).passed
        n = len(spec.labels_upto(4))
        assert len(counted) == n * math.comb(n + 2, 3) == 175 < n ** 4

    @pytest.mark.parametrize("name, identity, subjects, merged", [
        ("example2", "(x1 (x2 x3)) + (x1 (x3 x2))",
         ["(xi_e:0, xi_e:0, xi_f:3)", "(xi_e:0, xi_f:3, xi_e:0)"],
         ["(xi_e:0, xi_f:3, xi_e:0)"]),
        ("example3", "((x1 x3) x2) + ((x2 x3) x1)",
         ["(xi_e:0, xi_e:0, xi_f:3)", "(xi_e:0, xi_f:3, xi_e:0)", "(xi_f:3, xi_e:0, xi_e:0)"],
         ["(xi_f:3, xi_e:0, xi_e:0)"]),
    ])
    def test_witness_order_across_orbits(self, name, identity, subjects, merged, monkeypatch):
        # The witnesses keep tuple order, and the unsorted ones come out
        # of the heap of arrangements, not out of the nest.
        popped = []
        pop_before = dual._pop_before

        def recording(*args):
            for found in pop_before(*args):
                popped.append(render(found[0]))
                yield found

        monkeypatch.setattr(dual, "_pop_before", recording)
        report = bruteforce_identity(builtin(name), parse_identity(identity), 3)
        assert [w.subject for w in report.witnesses] == subjects
        assert popped == merged

    def test_an_error_in_the_nest_comes_after_every_earlier_tuple(self):
        # example6's products with example4's coderivation, cut off at
        # index 3, so the derivative of slot 1 fails at x:3.  Slots 2 and
        # 3 form a class, and x:3 x:3 = 0, so when the nest reaches x:3
        # in slot 1 the arrangements (x:2, x:3, x:k) still wait in the
        # heap.  They come out before the error, as evaluating every
        # tuple would give them.
        spec = dataclasses.replace(
            builtin("example6"),
            coderivation=builtin("example4").coderivation,
            coderivation_max_index=3,
        )
        p = parse_identity("((x2 x1') x3) + ((x3 x1') x2)")

        def until_error(found):
            out = []
            with pytest.raises(SpecError) as info:
                for tup, r in found:
                    if r:
                        out.append((tup, r))
            return out, str(info.value)

        labels = spec.labels_upto(3)
        expected = until_error(
            (tup, naive_polynomial(spec, p, [FormalVector.unit(l) for l in tup]))
            for tup in itertools.product(labels, repeat=3)
        )
        assert [render(tup) for tup, _ in expected[0][-3:]] == [
            "(xi_x:2, xi_x:3, xi_x:0)", "(xi_x:2, xi_x:3, xi_x:1)", "(xi_x:2, xi_x:3, xi_x:2)"]
        assert "up to index 4" in expected[1]
        nest = nest_evaluator(spec, p, 3).nonzero_residuals(p, labels)
        assert until_error((tup, FormalVector(r)) for tup, r in nest) == expected

class TestKantorProducts:
    def test_bar_products_match_vector_type_formula(self, ex1):
        # Products of two odd coordinate functionals in the doubled
        # coalgebra equal a d*(b) - d*(a) b computed in the base dual.
        ex7 = builtin("example7")
        window = 30
        ev7 = DualEvaluator(ex7, window)
        ev1 = DualEvaluator(ex1, window)

        def bar(l):
            return FormalVector.unit(ex7.label("~" + l.family, l.index))

        def unbar(v):
            return FormalVector(
                {ex1.label(l.family.lstrip("~"), l.index): c for l, c in v.items()}
            )

        for a, b in itertools.product(ex1.labels_upto(10), repeat=2):
            fa, fb = FormalVector.unit(a), FormalVector.unit(b)
            via_double = ev7.product(bar(a), bar(b))
            direct = ev1.product(fa, dual_derivation(ex1, fb)) - ev1.product(
                dual_derivation(ex1, fa), fb
            )
            assert unbar(via_double) == direct

    def test_even_odd_products_are_barred_base_products(self, ex1):
        ex7 = builtin("example7")
        ev7 = DualEvaluator(ex7, 30)
        ev1 = DualEvaluator(ex1, 30)
        a = ex1.label("e", 0)
        for b in ex1.labels_upto(6):
            even = FormalVector.unit(ex7.label(a.family, a.index))
            odd = FormalVector.unit(ex7.label("~" + b.family, b.index))
            mixed = ev7.product(even, odd)
            base = ev1.product(FormalVector.unit(a), FormalVector.unit(b))
            lifted = FormalVector(
                {ex7.label("~" + l.family, l.index): c for l, c in base.items()}
            )
            assert mixed == lifted


class TestOracleEquivalence:
    NAMES = ["example1", "example2", "example3", "example9"]

    @pytest.mark.parametrize("name", NAMES)
    def test_verdicts_match_at_12(self, name, cat):
        spec = builtin(name)
        for ident_name, p in cat.items():
            if p.arity > 4 or p.signature is not None:
                continue
            if requires_coderivation(p) and not spec.differential:
                continue
            coident = check_identity(spec, p, 12).passed
            oracle = bruteforce_identity(spec, p, 12).passed
            assert coident == oracle, f"{name}: {ident_name}"


    def test_refuses_a_signature_it_would_ignore(self, ex1, cat):
        # The nest evaluates identities ungraded.  On example7 the graded
        # supercommutativity passes check_identity, while the plain
        # x1 x2 - x2 x1 that the oracle would evaluate fails.
        ex7 = builtin("example7")
        graded = cat["supercommutativity"].with_signature("oo")
        assert check_identity(ex7, graded, 4).passed
        for spec, p in ((ex7, graded), (ex7, cat["supercommutativity"]),
                        (ex1, graded)):
            with pytest.raises(SpecError, match="cannot honour the signature"):
                bruteforce_identity(spec, p, 4)
        # A signature with no odd slot, on a spec with no odd family,
        # leaves the identity as it is.
        for sig in ((None, None), "ee", "*e"):
            p = cat["supercommutativity"].with_signature(sig)
            assert bruteforce_identity(ex1, p, 4).passed


class TestGrassmannEnvelope:
    def test_example7_passes(self):
        report = grassmann_envelope_check(builtin("example7"), 3, 50, seed=7)
        assert report.passed

    def test_example8_passes(self):
        report = grassmann_envelope_check(
            builtin("example8"), 3, 50, seed=11, max_index=5
        )
        assert report.passed

    def test_non_jordan_control_fails_reproducibly(self):
        control = dataclasses.replace(
            builtin("example3"), name="lie-evenized", graded=True
        )
        first = grassmann_envelope_check(control, 3, 50, seed=3)
        second = grassmann_envelope_check(control, 3, 50, seed=3)
        assert not first.passed
        assert first.witnesses == second.witnesses
        assert first.witnesses[0].subject.startswith("sample")

    def test_generator_count_validated(self):
        with pytest.raises(SpecError):
            grassmann_envelope_check(builtin("example7"), 2, 10, seed=0)

    # A sample can fail both laws; the report stops at the third
    # witness even when that is mid-sample.
    CAPPED = {
        0: [("sample 1: commutativity with u=2*x:6(x)1, v=3*x:0(x)1 + -1*x:4(x)g0^g1",
             "-36*x:5(x)1 + 4*x:9(x)g0^g1"),
            ("sample 1: jordan identity with u=2*x:6(x)1, v=3*x:0(x)1 + -1*x:4(x)g0^g1",
             "-4320*x:15(x)1 + 1440*x:19(x)g0^g1"),
            ("sample 2: commutativity with u=-1*x:3(x)1 + 2*x:3(x)g0^g2, v=1*x:4(x)g1^g2",
             "-1*x:6(x)g1^g2")],
        1: [("sample 0: commutativity with u=-1*x:4(x)1, v=1*x:3(x)g1^g2",
             "1*x:6(x)g1^g2"),
            ("sample 0: jordan identity with u=-1*x:4(x)1, v=1*x:3(x)g1^g2",
             "48*x:12(x)g1^g2"),
            ("sample 1: commutativity with u=1*x:3(x)1 + -3*x:6(x)g0^g1, "
             "v=3*x:3(x)g0^g2 + 3*x:4(x)1",
             "3*x:6(x)1 + 18*x:9(x)g0^g1")],
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_witnesses_stop_at_the_cap(self, seed):
        report = grassmann_envelope_check(builtin("example5"), seed=seed)
        assert not report.passed
        assert len(report.witnesses) == MAX_WITNESSES
        assert [(w.subject, w.residual) for w in report.witnesses] == self.CAPPED[seed]
