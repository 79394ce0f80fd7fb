from fractions import Fraction

import pytest

from cocheck import (
    FamilyDecl,
    CoalgebraSpec,
    GradedAlgebraSpec,
    SpecError,
    antisymmetrize,
    apply_d,
    builtin,
    builtin_identities,
    check_identity,
    cocommutativity_check,
    coderivation_check,
    delta,
    gelfand_dorfman,
    graded_dual,
    kantor,
    validate_shift_bound,
)
from cocheck.rules import delta_term


def same_values(a, b, max_index):
    for decl in a.families:
        hi = max_index if decl.hi is None else min(decl.hi, max_index)
        for n in range(decl.lo, hi + 1):
            if delta(a, a.label(decl.name, n)) != delta(b, b.label(decl.name, n)):
                return False
    return True


class TestGelfandDorfman:
    def test_example1_gives_example2(self):
        gd = gelfand_dorfman(builtin("example1"))
        assert gd.same_rules(builtin("example2"))

    def test_example4_gives_example5(self):
        gd = gelfand_dorfman(builtin("example4"))
        assert gd.same_rules(builtin("example5"))
        v = delta(gd, gd.label("x", 1))
        assert str(v) == "2*x:0⊗x:2 + x:1⊗x:1"

    def test_zero_derivation_gives_zero_delta(self):
        spec = CoalgebraSpec(
            name="toy",
            families=(FamilyDecl("u"),),
            delta={"u": [delta_term(1, ("u", "i"), ("u", "n - i"), sum_upper=0)]},
            coderivation={"u": []},
            shift_bound=0,
        )
        gd = gelfand_dorfman(spec)
        for n in range(5):
            assert not delta(gd, gd.label("u", n))

    def test_requires_coderivation(self):
        with pytest.raises(SpecError):
            gelfand_dorfman(builtin("example2"))

    def test_novikov_coidentities_hold_when_input_checks_hold(self):
        cat = builtin_identities()
        for name in ("example1", "example4"):
            src = builtin(name)
            assert coderivation_check(src, 42).passed
            assert cocommutativity_check(src, 42).passed
            assert check_identity(src, cat["associativity"], 42).passed
            gd = gelfand_dorfman(src)
            assert check_identity(gd, cat["left-symmetry"], 40).passed
            assert check_identity(gd, cat["novikov-right-commutativity"], 40).passed


class TestAntisymmetrize:
    def test_example2_gives_example3(self):
        assert antisymmetrize(builtin("example2")).same_rules(builtin("example3"))

    def test_example5_gives_example6_extensionally(self):
        anti = antisymmetrize(builtin("example5"))
        assert same_values(anti, builtin("example6"), 40)
        v = delta(anti, anti.label("x", 1))
        assert str(v) == "2*x:0⊗x:2 - 2*x:2⊗x:0"

    def test_cocommutative_input_gives_zero(self):
        anti = antisymmetrize(builtin("example1"))
        for label in anti.labels_upto(10):
            assert not delta(anti, label)

    def test_lie_coidentities_after_gd(self):
        cat = builtin_identities()
        for name in ("example1", "example4"):
            lie = antisymmetrize(gelfand_dorfman(builtin(name)))
            assert check_identity(lie, cat["anticommutativity"], 40).passed
            assert check_identity(lie, cat["jacobi"], 40).passed

    def test_graded_antisymmetrize_uses_koszul_sign(self):
        ex7 = builtin("example7")
        anti = antisymmetrize(ex7)
        # Graded-cocommutative input: the graded antisymmetrization is zero.
        for label in anti.labels_upto(8):
            assert not delta(anti, label)


class TestKantor:
    def test_example1_gives_example7(self):
        assert kantor(builtin("example1")).same_rules(builtin("example7"))

    def test_example7_values(self):
        ex7 = kantor(builtin("example1"))
        assert str(delta(ex7, ex7.label("e", 0))) == "e:0⊗e:0"
        assert (
            str(delta(ex7, ex7.label("~f", 2)))
            == "e:0⊗~f:2 + f:2⊗~e:0 + ~e:0⊗f:2 + ~f:2⊗e:0"
        )

    def test_example4_gives_example8_extensionally(self):
        k = kantor(builtin("example4"))
        ex8 = builtin("example8")
        assert k.graded and k.families == ex8.families
        assert same_values(k, ex8, 40)

    def test_example8_even_and_odd_parts(self):
        ex8 = builtin("example8")
        t = delta(ex8, ex8.label("x", 2))
        even = {k: c for k, c in t.items() if k[0].parity == 0}
        odd = {k: c for k, c in t.items() if k[0].parity == 1}
        x, bx = ex8.label("x", 0).family, "~x"
        assert even == {
            (ex8.label(x, i), ex8.label(x, 2 - i)): Fraction(1) for i in range(3)
        }
        assert odd == {
            (ex8.label(bx, i), ex8.label(bx, 3 - i)): Fraction(3 - 2 * i)
            for i in range(4)
            if 3 - 2 * i
        }

    def test_requires_ungraded_differential(self):
        with pytest.raises(SpecError):
            kantor(builtin("example2"))
        with pytest.raises(SpecError):
            kantor(
                CoalgebraSpec(
                    name="odd",
                    families=(FamilyDecl("u", parity=1),),
                    delta={},
                    coderivation={},
                    graded=True,
                )
            )

    def test_kantor_outputs_pass_graded_checks(self):
        cat = builtin_identities()
        for name in ("example7", "example8"):
            spec = builtin(name)
            assert spec.graded and cocommutativity_check(spec, 30).passed
            assert check_identity(spec, cat["supercommutativity"], 30).passed
            assert check_identity(
                spec, cat["jordan-linearized"].with_signature("eeee"), 30
            ).passed


class TestGradedDual:
    def test_polynomial_algebra_reproduces_example4(self):
        fx = builtin("fx-diff-algebra", horizon=40)
        dual = graded_dual(fx, horizon=40)
        ex4 = builtin("example4")
        for n in range(31):
            assert delta(dual, dual.label("x", n)) == delta(ex4, ex4.label("x", n))
            assert apply_d(dual, dual.label("x", n)) == apply_d(
                ex4, ex4.label("x", n)
            )
        assert validate_shift_bound(dual, 30).passed

    def test_truncated_polynomials(self):
        # F[x]/(x^3) graded by exponent; transpose of the multiplication
        # table worked out by hand.
        alg = GradedAlgebraSpec(
            name="trunc3",
            dims={0: 1, 1: 1, 2: 1},
            products={
                ((i, 0), (j, 0)): ((((i + j), 0), 1),) if i + j <= 2 else ()
                for i in range(3)
                for j in range(3)
            },
        )
        dual = graded_dual(alg, horizon=2)
        t = delta(dual, dual.label("x", 2))
        assert (
            str(t) == "x:0⊗x:2 + x:1⊗x:1 + x:2⊗x:0"
        )
        assert dual.family("x").hi == 2

    def test_one_dimensional_idempotent(self):
        alg = GradedAlgebraSpec(
            name="point",
            dims={0: 1},
            products={((0, 0), (0, 0)): (((0, 0), 1),)},
        )
        dual = graded_dual(alg, horizon=0)
        assert str(delta(dual, dual.label("x", 0))) == "x:0⊗x:0"

    def test_two_dimensional_component(self):
        # Degree-1 component of dimension 2 with x*y = 0 = y*x, x^2 = y^2 = 0.
        alg = GradedAlgebraSpec(
            name="twodim",
            dims={0: 1, 1: 2, 2: 1},
            products={
                ((0, 0), (0, 0)): (((0, 0), 1),),
                ((0, 0), (1, 0)): (((1, 0), 1),),
                ((0, 0), (1, 1)): (((1, 1), 1),),
                ((1, 0), (0, 0)): (((1, 0), 1),),
                ((1, 1), (0, 0)): (((1, 1), 1),),
                ((1, 0), (1, 0)): (((2, 0), 1),),
                ((0, 0), (2, 0)): (((2, 0), 1),),
                ((2, 0), (0, 0)): (((2, 0), 1),),
            },
        )
        dual = graded_dual(alg, horizon=2)
        names = [f.name for f in dual.families]
        assert names == ["x0", "x1"]
        t = delta(dual, dual.label("x0", 2))
        assert (
            str(t) == "x0:0⊗x0:2 + x0:1⊗x0:1 + x0:2⊗x0:0"
        )
        t1 = delta(dual, dual.label("x1", 1))
        assert str(t1) == "x0:0⊗x1:1 + x1:1⊗x0:0"

    def test_missing_dimension_data(self):
        alg = GradedAlgebraSpec(name="gap", dims={0: 1}, products={})
        with pytest.raises(SpecError):
            graded_dual(alg, horizon=3)

    def test_bad_grading_rejected(self):
        with pytest.raises(SpecError):
            GradedAlgebraSpec(
                name="bad",
                dims={0: 1, 1: 1},
                products={((0, 0), (1, 0)): (((0, 0), 1),)},
            )

    @pytest.mark.parametrize("coeff", ["x", "1/0", None])
    def test_non_numeric_coefficient_rejected(self, coeff):
        with pytest.raises(SpecError, match="at position 0 of degree 0 is not a rational"):
            GradedAlgebraSpec("a", {0: 1}, {((0, 0), (0, 0)): (((0, 0), coeff),)})
        with pytest.raises(SpecError, match="at position 0 of degree 1 is not a rational"):
            GradedAlgebraSpec("a", {0: 1, 1: 1}, {}, derivation={(0, 0): (((1, 0), coeff),)})

    def test_coderivation_window_is_explicit(self):
        fx = builtin("fx-diff-algebra", horizon=10)
        dual = graded_dual(fx, horizon=10)
        assert dual.coderivation_max_index == 9
        from cocheck import RangeError

        with pytest.raises(RangeError):
            apply_d(dual, dual.label("x", 10))


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(SpecError):
            builtin("example10")

    def test_lineage_listing(self):
        from cocheck import list_examples

        entries = {e.name: e for e in list_examples()}
        assert entries["example3"].lineage == "antisymmetrize(example2)"
        assert entries["example7"].lineage == "kantor(example1)"
        assert entries["fx-diff-algebra"].kind == "graded-algebra"
        assert len(entries) == 10
