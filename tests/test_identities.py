import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cocheck import (
    BasisLabel,
    CoalgebraSpec,
    CoidentityMap,
    FamilyDecl,
    FormalTensor,
    SpecError,
    builtin,
    builtin_identities,
    check_identity,
    delta,
    linearize,
    mul,
    parse_identity,
    poly,
    translate,
    var,
)
from cocheck import identities
from cocheck.catalog import list_examples
from cocheck.coalgebra import d_label
from cocheck.dual import coordinate_functional
from cocheck.rules import delta_term, deriv_term
from cocheck.identities import CODERIVATION, requires_coderivation, substitute_slots
from conftest import symmetrized_st

# Graded variants of the catalog checked beside the plain identities.
SIGNATURES = {
    "jordan-linearized": ("eeee", "oooo", "eoeo"),
    "supercommutativity": ("eo", "oo", "oe"),
    "(xy)(zt)": ("oooo", "eoeo"),
    "[[x,y],[z,t]]": ("oeoe",),
    "moufang-linearized": ("oeeo",),
}


def coalgebra_builtins():
    specs = (builtin(entry.name) for entry in list_examples())
    return [spec for spec in specs if isinstance(spec, CoalgebraSpec)]


@pytest.fixture(scope="module")
def cat():
    return builtin_identities()


def apply_delta_at(spec, t, pos):
    """(id (x) ... (x) delta (x) ... (x) id), written directly on tensors."""
    out = FormalTensor(t.arity + 1)
    for key, c in t.items():
        expansion = delta(spec, key[pos - 1])
        for (l, r), c2 in expansion.items():
            out = out + FormalTensor(
                t.arity + 1, {key[: pos - 1] + (l, r) + key[pos:]: c * c2}
            )
    return out


class TestTranslateStructure:
    def test_associativity_map_matches_direct_composition(self, cat):
        # (delta (x) id) delta - (id (x) delta) delta, composed by hand.
        ex1 = builtin("example1")
        cmap = translate(cat["associativity"])
        for label in ex1.labels_upto(8):
            base = delta(ex1, label)
            direct = apply_delta_at(ex1, base, 1) - apply_delta_at(ex1, base, 2)
            assert cmap.apply(ex1, label) == direct

    def test_right_commutativity_map_matches_direct(self, cat):
        # (delta (x) id) delta - (id (x) flip)(delta (x) id) delta.
        ex5 = builtin("example5")
        cmap = translate(cat["novikov-right-commutativity"])
        for label in ex5.labels_upto(8):
            base = apply_delta_at(ex5, delta(ex5, label), 1)
            direct = base - base.flip(2)
            assert cmap.apply(ex5, label) == direct

    def test_left_symmetry_map_matches_direct(self, cat):
        # Associator difference: A - (flip (x) id) A for A the
        # coassociator, reproduced mechanically.
        ex2 = builtin("example2")
        cmap = translate(cat["left-symmetry"])
        for label in ex2.labels_upto(10):
            base = delta(ex2, label)
            assoc = apply_delta_at(ex2, base, 1) - apply_delta_at(ex2, base, 2)
            direct = assoc - assoc.flip(1)
            assert cmap.apply(ex2, label) == direct

    def test_right_alternative_map_matches_direct(self, cat):
        # A + (id (x) flip) A vanishing is the right-alternative law.
        ex9 = builtin("example9")
        cmap = translate(cat["right-alternativity-linearized"])
        for label in ex9.labels_upto(9):
            base = delta(ex9, label)
            assoc = apply_delta_at(ex9, base, 1) - apply_delta_at(ex9, base, 2)
            direct = assoc + assoc.flip(2)
            assert cmap.apply(ex9, label) == direct
            assert not direct  # Theorem-level: vanishes on every label

    def test_differential_identity_map(self, cat):
        ex1 = builtin("example1")
        cmap = translate(cat["x'y'"])
        for label in ex1.labels_upto(10):
            assert not cmap.apply(ex1, label)

    def test_describe_is_readable(self, cat):
        text = translate(cat["novikov-right-commutativity"]).describe()
        assert "delta@1" in text and "permute[1,3,2]" in text

    def test_one_permute_step_per_branch(self, cat):
        def kinds(cmap):
            return [step[0] for _, steps in cmap.branches for step in steps]

        jordan = kinds(translate(cat["jordan-linearized"]))
        assert (jordan.count("delta"), jordan.count("permute")) == (36, 12)
        assert set(jordan) == {"delta", "permute"}
        assert "permute" not in kinds(translate(cat["(xy)z"]))


def reference_step(spec, t: dict, step) -> dict:
    """One step of a coidentity branch on the terms of `t`, over the
    public `Fraction` views of `delta` and `d_label`: no pruning, and no
    code shared with the compiled plan's steps."""
    kind, out = step[0], {}
    for key, c in t.items():
        if kind in ("delta", "d"):
            pos = step[1] - 1
            if kind == "delta":
                pieces = delta(spec, key[pos]).items()
            else:
                pieces = (((m,), cm) for m, cm in d_label(spec, key[pos]).items())
            found = [(key[:pos] + piece + key[pos + 1:], c * cp) for piece, cp in pieces]
        elif kind == "permute":
            new = tuple(key[j] for j in step[1])
            odd = sum(new[a].parity * new[b].parity for a, b in step[2])
            found = [(new, -c if odd % 2 else c)]
        else:
            keep = all(p is None or l.parity == p for l, p in zip(key, step[1]))
            found = [(key, c)] if keep else []
        for k, ck in found:
            out[k] = out.get(k, 0) + ck
    return {k: c for k, c in out.items() if c}


def naive_apply(cmap, spec, label):
    """Every branch from the start, one `reference_step` at a time: an
    evaluator independent of the compiled plan."""
    total: dict = {}
    for coeff, steps in cmap.branches:
        t = {(label,): Fraction(1)}
        for step in steps:
            t = reference_step(spec, t, step)
        for key, c in t.items():
            total[key] = total.get(key, 0) + coeff * c
    return FormalTensor(cmap.arity, total)


def without_pruning(spec):
    """A copy of spec whose evaluator keeps every term until the final
    projection, as on specs whose rules are not parity-additive."""
    copy = builtin(spec.name)
    object.__setattr__(copy, "parity_additive", False)
    return copy


class TestCompiledPlan:
    def test_plan_matches_branch_by_branch_evaluation(self, cat):
        specs = coalgebra_builtins()
        specs += [without_pruning(s) for s in specs if any(f.parity for f in s.families)]
        for spec in specs:
            for name, p in cat.items():
                if requires_coderivation(p) and not spec.differential:
                    continue
                for q in [p] + [p.with_signature(s) for s in SIGNATURES.get(name, ())]:
                    for koszul_pairing in (False, True):
                        cmap = translate(q, koszul_pairing=koszul_pairing)
                        for label in spec.labels_upto(4 if q.arity <= 3 else 2):
                            got = cmap.apply(spec, label)
                            assert got == naive_apply(cmap, spec, label), (
                                spec.name, str(q), q.signature, koszul_pairing, label)
                            assert all(type(c) is Fraction for _, c in got.items())

    def test_shared_prefixes_are_walked_once(self, cat):
        # Jordan's 12 branches: 36 delta steps on 4 distinct prefixes,
        # delta@1 twice and then delta@1 or delta@3.  The six branches of
        # a leaf differ by a permutation of the slot class (1, 2, 3), so
        # each leaf keeps one tail group; with `*` slots, which join no
        # class, it keeps six.
        for sig, groups in ((None, 1), ("****", 6)):
            p = cat["jordan-linearized"]
            node = translate(p if sig is None else p.with_signature(sig)).plan
            for _ in range(2):
                children, tails = node
                assert not tails and [step for step, _ in children] == [("delta", 1, None, None)]
                node = children[0][1]
            children, tails = node
            assert not tails
            assert sorted(step[1] for step, _ in children) == [1, 3]
            assert [(len(leaf[0]), len(leaf[1])) for _, leaf in children] == [(0, groups)] * 2

    def test_branches_with_one_tail_merge(self):
        ex1 = builtin("example1")
        split = ("delta", 1, None, None), ("permute", (1, 0), ())
        cancelling = CoidentityMap(2, ((Fraction(1), split), (Fraction(-1), split)))
        assert cancelling.plan == (((split[0], ((), ())),), ())
        doubled = CoidentityMap(2, ((Fraction(1), split), (Fraction(1, 2), split)))
        assert doubled.plan[0][0][1][1] == ((split[1], None, Fraction(3, 2)),)
        for label in ex1.labels_upto(6):
            assert not cancelling.apply(ex1, label)
            assert doubled.apply(ex1, label) == naive_apply(doubled, ex1, label)

    @pytest.mark.parametrize("steps", [
        (("delta", 1, None, None), ("permute", (1, 0), ((0, 1),)), ("d", 1, None)),
        (("project", (0,)), ("delta", 1, None, None)),
        (("delta", 1, None, None), ("project", (0, 1)), ("permute", (1, 0), ())),
    ])
    def test_permute_and_project_only_end_a_branch(self, steps):
        with pytest.raises(SpecError, match="not a delta or d step"):
            CoidentityMap(2, ((1, (("delta", 1, None, None),)), (1, steps)))

    def test_a_leaf_streams_one_list_into_two_tail_groups(self):
        # delta@1 - permute[2,1] . delta@1, plain and graded: one leaf
        # with two tail groups, fed from one list of its streamed terms.
        split = ("delta", 1, None, None)
        for graded in (False, True):
            flip = ("permute", (1, 0), ((0, 1),) if graded else ())
            cocomm = CoidentityMap(2, ((1, (split,)), (-1, (split, flip))))
            ((step, (children, tails)),), root_tails = cocomm.plan
            assert step == split and not root_tails and not children and len(tails) == 2
            for name in ("example1", "example2", "example4", "example7", "example8"):
                spec = builtin(name)
                for label in spec.labels_upto(12):
                    got = cocomm.apply(spec, label)
                    t = delta(spec, label)
                    assert got == naive_apply(cocomm, spec, label) == t - t.flip(1, graded)

    def test_a_leaf_whose_streamed_terms_cancel(self):
        # delta(x:n) = x:1 (x) x:0 - x:2 (x) x:0 and d(x:k) = x:0, so the
        # leaf d@1 streams x:0 (x) x:0 twice with opposite signs; its
        # sibling leaf d@2 keeps both terms.
        spec = CoalgebraSpec(
            name="cancel",
            families=(FamilyDecl("x"),),
            delta={"x": [delta_term(1, ("x", 1), ("x", 0)),
                         delta_term(-1, ("x", 2), ("x", 0))]},
            coderivation={"x": [deriv_term(1, ("x", 0))]},
        )
        split = ("delta", 1, None, None)
        cancelling = CoidentityMap(2, ((1, (split, ("d", 1, None))),))
        both = CoidentityMap(2, ((1, (split, ("d", 1, None))), (1, (split, ("d", 2, None)))))
        assert [len(leaf[1]) for _, leaf in both.plan[0][0][1][0]] == [1, 1]
        x0, x1, x2 = (spec.label("x", k) for k in range(3))
        for label in spec.labels_upto(12):
            assert not cancelling.apply(spec, label)
            assert not naive_apply(cancelling, spec, label)
            got = both.apply(spec, label)
            assert got == naive_apply(both, spec, label)
            assert got == FormalTensor(2, {(x1, x0): 1, (x2, x0): -1})

    @pytest.mark.parametrize("name", ["example1", "example4", "example4-d-unit"])
    def test_coderivation_plan_matches_the_reference(self, name):
        if name == "example4-d-unit":
            # A broken coderivation, so the residuals compared are not 0.
            spec = dataclasses.replace(builtin("example4"), name=name, coderivation={
                "x": [deriv_term(1, ("x", "n + 1"))]})
        else:
            spec = builtin(name)
        residuals = 0
        for label in spec.labels_upto(12):
            got = CODERIVATION.apply(spec, label)
            assert got == naive_apply(CODERIVATION, spec, label), label
            residuals += bool(got)
        assert residuals == (12 if name == "example4-d-unit" else 0)


class TestSlotClasses:
    @pytest.mark.parametrize("name, sig, classes", [
        ("jordan-linearized", None, ((1, 2, 3), (4,))),
        ("jordan-linearized", "eeee", ((1, 2, 3), (4,))),
        ("jordan-linearized", "oooo", ((1,), (2,), (3,), (4,))),
        ("jordan-linearized", "*eee", ((1,), (2, 3), (4,))),
        ("jordan-linearized", "eoeo", ((1, 3), (2,), (4,))),
        ("jordan-linearized", "eeeo", ((1, 2, 3), (4,))),
        ("moufang-linearized", None, ((1,), (2, 3), (4,))),
        ("moufang-linearized", "oeeo", ((1,), (2, 3), (4,))),
        ("moufang-linearized", "eooe", ((1,), (2,), (3,), (4,))),
        ("right-alternativity-linearized", None, ((1,), (2, 3))),
        ("anticommutativity", None, ((1, 2),)),
        ("anticommutativity", "*e", ((1,), (2,))),
        ("commutativity", None, ((1,), (2,))),
        ("jacobi", None, ((1,), (2,), (3,))),
        ("[[x,y],[z,t]]", None, ((1,), (2,), (3,), (4,))),
        ("x'y'", None, ((1,), (2,))),
    ])
    def test_detected_classes(self, cat, name, sig, classes):
        p = cat[name] if sig is None else cat[name].with_signature(sig)
        for koszul_pairing in (False, True):
            assert translate(p, koszul_pairing=koszul_pairing).classes == classes

    def test_classes_follow_the_sign_convention(self):
        # Under the alternative convention the swap of the odd slots 1 and
        # 2 is plain and its sign moves into the coefficient, so the
        # difference becomes symmetric; a graded swap of odd slots never
        # joins a class.
        p = parse_identity("(x1 (x2 x3)) - (x2 (x1 x3))").with_signature("ooe")
        assert translate(p).classes == ((1,), (2,), (3,))
        cmap = translate(p, koszul_pairing=True)
        assert cmap.classes == ((1, 2), (3,))
        for spec in (builtin("example7"), builtin("example8")):
            failing = [label for label in spec.labels_upto(4) if cmap.apply(spec, label)]
            assert failing, spec.name
            for label in failing:
                assert cmap.apply(spec, label) == naive_apply(cmap, spec, label)

    @pytest.mark.parametrize("text", [
        # Swapping x1 and x2 maps the first two terms onto each other but
        # not the third, so no class forms.
        "((x1 x2) x3) + ((x2 x1) x3) + ((x1 x3) x2)",
        # The same, with the asymmetric term on a bracketing of its own:
        # every node of the plan must be symmetric.
        "((x1 x2) x3) + ((x2 x1) x3) + (x1 (x2 x3))",
        "(x1 (x2 x3)) + (x1 (x3 x2)) + ((x1 x2) x3)",
    ])
    def test_every_term_must_be_symmetric(self, text):
        cmap = translate(parse_identity(text))
        assert cmap.classes == ((1,), (2,), (3,))
        ex5 = builtin("example5")
        for label in ex5.labels_upto(4):
            assert cmap.apply(ex5, label) == naive_apply(cmap, ex5, label)

    def test_hand_built_maps_find_their_classes(self):
        assert CODERIVATION.classes == ((1,), (2,))
        ex1, ex7 = builtin("example1"), builtin("example7")
        split = ("delta", 1, None, None), ("permute", (1, 0), ())
        graded = ("delta", 1, None, None), ("permute", (1, 0), ((0, 1),))
        cases = [
            (((1, split),), ((1,), (2,))),
            (((1, split), (-1, split[:1])), ((1,), (2,))),
            (((1, split), (1, split[:1])), ((1, 2),)),
            # A graded swap is a symmetry only where the projection keeps
            # both factors even.
            (((1, graded), (1, graded[:1])), ((1,), (2,))),
            (((1, graded + (("project", (0, 0)),)), (1, graded[:1] + (("project", (0, 0)),))),
             ((1, 2),)),
            (((1, graded + (("project", (1, 1)),)), (1, graded[:1] + (("project", (1, 1)),))),
             ((1,), (2,))),
            # Unequal projections break the symmetry of equal branches.
            (((1, split + (("project", (0, None)),)), (1, split[:1] + (("project", (0, None)),))),
             ((1,), (2,))),
        ]
        for branches, classes in cases:
            cmap = CoidentityMap(2, branches)
            assert cmap.classes == classes, branches
            for spec in (ex1, ex7):
                for label in spec.labels_upto(6):
                    assert cmap.apply(spec, label) == naive_apply(cmap, spec, label)
        symmetric = CoidentityMap(2, cases[2][0])
        assert symmetric.plan == (((split[0], ((), ((split[1], None, 1),))),), ())
        # Slots 1 and 2 are symmetric after delta@1 . delta@1 but not after
        # delta@2 . delta@1, in either order of the nodes.
        left = ("delta", 1, None, None), ("delta", 1, None, None)
        right = ("delta", 1, None, None), ("delta", 2, None, None)
        swap = left + (("permute", (1, 0, 2), ()),)
        for branches in (((1, left), (1, swap), (1, right)), ((1, right), (1, left), (1, swap))):
            cmap = CoidentityMap(3, branches)
            assert cmap.classes == ((1,), (2,), (3,))
            for label in ex1.labels_upto(6):
                assert cmap.apply(ex1, label) == naive_apply(cmap, ex1, label)

    def test_orbit_sums_expand_with_stabilizer_weights(self, cat):
        # (x1 x2) + (x2 x1) on example1 fails at e:0, whose delta is
        # e:0 (x) e:0, a key fixed by the swap: the residual is 2 there.
        cmap = translate(cat["anticommutativity"])
        e0 = BasisLabel("e", 0)
        assert cmap.apply(builtin("example1"), e0) == FormalTensor(2, {(e0, e0): 2})
        # Jordan's class (1, 2, 3): an orbit sum at (a, a, b, c) stands for
        # its three distinct arrangements, each fixed by 2 of the 6 swaps.
        a, b, c = BasisLabel("f", 1), BasisLabel("f", 2), BasisLabel("f", 3)
        assert dict(translate(cat["jordan-linearized"])._expand({(a, a, b, c): 3})) == {
            (a, a, b, c): 6, (a, b, a, c): 6, (b, a, a, c): 6}

    def test_a_class_apart_in_slot_order(self):
        # Slots 1 and 3 form a class, so orbit sums are laid out as
        # slots 1, 3, 2 and expanded back to slot order.
        cmap = translate(parse_identity("((x1 x2) x3) + ((x3 x2) x1)"))
        assert cmap.classes == ((1, 3), (2,))
        ex5 = builtin("example5")
        failing = [label for label in ex5.labels_upto(4) if cmap.apply(ex5, label)]
        assert failing
        for label in failing:
            assert cmap.apply(ex5, label) == naive_apply(cmap, ex5, label)

    def test_graded_signs_in_a_layout_apart_from_slot_order(self):
        # The even slots 1 and 3 form a class, laid out as slots 1, 3, 2,
        # 4.  The odd slots 2 and 4 are reversed, and slots 3 and 4 are
        # not, so the Koszul sign must be read on the class layout.
        p = parse_identity("((x1 x3) (x4 x2)) + ((x3 x1) (x4 x2))").with_signature("eoeo")
        cmap = translate(p)
        assert cmap.classes == ((1, 3), (2,), (4,))
        for spec in (builtin("example7"), without_pruning(builtin("example8"))):
            failing = [label for label in spec.labels_upto(4) if cmap.apply(spec, label)]
            assert failing, spec.name
            for label in failing:
                assert cmap.apply(spec, label) == naive_apply(cmap, spec, label)

    def test_leaf_merges_where_its_tail_groups_agree(self, cat, monkeypatch):
        def leaves(node):
            for step, child in node[0]:
                yield from leaves(child) if child[0] else [(step, child)]

        jordan = translate(cat["jordan-linearized"])
        graded = translate(cat["jordan-linearized"].with_signature("eeee"))
        for cmap in (jordan, graded):
            assert {step[:2]: leaf.groups for step, leaf in leaves(cmap.plan)} == {
                ("delta", 3): ((1, 2),), ("delta", 1): ()}
        # Slots 3 and 4 form a class.  The leaf's two tail groups send its
        # untouched positions 2 and 3 to slots 3, 4 and to slots 1, 2.
        disagreeing = translate(parse_identity(
            "(((x1 x2) x3) x4) + (((x1 x2) x4) x3) + (((x3 x4) x1) x2) + (((x4 x3) x1) x2)"))
        assert disagreeing.classes == ((1,), (2,), (3, 4))
        for cmap in (disagreeing, translate(cat["moufang-linearized"]),
                     translate(cat["right-alternativity-linearized"]), CODERIVATION):
            assert not any(leaf.groups for _, leaf in leaves(cmap.plan)), cmap
        for spec in (builtin("example1"), builtin("example5")):
            for label in spec.labels_upto(6):
                assert disagreeing.apply(spec, label) == naive_apply(disagreeing, spec, label)

        # The delta@3 leaf's input, as the walk hands it to the step.
        inputs = []
        rule_terms = identities._rule_terms

        def spy(spec, t, step, prune):
            if step[:2] == ("delta", 3):
                inputs.append(t)
            return rule_terms(spec, t, step, prune)

        monkeypatch.setattr(identities, "_rule_terms", spy)
        # The unpruned copy of example8 shares its rules, so its reference.
        reached, cancelled, odd, reference = set(), {}, 0, {}
        for tag, spec, cmap in (("example4", builtin("example4"), jordan),
                                ("example6", builtin("example6"), jordan),
                                ("example8", builtin("example8"), graded),
                                ("unpruned", without_pruning(builtin("example8")), graded)):
            cancelled[tag] = 0
            for label in spec.labels_upto(10):
                inputs.clear()
                if (spec.name, label) not in reference:
                    reference[spec.name, label] = naive_apply(cmap, spec, label)
                assert cmap.apply(spec, label) == reference[spec.name, label]
                if not inputs:
                    continue
                (merged,) = inputs
                reached.add(tag)
                assert all(c and a <= b for (a, b, _), c in merged.items())
                if cmap is graded:
                    odd += sum(a.parity or b.parity for a, b, _ in merged)
                    continue
                t = {(label,): 1}
                for _ in range(2):
                    t = reference_step(spec, t, ("delta", 1, None, None))
                expected: dict = {}
                for (a, b, c), coeff in t.items():
                    key = (min(a, b), max(a, b), c)
                    expected[key] = expected.get(key, 0) + coeff
                assert merged == {k: c for k, c in expected.items() if c}
                cancelled[tag] += sum(not c for c in expected.values())
        assert reached == set(cancelled)
        # Parity pruning keeps odd labels out of the merged positions;
        # without it they reach them, and the projection removes them.
        assert odd > 0
        # example6 is a Lie coalgebra: swapped keys cancel there.
        assert cancelled["example6"] > 0


@settings(max_examples=30, deadline=None)
@given(symmetrized_st(), st.booleans())
def test_orbit_sums_match_every_branch(case, koszul_pairing):
    p, classes = case
    cmap = translate(p, koszul_pairing=koszul_pairing)
    found = {s: set(cls) for cls in cmap.classes for s in cls}
    assert all(found[c[0]] >= set(c) for c in classes)
    for name in ("example1", "example4", "example5", "example6", "example8"):
        spec = builtin(name)
        if requires_coderivation(p) and not spec.differential:
            continue
        for label in spec.labels_upto(4):
            assert cmap.apply(spec, label) == naive_apply(cmap, spec, label), (
                name, str(p), p.signature, koszul_pairing, label)


class TestLabelType:
    def test_engine_keys_are_labels_not_plain_tuples(self, cat):
        # A label compares equal to the plain tuple of its fields, so a
        # dict holding both kinds would silently merge them.
        cmap = translate(cat["jordan-linearized"])  # fails on both specs
        applied = 0
        for spec in (builtin("example1"), builtin("example8")):
            labels = spec.labels_upto(6)
            assert all(type(l) is BasisLabel for l in labels)
            for label in labels:
                for key, _ in delta(spec, label).items():
                    assert all(type(l) is BasisLabel for l in key)
                if spec.differential:
                    assert all(type(m) is BasisLabel for m in d_label(spec, label).labels())
                for key, _ in cmap.apply(spec, label).items():
                    assert all(type(l) is BasisLabel for l in key)
                    applied += 1
        assert applied

    def test_label_is_the_tuple_of_its_fields(self):
        label = BasisLabel("f", 3, 1)
        assert label == ("f", 3, 1) and hash(label) == hash(("f", 3, 1))
        assert str(label) == "f:3"
        assert repr(label) == "BasisLabel(family='f', index=3, parity=1)"
        assert BasisLabel("e", 9) < BasisLabel("f", 0) < BasisLabel("f", 1)


class TestCheckIdentity:
    def test_xyz_zero_on_example2(self, cat):
        assert check_identity(builtin("example2"), cat["(xy)z"], 30).passed

    def test_differential_identity_on_example1(self, cat):
        assert check_identity(builtin("example1"), cat["x'y'"], 30).passed

    def test_double_commutator_on_example3(self, cat):
        assert check_identity(builtin("example3"), cat["[[x,y],[z,t]]"], 30).passed

    def test_failing_identity_reports_witness(self, cat):
        report = check_identity(builtin("example1"), cat["anticommutativity"], 10)
        assert not report.passed
        assert report.witnesses[0].subject == "e:0"

    def test_witnesses_capped_in_label_order(self, cat):
        report = check_identity(builtin("example1"), cat["(xy)z"], 10)
        assert [w.subject for w in report.witnesses] == ["e:0", "f:1", "f:2"]
        assert report.witnesses[1].residual == (
            "e:0⊗e:0⊗f:1 + e:0⊗f:1⊗e:0 + f:1⊗e:0⊗e:0"
        )

    def test_non_multilinear_rejected(self):
        squared = poly(mul(var(1), var(1)))
        with pytest.raises(SpecError):
            translate(squared)


class TestKoszulBookkeeping:
    def test_supercommutativity_passes_on_example7(self, cat):
        assert check_identity(builtin("example7"), cat["supercommutativity"], 25).passed

    def test_plain_commutativity_fails_on_example7(self, cat):
        report = check_identity(builtin("example7"), cat["commutativity"], 25)
        assert not report.passed
        assert report.witnesses[0].subject.startswith("f:")

    def test_alternative_pairing_convention_fails_theorem5(self, cat):
        report = check_identity(
            builtin("example7"), cat["supercommutativity"], 10, koszul_pairing=True
        )
        assert not report.passed

    def test_mixed_parity_supercommutativity(self, cat):
        ex7 = builtin("example7")
        for sig in ("ee", "eo", "oe", "oo"):
            assert check_identity(
                ex7, cat["supercommutativity"].with_signature(sig), 20
            ).passed

    def test_odd_product_identity_theorem5(self, cat):
        ex7 = builtin("example7")
        assert check_identity(
            ex7, cat["(xy)(zt)"].with_signature("oooo"), 20
        ).passed


class TestFlipCoherence:
    def test_permuting_even_slots_preserves_pairing(self, cat):
        # Pairing functionals against the translated map is invariant
        # under renaming two slots and permuting the arguments the same
        # way.
        ex2 = builtin("example2")
        p = poly(mul(mul(var(1), var(2)), var(3)))
        q = poly(mul(mul(var(1), var(3)), var(2)))
        mp, mq = translate(p), translate(q)
        labels = ex2.labels_upto(4)
        funcs = [coordinate_functional(ex2, l.family, l.index) for l in labels]

        def pair(t, fs):
            total = Fraction(0)
            for key, c in t.items():
                prod = c
                for label, f in zip(key, fs):
                    prod *= f.coefficient(label)
                    if not prod:
                        break
                total += prod
            return total

        for label in labels:
            tp = mp.apply(ex2, label)
            tq = mq.apply(ex2, label)
            for a in funcs[:3]:
                for b in funcs[:3]:
                    for c in funcs[:3]:
                        assert pair(tp, (a, b, c)) == pair(tq, (a, c, b))


class TestLinearize:
    def test_right_alternativity(self, cat):
        # (x1 x2) x2 - x1 (x2 x2) linearizes to the four-term form.
        manual = poly(
            mul(mul(var(1), var(2)), var(3)),
            mul(mul(var(1), var(3)), var(2)),
            (-1, mul(var(1), mul(var(2), var(3)))),
            (-1, mul(var(1), mul(var(3), var(2)))),
        )
        assert cat["right-alternativity-linearized"] == manual

    def test_square(self):
        lin = linearize(poly(mul(var(1), var(1))))
        assert lin == poly(mul(var(1), var(2)), mul(var(2), var(1)))

    def test_jordan_is_twelve_terms(self, cat):
        lin = cat["jordan-linearized"]
        assert lin.arity == 4
        assert len(lin.terms) == 12

    def test_jordan_resubstitution_recovers_scaled_original(self, cat):
        original = poly(
            mul(mul(mul(var(1), var(1)), var(2)), var(1)),
            (-1, mul(mul(var(1), var(1)), mul(var(2), var(1)))),
        )
        resub = substitute_slots(cat["jordan-linearized"], {1: 1, 2: 1, 3: 1, 4: 2})
        assert resub == original.scale(6)

    def test_moufang_resubstitution(self, cat):
        # Copies of the doubled slot live at new slots 2 and 3; the
        # third factor moved to slot 4.  Merging them back recovers
        # twice the original identity.
        original = poly(
            mul(mul(mul(var(1), var(2)), var(3)), var(2)),
            (-1, mul(var(1), mul(mul(var(2), var(3)), var(2)))),
        )
        resub = substitute_slots(cat["moufang-linearized"], {2: 2, 3: 2, 4: 3})
        assert resub == original.scale(2)

    def test_inhomogeneous_rejected(self):
        p = poly(mul(var(1), var(1)), mul(var(1), var(2)))
        with pytest.raises(SpecError):
            linearize(p)

    def test_graded_rejected(self):
        p = poly(mul(var(1), var(1)), signature=None).with_signature(None)
        graded = poly(mul(var(1), var(2)), signature=(1, 1))
        with pytest.raises(SpecError):
            linearize(graded)
        assert linearize(p)


class TestCatalog:
    def test_expected_entries_present(self, cat):
        for name in [
            "associativity", "commutativity", "anticommutativity", "jacobi",
            "left-symmetry", "novikov-right-commutativity",
            "right-alternativity-linearized", "moufang-linearized",
            "jordan-linearized", "supercommutativity", "(xy)z",
            "[[x,y],[z,t]]", "(xy)(zt)", "((xy)z)t", "x'y'",
        ]:
            assert name in cat, name

    def test_novikov_lookup(self, cat):
        assert str(cat["novikov-right-commutativity"]) == "((x1 x2) x3) - ((x1 x3) x2)"

    def test_jacobi_lookup(self, cat):
        assert cat["jacobi"] == poly(
            mul(mul(var(1), var(2)), var(3)),
            mul(mul(var(2), var(3)), var(1)),
            mul(mul(var(3), var(1)), var(2)),
        )

    def test_all_entries_multilinear(self, cat):
        for name, p in cat.items():
            assert p.is_multilinear(), name

    def test_double_commutator_has_eight_monomials(self, cat):
        assert len(cat["[[x,y],[z,t]]"].terms) == 8


class TestParser:
    def test_parenthesized_product(self):
        p = parse_identity("((x1 x2) x3)")
        assert p == poly(mul(mul(var(1), var(2)), var(3)))

    def test_sum_with_coefficients(self):
        p = parse_identity("(x1 x2) - 1/2 (x2 x1)")
        assert p == poly(
            mul(var(1), var(2)), (Fraction(-1, 2), mul(var(2), var(1)))
        )

    def test_commutators(self, cat):
        assert parse_identity("[[x1,x2],[x3,x4]]") == cat["[[x,y],[z,t]]"]

    def test_primes(self, cat):
        assert parse_identity("(x1' x2')") == cat["x'y'"]
        assert parse_identity("x1'' x2") == poly(mul(var(1, 2), var(2)))

    def test_juxtaposition_left_associates(self):
        assert parse_identity("(x1 x2 x3)") == parse_identity("((x1 x2) x3)")

    def test_error_position(self):
        from cocheck import IdentityParseError

        with pytest.raises(IdentityParseError) as err:
            parse_identity("(x1 x2")
        assert err.value.position is not None

    def test_rejects_garbage(self):
        from cocheck import IdentityParseError

        with pytest.raises(IdentityParseError):
            parse_identity("x1 @ x2")
