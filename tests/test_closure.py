from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cocheck import (
    BasisLabel,
    CoalgebraSpec,
    EchelonSubspace,
    FamilyDecl,
    FormalVector,
    GradedAlgebraSpec,
    SpecError,
    bimodule_step,
    builtin,
    generated_subcoalgebra,
    graded_dual,
    local_finiteness_probe,
    simplicity_probe,
)
from cocheck import closure
from cocheck.closure import (
    DEFAULT_MAX_DIM,
    DEFAULT_MAX_STEPS,
    ClosureStep,
    ClosureTrace,
)
from cocheck.coalgebra import apply_d, delta_linear
from cocheck.linalg import accumulate
from cocheck.rules import delta_term


def unit(spec, fam, i):
    return FormalVector.unit(spec.label(fam, i))


def span_of(spec, sub):
    return {str(p) for p in sub.pivots()}


class TestBimoduleStep:
    def test_example2_first_step(self):
        ex2 = builtin("example2")
        out = bimodule_step(ex2, EchelonSubspace([unit(ex2, "f", 1)]))
        assert span_of(ex2, out) == {"e:0", "f:1", "f:2"}

    def test_example1_span_e_closed(self):
        ex1 = builtin("example1")
        sub = EchelonSubspace([unit(ex1, "e", 0)])
        out = bimodule_step(ex1, sub)
        assert out == sub

    def test_example9_first_step(self):
        ex9 = builtin("example9")
        out = bimodule_step(ex9, EchelonSubspace([unit(ex9, "f", 1)]))
        assert span_of(ex9, out) == {"e1:0", "f:1", "f:3"}

    def test_monotone(self):
        ex4 = builtin("example4")
        sub = EchelonSubspace([unit(ex4, "x", 3) + unit(ex4, "x", 1).scale(2)])
        out = bimodule_step(ex4, sub)
        for row in sub.rows():
            assert row in out

    def test_presentation_independent(self):
        ex4 = builtin("example4")
        a = unit(ex4, "x", 2)
        b = unit(ex4, "x", 3)
        first = bimodule_step(ex4, EchelonSubspace([a + b, b]))
        second = bimodule_step(ex4, EchelonSubspace([b + a.scale(3), a.scale(2)]))
        assert first == second


class TestGeneratedSubcoalgebra:
    def test_example1_with_d_diverges(self):
        ex1 = builtin("example1")
        trace = generated_subcoalgebra(ex1, [unit(ex1, "f", 1)], max_steps=20)
        assert trace.verdict == "budget-exceeded"
        assert all(b > a for a, b in zip(trace.dims, trace.dims[1:]))

    def test_example3_diverges(self):
        ex3 = builtin("example3")
        trace = generated_subcoalgebra(ex3, [unit(ex3, "f", 1)], max_steps=20)
        assert trace.verdict == "budget-exceeded"

    def test_finite_window_dual_closes(self):
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
        trace = generated_subcoalgebra(dual, [unit(dual, "x", 2)])
        assert trace.verdict == "closed"
        assert trace.final_dim == 3

    def test_closed_trace_is_fixed_point(self):
        ex1 = builtin("example1")
        trace = generated_subcoalgebra(ex1, [unit(ex1, "e", 0)])
        assert trace.verdict == "closed"
        again = bimodule_step(ex1, trace.subspace)
        assert again == trace.subspace

    def test_example2_exact_spans_per_step(self):
        ex2 = builtin("example2")
        for k in range(1, 21):
            trace = generated_subcoalgebra(ex2, [unit(ex2, "f", 1)], max_steps=k)
            expected = {"e:0"} | {f"f:{i}" for i in range(1, k + 2)}
            assert span_of(ex2, trace.subspace) == expected

    def test_dimension_growth_examples_1_2_3(self):
        for name in ("example1", "example2", "example3"):
            spec = builtin(name)
            trace = generated_subcoalgebra(spec, [unit(spec, "f", 1)], max_steps=20)
            assert trace.verdict == "budget-exceeded"
            for k, dim in enumerate(trace.dims, start=1):
                assert dim >= k + 1

    def test_budget_must_be_positive(self):
        ex1 = builtin("example1")
        with pytest.raises(SpecError):
            generated_subcoalgebra(ex1, [unit(ex1, "f", 1)], max_steps=0)

    def test_example6_reaches_x0_quickly(self):
        ex6 = builtin("example6")
        for n in range(11):
            trace = generated_subcoalgebra(ex6, [unit(ex6, "x", n)], max_steps=2)
            assert trace.subspace.contains_label(ex6.label("x", 0))

    def test_example9_pattern(self):
        ex9 = builtin("example9")
        trace = generated_subcoalgebra(
            ex9, [unit(ex9, "f", 1), unit(ex9, "f", 2)], max_steps=12
        )
        assert trace.verdict == "budget-exceeded"
        assert trace.subspace.contains_label(ex9.label("e1", 0))
        assert trace.subspace.contains_label(ex9.label("e2", 0))
        for n in (3, 6, 9):
            assert trace.subspace.contains_label(ex9.label("f", n))


class TestLocalFiniteness:
    def test_example2_divergence_evidence(self):
        ex2 = builtin("example2")
        verdict = local_finiteness_probe(ex2, [unit(ex2, "f", 1)], max_steps=20)
        assert verdict.kind == "divergence-evidence"
        for k, dim in enumerate(verdict.trace.dims, start=1):
            assert dim >= k + 1

    def test_example7_odd_generator_diverges(self):
        ex7 = builtin("example7")
        verdict = local_finiteness_probe(ex7, [unit(ex7, "~f", 1)], max_steps=20)
        assert verdict.kind == "divergence-evidence"

    def test_one_dimensional_spec_finite(self):
        spec = CoalgebraSpec(
            name="point",
            families=(FamilyDecl("u", hi=0),),
            delta={"u": [delta_term(1, ("u", 0), ("u", 0))]},
        )
        verdict = local_finiteness_probe(spec, [unit(spec, "u", 0)])
        assert verdict.kind == "finite-dimensional"
        assert verdict.dim == 1


class TestSimplicityProbe:
    def test_example4_passes(self):
        report = simplicity_probe(builtin("example4"), 15)
        assert report.passed
        assert report.window == (("x", 0, 15),)

    def test_example5_passes(self):
        assert simplicity_probe(builtin("example5"), 15).passed

    def test_example6_passes(self):
        assert simplicity_probe(builtin("example6"), 15).passed

    def test_example1_fails_on_span_e(self):
        report = simplicity_probe(builtin("example1"), 15)
        assert not report.passed
        failure = report.failures()[0]
        assert failure.generator == "e:0"
        assert failure.dim == 1
        assert "f:1" in failure.missing

    def test_example8_passes_small(self):
        assert simplicity_probe(builtin("example8"), 10).passed

    def test_seeded_runs_reproduce(self):
        a = simplicity_probe(builtin("example5"), 10, seed=42)
        b = simplicity_probe(builtin("example5"), 10, seed=42)
        assert a == b

    def test_horizon_must_cover_labels(self):
        ex9 = builtin("example9")
        with pytest.raises(SpecError):
            simplicity_probe(ex9, -1)


# -- Differential tests against the plain closure loop ---------------------
#
# The references below are the closure loop and the echelon reduction as
# they were before the loop shared components, skipped repeated inserts and
# stopped at saturation: every row's components are recomputed, every
# component is inserted, and each reduction subtracts whole rows.

COALGEBRAS = [f"example{i}" for i in range(1, 10)]


class ReferenceEchelon(EchelonSubspace):
    """An echelon subspace that keeps no index: its reduction subtracts c
    times the whole row of every pivot in v's support, pivot entries
    included, and its insertion always normalizes the new row and scans
    every row for back-substitution."""

    def reduce(self, v):
        rows = self._rows
        hits = [(rows[l], c) for l, c in v.items() if l in rows]
        if not hits:
            return v
        return FormalVector._merged(accumulate(dict(v.items()), (
            (k, -c * rc) for row, c in hits for k, rc in row.items()
        )))

    def insert(self, v):
        r = self.reduce(v)
        if not r:
            return None
        lead = r.leading()
        r = r.scale(1 / r.coefficient(lead))
        for pivot, row in list(self._rows.items()):
            c = row.coefficient(lead)
            if c:
                self._rows[pivot] = row - r.scale(c)
        self._rows[lead] = r
        return r

    def contains_label(self, label):
        return FormalVector.unit(label) in self


def reference_components(spec, v):
    """components(), grouping delta(v) by hand through the coercing
    constructor."""
    t = delta_linear(spec, v)
    out = []
    for side in (0, 1):
        groups = {}
        for key, c in t.items():
            groups.setdefault(key[side], []).append((key[1 - side], c))
        out.extend(FormalVector(groups[k]) for k in sorted(groups))
    if spec.differential:
        out.append(apply_d(spec, v))
    return out


def reference_closure(spec, generators, max_steps=DEFAULT_MAX_STEPS,
                      max_dim=DEFAULT_MAX_DIM, window=None, **_):
    sub = ReferenceEchelon()
    queue = []
    for g in generators:
        if window is not None and g.max_index() > window:
            raise SpecError("generator lies outside the tracking window")
        inserted = sub.insert(g)
        if inserted is not None:
            queue.append(inserted)
    steps = []
    verdict = "closed"
    while queue:
        if len(steps) >= max_steps:
            verdict = "budget-exceeded"
            break
        current, queue = queue, []
        added = []
        for v in current:
            for comp in reference_components(spec, v):
                if not comp or (window is not None and comp.max_index() > window):
                    continue
                inserted = sub.insert(comp)
                if inserted is not None:
                    queue.append(inserted)
                    added.append(str(inserted.leading()))
        steps.append(ClosureStep(dim=sub.dim, added=tuple(added)))
        if sub.dim > max_dim:
            verdict = "budget-exceeded"
            break
    return ClosureTrace(verdict=verdict, steps=tuple(steps),
                        final_dim=sub.dim, subspace=sub)


def probe_or_error(spec, horizon, seed):
    try:
        return simplicity_probe(spec, horizon, seed=seed)
    except SpecError as exc:
        return str(exc)


def index_one_generators(spec):
    labels = spec.labels_upto(2)
    return [FormalVector.unit(l) for l in labels if l.index == 1] or [
        FormalVector.unit(labels[-1])
    ]


def window_starts(spec, window):
    """Every window label, and a few fixed combinations of them."""
    labels = spec.labels_upto(window)
    starts = [FormalVector.unit(l) for l in labels]
    for k in range(len(labels) - 1):
        starts.append(FormalVector({labels[k]: 2, labels[-1 - k]: Fraction(-1, 3)}))
    return starts


class TestClosureMatchesReference:
    @pytest.mark.parametrize("name", COALGEBRAS)
    def test_simplicity_reports(self, name, monkeypatch):
        spec = builtin(name)
        cases = [(h, seed) for h in range(11) for seed in (0, 7)]
        got = [probe_or_error(spec, h, seed) for h, seed in cases]
        monkeypatch.setattr(closure, "generated_subcoalgebra", reference_closure)
        want = [probe_or_error(builtin(name), h, seed) for h, seed in cases]
        assert got == want

    @pytest.mark.parametrize("name", COALGEBRAS)
    @pytest.mark.parametrize("max_steps", [3, 12, 30])
    def test_unwindowed_traces(self, name, max_steps):
        spec = builtin(name)
        generators = index_one_generators(spec)
        got = generated_subcoalgebra(spec, generators, max_steps=max_steps)
        want = reference_closure(spec, generators, max_steps=max_steps)
        assert got == want
        assert got.subspace.rows() == want.subspace.rows()

    @pytest.mark.parametrize("name", COALGEBRAS)
    @pytest.mark.parametrize("window, max_steps", [(3, 14), (6, 20), (6, 2)])
    def test_windowed_traces(self, name, window, max_steps):
        spec = builtin(name)
        full = len(spec.labels_upto(window))
        memo = {}
        for v in window_starts(spec, window):
            kwargs = dict(max_steps=max_steps, max_dim=full + 8, window=window)
            got = generated_subcoalgebra(spec, [v], **kwargs)
            assert generated_subcoalgebra(spec, [v], memo=memo, **kwargs) == got
            want = reference_closure(spec, [v], **kwargs)
            assert got.final_dim == want.final_dim
            assert got.subspace.rows() == want.subspace.rows()
            n = len(got.steps)
            assert got.steps == want.steps[:n]
            # Past saturation the plain loop only adds empty steps.
            assert all(not s.added for s in want.steps[n:])
            if got.verdict != want.verdict:
                assert (got.verdict, got.final_dim) == ("closed", full)

    @pytest.mark.parametrize("name", ["example5", "example8", "example9"])
    def test_shared_memo_changes_no_report(self, name):
        spec = builtin(name)
        memo = {}
        for v in window_starts(spec, 5):
            fresh = generated_subcoalgebra(spec, [v], window=5)
            shared = generated_subcoalgebra(spec, [v], window=5, memo=memo)
            assert shared == fresh
            assert shared.subspace.rows() == fresh.subspace.rows()
        assert memo


fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
small_vectors_st = st.dictionaries(
    st.builds(BasisLabel, st.sampled_from("ab"), st.integers(0, 3)),
    fractions_st,
    max_size=5,
).map(FormalVector)


class TestPivotFreeReduce:
    @given(st.lists(small_vectors_st, max_size=6), small_vectors_st)
    def test_matches_full_accumulate_reduction(self, rows, v):
        sub = EchelonSubspace(rows)
        reference = ReferenceEchelon(rows)
        assert sub.rows() == reference.rows()
        assert sub.reduce(v) == reference.reduce(v)
        assert (v in sub) == (v in reference)


def recomputed_indexes(sub):
    """The column index and the unit set of `sub`, rebuilt from its rows."""
    cols = {}
    for pivot, row in zip(sub.pivots(), sub.rows()):
        for label in row.labels():
            if label != pivot:
                cols.setdefault(label, set()).add(pivot)
    units = {p for p, row in zip(sub.pivots(), sub.rows()) if len(row) == 1}
    return cols, units


def snapshot(sub):
    return (dict(sub._rows), {l: set(ps) for l, ps in sub._cols.items()},
            set(sub._units))


ALL_SMALL_LABELS = [BasisLabel(f, i) for f in "ab" for i in range(4)]


class TestEchelonIndexes:
    @given(st.lists(small_vectors_st, max_size=8))
    def test_indexes_match_the_rows_after_every_insert(self, vs):
        sub = EchelonSubspace()
        for v in vs:
            sub.insert(v)
            assert (sub._cols, sub._units) == recomputed_indexes(sub)

    @given(st.lists(small_vectors_st, max_size=6), st.lists(small_vectors_st, max_size=4))
    def test_insert_into_a_copy_leaves_the_original(self, rows, more):
        sub = EchelonSubspace(rows)
        before = snapshot(sub)
        out = sub.copy()
        for v in more:
            out.insert(v)
        assert snapshot(sub) == before
        assert (out._cols, out._units) == recomputed_indexes(out)

    @given(st.lists(small_vectors_st, max_size=6))
    def test_contains_label_agrees_with_unit_membership(self, rows):
        sub = EchelonSubspace(rows)
        reference = ReferenceEchelon(rows)
        for label in ALL_SMALL_LABELS:
            assert sub.contains_label(label) == (FormalVector.unit(label) in sub)
            assert sub.contains_label(label) == reference.contains_label(label)

    @pytest.mark.parametrize("name", ["example5", "example8"])
    def test_equal_components_of_a_probe_memo_are_one_object(self, name, monkeypatch):
        memos = []
        real = closure.generated_subcoalgebra

        def recording(*args, memo, **kwargs):
            memos.append(memo)
            return real(*args, memo=memo, **kwargs)

        monkeypatch.setattr(closure, "generated_subcoalgebra", recording)
        assert simplicity_probe(builtin(name), 8, seed=7).passed
        assert all(m is memos[0] for m in memos)
        firsts = {}
        count = 0
        for comps in memos[0].values():
            for c in comps:
                count += 1
                assert firsts.setdefault(c, c) is c
        assert count > len(firsts)
