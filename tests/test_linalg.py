from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import assume, given, strategies as st

from cocheck import (
    ArityError,
    EchelonSubspace,
    FormalTensor,
    FormalVector,
    GrassmannElement,
    extract_components,
)
from cocheck.linalg import inversions, permute_terms
from conftest import lab, ten, vec

E = lab("e", 0)
F1 = lab("f", 1)
F2 = lab("f", 2)
X0 = lab("x", 0)
X1 = lab("x", 1)
X2 = lab("x", 2)
OD1 = lab("~f", 1, parity=1)
OD2 = lab("~f", 2, parity=1)


def as_tensor(v):
    """The arity-1 tensor with the terms of the vector v."""
    return FormalTensor(1, {(label,): c for label, c in v.items()})


labels_st = st.sampled_from([E, F1, F2, X0, X1, X2])
coeff_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
vectors_st = st.dictionaries(labels_st, coeff_st, max_size=4).map(FormalVector)
pairs_st = st.tuples(labels_st, labels_st)
tensors_st = st.dictionaries(pairs_st, coeff_st, max_size=5).map(
    lambda d: FormalTensor(2, d)
)


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        assert not FormalVector({E: 0, F1: Fraction(0)})
        assert FormalVector({E: 1, F1: -1}) == vec((E, 1), (F1, -1))

    def test_duplicates_merge(self):
        v = FormalVector([(E, Fraction(1, 2)), (E, Fraction(1, 2))])
        assert v == vec((E, 1))

    def test_sorted_iteration(self):
        v = vec((F2, 1), (E, 2), (F1, 3))
        assert list(v.labels()) == [E, F1, F2]

    def test_canonicalization_idempotent(self):
        t = ten(((F1, E), 2), ((E, F1), -1))
        assert FormalTensor(2, dict(t.items())) == t

    def test_str_forms(self):
        assert str(vec((E, 1), (F1, -2))) == "e:0 - 2*f:1"
        assert str(FormalVector()) == "0"
        assert str(ten(((E, F2), 1), ((F2, E), -1))) == "e:0⊗f:2 - f:2⊗e:0"


class TestAdd:
    def test_additive_inverse(self):
        t = ten(((E, E), 1))
        assert not t + t.scale(-1)

    def test_disjoint_supports(self):
        t = ten(((F1, E), 1)) + ten(((E, F1), 1))
        assert t == ten(((F1, E), 1), ((E, F1), 1))

    def test_coefficient_merge(self):
        h = ten(((F1, E), Fraction(1, 2)))
        assert h + h == ten(((F1, E), 1))

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            ten(((E, E), 1)) + FormalTensor(1, {(E,): 1})


def _tensors(n):
    keys = st.tuples(*[labels_st] * n)
    return st.dictionaries(keys, coeff_st, max_size=5).map(lambda d: FormalTensor(n, d))


# Grassmann terms pair an even label with an even monomial, or an odd
# label with an odd one.
grassmann_st = st.dictionaries(
    st.one_of(
        st.tuples(st.sampled_from([E, X1]), st.sampled_from([(), (0, 1), (1, 2)])),
        st.tuples(st.sampled_from([OD1, OD2]), st.sampled_from([(0,), (2,), (0, 1, 2)])),
    ),
    coeff_st,
    max_size=4,
).map(GrassmannElement)

# One strategy per kind of combination; a drawn pair shares its kind.
KINDS = [vectors_st, _tensors(1), tensors_st, _tensors(3), grassmann_st]
same_kind_st = st.sampled_from(KINDS).flatmap(lambda s: st.tuples(s, s))
scalar_st = st.one_of(coeff_st, st.integers(-3, 3))


def _rebuilt(like, terms):
    """A combination of `like`'s class and arity, through its constructor."""
    if isinstance(like, FormalTensor):
        return FormalTensor(like.arity, terms)
    return type(like)(terms)


def _arity(x):
    return x.arity if isinstance(x, FormalTensor) else 1


def _model(*scaled):
    """The sorted items of sum(c * x) over the (c, x) pairs, on plain dicts."""
    out = {}
    for c, x in scaled:
        for k, v in x.items():
            out[k] = out.get(k, 0) + c * v
    return sorted((k, v) for k, v in out.items() if v)


class TestCombinationArithmetic:
    """FormalVector, FormalTensor and GrassmannElement share one arithmetic."""

    @given(same_kind_st, scalar_st)
    def test_matches_dict_model(self, pair, c):
        a, b = pair
        cases = [
            (a + b, _model((1, a), (1, b))),
            (a - b, _model((1, a), (-1, b))),
            (-a, _model((-1, a))),
            (a.scale(c), _model((c, a))),
            (c * a, _model((c, a))),
            (a * c, _model((c, a))),
        ]
        for got, model in cases:
            assert type(got) is type(a) and _arity(got) == _arity(a)
            assert list(got.items()) == model
            assert all(type(v) is Fraction for _, v in got.items())
            assert len(got) == len(model) and bool(got) == bool(model)

    @given(st.one_of(*KINDS))
    def test_equal_values_hash_equal(self, a):
        n = _arity(a)
        backwards = dict(reversed(list(a.items())))
        same = [a, _rebuilt(a, backwards), type(a)._merged(backwards, arity=n)]
        zeros = [a.scale(0), a - a, _rebuilt(a, {}), type(a)._merged({}, arity=n)]
        for group in (same, zeros):
            for x in group:
                assert x == group[0] and hash(x) == hash(group[0])
        assert dict(a.terms) == dict(a.items())

    @given(st.one_of(*KINDS), st.one_of(*KINDS))
    def test_different_types_do_not_add(self, a, b):
        assume(type(a) is not type(b))
        assert a != b
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b

    @given(st.sampled_from([1, 2, 3]).flatmap(
        lambda n: st.tuples(_tensors(n), _tensors(n % 3 + 1))))
    def test_different_arities_do_not_add(self, pair):
        a, b = pair
        assert a != b
        with pytest.raises(ArityError):
            a + b
        with pytest.raises(ArityError):
            a - b


class TestTensorProduct:
    def test_bilinearity(self):
        left = FormalTensor(1, {(F1,): 1, (E,): 1})
        right = FormalTensor(1, {(E,): 1})
        assert left.tensor(right) == ten(((F1, E), 1), ((E, E), 1))

    def test_zero_annihilates(self):
        assert not FormalTensor(1).tensor(FormalTensor(1, {(E,): 1}))

    def test_scalar_product(self):
        t = FormalTensor(1, {(X0,): 2}).tensor(FormalTensor(1, {(X1,): 3}))
        assert t == ten(((X0, X1), 6))


class TestFlip:
    def test_plain_flip(self):
        assert ten(((X0, X1), 1)).flip(1) == ten(((X1, X0), 1))

    def test_graded_flip_odd_odd(self):
        assert ten(((OD1, OD2), 1)).flip(1, graded=True) == ten(((OD2, OD1), -1))

    def test_graded_flip_mixed(self):
        t = FormalTensor(2, {(E, OD1): Fraction(1)})
        assert t.flip(1, graded=True) == FormalTensor(2, {(OD1, E): Fraction(1)})

    def test_position_out_of_range(self):
        with pytest.raises(ArityError):
            ten(((E, E), 1)).flip(2)

    @given(tensors_st)
    def test_involution_plain(self, t):
        assert t.flip(1).flip(1) == t

    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from([E, OD1, OD2]), st.sampled_from([E, OD1, OD2])
            ),
            coeff_st,
            max_size=5,
        ).map(lambda d: FormalTensor(2, d))
    )
    def test_involution_graded(self, t):
        assert t.flip(1, graded=True).flip(1, graded=True) == t


def _permuted_tensors(n):
    keys = st.tuples(*[st.sampled_from([E, X1, OD1, OD2])] * n)
    return st.tuples(
        st.permutations(range(n)),
        st.dictionaries(keys, coeff_st, max_size=6).map(lambda d: FormalTensor(n, d)),
    )


class TestPermute:
    @given(st.integers(min_value=2, max_value=5).flatmap(_permuted_tensors))
    def test_signed_permutation_equals_graded_flip_chain(self, case):
        perm, t = case
        pairs = tuple((perm[a], perm[b]) for a, b in inversions(perm))
        once = FormalTensor(t.arity, permute_terms(t.items(), itemgetter(*perm), pairs))
        # Bubble-sort the destination of each source factor.  Every adjacent
        # swap is one graded flip, and one swap of the raw terms signed here
        # by hand, which does not share the engine's sign routine.
        dest = [perm.index(k) for k in range(t.arity)]
        flipped, swapped = t, dict(t.items())
        for _ in range(t.arity):
            for j in range(t.arity - 1):
                if dest[j] > dest[j + 1]:
                    dest[j], dest[j + 1] = dest[j + 1], dest[j]
                    flipped = flipped.flip(j + 1, graded=True)
                    swapped = {
                        k[:j] + (k[j + 1], k[j]) + k[j + 2:]:
                            -c if k[j].parity and k[j + 1].parity else c
                        for k, c in swapped.items()
                    }
        assert once == flipped == FormalTensor(t.arity, swapped)

    def test_plain_permutation_keeps_signs(self):
        t = FormalTensor(3, {(OD1, OD2, E): 1})
        plain = FormalTensor(3, permute_terms(t.items(), itemgetter(1, 0, 2), ()))
        assert plain == FormalTensor(3, {(OD2, OD1, E): 1})

    def test_inversions_name_result_positions(self):
        assert inversions((0, 1, 2)) == ()
        assert inversions((2, 0, 1)) == ((0, 1), (0, 2))


class TestExtractComponents:
    def test_already_independent(self):
        t = ten(((F1, E), 1), ((E, F1), 1))
        assert extract_components(t, "left") == [
            (vec(E), vec(F1)),
            (vec(F1), vec(E)),
        ]

    def test_merge_equal_left_factors(self):
        # v (x) w + v (x) u collapses to a single pair (v, w + u).
        t = ten(((X0, X1), 1), ((X0, X2), 1))
        assert extract_components(t, "left") == [(vec(X0), vec((X1, 1), (X2, 1)))]

    def test_three_pairs_for_convolution(self):
        t = ten(((X0, X2), 1), ((X1, X1), 1), ((X2, X0), 1))
        pairs = extract_components(t, "left")
        assert pairs == [
            (vec(X0), vec(X2)),
            (vec(X1), vec(X1)),
            (vec(X2), vec(X0)),
        ]

    def test_zero_gives_empty(self):
        assert extract_components(FormalTensor(2), "left") == []

    @given(tensors_st)
    def test_round_trip(self, t):
        for side in ("left", "right"):
            total = FormalTensor(2)
            for a, b in extract_components(t, side):
                total = total + as_tensor(a).tensor(as_tensor(b))
            assert total == t

    @given(tensors_st)
    def test_chosen_side_factors_independent(self, t):
        for side in ("left", "right"):
            pairs = extract_components(t, side)
            chosen = [a if side == "left" else b for a, b in pairs]
            sub = EchelonSubspace()
            for v in chosen:
                assert sub.insert(v) is not None

    @given(st.lists(vectors_st, min_size=1, max_size=3), st.data())
    def test_lemma_two_membership(self, gens, data):
        # For t in span(B) (x) span(B), extracted right components lie in
        # span(B): the extraction lemma realized as a test.
        sub = EchelonSubspace()
        for g in gens:
            sub.insert(g)
        basis = sub.rows()
        if not basis:
            return
        n = len(basis)
        coeffs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), coeff_st
                ),
                max_size=4,
            )
        )
        t = FormalTensor(2)
        for i, j, c in coeffs:
            t = t + as_tensor(basis[i]).tensor(as_tensor(basis[j])).scale(c)
        # A reduced-echelon row is 1 at its own pivot and 0 at the others,
        # so a vector of the span is the sum of its pivot coefficients
        # times the rows.
        for _, right in extract_components(t, "left"):
            expected = FormalVector()
            for p, row in zip(sub.pivots(), basis):
                expected = expected + row.scale(right.coefficient(p))
            assert right == expected


class TestEchelonSubspace:
    def test_insert_reduces(self):
        sub = EchelonSubspace([vec((X0, 1), (X1, 1))])
        assert sub.insert(vec((X0, 1), (X1, 1))) is None
        assert sub.insert(vec(X0)) is not None
        assert sub.dim == 2
        assert sub.pivots() == (X0, X1)

    def test_contains(self):
        sub = EchelonSubspace([vec((X0, 1), (X1, 1)), vec(X2)])
        assert vec((X0, 2), (X1, 2)) in sub
        assert vec(X0) not in sub

    @given(st.lists(vectors_st, max_size=6))
    def test_rows_stay_reduced(self, vs):
        # reduce() visits only the pivots in v's support, which is exact
        # only while every row is 1 at its own pivot and 0 at the others.
        sub = EchelonSubspace()
        for v in vs:
            sub.insert(v)
            for pivot, row in zip(sub.pivots(), sub.rows()):
                assert row.leading() == pivot
                for other in sub.pivots():
                    assert row.coefficient(other) == (1 if other == pivot else 0)

    @given(st.lists(vectors_st, max_size=5))
    def test_dim_at_most_inserted(self, vs):
        sub = EchelonSubspace(vs)
        assert sub.dim <= len([v for v in vs if v])
        for v in vs:
            assert v in sub
