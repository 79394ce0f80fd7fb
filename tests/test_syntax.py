"""The two expression languages read back what they print: identities
(`parse_identity`) and rule expressions (`IndexPoly.parse`,
`AffineIndex.parse`); and `IndexPoly.value` agrees with `Fraction`
arithmetic."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cocheck import AffineIndex, IdentityParseError, IndexPoly, NAPoly, parse_identity
from cocheck.identities import Node, var

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)

leaf_st = st.builds(var, st.integers(1, 4), st.integers(0, 2))
monomial_st = st.recursive(leaf_st, lambda kids: st.builds(Node, kids, kids),
                           max_leaves=4)
napoly_st = st.lists(st.tuples(coeff_st, monomial_st), min_size=1, max_size=4).map(
    NAPoly
).filter(bool)

exponent_st = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda e: sum(e) <= 3
)
indexpoly_st = st.dictionaries(exponent_st, coeff_st, max_size=6).map(IndexPoly)

small_st = st.integers(-50, 50)
affine_st = st.builds(AffineIndex, small_st, small_st, small_st)


@settings(max_examples=80, deadline=None)
@given(napoly_st)
def test_identity_round_trip(p):
    assert parse_identity(str(p)) == p


@settings(max_examples=80, deadline=None)
@given(indexpoly_st)
def test_index_polynomial_round_trip(q):
    assert IndexPoly.parse(str(q)) == q


@settings(max_examples=200, deadline=None)
@given(indexpoly_st, st.integers(-40, 400), st.integers(-40, 400))
def test_integer_kernel_matches_fraction_evaluation(q, n, i):
    expected = sum((c * n**dn * i**di for (dn, di), c in q.coeffs), Fraction(0))
    value = q.value(n, i)
    assert value == q.evaluate(n, i) == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@settings(max_examples=80, deadline=None)
@given(affine_st)
def test_affine_index_round_trip(a):
    assert AffineIndex.parse(str(a)) == a


@pytest.mark.parametrize("text, position", [
    ("x1 @ x2", 2),
    ("x1 x2  $", 5),
    ("(x1 x2", 6),
    ("x1 x2)", 5),
])
def test_identity_error_position(text, position):
    with pytest.raises(IdentityParseError) as info:
        parse_identity(text)
    assert info.value.position == position
