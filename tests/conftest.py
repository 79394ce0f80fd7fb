"""Shared helpers for the test suite."""
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from cocheck import BasisLabel, FormalTensor, FormalVector, var
from cocheck.identities import Leaf, NAPoly, Node, substitute_slots
from test_syntax import coeff_st, monomial_st


def lab(family, index, parity=0):
    return BasisLabel(family, index, parity)


def vec(*pairs):
    """vec((label, coeff), ...) or vec(label) for a unit vector."""
    if len(pairs) == 1 and isinstance(pairs[0], BasisLabel):
        return FormalVector.unit(pairs[0])
    return FormalVector(pairs)


def ten(*pairs):
    """ten(((l1, l2), coeff), ...) builds an arity-2 tensor."""
    return FormalTensor(2, pairs)


def half():
    return Fraction(1, 2)


def _multilinear(mono, slots, keep_derivs):
    """The tree of mono with its leaves, in order, on the next of `slots`."""
    if isinstance(mono, Leaf):
        return var(next(slots), mono.var.deriv if keep_derivs else 0)
    return Node(_multilinear(mono.left, slots, keep_derivs),
                _multilinear(mono.right, slots, keep_derivs))


@st.composite
def symmetrized_st(draw):
    """A random multilinear identity summed over a random Young subgroup
    of its slots, so that it has nontrivial slot classes: (identity, the
    classes of the subgroup as lists of slots)."""
    first = draw(monomial_st.filter(lambda m: len(m.leaves()) >= 2))
    k = len(first.leaves())
    keep_derivs = draw(st.booleans())
    shapes = [first] + draw(st.lists(
        monomial_st.filter(lambda m: len(m.leaves()) == k), max_size=2))
    terms = [
        (draw(coeff_st), _multilinear(shape, iter(draw(st.permutations(range(1, k + 1)))),
                                      keep_derivs))
        for shape in shapes
    ]
    blocks = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    classes = [[s for s in range(1, k + 1) if blocks[s - 1] == b] for b in set(blocks)]
    p = NAPoly([], arity=k)
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        mapping = {s: t for c, image in zip(classes, images) for s, t in zip(c, image)}
        p = p + substitute_slots(NAPoly(terms), mapping)
    return p.with_signature("e" * k) if draw(st.booleans()) else p, classes
