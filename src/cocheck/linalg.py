"""Exact sparse linear and tensor algebra over countable labeled bases.

Coefficients are `fractions.Fraction` throughout; there is no floating
point anywhere in the engine.  Vectors and tensors are immutable and kept
in canonical form: zero coefficients dropped, keys sorted, duplicates
merged.  Equal values compare and hash equally, which makes golden-file
tests and memoization safe.

`FormalVector`, `FormalTensor` and `dual.GrassmannElement` share one
private base, `_Combination`, which owns their sparse arithmetic (`+`,
`-`, `scale`, `*`), equality and hashing: same type, arity and terms.
A vector and a Grassmann element have arity 1.  Each class here
re-binds the base's `__add__`, `__sub__` and `scale` in its own body,
because `perfbench/tracer.py` wraps them by name from a class's `vars()`.

Every sparse sum in the engine, from vector addition to the coidentity
steps and the Grassmann envelope products, is merged by `accumulate`,
the single place that adds coefficients into a dict and drops the zeros.
One loop inlines its adding: `permute_terms`, fused with a map of the
keys by a key function, a reordering (`itemgetter`) or a coidentity
orbit key.  It is the loop of every tail group of the coidentity plan
(`CoidentityMap._run_tails`), and the plan's leaf steps stream their
unmerged terms straight into it.  Results that are already merged are
wrapped by the private `_merged(acc, ordered=False, arity=1)`, which
only sorts, and not even that for the sorted term table of rule
evaluation.  Likewise `koszul_sign` is the single place that computes
the Koszul sign of a reordering.

`BasisLabel` is a `typing.NamedTuple`, so labels hash, compare and order
as the plain tuple `(family, index, parity)`.  That keeps the hot dict
lookups of the engine at C speed, but it also means a label compares
equal to a plain tuple with the same fields.  The engine never builds
such tuples: every label comes from `CoalgebraSpec.label`,
`CoalgebraSpec.labels_upto` or a rule evaluation, and tensor keys are
tuples *of* labels, never of label fields.  Internal loops may hold
integral coefficients as `int`: rule evaluation (`IndexPoly.value` and
the term table that `delta` and `d_label` fill), the coidentity walk
(`CoidentityMap.apply`), the oracle's transposed delta and loop nest
(`DualEvaluator.nonzero_residuals`).  Every coefficient that crosses a
public boundary is a `Fraction`.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import ArityError

ScalarLike = Union[Fraction, int, str]


def scalar(value: ScalarLike) -> Fraction:
    """Coerce ints, Fractions, and strings like "3/2" to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


class BasisLabel(NamedTuple):
    """One basis vector of a countable basis: (family, index, parity).

    The pair (family, index) identifies the vector; the parity is a
    function of the family.  Labels order lexicographically by
    (family, index).  A label is a tuple: see the module docstring.
    """

    family: str
    index: int
    parity: int = 0

    def __str__(self) -> str:
        return f"{self.family}:{self.index}"


def integral(c):
    """c as an int when its denominator is 1, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def format_terms(pairs) -> str:
    """Render [(coeff, "key"), ...] as "a - 2*b + 1/2*c"."""
    out = []
    for coeff, key in pairs:
        mag = -coeff if coeff < 0 else coeff
        body = key if mag == 1 else f"{mag}*{key}"
        if not out:
            out.append(f"-{body}" if coeff < 0 else body)
        else:
            out.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(out) if out else "0"


def accumulate(acc: dict, items) -> dict:
    """Add the (key, coeff) pairs of `items` into `acc` in place and
    drop every key whose sum is zero; returns `acc`.

    `acc` must hold no zero values on entry; it holds none on exit.
    """
    get = acc.get
    for key, c in items:
        prev = get(key)
        if prev is not None:
            c = prev + c
        if c:
            acc[key] = c
        elif prev is not None:
            del acc[key]
    return acc


def _sorted(acc: dict) -> dict:
    return {k: acc[k] for k in sorted(acc)}


_ZERO = Fraction(0)


def _coerced(terms: Union[Mapping, Iterable]) -> dict:
    """The (key, coeff) pairs of a mapping or an iterable, every
    coefficient made a `Fraction`, merged by `accumulate` but unsorted."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    return accumulate({}, ((k, scalar(c)) for k, c in items))


class _Combination:
    """A finite rational combination of keys of one arity, in canonical
    form.  A subclass adds its validating constructor and what reads its keys."""

    __slots__ = ("_arity", "_terms", "_hash")

    @classmethod
    def _merged(cls, acc: dict, ordered: bool = False, arity: int = 1):
        """Wrap a dict of arity-`arity` keys already merged by
        `accumulate`; only sorts it, and not even that when it is
        `ordered` by key already."""
        self = cls.__new__(cls)
        self._arity = arity
        self._terms = acc if ordered else _sorted(acc)
        self._hash = None
        return self

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._terms)

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._arity == other._arity
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._arity, tuple(self._terms.items())))
        return h

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._arity != other._arity:
            raise ArityError(
                f"cannot add tensors of arities {self._arity} and {other._arity}"
            )
        return self._merged(
            accumulate(dict(self._terms), other._terms.items()), False, self._arity
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._merged({k: -v for k, v in self._terms.items()}, True, self._arity)

    def scale(self, c: ScalarLike):
        c = scalar(c)
        terms = {k: v * c for k, v in self._terms.items()} if c else {}
        return self._merged(terms, True, self._arity)

    def __mul__(self, c: ScalarLike):
        return self.scale(c)

    __rmul__ = __mul__


class FormalVector(_Combination):
    """A finite rational linear combination of basis labels."""

    __slots__ = ()

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        self._arity, self._terms, self._hash = 1, _sorted(_coerced(terms)), None

    # perfbench/tracer.py wraps these by name, from the class's own vars().
    __add__, __sub__, scale = _Combination.__add__, _Combination.__sub__, _Combination.scale

    @classmethod
    def unit(cls, label: BasisLabel) -> "FormalVector":
        return cls._merged({label: Fraction(1)})

    def labels(self):
        return self._terms.keys()

    def coefficient(self, label: BasisLabel) -> Fraction:
        return self._terms.get(label, _ZERO)

    def leading(self) -> Optional[BasisLabel]:
        """Smallest label in the support, or None for the zero vector."""
        return next(iter(self._terms), None)

    def max_index(self) -> int:
        """Largest label index in the support; -1 for the zero vector."""
        return max((l.index for l in self._terms), default=-1)

    def __str__(self) -> str:
        return format_terms((c, str(k)) for k, c in self._terms.items())

    def __repr__(self) -> str:
        return f"FormalVector({self})"


class FormalTensor(_Combination):
    """A finite rational combination of k-tuples of basis labels."""

    __slots__ = ()

    def __init__(self, arity: int, terms: Union[Mapping, Iterable] = ()):
        if arity < 1:
            raise ArityError(f"tensor arity must be >= 1, got {arity}")
        merged = _coerced(terms)
        for key in merged:
            if len(key) != arity:
                raise ArityError(f"term {key} does not have arity {arity}")
        self._arity, self._terms, self._hash = arity, _sorted(merged), None

    # perfbench/tracer.py wraps these by name, from the class's own vars().
    __add__, __sub__, scale = _Combination.__add__, _Combination.__sub__, _Combination.scale

    @property
    def arity(self) -> int:
        return self._arity

    def coefficient(self, key: tuple) -> Fraction:
        return self._terms.get(tuple(key), _ZERO)

    def tensor(self, other: "FormalTensor") -> "FormalTensor":
        out: dict = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                out[ka + kb] = ca * cb
        return FormalTensor._merged(out, arity=self._arity + other._arity)

    def flip(self, position: int, graded: bool = False) -> "FormalTensor":
        """Swap factors at `position` and `position + 1` (1-based).

        With `graded`, each swapped term gains the Koszul sign
        (-1)**(p*q) for the parities p, q of the swapped labels.
        """
        if not 1 <= position <= self._arity - 1:
            raise ArityError(
                f"flip position {position} out of range for arity {self._arity}"
            )
        perm = list(range(self._arity))
        perm[position - 1 : position + 1] = position, position - 1
        pairs = ((position - 1, position),) if graded else ()
        return FormalTensor._merged(
            permute_terms(self._terms.items(), itemgetter(*perm), pairs), arity=self._arity
        )

    def max_index(self) -> int:
        return max((l.index for key in self._terms for l in key), default=-1)

    def __str__(self) -> str:
        return format_terms(
            (c, "⊗".join(str(l) for l in key)) for key, c in self._terms.items()
        )

    def __repr__(self) -> str:
        return f"FormalTensor({self._arity}, {self})"


def inversions(perm) -> tuple:
    """The result positions a < b whose factors were in the opposite order
    before the reordering `perm` (new factor k is old factor perm[k])."""
    n = len(perm)
    return tuple((a, b) for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])


def koszul_sign(parities, pairs) -> int:
    """The Koszul sign of a reordering: -1 for each of its reversed
    `pairs` whose factors both have odd `parities` (None counts as even)."""
    sign = 1
    for a, b in pairs:
        if parities[a] and parities[b]:
            sign = -sign
    return sign


_PARITY = attrgetter("parity")


def permute_terms(items, key, pairs, acc=None, coeff=1, signs=None) -> dict:
    """Add the (key, coeff) pairs of `items` into `acc` (a new dict when
    None) and return it, every key mapped by the function `key` (None
    keeps it) and each coefficient times the Koszul sign of `pairs`.  In
    the same loop every coefficient is scaled by `coeff`; the adding is
    `accumulate`'s, inlined, since this is the hottest loop of the
    coidentity evaluator.  `key` is a reordering such as
    `itemgetter(*perm)`, or, in the coidentity plan's tail groups, a
    function that maps a key straight to the key of its orbit.

    `pairs` are the positions, in the key before it is mapped, of the
    factor pairs whose order the reordering reverses: (perm[a], perm[b])
    for the result positions (a, b) of `inversions(perm)` when graded,
    () when plain.  The sign depends only on the factor parities of a
    key, so it is computed once per parity pattern, at most 2**arity
    times; a caller that maps by the same key and pairs again may pass
    one `signs` dict to keep these across calls."""
    if acc is None:
        acc = {}
    if signs is None:
        signs = {}  # parity pattern -> Koszul sign
    get = acc.get
    for k, c in items:
        if pairs:
            pattern = tuple(map(_PARITY, k))
            sign = signs.get(pattern)
            if sign is None:
                sign = signs[pattern] = koszul_sign(pattern, pairs)
            if sign < 0:
                c = -c
        if key is not None:
            k = key(k)
        if coeff != 1:
            c *= coeff
        prev = get(k)
        if prev is not None:
            c += prev
        if c:
            acc[k] = c
        elif prev is not None:
            del acc[k]
    return acc


def extract_components(t: FormalTensor, side: str = "left"):
    """Write an arity-2 tensor as sum(a_i (x) b_i) with independent factors.

    Terms are grouped by their label on the chosen side, so the
    chosen-side factors are distinct basis labels and therefore linearly
    independent.  The opposite-side components are then exactly the
    vectors that must lie in any subspace W with t in W (x) W.

    Returns a list of (left, right) FormalVector pairs, ordered by the
    grouping label; the zero tensor yields an empty list.
    """
    if t.arity != 2:
        raise ArityError(f"extract_components requires arity 2, got {t.arity}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    groups: dict = {}
    for (l, r), c in t.items():
        key, other = (l, r) if side == "left" else (r, l)
        groups.setdefault(key, {})[other] = c
    pairs = []
    for key in sorted(groups):
        # The terms of a tensor are merged, so each group is too.
        grouped = FormalVector._merged(groups[key])
        unit = FormalVector.unit(key)
        pairs.append((unit, grouped) if side == "left" else (grouped, unit))
    return pairs


class EchelonSubspace:
    """A subspace kept as a reduced-echelon set of vectors.

    Rows are normalized to leading coefficient 1, pairwise reduced, and
    keyed by their leading label.  Insertion preserves echelon form; the
    dimension is the number of rows.  Instances are working state and
    are mutated in place; rows themselves are immutable vectors.

    Two indexes are kept in step with the rows.  The column index maps
    each non-pivot label to the pivots whose row holds it, so a new row
    is back-substituted only into the rows that hold its lead.  The unit
    set holds the pivots whose row is the unit vector of its pivot: a
    vector supported on unit pivots alone is in the span, and a label's
    unit vector is in the span exactly when the label is a unit pivot.
    """

    __slots__ = ("_rows", "_cols", "_units")

    def __init__(self, vectors: Iterable[FormalVector] = ()):
        self._rows: dict = {}
        self._cols: dict = {}  # non-pivot label -> set of pivots whose row holds it
        self._units: set = set()  # pivots whose row has no tail
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self):
        """Rows in increasing order of leading label."""
        return tuple(self._rows[p] for p in sorted(self._rows))

    def pivots(self):
        return tuple(sorted(self._rows))

    def reduce(self, v: FormalVector) -> FormalVector:
        # Each row is 1 at its own pivot and 0 at every other pivot, so
        # subtracting one row leaves v's other pivot coefficients alone:
        # v minus c times the row of every pivot in v's own support, in
        # one pass.  A row's pivot is its first item, so every pivot
        # entry of v cancels exactly and no tail touches a pivot: the
        # result is v's non-pivot entries plus -c times each hit row's
        # tail.  A unit row has no tail, so its hit only drops the entry.
        rows = self._rows
        units = self._units
        hits = []
        rest = {}
        for l, c in v.items():
            row = rows.get(l)
            if row is None:
                rest[l] = c
            elif l not in units:
                hits.append((row, c))
        if not hits:
            return v if len(rest) == len(v) else FormalVector._merged(rest, True)
        return FormalVector._merged(accumulate(rest, (
            (k, -c * rc) for row, c in hits for k, rc in islice(row.items(), 1, None)
        )))

    def __contains__(self, v: FormalVector) -> bool:
        return not self.reduce(v)

    def contains_label(self, label: BasisLabel) -> bool:
        return label in self._units

    def insert(self, v: FormalVector):
        """Insert v; returns the new reduced row, or None if v was in the span."""
        units = self._units
        if v.labels() <= units:
            return None
        r = self.reduce(v)
        if not r:
            return None
        lead, c = next(iter(r.items()))
        if c != 1:
            r = r.scale(1 / c)
        rows, cols = self._rows, self._cols
        for pivot in cols.pop(lead, ()):
            row = rows[pivot]
            rows[pivot] = new = row - r.scale(row.coefficient(lead))
            # A tail label other than the lead leaves a row only by
            # cancelling against r, which holds it too.
            for l in row.labels() - new.labels():
                if l != lead:
                    cols[l].discard(pivot)
            for l in new.labels() - row.labels():
                cols.setdefault(l, set()).add(pivot)
            if len(new) == 1:
                units.add(pivot)
        for l in islice(r.labels(), 1, None):
            cols.setdefault(l, set()).add(lead)
        if len(r) == 1:
            units.add(lead)
        rows[lead] = r
        return r

    def copy(self) -> "EchelonSubspace":
        out = EchelonSubspace()
        out._rows = dict(self._rows)
        out._cols = {l: set(ps) for l, ps in self._cols.items()}
        out._units = set(self._units)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, EchelonSubspace) and self._rows == other._rows

    def __str__(self) -> str:
        return "span{" + ", ".join(str(r) for r in self.rows()) + "}"
