"""Exact dual-algebra computations on finitely supported functionals.

A functional sum(c_l xi_l) over coordinate functionals xi_l is stored as
a FormalVector keyed by the labels l.  The validated shift bound keeps
products and transposed derivations finitely supported, with support
windows computed from the bound; each window is spot-validated before
use.  These routines serve as an independent oracle against the
coidentity checker, and the Grassmann envelope check covers the graded
case.  The oracle reads only `delta` and `d_label`, never the coidentity
translation.

Products look their terms up in a transposed-delta table (l, r) ->
[(k, c)], read from the integer term table of `delta` (`_int_terms`) and
kept on the spec, so a product costs one lookup per pair of support
labels instead of a scan of its window.  The table holds integral
coefficients as `int`; `dual_product` multiplies them into `Fraction`s,
so its results stay `Fraction`-valued.

`bruteforce_identity` covers the |labels|^arity tuples with a loop nest
over the slots (`DualEvaluator.nonzero_residuals`): each subtree of the
identity is evaluated in the loop of its last slot, once per prefix or
through a memo keyed by label positions, on plain dicts with `int`
coefficients where they are integral.  Every product of the nest keeps
the labels of the one validated window, and the top-level products of a
tuple go straight into one residual dict.

The nest runs one tuple per orbit of the identity's slot symmetries.
`slot_classes` puts two slots in one class when swapping them leaves the
identity unchanged as an `NAPoly`; it reads the identity alone, never
its coidentity translation.  Each slot's loop starts at the position of
the previous slot of its class, so only class-sorted tuples are
evaluated: n C(n+2, 3) of the n^4 for Jordan, symmetric in slots 1-3.
The nest evaluates identities ungraded (a signature with an odd slot is
refused), so permuting the functionals within a class leaves p's value
unchanged, and the residual of a sorted tuple is also the residual of
each arrangement of its orbit.  The sorted tuple is the least of its
orbit in `itertools.product` order, so the other arrangements wait on a
heap keyed by their label positions and are yielded as the nest passes
them: the tuples come out in `itertools.product` order, as from the full
nest.  Only a tuple whose residual is nonzero is evaluated again, by
`DualEvaluator.polynomial` on its own functionals through the unmemoized
`dual_product` and `dual_derivation` in `Fraction`s, to build its
witness; the rebuild must agree, which checks the symmetry afresh on
every reported tuple.
"""
from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .coalgebra import (
    CheckReport,
    CoalgebraSpec,
    MAX_WITNESSES,
    Witness,
    _int_terms,
    d_label,
    scan,
    validate_shift_bound,
)
from .errors import EngineError, ShiftBoundError, SpecError
from .identities import Leaf, NAPoly, substitute_slots
from .linalg import FormalVector, _Combination, _sorted, accumulate, integral

_ZERO = FormalVector()


def coordinate_functional(spec: CoalgebraSpec, family: str, index: int) -> FormalVector:
    """The coordinate functional dual to one basis label."""
    return FormalVector.unit(spec.label(family, index))


def _require_window(spec: CoalgebraSpec, max_index: int) -> None:
    report = validate_shift_bound(spec, max_index)
    if not report.passed:
        raise ShiftBoundError(
            f"shift bound {spec.shift_bound} of {spec.name!r} failed on the "
            f"window 0..{max_index}: {report.witnesses[0]}"
        )


def _transposed_delta(spec: CoalgebraSpec, window: int) -> dict:
    """The table (l, r) -> [(k, c)] listing every term c l (x) r of
    delta(k), for all labels k with index <= window, read from the
    integer term table, so integral coefficients are `int`.

    It is kept on the spec and grown, never rebuilt: a call with a larger
    window than any before it adds the labels in between.
    """
    table = spec._product_table
    if window > table.window:
        found = [
            (lr, (k, c))
            for k in spec.labels_upto(window)
            if k.index > table.window
            for lr, c in _int_terms(spec, "delta", k)
        ]
        hits = table.hits
        for lr, hit in found:
            hits.setdefault(lr, []).append(hit)
        table.window = window
    return table.hits


def _product_terms(hits: dict, window: int, f, g, scale=1):
    """The (k, c) terms of scale * fg for f and g given as label ->
    coefficient maps, one table lookup per pair of support labels, with
    k kept only when its index is <= window."""
    for l, cf in f.items():
        if scale != 1:
            cf = cf * scale
        for r, cg in g.items():
            found = hits.get((l, r))
            if found:
                c = cf * cg
                for k, ck in found:
                    if k.index <= window:
                        yield k, c * ck


def dual_product(
    spec: CoalgebraSpec,
    f: FormalVector,
    g: FormalVector,
    validate: bool = True,
) -> FormalVector:
    """The product (fg)(a) = sum f(a1) g(a2) over delta(a) = sum a1 (x) a2.

    The support of the result lies among labels k with
    k <= max(supp f) + max(supp g) + shift_bound, by the validated
    shift bound; only those are kept, so an unvalidated call sees the
    same window.  The terms come from the transposed delta table, one
    lookup per pair of support labels.  The coefficients of f and g are
    `Fraction`s, and so are those of the result.
    """
    if not f or not g:
        return _ZERO
    window = f.max_index() + g.max_index() + spec.shift_bound
    if validate:
        _require_window(spec, window)
    hits = _transposed_delta(spec, window)
    return FormalVector._merged(accumulate({}, _product_terms(hits, window, f, g)))


def dual_derivation(
    spec: CoalgebraSpec, f: FormalVector, validate: bool = True
) -> FormalVector:
    """The transposed coderivation: (d* f)(b) = f(d(b))."""
    if not spec.differential:
        raise SpecError(f"spec {spec.name!r} has no coderivation")
    if not f:
        return _ZERO
    window = f.max_index() + spec.shift_bound
    if (
        spec.coderivation_max_index is not None
        and window > spec.coderivation_max_index
    ):
        raise SpecError(
            f"transposed derivation needs the coderivation up to index {window}, "
            f"but {spec.name!r} only defines it up to {spec.coderivation_max_index}"
        )
    if validate:
        _require_window(spec, window)
    out = {}
    for label in spec.labels_upto(window):
        total = Fraction(0)
        for m, c in d_label(spec, label).items():
            cf = f.coefficient(m)
            if cf:
                total += c * cf
        if total:
            out[label] = total
    return FormalVector._merged(out)


_UNSET = object()


def _compile(p: NAPoly):
    """Compile p into its distinct subtrees, deduplicated by `key()`:
    (leaves, products, terms).

    The subtrees are numbered leaves first, each (slot position,
    derivative order), then the products in post order, each (left,
    right, sorted slot positions).  `terms` lists (coeff, subtree) for
    the monomials of p.
    """
    leaves = sorted({(v.slot - 1, v.deriv) for _, m in p.terms for v in m.leaves()})
    products: list = []
    where: dict = {}

    def visit(mono):
        if isinstance(mono, Leaf):
            return leaves.index((mono.var.slot - 1, mono.var.deriv))
        key = mono.key()
        if key not in where:
            left, right = visit(mono.left), visit(mono.right)
            slots = tuple(sorted({v.slot - 1 for v in mono.leaves()}))
            products.append((left, right, slots))
            where[key] = len(leaves) + len(products) - 1
        return where[key]

    return leaves, products, [(c, visit(mono)) for c, mono in p.terms]


class DualEvaluator:
    """Evaluates identities on functionals, on one validated window.

    `nonzero_residuals` runs the distinct subtrees of an identity over the
    tuples of a label list as a loop nest over the slots, an odometer in
    `itertools.product` order.  A subtree is evaluated inside the loop of
    its last slot: once per prefix when it reads a prefix of the slots,
    and otherwise through a memo keyed by the label positions at its
    slots.  A derivative leaf is computed once per label.  Inside the
    nest a value is a plain label -> coefficient dict, or None for zero,
    with integral coefficients held as `int`; every product keeps the
    labels of the one validated window, and the top-level products of a
    tuple are summed straight into its residual.

    The odometer visits class-sorted tuples only: a slot's loop starts at
    the position of the previous slot of its class (`slot_classes`).  The
    residual of a sorted tuple stands for every arrangement of its orbit,
    since the nest evaluates ungraded.  The other arrangements of a
    nonzero orbit go onto a heap keyed by their positions, and each is
    yielded once the odometer has passed it, before the next sorted tuple;
    the heap is drained at the end, and before an error raised inside the
    nest.  With singleton classes no loop is skipped and the heap stays
    empty.

    `product`, `derivative` and `polynomial` keep no memo: they call
    `dual_product` and `dual_derivation`, in `Fraction`s throughout.
    `bruteforce_identity` rebuilds each witness with `polynomial`.
    """

    def __init__(self, spec: CoalgebraSpec, validated_window: int):
        self.spec = spec
        self.window = validated_window

    def product(self, f: FormalVector, g: FormalVector) -> FormalVector:
        return dual_product(self.spec, f, g, validate=False)

    def derivative(self, f: FormalVector, order: int) -> FormalVector:
        for _ in range(order):
            f = dual_derivation(self.spec, f, validate=False)
        return f

    def polynomial(self, p: NAPoly, assignment) -> FormalVector:
        """Evaluate p on the functionals of slots 1..arity, in order."""
        leaves, products, terms = _compile(p)
        values = [self.derivative(assignment[slot], order) for slot, order in leaves]
        for left, right, _ in products:
            values.append(self.product(values[left], values[right]))
        out = _ZERO
        for coeff, at in terms:
            value = values[at]
            if value:
                value = value if coeff == 1 else value.scale(coeff)
                out = out + value if out else value
        return out

    def nonzero_residuals(self, p: NAPoly, labels: list):
        """Yield (tuple, residual), in `itertools.product` order, for
        every tuple of `labels`, one per slot, on whose coordinate
        functionals p is nonzero; the residual is p's value there, as a
        label -> coefficient dict with integral coefficients as `int`.
        The tuples of one orbit share one residual dict: read it, do not
        change it.
        """
        leaves, products, terms = _compile(p)
        arity, window, n = p.arity, self.window, len(labels)
        # `bruteforce_identity` has validated the shift bound up to window,
        # so every k <= window reached from supports f and g has k.index <=
        # max f + max g + shift_bound, and its window formula keeps that
        # per-product bound <= window for every product of the nest.  So
        # filtering at the one window keeps exactly the terms `dual_product`
        # would, and still drops the table entries past it that unvalidated
        # products left behind.
        hits = _transposed_delta(self.spec, window)
        # Only class-sorted tuples run: each slot's loop starts at the
        # position of the previous slot of its class, if any.
        classes = [[slot - 1 for slot in cls] for cls in slot_classes(p)]
        previous: list = [None] * arity
        for cls in classes:
            for a, b in zip(cls, cls[1:]):
                previous[b] = a
        movable = [cls for cls in classes if len(cls) > 1]
        # The other arrangements of each nonzero orbit, keyed by their
        # positions, wait here until the nest passes them.
        heap: list = []
        # Per slot, its leaves' values by label position; a derivative
        # is filled in on first use, so its errors surface in tuple order.
        set_leaves: list = [[] for _ in range(arity)]
        for at, (slot, order) in enumerate(leaves):
            table = [_UNSET] * n if order else [{l: 1} for l in labels]
            set_leaves[slot].append((at, order, table))
        # A monomial reads every slot, so it is never a proper subtree of
        # another one: the roots are summed into the residual, never stored.
        roots = {at for _, at in terms}
        # A subtree whose first missing slot position is m is reused
        # only while positions 0..m-1, all its own, stay fixed: its memo
        # is keyed by its positions past m and emptied whenever the loop
        # at position m-1 moves on.
        steps: list = [[] for _ in range(arity)]
        clears: list = [[] for _ in range(arity)]
        for at, (left, right, slots) in enumerate(products, len(leaves)):
            if at in roots:
                continue
            m = next((j for j, slot in enumerate(slots) if slot != j), None)
            memo = None
            if m is not None:
                memo = ({}, itemgetter(*slots[m:]))
                if m:
                    clears[m - 1].append(memo[0])
            steps[slots[-1]].append((at, left, right, memo))
        # (coeff, left, right) per monomial, or (coeff, leaf, None) at
        # arity 1, where every monomial is a leaf.
        tops = [
            (integral(coeff), at, None) if at < len(leaves)
            else (integral(coeff),) + products[at - len(leaves)][:2]
            for coeff, at in terms
        ]
        values: list = [None] * (len(leaves) + len(products))

        def product(a, b):
            if a is None or b is None:
                return None
            return accumulate({}, _product_terms(hits, window, a, b)) or None

        # The loops run as an odometer over pos, so the nest holds no
        # recursive closure, and its memos are freed as soon as the
        # caller drops it.
        pos = [-1] * arity
        last = arity - 1
        d = 0
        while d >= 0:
            i = pos[d] = pos[d] + 1
            if i == n:
                d -= 1
                continue
            for cache in clears[d]:
                cache.clear()
            for at, order, table in set_leaves[d]:
                value = table[i]
                if value is _UNSET:
                    try:
                        f = self.derivative(FormalVector.unit(labels[i]), order)
                    except EngineError:
                        # The full nest would have yielded every tuple
                        # before this prefix first.
                        yield from _pop_before(heap, tuple(pos[:d + 1]), labels)
                        raise
                    value = table[i] = {k: integral(c) for k, c in f.items()} or None
                values[at] = value
            for at, left, right, memo in steps[d]:
                if memo is None:
                    values[at] = product(values[left], values[right])
                    continue
                cache, key = memo
                k = key(pos)
                value = cache.get(k, _UNSET)
                if value is _UNSET:
                    value = cache[k] = product(values[left], values[right])
                values[at] = value
            if d < last:
                d += 1
                pos[d] = -1 if previous[d] is None else pos[previous[d]] - 1
                continue
            residual = _residual(tops, values, hits, window)
            if residual:
                at = tuple(pos)
                yield from _pop_before(heap, at, labels)
                yield tuple(labels[j] for j in at), residual
                for other in _arrangements(at, movable):
                    heapq.heappush(heap, (other, residual))
        yield from _pop_before(heap, (n,), labels)


def slot_classes(p: NAPoly) -> tuple:
    """The slots 1..arity of p grouped into classes of interchangeable
    slots, each class and the tuple of them in slot order.

    Slot a joins the class of slot b when `substitute_slots(p, {a: b,
    b: a})` equals p as an `NAPoly`.  A slot is tried against the first
    slot of each class only: the swaps of a class's first slot with each
    other member generate every permutation of the class, and if a swaps
    with some member it swaps with the first.  The classes are read off p
    alone, never off its coidentity translation, so the oracle stays
    independent of the translation it checks.

    The signature is ignored.  That is sound because the nest evaluates
    identities ungraded and `bruteforce_identity` refuses a signature with
    an odd slot.  A graded nest (ROADMAP item 2) may let only even slots
    join a class: swapping odd slots carries a Koszul sign.
    """
    plain = substitute_slots(p, {})
    classes: list = []
    for a in range(1, p.arity + 1):
        for cls in classes:
            b = cls[0]
            if substitute_slots(p, {a: b, b: a}) == plain:
                cls.append(a)
                break
        else:
            classes.append([a])
    return tuple(map(tuple, classes))


def _residual(tops, values, hits, window) -> dict:
    """One tuple's residual: the top-level products of its monomials,
    each scaled by its coefficient, summed into one dict."""
    residual: dict = {}
    for coeff, left, right in tops:
        a = values[left]
        if a is None:
            continue
        if right is None:
            accumulate(residual, ((k, coeff * c) for k, c in a.items()))
            continue
        b = values[right]
        if b is not None:
            accumulate(residual, _product_terms(hits, window, a, b, coeff))
    return residual


def _arrangements(at: tuple, classes: list):
    """The distinct position tuples other than `at` that permute its
    positions within each class of slots."""
    for choice in itertools.product(
        *(set(itertools.permutations([at[slot] for slot in cls])) for cls in classes)
    ):
        other = list(at)
        for cls, image in zip(classes, choice):
            for slot, i in zip(cls, image):
                other[slot] = i
        other = tuple(other)
        if other != at:
            yield other


def _pop_before(heap: list, at: tuple, labels: list):
    """Pop and yield, in order, the (tuple, residual) entries of `heap`
    whose positions come before `at`, a position tuple or prefix."""
    while heap and heap[0][0] < at:
        other, residual = heapq.heappop(heap)
        yield tuple(labels[j] for j in other), residual


def bruteforce_identity(
    spec: CoalgebraSpec, p: NAPoly, max_index: int, name: Optional[str] = None
) -> CheckReport:
    """Evaluate p on every tuple of coordinate functionals with indices
    <= max_index and assert each resulting functional vanishes exactly.

    The tuples run through `DualEvaluator.nonzero_residuals`.  The
    residual of each tuple it yields is rebuilt as a `FormalVector` by
    `DualEvaluator.polynomial` for the witness, and the two evaluations
    must agree.

    The nest evaluates p ungraded, so a signature that would change the
    identity is refused: one with an odd slot, or any signature on a spec
    with an odd family (its graded reordering carries Koszul signs)."""
    if not p.is_multilinear():
        raise SpecError(f"identity is not multilinear: {p}")
    sig = p.signature
    if sig is not None and (1 in sig or any(f.parity for f in spec.families)):
        raise SpecError(
            f"the dual oracle evaluates identities ungraded; it cannot "
            f"honour the signature of {p} on {spec.name!r}"
        )
    arity = p.arity
    depth = max(v.deriv for _, m in p.terms for v in m.leaves()) + 1
    window = arity * (max_index + depth * spec.shift_bound) + spec.shift_bound
    _require_window(spec, window)
    evaluator = DualEvaluator(spec, window)

    def witness(found):
        tup, residual = found
        value = evaluator.polynomial(p, [FormalVector.unit(l) for l in tup])
        if value != FormalVector(residual):
            raise RuntimeError(
                f"dual oracle: the loop nest and the witness rebuild disagree "
                f"at {render(found)}: {FormalVector(residual)} != {value}"
            )
        return value

    def render(found):
        return "(" + ", ".join(f"xi_{l}" for l in found[0]) + ")"

    return scan(
        name or f"dual oracle {p}",
        spec.checked_ranges(max_index),
        evaluator.nonzero_residuals(p, spec.labels_upto(max_index)),
        witness,
        render=render,
    )


class GrassmannElement(_Combination):
    """An element of the Grassmann envelope of the dual superalgebra.

    Terms pair a coordinate-functional label with a squarefree monomial
    in the exterior generators, stored as a sorted tuple of generator
    indices; the constructor checks that the parities of label and
    monomial match.  Each (label, monomial) pair is one key of arity 1,
    so the sparse arithmetic (`+`, `-`, `scale`, equality, hashing) is
    that of `linalg`'s shared combination base.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = []
        for (label, mono), c in items:
            if c and label.parity != len(mono) % 2:
                raise SpecError(
                    f"term {label} (x) {mono} pairs mismatched parities"
                )
            pairs.append(((label, tuple(mono)), c))
        self._arity, self._terms, self._hash = 1, _sorted(accumulate({}, pairs)), None

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (label, mono), c in self._terms.items():
            gens = "^".join(f"g{j}" for j in mono) or "1"
            parts.append(f"{c}*{label}(x){gens}")
        return " + ".join(parts)


def _wedge(a: tuple, b: tuple):
    """Exterior product of sorted squarefree monomials: (monomial, sign)."""
    if set(a) & set(b):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] moves left past the remaining len(a) - i generators.
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def envelope_product(
    evaluator: DualEvaluator, u: GrassmannElement, v: GrassmannElement
) -> GrassmannElement:
    """Componentwise product: dual product tensored with the exterior
    product; all signs come from exterior anticommutativity."""
    out: dict = {}
    for (l, mu), cu in u.items():
        fu = FormalVector.unit(l)
        for (r, mv), cv in v.items():
            mono, sign = _wedge(mu, mv)
            if mono is None:
                continue
            prod = evaluator.product(fu, FormalVector.unit(r))
            if not prod:
                continue
            c = cu * cv * sign
            accumulate(out, (((l2, mono), c * c2) for l2, c2 in prod.items()))
    return GrassmannElement(out)


# Every one of the 2^generators exterior monomials is listed up front.
MAX_GENERATORS = 16


def grassmann_envelope_check(
    spec: CoalgebraSpec,
    generators: int = 3,
    samples: int = 50,
    seed: int = 0,
    max_index: int = 6,
) -> CheckReport:
    """Sample the Grassmann envelope of the dual superalgebra and check
    commutativity and the Jordan identity (uu v) u = uu (v u) exactly.

    Sampling is deterministic in the seed; failures reproduce bit for
    bit.  This is the oracle for Jordan super-coalgebra claims, since no
    closed coidentity characterization is available.
    """
    if generators < 3:
        raise SpecError("grassmann_envelope_check needs at least 3 generators")
    if generators > MAX_GENERATORS:
        raise SpecError(
            f"grassmann_envelope_check allows at most {MAX_GENERATORS} generators")
    if samples < 1:
        raise SpecError("grassmann_envelope_check needs at least 1 sample")
    rng = random.Random(seed)
    even_labels = [l for l in spec.labels_upto(max_index) if l.parity == 0]
    odd_labels = [l for l in spec.labels_upto(max_index) if l.parity == 1]
    even_monos = [m for k in range(0, generators + 1, 2)
                  for m in itertools.combinations(range(generators), k)]
    odd_monos = [m for k in range(1, generators + 1, 2)
                 for m in itertools.combinations(range(generators), k)]
    if not even_labels and not odd_labels:
        raise SpecError("spec has no labels in the sampling window")

    window = 4 * max_index + 4 * spec.shift_bound
    _require_window(spec, window)
    evaluator = DualEvaluator(spec, window)
    coeff_pool = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)]

    def random_element() -> GrassmannElement:
        terms = []
        for labels, monos in ((even_labels, even_monos), (odd_labels, odd_monos)):
            if not labels or not monos:
                continue
            for _ in range(rng.randint(1, 2)):
                key = (rng.choice(labels), rng.choice(monos))
                terms.append((key, rng.choice(coeff_pool)))
        return GrassmannElement(terms)

    witnesses = []
    for k in range(samples):
        u = random_element()
        v = random_element()
        uv = envelope_product(evaluator, u, v)
        vu = envelope_product(evaluator, v, u)
        comm = uv - vu
        if comm:
            witnesses.append(
                Witness(f"sample {k}: commutativity with u={u}, v={v}", str(comm))
            )
        uu = envelope_product(evaluator, u, u)
        lhs = envelope_product(evaluator, envelope_product(evaluator, uu, v), u)
        rhs = envelope_product(evaluator, uu, envelope_product(evaluator, v, u))
        jordan = lhs - rhs
        if jordan:
            witnesses.append(
                Witness(f"sample {k}: jordan identity with u={u}, v={v}", str(jordan))
            )
        if len(witnesses) >= MAX_WITNESSES:
            break
    return CheckReport(
        name=f"grassmann-envelope (g={generators}, samples={samples}, seed={seed})",
        passed=not witnesses,
        checked=spec.checked_ranges(max_index),
        witnesses=tuple(witnesses),
    )
