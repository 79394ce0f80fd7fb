"""Multilinear nonassociative identities and their coidentity translations.

An identity for the dual algebra is a linear combination of binary trees
over decorated variables.  `translate` turns it into a composable
operator from the coalgebra to a tensor power, built from the
comultiplication, the coderivation applied factorwise, one permutation
of the factors back to slot order, and parity projections.  Checking the
operator on basis labels checks the identity on the whole dual exactly,
which is immune to the product distortions a truncated dual algebra
would introduce.

Each `CoidentityMap` compiles its branches once into a plan: a trie of
their comultiplication and coderivation steps, keyed by the full step,
whose nodes carry tail groups, the branches ending there grouped by
their trailing permutation and projection with summed coefficients.
`apply` walks the trie depth first, so a prefix shared by many branches
is computed once per label.  Every delta and d step runs one kernel,
`_rule_terms`: it reads each label's terms from the spec's integer term
table, which rule evaluation fills (`coalgebra._int_terms`), so inside
the walk integral coefficients are plain `int`s; the result is all
`Fraction` again.  An inner node's step is merged into a dict for its
children, but a leaf's step streams its terms straight into the node's
tail groups, with no intermediate dict.  The coderivation law is one
more such map, `CODERIVATION`.

Orbit sums: the linearized identities (Jordan, Moufang, right
alternativity) are unchanged by swaps of the slots of a linearized
variable, so their coidentities are unchanged by the same swaps of
tensor factors.  Each map finds these classes of slots on its own
compiled tail groups, with no new NAPoly; they generate a Young
subgroup G of the factor permutations.  A slot of a graded identity
joins a class only if its signature entry is `e`: the surviving factors
there are even, so no Koszul sign can tell the swapped terms apart.
The plan keeps one tail group per G-coset, and its walk accumulates
orbit sums S, one per orbit of G on keys.  The full result is
total[k] = |Stab(k)| * S[O(k)], so a label passes exactly when S is
empty, and only a failing label pays for expanding S back to the full
tensor.  Each tail group keys a term by one function compiled for it,
which reads each class's labels straight from the unpermuted key and
sorts them.  The same symmetry lets a leaf merge its input before it
streams: positions that the leaf's step leaves alone and that every
tail group of the leaf sends into one class are sorted in each key,
their coefficients summed and the zeros dropped.  That is exact, since
the orbit key of every term the leaf produces is unchanged by those
swaps, and a graded class holds only `e` slots, so a term with an odd
label there is projected away whatever its merged coefficient.  With
singleton classes G is trivial and the walk is the plain one.

Sign convention: the pairing of functionals against tensors carries no
sign, and Koszul signs enter only through the graded permutation back
to slot order (`linalg.koszul_sign`).  The `koszul_pairing` switch
selects the alternative convention (a plain permutation, its sign taken
from the declared slot parities); it exists so the two conventions can
be compared on concrete examples.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter
from typing import Optional, Union

from .coalgebra import (
    CheckReport,
    CoalgebraSpec,
    _int_terms,
    scan,
)
from .errors import SpecError
from .linalg import (
    FormalTensor, FormalVector, accumulate, format_terms, integral, inversions, koszul_sign,
    permute_terms, scalar,
)


@dataclass(frozen=True)
class NAVariable:
    """A decorated variable: which slot it fills and how many derivatives."""

    slot: int
    deriv: int = 0

    def __post_init__(self):
        if self.slot < 1:
            raise SpecError("variable slots are numbered from 1")
        if self.deriv < 0:
            raise SpecError("derivative order must be nonnegative")


@dataclass(frozen=True)
class Leaf:
    var: NAVariable

    def leaves(self):
        return (self.var,)

    def key(self):
        return (0, self.var.slot, self.var.deriv)

    def __str__(self):
        return f"x{self.var.slot}" + "'" * self.var.deriv


@dataclass(frozen=True)
class Node:
    left: "Monomial"
    right: "Monomial"

    def leaves(self):
        return self.left.leaves() + self.right.leaves()

    def key(self):
        return (1, self.left.key(), self.right.key())

    def __str__(self):
        return f"({self.left} {self.right})"


Monomial = Union[Leaf, Node]


def var(slot: int, deriv: int = 0) -> Leaf:
    return Leaf(NAVariable(slot, deriv))


def mul(a: Monomial, b: Monomial) -> Node:
    return Node(a, b)


def _parse_signature(sig) -> Optional[tuple]:
    if sig is None:
        return None
    if isinstance(sig, str):
        table = {"e": 0, "o": 1, "*": None}
        try:
            return tuple(table[ch] for ch in sig)
        except KeyError:
            raise SpecError(
                f"bad parity signature {sig!r}; use characters e, o, *"
            ) from None
    return tuple(sig)


class NAPoly:
    """A rational linear combination of monomials sharing one arity.

    The optional parity signature marks the identity as graded: slots
    with parity 0 or 1 get parity projections, and the factor permutation
    is graded.  Identities without a signature are classical and permute
    their factors plainly.
    """

    __slots__ = ("_terms", "_arity", "_signature")

    def __init__(self, terms, signature=None, arity: Optional[int] = None):
        order: dict = {}
        pairs = []
        for coeff, mono in terms:
            key = mono.key()
            order.setdefault(key, mono)
            pairs.append((key, scalar(coeff)))
        merged = accumulate({}, pairs)
        cleaned = tuple((merged[k], order[k]) for k in sorted(merged))
        slots = {v.slot for _, m in cleaned for v in m.leaves()}
        inferred = max(slots, default=0)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_arity", inferred if arity is None else arity)
        sig = _parse_signature(signature)
        if sig is not None and len(sig) != self._arity:
            raise SpecError(
                f"signature length {len(sig)} does not match arity {self._arity}"
            )
        object.__setattr__(self, "_signature", sig)

    @property
    def terms(self):
        return self._terms

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def signature(self) -> Optional[tuple]:
        return self._signature

    def is_multilinear(self) -> bool:
        return self.multilinear_fault() is None

    def multilinear_fault(self) -> Optional[str]:
        """Why the identity is not multilinear, or None when it is: the
        first slot that a monomial repeats, or else the first slot of
        1..arity that a monomial lacks.  Only a repeat can be linearized."""
        for _, mono in self._terms:
            counts = Counter(v.slot for v in mono.leaves())
            repeated = [s for s in sorted(counts) if counts[s] > 1]
            if repeated:
                return (f"x{repeated[0]} occurs {counts[repeated[0]]} times in {mono}; "
                        f"linearize it first")
            missing = [s for s in range(1, self._arity + 1) if s not in counts]
            if missing:
                return f"x{missing[0]} does not occur in {mono}"
        return None

    def with_signature(self, sig) -> "NAPoly":
        return NAPoly(self._terms, signature=sig, arity=self._arity)

    def slot_multiplicities(self) -> dict:
        """Per-slot occurrence count, which must agree across monomials."""
        counts = None
        for _, mono in self._terms:
            c: dict = {}
            for v in mono.leaves():
                c[v.slot] = c.get(v.slot, 0) + 1
            if counts is None:
                counts = c
            elif counts != c:
                raise SpecError(
                    "monomials have different slot multiplicities; "
                    "split the identity into multihomogeneous parts first"
                )
        return counts or {}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NAPoly)
            and self._terms == other._terms
            and self._arity == other._arity
            and self._signature == other._signature
        )

    def __hash__(self) -> int:
        return hash((self._terms, self._arity, self._signature))

    def __add__(self, other: "NAPoly") -> "NAPoly":
        return NAPoly(
            list(self._terms) + list(other._terms),
            signature=self._signature,
            arity=max(self._arity, other._arity),
        )

    def __sub__(self, other: "NAPoly") -> "NAPoly":
        return self + (-other)

    def __neg__(self) -> "NAPoly":
        return self.scale(-1)

    def scale(self, c) -> "NAPoly":
        return NAPoly(
            [(coeff * scalar(c), m) for coeff, m in self._terms],
            signature=self._signature,
            arity=self._arity,
        )

    def __mul__(self, other: "NAPoly") -> "NAPoly":
        terms = [
            (ca * cb, Node(ma, mb))
            for ca, ma in self._terms
            for cb, mb in other._terms
        ]
        return NAPoly(terms, arity=max(self._arity, other._arity))

    def __str__(self) -> str:
        return format_terms((coeff, str(mono)) for coeff, mono in self._terms)

    def __repr__(self):
        return f"NAPoly({self})"


def poly(*terms, signature=None) -> NAPoly:
    """Build an NAPoly from (coeff, monomial) pairs or bare monomials."""
    pairs = []
    for t in terms:
        if isinstance(t, (Leaf, Node)):
            pairs.append((Fraction(1), t))
        else:
            pairs.append(t)
    return NAPoly(pairs, signature=signature)


def commutator(a: NAPoly, b: NAPoly) -> NAPoly:
    return a * b - b * a


@dataclass(frozen=True)
class CoidentityMap:
    """A sum of step compositions from the coalgebra to a tensor power.

    Steps, applied left to right to an arity-1 tensor:
      ("delta", pos, lreq, rreq)  replace factor pos by its comultiplication
      ("d", pos, req)             apply the coderivation to factor pos
      ("permute", perm, pairs)    factor k becomes factor perm[k], with the
                                  Koszul sign of `pairs` (none when plain)
      ("project", signature)      keep terms whose parities match the signature
    A branch may end in one permute step, then one project step; these
    may stand nowhere else, and any other step raises `SpecError`.

    The req annotations are the parities each produced block must
    eventually have to survive the final projection (None when
    unconstrained).  On specs whose rules are parity-additive they allow
    terms to be discarded as soon as they are provably dead; the final
    projection stays in place either way, so the result is identical.

    `branches` is the source; `apply` runs the `plan` compiled from it
    once, a trie of the branches' step prefixes.  Each trie node holds
    its tail groups: the branches that end there, grouped by their
    trailing permute and project steps, with their coefficients summed.
    A depth-first walk computes every shared prefix once per label and
    runs each tail group as one loop over its terms.  A leaf's output
    is not merged first: its terms stream straight into its tail groups,
    through one list when the leaf has more than one group.

    `classes` are the slot classes, computed from the plan (sorted tuples
    of slots 1..arity, ordered by their first slot): slots a and b share
    a class when swapping them sends each tail group's permutation to
    one with entries a and b exchanged that the same node holds with the
    same coefficient, and every projection treats a and b alike, keeping
    both even when the permutations are graded (there every Koszul sign
    of a surviving term inside a class is 1).  A swap that is a symmetry
    of the tail groups is one of the map.  The classes give a Young
    subgroup G, and the plan keeps one tail group per G-coset of a
    node's tail groups.  A tail group maps each term to a canonical key,
    the factors laid out class by class with each class's labels sorted,
    and sums into S, one sum per orbit of G on keys.  The full result is
    total[k] = |Stab(k)| * S[O(k)]: `apply` returns the zero tensor when
    S is empty and expands S otherwise, into the same keys and
    `Fraction`s.  With singleton classes each tail group is its own
    coset and each key its own orbit.

    Each permute step is compiled once into the `(key, pairs, signs)`
    that `permute_terms` runs for its tail groups, the one place a
    tail's permutation is handled.  With slot classes the key is the
    canonical key (`_sorting_key`): it reads each class's labels
    straight from the unpermuted key, sorts them by compare-exchange
    (by `sorted` past three) and adds the singleton slots.  Without,
    it is the plain reordering.  The Koszul sign is read on the
    unpermuted key, at the step's reversed pairs.  A streamed
    leaf whose untouched input positions fall, under each of its tail
    groups, two or more into one class carries these positions as
    `groups` (1-based) and a `merge` key that sorts them; the walk
    merges the leaf's input under it, summing coefficients and dropping
    zeros, before the leaf streams.  Jordan's delta@3 leaf merges its
    positions 1 and 2.
    """

    arity: int
    branches: tuple  # ((coeff, (step, ...)), ...)
    classes: tuple = field(init=False)
    plan: tuple = field(init=False, repr=False, compare=False)
    # permute step (None for the identity) -> (key, pairs, signs) for
    # `permute_terms`: key maps an unpermuted key to its orbit key (the
    # compiled orbit key with slot classes, else the reordering, None for
    # the identity), and pairs are the step's reversed pairs placed on the
    # unpermuted key, where the Koszul sign is read
    _tails: dict = field(init=False, repr=False, compare=False)
    _layout: tuple = field(init=False, repr=False, compare=False)
    _segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        identity = tuple(range(self.arity))
        root: tuple = ({}, {})
        for coeff, steps in self.branches:
            steps = list(steps)
            project = steps.pop() if steps and steps[-1][0] == "project" else None
            permute = steps.pop() if steps and steps[-1][0] == "permute" else None
            node = root
            for step in steps:
                if step[0] not in ("delta", "d"):
                    raise SpecError(f"coidentity step {step!r} is not a delta or d step: "
                                    "permute and project may only end a branch")
                node = node[0].setdefault(step, ({}, {}))
            accumulate(node[1], [((permute, project), coeff)])
        classes = _slot_classes(self.arity, list(_tail_dicts(root)))
        layout = tuple(s - 1 for cls in classes for s in cls)
        segments, lo = [], 0
        for cls in classes:
            if len(cls) > 1:
                segments.append((lo, lo + len(cls)))
            lo += len(cls)
        # slot position -> its class, for the slots of classes of two or more
        class_of = {s - 1: i for i, cls in enumerate(classes) if len(cls) > 1 for s in cls}
        compiled: dict = {}

        def freeze(node, step=None) -> tuple:
            """A trie node as (((step, child), ...), ((permute, project, coeff), ...)),
            with the first tail group of each coset of the slot classes."""
            children, tails = node
            reps: dict = {}
            for (permute, project), c in tails.items():
                perm = permute[1] if permute else identity
                # The factors the group takes, laid out class by class,
                # and its coset: the same with each class sorted.
                take = tuple(map(perm.__getitem__, layout))
                coset = list(take)
                for lo, hi in segments:
                    coset[lo:hi] = sorted(coset[lo:hi])
                coset = (project, tuple(coset))
                if coset in reps:
                    continue
                reps[coset] = (permute, project, integral(c))
                if permute not in compiled:
                    if segments:
                        key = _sorting_key(take, tuple(range(lo, hi) for lo, hi in segments))
                    else:
                        key = None if take == identity else itemgetter(*take)
                    pairs = tuple((perm[a], perm[b]) for a, b in permute[2]) if permute else ()
                    compiled[permute] = (key, pairs, {})
            frozen = _Node((
                tuple((s, freeze(child, s)) for s, child in children.items()),
                tuple(reps.values()),
            ))
            if class_of and step is not None and not children:
                groups = _leaf_groups(step, self.arity, [r[0] for r in frozen[1]], class_of)
                if groups:
                    frozen.groups = tuple(tuple(j + 1 for j in g) for g in groups)
                    frozen.merge = _sorting_key(range(self.arity - (step[0] == "delta")),
                                                groups)
            return frozen

        for name, value in (("classes", classes), ("plan", freeze(root)), ("_tails", compiled),
                            ("_layout", layout), ("_segments", tuple(segments))):
            object.__setattr__(self, name, value)

    def apply(self, spec: CoalgebraSpec, v) -> FormalTensor:
        if not isinstance(v, FormalVector):
            v = FormalVector.unit(v)
        sums: dict = {}  # project step -> orbit sums of its tail groups
        start = {(label,): integral(c) for label, c in v.items()}
        self._walk(spec, self.plan, start, spec.parity_additive, sums)
        out: dict = {}
        for project, s in sums.items():
            if project is not None:
                sig = [(i, project[1][j]) for i, j in enumerate(self._layout)
                       if project[1][j] is not None]
                s = {k: c for k, c in s.items() if all(k[i].parity == p for i, p in sig)}
            if s:
                accumulate(out, self._expand(s))
        return FormalTensor._merged(out, arity=self.arity)

    def _walk(self, spec, node, t: dict, prune: bool, sums: dict) -> None:
        children, tails = node
        self._run_tails(tails, t.items(), sums)
        for step, child in children:
            grandchildren, child_tails = child
            if grandchildren:
                u = accumulate({}, _rule_terms(spec, t, step, prune))
                if u:
                    self._walk(spec, child, u, prune, sums)
                continue
            # A leaf: its step's terms go straight into its tail groups,
            # from its input merged over its groups when it has any.
            u = t if child.merge is None else accumulate({}, zip(map(child.merge, t), t.values()))
            terms = _rule_terms(spec, u, step, prune)
            self._run_tails(child_tails, list(terms) if len(child_tails) > 1 else terms, sums)

    def _run_tails(self, tails, items, sums: dict) -> None:
        """Sum the (key, c) pairs `items` into the orbit sums of each tail group."""
        for permute, project, coeff in tails:
            key, pairs, signs = self._tails[permute]
            permute_terms(items, key, pairs, sums.setdefault(project, {}), coeff, signs)

    def _expand(self, sums: dict):
        """The (key, coefficient) pairs of the full result: every key k of
        an orbit O, in slot order, with |Stab(k)| * S[O] as a `Fraction`."""
        back = None
        if self._layout != tuple(range(self.arity)):
            back = itemgetter(*sorted(range(self.arity), key=self._layout.__getitem__))
        for key, c in sums.items():
            keys, stab = [key], 1
            for lo, hi in self._segments:
                block = key[lo:hi]
                stab *= prod(map(factorial, Counter(block).values()))
                keys = [k[:lo] + b + k[hi:] for k in keys
                        for b in set(itertools.permutations(block))]
            c = Fraction(c * stab)
            for k in keys:
                yield (k if back is None else back(k)), c

    def describe(self) -> str:
        return format_terms(
            (coeff, " . ".join(_step_name(s) for s in reversed(steps)) or "id")
            for coeff, steps in self.branches
        )

    def __str__(self):
        return self.describe()


class _Node(tuple):
    """A plan trie node, the pair (children, tails).  A streamed leaf
    with input positions to merge also carries them as `groups` (tuples
    of 1-based positions), and `merge`, the key function that sorts the
    labels of each group."""

    groups: tuple = ()
    merge = None


def _leaf_groups(step, arity: int, permutes, class_of: dict) -> tuple:
    """The groups of input positions (0-based, two or more each) of a
    leaf `step` that the step leaves alone and that each of the leaf's
    tail groups, with these permute steps, sends into one slot class."""
    width = 2 if step[0] == "delta" else 1
    pos = step[1] - 1
    perms = [permute[1] if permute else range(arity) for permute in permutes]
    groups: dict = {}  # the class of each tail group -> positions landing there
    for j in range(arity - width + 1):
        if j != pos:
            out = j if j < pos else j + width - 1
            lands = tuple(class_of.get(perm.index(out)) for perm in perms)
            if None not in lands:
                groups.setdefault(lands, []).append(j)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


# Compare-exchange sorts of 2 and 3 values named {0}, {1}, {2}.
_EXCHANGES = {
    2: ("if {0} > {1}: {0}, {1} = {1}, {0}",),
    3: ("if {0} > {1}: {0}, {1} = {1}, {0}",
        "if {1} > {2}:",
        "    {1}, {2} = {2}, {1}",
        "    if {0} > {1}: {0}, {1} = {1}, {0}"),
}


@lru_cache(maxsize=256)
def _sorting_key(fields, groups):
    """A key function, compiled from source once: the tuple of k[j] for
    j in `fields`, with the values at each group of places in `groups`
    sorted among those places.  A group of two or three is sorted by
    compare-exchange, a longer one by `sorted`.  It runs once per term,
    so it reads the factors straight from k and builds one tuple.  The
    compiled functions are kept by shape, since compiling one costs
    about as much as the rest of a plan."""
    out = [f"k[{j}]" for j in fields]
    body = []
    for places in groups:
        names = [f"v{i}" for i in places]
        reads = ", ".join(out[i] for i in places)
        if len(names) > 3:
            body.append(f"{', '.join(names)} = sorted(({reads}))")
        else:
            body.append(f"{', '.join(names)} = {reads}")
            body += [line.format(*names) for line in _EXCHANGES[len(names)]]
        for i, name in zip(places, names):
            out[i] = name
    body.append(f"return ({', '.join(out)},)")
    namespace: dict = {}
    exec("def key(k):\n" + "".join(f"    {line}\n" for line in body), namespace)
    return namespace["key"]


def _step_name(step) -> str:
    if step[0] == "permute":
        order = ",".join(str(k + 1) for k in step[1])
        return f"{'g' if step[2] else ''}permute[{order}]"
    if step[0] == "project":
        sig = "".join("*" if p is None else ("o" if p else "e") for p in step[1])
        return f"project[{sig}]"
    return f"{step[0]}@{step[1]}"


def _rule_terms(spec, t: dict, step, prune: bool):
    """The (key, c) pairs, unmerged, of a delta or d step on the terms
    of `t`: the factor at the step's position replaced by the key of
    each term of its integer table, a tuple of one factor for d and two
    for delta, coefficients multiplied.

    Each term looks its label up in the spec's term table, and goes
    through `_int_terms` only on a miss.  With `prune`, the step's parity
    requirements that are not None filter a label's table once per
    step, into a table of its own."""
    kind, pos = step[0], step[1] - 1
    reqs = [(j, r) for j, r in enumerate(step[2:]) if r is not None] if prune else []
    cache = spec._int_cache[kind]
    tables = {} if reqs else cache
    for key, c in t.items():
        label = key[pos]
        table = tables.get(label)
        if table is None:
            table = cache.get(label) or _int_terms(spec, kind, label)
            if reqs:
                table = [(piece, c2) for piece, c2 in table
                         if all(piece[j].parity == r for j, r in reqs)]
            tables[label] = table
        head, tail = key[:pos], key[pos + 1:]
        for piece, c2 in table:
            yield head + piece + tail, c * c2


def _block_requirement(mono: Monomial, sig) -> Optional[int]:
    """Parity the whole block must carry to survive the projection, or
    None when any of its leaves is unconstrained."""
    if sig is None:
        return None
    total = 0
    for v in mono.leaves():
        p = sig[v.slot - 1]
        if p is None:
            return None
        total += p
    return total % 2


def _build_steps(mono: Monomial, pos: int, sig) -> list:
    if isinstance(mono, Leaf):
        req = None if sig is None else sig[mono.var.slot - 1]
        return [("d", pos, req)] * mono.var.deriv
    left_width = len(mono.left.leaves())
    steps = [
        (
            "delta",
            pos,
            _block_requirement(mono.left, sig),
            _block_requirement(mono.right, sig),
        )
    ]
    steps += _build_steps(mono.left, pos, sig)
    steps += _build_steps(mono.right, pos + left_width, sig)
    return steps


def _tail_dicts(node):
    """The tail-group dicts of every node of a plan trie under construction."""
    yield node[1]
    for child in node[0].values():
        yield from _tail_dicts(child)


def _slot_classes(arity: int, tails: list) -> tuple:
    """The slot classes of a map with these tail-group dicts, keyed by
    (permute step, project step): see `CoidentityMap`.  Swaps that are
    symmetries form a group, so sharing a class is an equivalence and a
    slot need only be tested against the first slot of each class."""
    graded = any(permute and permute[2] for t in tails for permute, _ in t)
    sigs = {project[1] if project else (None,) * arity for t in tails for _, project in t}

    def swapped(permute, a: int, b: int):
        perm = list(permute[1] if permute else range(arity))
        perm[a], perm[b] = perm[b], perm[a]
        perm = tuple(perm)
        if perm == tuple(range(arity)):
            return None
        return ("permute", perm, inversions(perm) if graded else ())

    def symmetric(a: int, b: int) -> bool:
        return all(
            sig[a] == sig[b] and not (graded and sig[a] != 0) for sig in sigs
        ) and all(
            {(swapped(permute, a, b), project): c for (permute, project), c in t.items()} == t
            for t in tails
        )

    classes: list = []
    for b in range(arity):
        for cls in classes:
            if symmetric(cls[0], b):
                cls.append(b)
                break
        else:
            classes.append([b])
    return tuple(tuple(s + 1 for s in cls) for cls in classes)


def translate(p: NAPoly, koszul_pairing: bool = False) -> CoidentityMap:
    """Build the coidentity operator of a multilinear identity.

    For functionals a_1..a_k (homogeneous of the signature parities when
    graded, with primes realized as the transposed coderivation) and any
    element c, pairing a_1 (x) ... (x) a_k against the returned map at c
    equals the identity evaluated on the a_i at c in the dual algebra.
    """
    fault = p.multilinear_fault()
    if fault:
        raise SpecError(f"identity is not multilinear: {fault}")
    sig = p.signature
    graded = sig is not None and not koszul_pairing
    branches = []
    for coeff, mono in p.terms:
        steps = _build_steps(mono, 1, sig)
        # One permutation takes the factors from leaf order to slot order.
        order = [v.slot for v in mono.leaves()]
        perm = tuple(sorted(range(len(order)), key=order.__getitem__))
        pairs = inversions(perm)
        sign = koszul_sign(sig, pairs) if sig is not None and koszul_pairing else 1
        if pairs:
            steps.append(("permute", perm, pairs if graded else ()))
        if sig is not None and any(s is not None for s in sig):
            steps.append(("project", sig))
        branches.append((coeff * sign, tuple(steps)))
    return CoidentityMap(arity=p.arity, branches=tuple(branches))


# The coderivation law delta . d = (d (x) id + id (x) d) . delta, as the
# plan `coalgebra.coderivation_check` runs.
CODERIVATION = CoidentityMap(
    arity=2,
    branches=(
        (1, (("d", 1, None), ("delta", 1, None, None))),
        (-1, (("delta", 1, None, None), ("d", 1, None))),
        (-1, (("delta", 1, None, None), ("d", 2, None))),
    ),
)


def check_identity(
    spec: CoalgebraSpec,
    p: NAPoly,
    max_index: int,
    koszul_pairing: bool = False,
    name: Optional[str] = None,
) -> CheckReport:
    """Verify that the coidentity of p vanishes on every label in range."""
    cmap = translate(p, koszul_pairing=koszul_pairing)
    return scan(
        name or f"identity {p}",
        spec.checked_ranges(max_index),
        spec.labels_upto(max_index),
        lambda label: cmap.apply(spec, label),
    )


def linearize(p: NAPoly) -> NAPoly:
    """Full multilinearization of an identity with repeated slots.

    Each slot of multiplicity m is replaced by m fresh slots and the
    multilinear component is extracted, which over the rationals is
    equivalent to the original identity.  The input must be ungraded and
    multihomogeneous (every slot has the same multiplicity in every
    monomial).
    """
    if p.signature is not None:
        raise SpecError("linearize does not support graded identities")
    mult = p.slot_multiplicities()
    blocks: dict = {}
    next_slot = 1
    for slot in sorted(mult):
        blocks[slot] = list(range(next_slot, next_slot + mult[slot]))
        next_slot += mult[slot]
    out = []
    for coeff, mono in p.terms:
        # The k-th occurrence of a slot, in leaf order, takes the k-th
        # fresh slot of one permutation of its block.
        for combo in itertools.product(*map(itertools.permutations, blocks.values())):
            fresh = dict(zip(blocks, map(iter, combo)))
            out.append((coeff, _relabel(mono, (next(fresh[v.slot]) for v in mono.leaves()))))
    return NAPoly(out, arity=next_slot - 1)


def _relabel(mono: Monomial, slots) -> Monomial:
    """The monomial with its leaves, in order, moved to the next of `slots`."""
    if isinstance(mono, Leaf):
        return Leaf(NAVariable(next(slots), mono.var.deriv))
    return Node(_relabel(mono.left, slots), _relabel(mono.right, slots))


def substitute_slots(p: NAPoly, mapping: dict) -> NAPoly:
    """Rename slots (possibly merging them); used to validate linearize."""
    return NAPoly([
        (c, _relabel(m, (mapping.get(v.slot, v.slot) for v in m.leaves())))
        for c, m in p.terms
    ])


def _associator(a: int, b: int, c: int) -> NAPoly:
    x, y, z = var(a), var(b), var(c)
    return poly(mul(mul(x, y), z), (-1, mul(x, mul(y, z))))


def builtin_identities() -> dict:
    """The named identity catalog, every entry multilinear with exact
    rational coefficients."""
    x1, x2, x3, x4 = var(1), var(2), var(3), var(4)
    catalog = {}
    catalog["associativity"] = _associator(1, 2, 3)
    catalog["commutativity"] = poly(mul(x1, x2), (-1, mul(x2, x1)))
    catalog["anticommutativity"] = poly(mul(x1, x2), mul(x2, x1))
    catalog["jacobi"] = poly(
        mul(mul(x1, x2), x3), mul(mul(x2, x3), x1), mul(mul(x3, x1), x2)
    )
    catalog["left-symmetry"] = _associator(1, 2, 3) - _associator(2, 1, 3)
    catalog["novikov-right-commutativity"] = poly(
        mul(mul(x1, x2), x3), (-1, mul(mul(x1, x3), x2))
    )
    # (y, x, x) = 0, fully linearized.
    catalog["right-alternativity-linearized"] = linearize(
        poly(mul(mul(x1, x2), x2), (-1, mul(x1, mul(x2, x2))))
    )
    # ((x y) z) y = x ((y z) y), linearized in y.
    catalog["moufang-linearized"] = linearize(
        poly(
            mul(mul(mul(x1, x2), x3), x2),
            (-1, mul(x1, mul(mul(x2, x3), x2))),
        )
    )
    # (x^2 y) x = x^2 (y x), linearized in x.
    catalog["jordan-linearized"] = linearize(
        poly(
            mul(mul(mul(x1, x1), x2), x1),
            (-1, mul(mul(x1, x1), mul(x2, x1))),
        )
    )
    catalog["supercommutativity"] = poly(
        mul(x1, x2), (-1, mul(x2, x1)), signature=(None, None)
    )
    catalog["(xy)z"] = poly(mul(mul(x1, x2), x3))
    catalog["((xy)z)t"] = poly(mul(mul(mul(x1, x2), x3), x4))
    catalog["(xy)(zt)"] = poly(mul(mul(x1, x2), mul(x3, x4)))
    catalog["[[x,y],[z,t]]"] = commutator(
        poly(mul(x1, x2), (-1, mul(x2, x1))),
        poly(mul(x3, x4), (-1, mul(x4, x3))),
    )
    catalog["x'y'"] = poly(mul(var(1, 1), var(2, 1)))
    return catalog


def requires_coderivation(p: NAPoly) -> bool:
    return any(v.deriv for _, m in p.terms for v in m.leaves())
