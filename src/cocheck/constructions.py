"""Builders that derive new coalgebra specs from old ones.

All outputs are materialized as rules in the same DSL, so constructed
specs remain first-class inputs for every downstream check.  The DSL is
closed under these constructions because coderivation rules are affine
in the input index.  Gelfand-Dorfman and both Kantor sides apply the
coderivation to one factor of a delta term, always through `_d_at`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .coalgebra import CoalgebraSpec, FamilyDecl
from .errors import SpecError
from .linalg import inversions, koszul_sign, scalar
from .rules import AffineIndex, DeltaTerm, DerivTerm, Guard, IndexPoly

BAR = "~"


def bar_family(name: str) -> str:
    return BAR + name


# The DeltaTerm fields of each factor: side 0 is the left, side 1 the right.
_SIDES = (("left_family", "left_index"), ("right_family", "right_index"))


def _d_at(spec: CoalgebraSpec, t: DeltaTerm, side: int):
    """The terms of delta term `t` with the coderivation applied to its
    factor `side`: (id (x) d) t for side 1, (d (x) id) t for side 0."""
    family, index = t.targets()[side]
    family_field, index_field = _SIDES[side]
    for dt in spec.coderivation.get(family, ()):
        if dt.guard is not None:
            raise SpecError(
                "cannot compose a guarded coderivation rule into a new comultiplication"
            )
        yield replace(t, coeff=t.coeff * dt.coeff.compose_n(index),
                      **{family_field: dt.family, index_field: dt.index.compose(index)})


def _bar(t: DeltaTerm, *sides: int) -> DeltaTerm:
    """`t` with the factors at `sides` moved to their bar families."""
    return replace(t, **{_SIDES[s][0]: bar_family(t.targets()[s][0]) for s in sides})


def gelfand_dorfman(spec: CoalgebraSpec) -> CoalgebraSpec:
    """New comultiplication (id (x) d) . delta; the coderivation is dropped."""
    if not spec.differential:
        raise SpecError("gelfand_dorfman requires a differential coalgebra")
    new_delta = {fam: tuple(u for t in terms for u in _d_at(spec, t, 1))
                 for fam, terms in spec.delta.items()}
    return CoalgebraSpec(
        name=f"gelfand-dorfman({spec.name})",
        families=spec.families,
        delta=new_delta,
        coderivation=None,
        shift_bound=2 * spec.shift_bound,
        graded=spec.graded,
        description=f"Gelfand-Dorfman construction applied to {spec.name}",
    )


def antisymmetrize(spec: CoalgebraSpec) -> CoalgebraSpec:
    """New comultiplication (1 - flip) . delta; on graded specs the flip
    carries the Koszul sign."""
    new_delta: dict = {}
    for fam, terms in spec.delta.items():
        out = []
        for t in terms:
            out.append(t)
            parities = (
                (spec.family(t.left_family).parity, spec.family(t.right_family).parity)
                if spec.graded else (0, 0)
            )
            out.append(
                replace(
                    t,
                    coeff=t.coeff.scale(-koszul_sign(parities, inversions((1, 0)))),
                    left_family=t.right_family,
                    left_index=t.right_index,
                    right_family=t.left_family,
                    right_index=t.left_index,
                )
            )
        new_delta[fam] = tuple(out)
    return CoalgebraSpec(
        name=f"antisymmetrize({spec.name})",
        families=spec.families,
        delta=new_delta,
        coderivation=spec.coderivation,
        shift_bound=spec.shift_bound,
        graded=spec.graded,
        coderivation_max_index=spec.coderivation_max_index,
        description=f"commutator (antisymmetrized) comultiplication of {spec.name}",
    )


def kantor(spec: CoalgebraSpec) -> CoalgebraSpec:
    """Double the basis with odd bar copies and install the coproduct

        delta_J(c)    = sum c1 (x) c2 + ~c1 (x) ~d(c2) - ~d(c1) (x) ~c2
        delta_J(~c)   = sum ~c1 (x) c2 + c1 (x) ~c2

    where delta(c) = sum c1 (x) c2.  Bar families reuse the original
    name with a "~" prefix and carry parity 1.
    """
    if not spec.differential:
        raise SpecError("kantor requires a differential coalgebra")
    if spec.graded:
        raise SpecError("kantor requires an ungraded input")
    families = list(spec.families) + [
        FamilyDecl(name=bar_family(f.name), parity=1, lo=f.lo, hi=f.hi)
        for f in spec.families
    ]
    new_delta: dict = {}
    for fam, terms in spec.delta.items():
        even_terms, odd_terms = [], []
        for t in terms:
            even_terms.append(t)
            even_terms.extend(_bar(u, 0, 1) for u in _d_at(spec, t, 1))
            even_terms.extend(_bar(replace(u, coeff=-u.coeff), 0, 1)
                              for u in _d_at(spec, t, 0))
            odd_terms += [_bar(t, 0), _bar(t, 1)]
        new_delta[fam] = tuple(even_terms)
        new_delta[bar_family(fam)] = tuple(odd_terms)
    return CoalgebraSpec(
        name=f"kantor({spec.name})",
        families=tuple(families),
        delta=new_delta,
        coderivation=None,
        shift_bound=2 * spec.shift_bound,
        graded=True,
        description=f"Kantor double of {spec.name} with odd bar copies",
    )


@dataclass(frozen=True)
class GradedAlgebraSpec:
    """A Z-graded algebra given by explicit finite data on a degree window.

    `dims[k]` is the dimension of the degree-k component; `products`
    maps ((i, a), (j, b)) to the structure constants of the product of
    the a-th degree-i and b-th degree-j basis vectors, as a tuple of
    ((i + j, c), coefficient) pairs.  `derivation` is optional data of
    the same shape for a linear map.
    """

    name: str
    dims: Mapping[int, int]
    products: Mapping
    derivation: Optional[Mapping] = None
    dual_family: str = "x"
    description: str = ""

    def __post_init__(self):
        dims = dict(self.dims)
        for deg, dim in dims.items():
            if dim < 0:
                raise SpecError(f"negative dimension at degree {deg}")
        object.__setattr__(self, "dims", dims)
        products = {}
        for ((i, a), (j, b)), results in dict(self.products).items():
            self._check_pos(i, a)
            self._check_pos(j, b)
            products[((i, a), (j, b))] = self._clean(results, (i, j))
        object.__setattr__(self, "products", products)
        if self.derivation is not None:
            deriv = {}
            for (m, b), results in dict(self.derivation).items():
                self._check_pos(m, b)
                deriv[(m, b)] = self._clean(results)
            object.__setattr__(self, "derivation", deriv)

    def _clean(self, results, factors=None) -> tuple:
        """The ((degree, position), coefficient) pairs of `results` with
        each position checked and zero coefficients dropped.  A product
        passes the degrees of its `factors`, whose sum each result must
        have."""
        clean = []
        for (k, c), coeff in results:
            if factors is not None and k != sum(factors):
                i, j = factors
                raise SpecError(f"product of degrees {i} and {j} lands outside degree {i + j}")
            self._check_pos(k, c)
            try:
                coeff = scalar(coeff)
            except (ValueError, TypeError, ZeroDivisionError):
                raise SpecError(f"coefficient {coeff!r} at position {c} of degree {k} "
                                "is not a rational number") from None
            if coeff:
                clean.append(((k, c), coeff))
        return tuple(clean)

    def _check_pos(self, degree: int, position: int):
        dim = self.dims.get(degree, 0)
        if not 0 <= position < dim:
            raise SpecError(
                f"position {position} out of range for degree {degree} (dim {dim})"
            )

    @property
    def lowest(self) -> int:
        return min(self.dims) if self.dims else 0


def graded_dual(alg: GradedAlgebraSpec, horizon: int) -> CoalgebraSpec:
    """Transpose multiplication (and derivation) on a finite degree window.

    Dual basis labels are indexed by degree minus the lowest degree.
    The result is a verified finite window: families stop at the
    horizon, and the transposed coderivation is only defined where every
    possible contribution lies inside the window.
    """
    if not alg.dims:
        raise SpecError("graded algebra has no components")
    offset = alg.lowest
    degrees = list(range(offset, horizon + 1))
    for deg in degrees:
        if alg.dims.get(deg, 0) <= 0:
            raise SpecError(
                f"missing dimension data for degree {deg} below horizon {horizon}"
            )
    max_dim = max(alg.dims[deg] for deg in degrees)

    def fam_name(position: int) -> str:
        return alg.dual_family if max_dim == 1 else f"{alg.dual_family}{position}"

    families = []
    for pos in range(max_dim):
        covered = [deg for deg in degrees if alg.dims[deg] > pos]
        lo, hi = covered[0], covered[-1]
        if covered != list(range(lo, hi + 1)):
            raise SpecError(
                f"dual family for position {pos} would have a non-contiguous range"
            )
        families.append(
            FamilyDecl(name=fam_name(pos), parity=0, lo=lo - offset, hi=hi - offset)
        )

    delta: dict = {}
    for ((i, a), (j, b)), results in alg.products.items():
        if i < offset or j < offset or i + j > horizon:
            continue
        for (k, c), coeff in results:
            delta.setdefault(fam_name(c), []).append(
                DeltaTerm(
                    coeff=IndexPoly.const(coeff),
                    left_family=fam_name(a),
                    left_index=AffineIndex(const=i - offset),
                    right_family=fam_name(b),
                    right_index=AffineIndex(const=j - offset),
                    guard=Guard.eq(k - offset),
                )
            )

    coderivation = None
    d_max = None
    shift = 0
    if alg.derivation is not None:
        coderivation = {}
        max_drop = 0
        for (m, b), results in alg.derivation.items():
            if not offset <= m <= horizon:
                continue
            for (k, c), coeff in results:
                if not offset <= k <= horizon:
                    continue
                shift = max(shift, abs(m - k))
                max_drop = max(max_drop, m - k)
                coderivation.setdefault(fam_name(c), []).append(
                    DerivTerm(
                        coeff=IndexPoly.const(coeff),
                        family=fam_name(b),
                        index=AffineIndex(const=m - offset),
                        guard=Guard.eq(k - offset),
                    )
                )
        d_max = horizon - offset - max_drop

    return CoalgebraSpec(
        name=f"graded-dual({alg.name})",
        families=tuple(families),
        delta=delta,
        coderivation=coderivation,
        shift_bound=shift,
        graded=False,
        coderivation_max_index=d_max,
        description=(
            f"degreewise dual of {alg.name} on degrees {offset}..{horizon}"
        ),
    )
