"""The comultiplication rule DSL.

A rule term produces, for an input label with index n, one tensor
summand per value of an optional summation index i in 0..n+c.  Indices
of produced labels are affine expressions in (n, i); coefficients are
polynomials in (n, i) with rational coefficients.  Terms may carry a
guard restricting them to a residue class of n or to one exact n, which
is what lets a single family follow different rules on interleaved
index classes and lets finite transposition tables share the format.

`IndexPoly.parse` reads coefficients and indices written with n, i,
integers, `+ - * / ^` and parentheses.  The bounds shared with the
identity language (nesting, literal length, error quotes) are in
`syntax`; this module adds the degree bound MAX_DEGREE.

Rules are evaluated in integer arithmetic: `IndexPoly.value` compiles
its polynomial on first use to a common denominator over integer
monomials and returns an `int` when the value is integral, a `Fraction`
otherwise; `evaluate` is its `Fraction`.  `coalgebra` compiles each
family's terms once per spec and keeps one table of their values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import SpecError, SpecFileError
from .linalg import accumulate, scalar
from .syntax import Descent, quote


@dataclass(frozen=True)
class Guard:
    """Restricts a rule term to certain input indices."""

    modulus: int = 0
    residue: int = 0
    exact: Optional[int] = None

    def __post_init__(self):
        if self.exact is None:
            if self.modulus < 2 or not 0 <= self.residue < self.modulus:
                raise SpecError(f"invalid guard {self!r}")
        elif self.modulus:
            raise SpecError("guard cannot combine modulus and exact index")

    @classmethod
    def mod(cls, modulus: int, residue: int) -> "Guard":
        return cls(modulus=modulus, residue=residue)

    @classmethod
    def eq(cls, index: int) -> "Guard":
        return cls(exact=index)

    def matches(self, n: int) -> bool:
        if self.exact is not None:
            return n == self.exact
        return n % self.modulus == self.residue

    def __str__(self) -> str:
        if self.exact is not None:
            return f"n == {self.exact}"
        return f"n % {self.modulus} == {self.residue}"

    def _key(self):
        return (0, self.exact, 0) if self.exact is not None else (1, self.modulus, self.residue)


@dataclass(frozen=True)
class AffineIndex:
    """The integer expression n*cn + i*ci + const."""

    n: int = 0
    i: int = 0
    const: int = 0

    def evaluate(self, n: int, i: int = 0) -> int:
        return self.n * n + self.i * i + self.const

    def compose(self, inner: "AffineIndex") -> "AffineIndex":
        """Substitute n := inner; self must not involve i."""
        if self.i:
            raise SpecError(f"cannot compose {self} through another index expression")
        return AffineIndex(
            n=self.n * inner.n, i=self.n * inner.i, const=self.n * inner.const + self.const
        )

    def __str__(self) -> str:
        parts = []
        for coeff, name in ((self.n, "n"), (self.i, "i")):
            if coeff == 0:
                continue
            body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
            parts.append(("-" if coeff < 0 else ("+" if parts else "")) + body)
        if self.const or not parts:
            c = self.const
            parts.append(("-" if c < 0 else ("+" if parts else "")) + str(abs(c)))
        out = parts[0]
        for p in parts[1:]:
            out += f" {p[0]} {p[1:]}"
        return out

    @classmethod
    def parse(cls, text: str) -> "AffineIndex":
        poly = IndexPoly.parse(text)
        return poly.as_affine()

    def _key(self):
        return (self.n, self.i, self.const)


class IndexPoly:
    """A polynomial in (n, i) with exact rational coefficients.

    Its first evaluation compiles it to a common denominator and integer
    monomials, so `value` runs in `int` arithmetic.
    """

    __slots__ = ("_coeffs", "_kernel")

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc = accumulate({}, (((int(dn), int(di)), scalar(c)) for (dn, di), c in items))
        object.__setattr__(self, "_coeffs", tuple(sorted(acc.items())))
        object.__setattr__(self, "_kernel", None)

    @classmethod
    def const(cls, c) -> "IndexPoly":
        return cls({(0, 0): scalar(c)})

    @classmethod
    def var_n(cls) -> "IndexPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_i(cls) -> "IndexPoly":
        return cls({(0, 1): 1})

    @property
    def coeffs(self):
        return self._coeffs

    def value(self, n: int, i: int = 0):
        """The value at (n, i): an `int` when it is integral, else a `Fraction`."""
        kernel = self._kernel
        if kernel is None:
            den = lcm(*(c.denominator for _, c in self._coeffs))
            kernel = (den, tuple((dn, di, c.numerator * (den // c.denominator))
                                 for (dn, di), c in self._coeffs))
            object.__setattr__(self, "_kernel", kernel)
        den, monomials = kernel
        total = 0
        for dn, di, c in monomials:
            total += c * n**dn * i**di
        if den == 1 or total % den == 0:
            return total // den
        return Fraction(total, den)

    def evaluate(self, n: int, i: int = 0) -> Fraction:
        return Fraction(self.value(n, i))

    def degree(self) -> int:
        return max((dn + di for (dn, di), _ in self._coeffs), default=0)

    def uses_i(self) -> bool:
        return any(di for (_, di), _ in self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "IndexPoly") -> "IndexPoly":
        return IndexPoly(list(self._coeffs) + list(other._coeffs))

    def __neg__(self) -> "IndexPoly":
        return IndexPoly({k: -c for k, c in self._coeffs})

    def __sub__(self, other: "IndexPoly") -> "IndexPoly":
        return self + (-other)

    def scale(self, c) -> "IndexPoly":
        c = scalar(c)
        return IndexPoly({k: v * c for k, v in self._coeffs})

    def __mul__(self, other: "IndexPoly") -> "IndexPoly":
        return IndexPoly(
            ((an + bn, ai + bi), ac * bc)
            for (an, ai), ac in self._coeffs
            for (bn, bi), bc in other._coeffs
        )

    def power(self, k: int) -> "IndexPoly":
        out = IndexPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def compose_n(self, inner: AffineIndex) -> "IndexPoly":
        """Substitute n := inner(n, i); self must not involve i."""
        if self.uses_i():
            raise SpecError("cannot substitute into a polynomial that uses i")
        base = IndexPoly(
            {(1, 0): inner.n, (0, 1): inner.i, (0, 0): inner.const}
        )
        out = IndexPoly()
        for (dn, _), c in self._coeffs:
            out = out + base.power(dn).scale(c)
        return out

    def as_affine(self) -> AffineIndex:
        """View as an affine integer index expression; raises if not one."""
        cn = ci = c0 = 0
        for (dn, di), c in self._coeffs:
            if c.denominator != 1:
                raise SpecError(f"index expression has non-integer coefficient {c}")
            if (dn, di) == (1, 0):
                cn = int(c)
            elif (dn, di) == (0, 1):
                ci = int(c)
            elif (dn, di) == (0, 0):
                c0 = int(c)
            else:
                raise SpecError(f"index expression is not affine: {self}")
        return AffineIndex(n=cn, i=ci, const=c0)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for (dn, di), c in sorted(self._coeffs, reverse=True):
            factors = []
            if dn:
                factors.append("n" if dn == 1 else f"n^{dn}")
            if di:
                factors.append("i" if di == 1 else f"i^{di}")
            mag = -c if c < 0 else c
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IndexPoly({self})"

    @classmethod
    def parse(cls, text: str) -> "IndexPoly":
        """Parse "+ - * / ^"-expressions over n, i, and rational constants."""
        return _ExprParser(text).parse()


# Highest total degree a product or power in an expression may reach, and
# the highest exponent: `power` multiplies once per unit of exponent.
# Gelfand-Dorfman and Kantor multiply a delta coefficient by a coderivation
# coefficient, so inputs of degree <= 16 give outputs that parse again.
MAX_DEGREE = 32


class _ExprParser(Descent):
    TOKEN = re.compile(r"\s*(\d+|[ni()+\-*/^])")

    def fail(self, message, offset=None):
        raise SpecFileError(f"{message} in expression {quote(self.text)}")

    def bounded(self, degree: int):
        if degree > MAX_DEGREE:
            self.fail(f"degree above {MAX_DEGREE}")

    def parse_term(self) -> IndexPoly:
        out = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op == "*":
                self.bounded(out.degree() + rhs.degree())
                out = out * rhs
            else:
                if rhs.degree():
                    self.fail("division only by constants")
                if not rhs:
                    self.fail("division by zero")
                out = out.scale(1 / rhs.evaluate(0, 0))
        return out

    def parse_factor(self) -> IndexPoly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if exp is None or not exp.isdigit():
                self.fail("exponent must be a nonnegative integer")
            self.bounded(max(base.degree(), 1) * int(exp))
            base = base.power(int(exp))
        return base

    def parse_atom(self) -> IndexPoly:
        tok = self.take()
        if tok is None:
            self.fail("unexpected end of input")
        if tok == "(":
            inner = self.nested(self.parse_expr)
            if self.take() != ")":
                self.fail("missing closing parenthesis")
            return inner
        if tok == "-":
            return -self.nested(self.parse_atom)
        if tok == "n":
            return IndexPoly.var_n()
        if tok == "i":
            return IndexPoly.var_i()
        if tok.isdigit():
            return IndexPoly.const(int(tok))
        self.fail(f"unexpected token {quote(tok)}")


ONE = IndexPoly.const(1)


@dataclass(frozen=True)
class DeltaTerm:
    """One summand family of a comultiplication rule.

    Without `sum_upper` the term contributes coeff(n) * left (x) right.
    With `sum_upper = c` it contributes the sum over i = 0..n+c of
    coeff(n, i) * left(n, i) (x) right(n, i).
    """

    coeff: IndexPoly
    left_family: str
    left_index: AffineIndex
    right_family: str
    right_index: AffineIndex
    sum_upper: Optional[int] = None
    guard: Optional[Guard] = None

    def targets(self) -> tuple:
        """The (family, index) of each factor the term produces."""
        return (self.left_family, self.left_index), (self.right_family, self.right_index)

    def sort_key(self):
        return (
            (0,) if self.guard is None else (1,) + self.guard._key(),
            0 if self.sum_upper is None else 1,
            self.sum_upper or 0,
            self.left_family,
            self.left_index._key(),
            self.right_family,
            self.right_index._key(),
        )

    def __str__(self) -> str:
        body = (
            f"{self.coeff} * {self.left_family}[{self.left_index}]"
            f" (x) {self.right_family}[{self.right_index}]"
        )
        if self.sum_upper is not None:
            upper = str(AffineIndex(n=1, const=self.sum_upper))
            body = f"sum(i=0..{upper}) {body}"
        if self.guard is not None:
            body = f"[{self.guard}] {body}"
        return body


@dataclass(frozen=True)
class DerivTerm:
    """One summand of a coderivation rule: coeff(n) * family[index(n)]."""

    coeff: IndexPoly
    family: str
    index: AffineIndex
    guard: Optional[Guard] = None

    def __post_init__(self):
        if self.coeff.uses_i() or self.index.i:
            raise SpecError("coderivation terms cannot use a summation index")

    def targets(self) -> tuple:
        """The (family, index) of the label the term produces."""
        return ((self.family, self.index),)

    def sort_key(self):
        return (
            (0,) if self.guard is None else (1,) + self.guard._key(),
            self.family,
            self.index._key(),
        )

    def __str__(self) -> str:
        body = f"{self.coeff} * {self.family}[{self.index}]"
        if self.guard is not None:
            body = f"[{self.guard}] {body}"
        return body


def canonical_terms(terms) -> tuple:
    """Merge shape-equal rule terms (all DeltaTerm or all DerivTerm),
    drop zero coefficients, sort deterministically."""
    shapes: dict = {}
    pairs = []
    for t in terms:
        key = t.sort_key()
        shapes.setdefault(key, t)
        pairs.append((key, t.coeff))
    merged = accumulate({}, pairs)
    return tuple(replace(shapes[k], coeff=merged[k]) for k in sorted(merged))


def delta_term(
    coeff,
    left,
    right,
    sum_upper: Optional[int] = None,
    guard: Optional[Guard] = None,
) -> DeltaTerm:
    """Convenience constructor: coeff and indices accept strings.

    `left` and `right` are (family, index-expression) pairs; expressions
    may be strings such as "n - i + 1" or AffineIndex values.
    """
    lf, li = left
    rf, ri = right
    return DeltaTerm(
        coeff=_as_poly(coeff),
        left_family=lf,
        left_index=_as_affine(li),
        right_family=rf,
        right_index=_as_affine(ri),
        sum_upper=sum_upper,
        guard=guard,
    )


def deriv_term(coeff, target, guard: Optional[Guard] = None) -> DerivTerm:
    family, index = target
    return DerivTerm(coeff=_as_poly(coeff), family=family, index=_as_affine(index), guard=guard)


def _as_poly(value) -> IndexPoly:
    if isinstance(value, IndexPoly):
        return value
    if isinstance(value, str):
        return IndexPoly.parse(value)
    return IndexPoly.const(value)


def _as_affine(value) -> AffineIndex:
    if isinstance(value, AffineIndex):
        return value
    if isinstance(value, str):
        return AffineIndex.parse(value)
    return AffineIndex(const=int(value))
