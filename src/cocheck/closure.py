"""Subcoalgebra generation and the finiteness and simplicity probes.

Closure realizes the coordinate-functional bimodule actions through
component extraction: the independent-side grouping of delta(v) yields
exactly the vectors that any subcoalgebra containing v must contain, and
only finitely many coordinate functionals act nontrivially on a given
vector.  Differential specs close under the coderivation as part of the
step.  Divergence is always reported as evidence with the exact growth
trace, never as a theorem.

A run inserts each distinct component once, and a windowed run stops as
soon as its span is the whole window.  The simplicity probe runs many
closures over one spec and one window, and its runs share one memo of
each row's windowed components, in which equal components are one
object, so a run's test for a component it has already inserted is an
identity hit.  The echelon subspace does the rest of the work through
its indexes (see `EchelonSubspace`): a component whose labels are all
unit pivots is dropped without a reduction, and a new row is
back-substituted only into the rows that hold its lead.  None of this
changes a trace's rows, its final dimension or the steps up to
saturation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .coalgebra import CoalgebraSpec, apply_d, delta_linear
from .errors import SpecError
from .linalg import EchelonSubspace, FormalVector, extract_components

DEFAULT_MAX_STEPS = 64
DEFAULT_MAX_DIM = 4096
MAX_MISSING = 5
# Every random start is built before the first run, and its rows stay in
# the probe's memo, so the trial count bounds the probe's memory.
MAX_TRIALS = 1000


@dataclass(frozen=True)
class ClosureStep:
    dim: int
    added: tuple  # leading labels of rows added during this step, as strings


@dataclass(frozen=True)
class ClosureTrace:
    """Growth record of one closure run.

    `verdict` is "closed" or "budget-exceeded"; a closed trace means the
    final step added nothing or, for a windowed run, that the span is the
    whole window.  The subspace is the working echelon basis reached when
    the run stopped.
    """

    verdict: str
    steps: tuple
    final_dim: int
    subspace: EchelonSubspace = field(compare=False, repr=False)

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.steps)


def components(spec: CoalgebraSpec, v: FormalVector) -> list:
    """All vectors forced into any subcoalgebra containing v."""
    out = []
    t = delta_linear(spec, v)
    for _, right in extract_components(t, "left"):
        out.append(right)
    for left, _ in extract_components(t, "right"):
        out.append(left)
    if spec.differential:
        out.append(apply_d(spec, v))
    return out


def bimodule_step(spec: CoalgebraSpec, subspace: EchelonSubspace) -> EchelonSubspace:
    """One closure step: insert every component of every current row."""
    out = subspace.copy()
    for v in subspace.rows():
        for c in components(spec, v):
            out.insert(c)
    return out


def _in_window(v: FormalVector, window: Optional[int]) -> bool:
    return window is None or v.max_index() <= window


def generated_subcoalgebra(
    spec: CoalgebraSpec,
    generators: Sequence[FormalVector],
    max_steps: int = DEFAULT_MAX_STEPS,
    max_dim: int = DEFAULT_MAX_DIM,
    window: Optional[int] = None,
    *,
    memo: Optional[dict] = None,
    interned: Optional[dict] = None,
) -> ClosureTrace:
    """Iterate closure steps from the generators to a fixed point or budget.

    Rows are processed once, at the step after they arrive; since a
    row's components depend linearly on the row, this reaches the same
    fixed point as re-processing whole subspaces.  A component already
    inserted in this run is skipped: it stays in the span for good.
    With `window`, components supported beyond the index window are
    dropped; the result is then only the tracked part of the
    subcoalgebra, and the run ends "closed" as soon as that part is the
    whole window, since no later insert could add a row.

    `memo` maps a processed row to its nonzero window-filtered
    components, and is valid for one spec and one window only; runs
    over the same spec and window may share one dict.  `interned` maps
    each component in `memo` to the one object that stands for all its
    equal copies, and is shared along with `memo`.  Neither changes a
    result.  None means a fresh dict for this call.
    """
    if max_steps < 1 or max_dim < 1:
        raise SpecError("closure budget must be positive")
    if memo is None:
        memo = {}
    if interned is None:
        interned = {}
    full = None if window is None else len(spec.labels_upto(window))
    sub = EchelonSubspace()
    queue = []
    for g in generators:
        if not _in_window(g, window):
            raise SpecError("generator lies outside the tracking window")
        inserted = sub.insert(g)
        if inserted is not None:
            queue.append(inserted)
    seen = set()
    steps = []
    verdict = "closed"
    while queue and sub.dim != full:
        if len(steps) >= max_steps:
            verdict = "budget-exceeded"
            break
        current, queue = queue, []
        added = []
        for v in current:
            comps = memo.get(v)
            if comps is None:
                comps = memo[v] = [
                    interned.setdefault(c, c)
                    for c in components(spec, v)
                    if c and _in_window(c, window)
                ]
            for comp in comps:
                if comp in seen:
                    continue
                seen.add(comp)
                inserted = sub.insert(comp)
                if inserted is not None:
                    queue.append(inserted)
                    added.append(str(inserted.leading()))
            if sub.dim == full:
                break
        steps.append(ClosureStep(dim=sub.dim, added=tuple(added)))
        if sub.dim > max_dim:
            verdict = "budget-exceeded"
            break
    return ClosureTrace(
        verdict=verdict,
        steps=tuple(steps),
        final_dim=sub.dim,
        subspace=sub,
    )


@dataclass(frozen=True)
class FinitenessVerdict:
    """Outcome of the local-finiteness probe for one generating set.

    "finite-dimensional" reports the exact closed dimension;
    "divergence-evidence" carries the growth trace and is explicitly
    evidence, not a proof of infinite-dimensionality.
    """

    kind: str
    dim: Optional[int]
    trace: ClosureTrace

    def __str__(self):
        if self.kind == "finite-dimensional":
            return f"FiniteDimensional({self.dim})"
        return f"DivergenceEvidence(dims={list(self.trace.dims)})"


def local_finiteness_probe(
    spec: CoalgebraSpec,
    generators: Sequence[FormalVector],
    max_steps: int = DEFAULT_MAX_STEPS,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FinitenessVerdict:
    trace = generated_subcoalgebra(spec, generators, max_steps, max_dim)
    if trace.verdict == "closed":
        return FinitenessVerdict("finite-dimensional", trace.final_dim, trace)
    return FinitenessVerdict("divergence-evidence", None, trace)


@dataclass(frozen=True)
class SimplicityRun:
    generator: str
    saturated: bool
    dim: int
    missing: tuple  # first few window labels absent from the closure


@dataclass(frozen=True)
class SimplicityReport:
    """Evidence for simplicity at a finite truncation window.

    Every probe run starts from one basis label or one random vector and
    must saturate the whole window of labels with index <= horizon; a
    non-saturating run is a proper-subcoalgebra witness.  The verified
    window and the seed are recorded; this is evidence at truncation,
    not a proof of simplicity.
    """

    passed: bool
    horizon: int
    window: tuple  # ((family, lo, hi), ...)
    runs: tuple
    seed: int
    trials: int

    def failures(self):
        return tuple(r for r in self.runs if not r.saturated)


def simplicity_probe(
    spec: CoalgebraSpec,
    horizon: int,
    trials: int = 5,
    seed: int = 0,
) -> SimplicityReport:
    if trials < 0:
        raise SpecError(f"simplicity probe needs trials >= 0, got {trials}")
    if trials > MAX_TRIALS:
        raise SpecError(
            f"simplicity probe takes at most {MAX_TRIALS} trials, got {trials}"
        )
    window_labels = spec.labels_upto(horizon)
    if not window_labels:
        raise SpecError("horizon too small: no labels in the verified window")
    # Rules may alternate between families, so the index frontier can
    # advance every second step.
    max_steps = 2 * horizon + 8
    max_dim = len(window_labels) + 8
    rng = random.Random(seed)
    coeff_pool = [Fraction(c) for c in (-2, -1, 1, 2, 3)]

    starts = [(str(l), FormalVector.unit(l)) for l in window_labels]
    support_pool = [l for l in window_labels if l.index <= max(horizon - 1, 0)]
    for t in range(trials):
        size = rng.randint(2, min(4, len(support_pool))) if len(support_pool) > 1 else 1
        labels = rng.sample(support_pool, size)
        v = FormalVector({l: rng.choice(coeff_pool) for l in labels})
        starts.append((f"random#{t} {v}", v))

    runs = []
    passed = True
    memo: dict = {}  # shared by every run: one spec, one window
    interned: dict = {}
    for name, v in starts:
        trace = generated_subcoalgebra(
            spec, [v], max_steps=max_steps, max_dim=max_dim, window=horizon,
            memo=memo, interned=interned,
        )
        saturated = trace.final_dim == len(window_labels)
        missing = ()
        if not saturated:
            missing = tuple(
                str(l)
                for l in window_labels
                if not trace.subspace.contains_label(l)
            )[:MAX_MISSING]
            passed = False
        runs.append(
            SimplicityRun(
                generator=name,
                saturated=saturated,
                dim=trace.final_dim,
                missing=missing,
            )
        )
        if not passed:
            break
    return SimplicityReport(
        passed=passed,
        horizon=horizon,
        window=spec.checked_ranges(horizon),
        runs=tuple(runs),
        seed=seed,
        trials=trials,
    )
