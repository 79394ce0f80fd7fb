"""The four workloads: fixed job lists and headline ladders.

Every job is one `cocheck` command line, run in process through
`cocheck.cli.main` with `--json --deterministic` appended.  A job's id is
its command line; it keys the expected table in `expected.json`.

The workload seed sets the order in which a job list runs (units are
shuffled; a unit keeps jobs that must run in order, such as a `construct`
and the checks that read its output back).  It never changes which jobs
run or their arguments, so the work of a pass is the same for every
seed.  Randomized commands (`closure simplicity` trials, `dual grassmann`
samples) get the fixed TRIAL_SEED: with seed-derived trials the work of
`closure-probe` varied by a quarter from seed to seed.

This module imports nothing from `cocheck`: the job lists are fixed
here, not derived from the catalog, so that a later change to the
catalog cannot change what the benchmark measures.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

TRIAL_SEED = "7"

EXAMPLES = [f"example{k}" for k in range(1, 10)]
UNGRADED = ["example1", "example2", "example3", "example4", "example5",
            "example6", "example9"]
DIFFERENTIAL = {"example1", "example4"}

# Catalog identity name -> (arity, expression in the identity language).
# `[[x,y],[z,t]]` cannot go through `--checks`, which splits on commas.
IDENTITIES = {
    "associativity": (3, "-(x1 (x2 x3)) + ((x1 x2) x3)"),
    "commutativity": (2, "(x1 x2) - (x2 x1)"),
    "anticommutativity": (2, "(x1 x2) + (x2 x1)"),
    "jacobi": (3, "((x1 x2) x3) + ((x2 x3) x1) + ((x3 x1) x2)"),
    "left-symmetry": (3, "-(x1 (x2 x3)) + (x2 (x1 x3)) + ((x1 x2) x3)"
                         " - ((x2 x1) x3)"),
    "novikov-right-commutativity": (3, "((x1 x2) x3) - ((x1 x3) x2)"),
    "right-alternativity-linearized": (3, "-(x1 (x2 x3)) - (x1 (x3 x2))"
                                          " + ((x1 x2) x3) + ((x1 x3) x2)"),
    "moufang-linearized": (4, "-(x1 ((x2 x4) x3)) - (x1 ((x3 x4) x2))"
                              " + (((x1 x2) x4) x3) + (((x1 x3) x4) x2)"),
    "jordan-linearized": (4, "-((x1 x2) (x4 x3)) - ((x1 x3) (x4 x2))"
                             " - ((x2 x1) (x4 x3)) - ((x2 x3) (x4 x1))"
                             " - ((x3 x1) (x4 x2)) - ((x3 x2) (x4 x1))"
                             " + (((x1 x2) x4) x3) + (((x1 x3) x4) x2)"
                             " + (((x2 x1) x4) x3) + (((x2 x3) x4) x1)"
                             " + (((x3 x1) x4) x2) + (((x3 x2) x4) x1)"),
    "supercommutativity": (2, "(x1 x2) - (x2 x1)"),
    "(xy)z": (3, "((x1 x2) x3)"),
    "((xy)z)t": (4, "(((x1 x2) x3) x4)"),
    "(xy)(zt)": (4, "((x1 x2) (x3 x4))"),
    "[[x,y],[z,t]]": (4, "[[x1,x2],[x3,x4]]"),
    "x'y'": (2, "(x1' x2')"),
}
NEEDS_CODERIVATION = {"x'y'"}

# Graded identities checked with parity signatures on the Kantor doubles,
# under both sign conventions.
GRADED_EXTRAS = [
    ("jordan-linearized", "eeee"),
    ("jordan-linearized", "oooo"),
    ("supercommutativity", "eo"),
    ("supercommutativity", "oo"),
    ("(xy)(zt)", "oooo"),
]

# The non-Jordan control of the Grassmann oracle: example3 with its
# families declared graded, written as a spec file during set-up.
GRADED_CONTROL = "graded-example3.json"


@dataclass(frozen=True)
class Sizes:
    """Windows of one workload size; `full` is measured, `smoke` is tiny."""

    sweep_max_index: int
    oracle_bound: int
    oracle_max_arity: int
    grassmann_samples: int
    simplicity_horizon: int
    simplicity_horizon_ex8: int
    divergence_steps: int
    scan_horizon: int
    scan_max_index: int
    scan_ex1_max_index: int
    scan_ex4_max_index: int
    ladders: dict = field(default_factory=dict)


FULL = Sizes(
    sweep_max_index=6,
    oracle_bound=6,
    oracle_max_arity=4,
    grassmann_samples=30,
    simplicity_horizon=12,
    simplicity_horizon_ex8=7,
    divergence_steps=30,
    scan_horizon=48,
    scan_max_index=32,
    scan_ex1_max_index=300,
    scan_ex4_max_index=70,
    ladders={
        "identity-sweep": (6, 8, 10),
        "oracle-crosscheck": (3, 4, 5),
        "closure-probe": (4, 6, 8),
        "structure-scan": (40, 50, 65),
    },
)

SMOKE = Sizes(
    sweep_max_index=3,
    oracle_bound=6,
    oracle_max_arity=2,
    grassmann_samples=3,
    simplicity_horizon=3,
    simplicity_horizon_ex8=2,
    divergence_steps=4,
    scan_horizon=6,
    scan_max_index=4,
    scan_ex1_max_index=10,
    scan_ex4_max_index=8,
    ladders={
        "identity-sweep": (2, 3, 4),
        "oracle-crosscheck": (2, 3),
        "closure-probe": (2, 3, 4),
        "structure-scan": (4, 6, 8),
    },
)

# The time budget of the headline job, in seconds, for window_at_budget.
BUDGET_S = 0.25


@dataclass(frozen=True)
class Job:
    """One command line; `pair` names the coidentity job an oracle job
    must agree with."""

    template: tuple
    pair: str = ""

    @property
    def id(self) -> str:
        return " ".join(self.template)

    @property
    def argv(self) -> list:
        return list(self.template)


def _check(example: str, name: str, window: int) -> Job:
    if "," in name:
        args = ("--identity", IDENTITIES[name][1])
    else:
        args = ("--checks", name)
    return Job(("check", "--example", example) + args
               + ("--max-index", str(window)))


def _applies(example: str, name: str) -> bool:
    return name not in NEEDS_CODERIVATION or example in DIFFERENTIAL


def identity_sweep(s: Sizes) -> list:
    units = [[_check(ex, name, s.sweep_max_index)]
             for ex in EXAMPLES for name in IDENTITIES if _applies(ex, name)]
    for ex in ("example7", "example8"):
        for name, sig in GRADED_EXTRAS:
            for pairing in ((), ("--koszul-pairing",)):
                units.append([Job(
                    ("check", "--example", ex, "--identity", IDENTITIES[name][1],
                     "--signature", sig, "--max-index", str(s.sweep_max_index))
                    + pairing)])
    return units


def oracle_crosscheck(s: Sizes) -> list:
    units = []
    for ex in UNGRADED:
        for name, (arity, expr) in IDENTITIES.items():
            if arity > s.oracle_max_arity or not _applies(ex, name):
                continue
            coident = _check(ex, name, s.oracle_bound)
            oracle = Job(("dual", "identity", "--example", ex, "--identity", expr,
                          "--bound", str(s.oracle_bound)), pair=coident.id)
            units.append([coident, oracle])
    samples = str(s.grassmann_samples)
    for source in (("--example", "example7"), ("--example", "example8"),
                   ("--spec", GRADED_CONTROL)):
        units.append([Job(("dual", "grassmann") + source
                          + ("--samples", samples, "--seed", TRIAL_SEED))])
    return units


def closure_probe(s: Sizes) -> list:
    units = []
    for ex, horizon in (("example4", s.simplicity_horizon),
                        ("example5", s.simplicity_horizon),
                        ("example6", s.simplicity_horizon),
                        ("example8", s.simplicity_horizon_ex8)):
        units.append([Job(("closure", "simplicity", "--example", ex,
                           "--horizon", str(horizon), "--seed", TRIAL_SEED))])
    for ex, gens in (("example1", "f:1"), ("example2", "f:1"), ("example3", "f:1"),
                     ("example7", "~f:1"), ("example9", "f:1,f:2")):
        units.append([Job(("closure", "--example", ex, "--generators", gens,
                           "--max-steps", str(s.divergence_steps)))])
    return units


def structure_scan(s: Sizes) -> list:
    window = str(s.scan_max_index)
    units = []
    for construction, source, out, checks in (
        ("graded-dual", ("--example", "fx-diff-algebra", "--horizon",
                         str(s.scan_horizon)),
         "dual-fx.json", "cocomm,coderivation,shift-bound,coassoc"),
        ("gelfand-dorfman", ("--example", "example1"), "gd-example1.json",
         "cocomm,shift-bound,coassoc"),
        ("gelfand-dorfman", ("--example", "example4"), "gd-example4.json",
         "cocomm,shift-bound,coassoc"),
        ("antisymmetrize", ("--example", "example2"), "anti-example2.json",
         "cocomm,shift-bound,coassoc"),
        ("antisymmetrize", ("--example", "example5"), "anti-example5.json",
         "cocomm,shift-bound,coassoc"),
        ("kantor", ("--example", "example1"), "kantor-example1.json",
         "cocomm,shift-bound,coassoc"),
        ("kantor", ("--example", "example4"), "kantor-example4.json",
         "cocomm,shift-bound,coassoc"),
    ):
        units.append([
            Job(("construct", construction) + source + ("-o", out)),
            Job(("check", "--spec", out, "--checks", checks, "--max-index", window)),
        ])
    units.append([Job(("check", "--example", "example1", "--checks",
                       "cocomm,coderivation,shift-bound,coassoc",
                       "--max-index", str(s.scan_ex1_max_index)))])
    units.append([Job(("check", "--example", "example4", "--checks",
                       "cocomm,coderivation,shift-bound",
                       "--max-index", str(s.scan_ex4_max_index)))])
    return units


def ladder(name: str, s: Sizes) -> list:
    """The headline job of a workload at each rung of its window ladder."""
    jordan = IDENTITIES["jordan-linearized"][1]
    make = {
        "identity-sweep": lambda w: ("check", "--example", "example6", "--checks",
                                     "jordan-linearized", "--max-index", str(w)),
        "oracle-crosscheck": lambda w: ("dual", "identity", "--example", "example6",
                                        "--identity", jordan, "--bound", str(w)),
        "closure-probe": lambda w: ("closure", "simplicity", "--example", "example8",
                                    "--horizon", str(w)),
        "structure-scan": lambda w: ("check", "--example", "example4", "--checks",
                                     "coderivation", "--max-index", str(w)),
    }[name]
    return [(w, Job(make(w))) for w in s.ladders[name]]


WORKLOADS = {
    "identity-sweep": identity_sweep,
    "oracle-crosscheck": oracle_crosscheck,
    "closure-probe": closure_probe,
    "structure-scan": structure_scan,
}


def job_list(name: str, s: Sizes, seed: int) -> list:
    """The workload's jobs in the order the seed gives."""
    units = WORKLOADS[name](s)
    random.Random(f"{name}:{seed}").shuffle(units)
    return [job for unit in units for job in unit]
