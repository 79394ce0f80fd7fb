"""Command-line front end.

Subcommands: check, closure, construct, dual, list-examples.  Reports
are human-readable text by default and a machine format with --json;
with --deterministic the timing field is zeroed so identical inputs and
seeds produce byte-identical reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse
error, 3 a closure budget was exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import json
import pathlib
import sys
import time

from . import __version__
from .catalog import builtin, list_examples
from .closure import (
    DEFAULT_MAX_DIM,
    DEFAULT_MAX_STEPS,
    local_finiteness_probe,
    simplicity_probe,
)
from .coalgebra import (
    CoalgebraSpec,
    cocommutativity_check,
    coderivation_check,
    delta,
    validate_shift_bound,
)
from .constructions import (
    GradedAlgebraSpec,
    antisymmetrize,
    gelfand_dorfman,
    graded_dual,
    kantor,
)
from .dual import (
    bruteforce_identity,
    coordinate_functional,
    dual_product,
    grassmann_envelope_check,
)
from .errors import EngineError, SpecFileError
from .identities import builtin_identities, check_identity
from .identlang import parse_identity
from .linalg import FormalVector
from .specfile import load_spec, save_spec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUNDLES = {
    "coassoc": ["associativity"],
    "cocomm": [],  # structural check, handled separately
    "coderivation": [],
    "novikov": ["left-symmetry", "novikov-right-commutativity"],
    "lie": ["anticommutativity", "jacobi"],
    "right-alternative": ["right-alternativity-linearized", "moufang-linearized"],
    "moufang": ["moufang-linearized"],
    "shift-bound": [],
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        _mode_flags(args)
        report, code = args.handler(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = 0.0 if args.deterministic else round(time.monotonic() - started, 6)
    report["elapsed_seconds"] = elapsed
    report["engine"] = {"name": "cocheck", "version": __version__}
    report["command"] = list(argv) if argv is not None else sys.argv[1:]
    emit(report, args)
    return code


def emit(report: dict, args) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        for line in render_text(report):
            print(line)


def render_text(report: dict) -> list:
    lines = [f"cocheck {report['engine']['version']}: {' '.join(report['command'])}"]
    if "spec" in report:
        lines.append(f"spec: {report['spec']['source']}")
    for entry in report.get("results", []):
        status = "PASS" if entry.get("passed") else "FAIL"
        rng = ", ".join(f"{f}:{lo}..{hi}" for f, lo, hi in entry.get("checked", []))
        detail = f" (checked {rng})" if rng else ""
        lines.append(f"check {entry['check']}: {status}{detail}")
        for w in entry.get("witnesses", []):
            lines.append(f"  witness {w['subject']}: {w['residual']}")
    for key in ("closure", "simplicity", "product", "constructed", "examples"):
        if key in report:
            lines.extend(_render_extra(key, report[key]))
    lines.append(f"verdict: {report.get('verdict', 'n/a')}")
    return lines


def _render_extra(key: str, payload) -> list:
    if key == "examples":
        out = []
        for e in payload:
            out.append(f"{e['name']} ({e['kind']}): {e['description']}")
            out.append(f"  lineage: {e['lineage']}")
        return out
    if key == "closure":
        out = [
            f"closure: {payload['verdict']} dim={payload['final_dim']} "
            f"dims={payload['dims']}"
        ]
        for step in payload["steps"]:
            added = ", ".join(step["added"]) or "(nothing)"
            out.append(f"  step dim={step['dim']}: +{added}")
        return out
    if key == "simplicity":
        out = [
            f"simplicity: {'PASS' if payload['passed'] else 'FAIL'} "
            f"horizon={payload['horizon']} seed={payload['seed']} "
            f"window={[list(w) for w in payload['window']]}"
        ]
        for run in payload["runs"]:
            mark = "saturated" if run["saturated"] else f"missing {list(run['missing'])}"
            out.append(f"  from {run['generator']}: dim={run['dim']} {mark}")
        return out
    if key == "product":
        return [f"product: {payload}"]
    if key == "constructed":
        out = [f"constructed: {payload['name']} -> {payload['path']}"]
        for sample in payload["samples"]:
            out.append(f"  delta({sample['label']}) = {sample['value']}")
        return out
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocheck",
        description="exact verification engine for nonassociative coalgebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run structural and identity checks")
    _spec_args(p_check)
    p_check.add_argument("--checks", default="", help="comma-separated check names")
    p_check.add_argument("--identity", help="identity expression to check")
    p_check.add_argument("--signature", help="parity signature such as eeoo, for --identity")
    p_check.add_argument("--max-index", type=int, default=30)
    p_check.add_argument("--koszul-pairing", action="store_true")
    p_check.set_defaults(handler=cmd_check)

    p_closure = sub.add_parser("closure", help="closure and simplicity probes")
    p_closure.add_argument(
        "mode", nargs="?", default="finiteness", choices=["finiteness", "simplicity"]
    )
    _spec_args(p_closure)
    # Each mode takes only its own flags; the defaults are in MODE_FLAGS.
    p_closure.add_argument("--generators", help="comma-separated labels like f:1,~f:2")
    p_closure.add_argument("--max-steps", type=int)
    p_closure.add_argument("--max-dim", type=int)
    p_closure.add_argument("--horizon", type=int)
    p_closure.add_argument("--trials", type=int)
    p_closure.add_argument("--seed", type=int)
    p_closure.set_defaults(handler=cmd_closure)

    p_construct = sub.add_parser("construct", help="derive a new spec and write it")
    p_construct.add_argument(
        "mode",
        metavar="construction",
        choices=["gelfand-dorfman", "antisymmetrize", "kantor", "graded-dual"],
    )
    _spec_args(p_construct)
    p_construct.add_argument("-o", "--output", required=True)
    p_construct.add_argument("--horizon", type=int)
    p_construct.set_defaults(handler=cmd_construct)

    p_dual = sub.add_parser("dual", help="dual-algebra products and oracles")
    p_dual.add_argument("mode", choices=["product", "identity", "grassmann"])
    _spec_args(p_dual)
    p_dual.add_argument("--left", help="label of the left coordinate functional")
    p_dual.add_argument("--right", help="label of the right coordinate functional")
    p_dual.add_argument("--identity", help="identity expression")
    p_dual.add_argument("--bound", type=int)
    p_dual.add_argument("--generators", type=int)
    p_dual.add_argument("--samples", type=int)
    p_dual.add_argument("--seed", type=int)
    p_dual.add_argument("--max-index", type=int)
    p_dual.set_defaults(handler=cmd_dual)

    p_list = sub.add_parser("list-examples", help="list builtin examples")
    p_list.set_defaults(handler=cmd_list_examples)
    for p in (p_check, p_closure, p_construct, p_dual, p_list):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="zero the timing field for byte-identical reports",
        )
    return parser


# command -> mode -> {flag destination: default}.  Each mode takes only
# its own flags: a flag of another mode would be silently ignored.
MODE_FLAGS = {
    "closure": {
        "finiteness": {
            "generators": None,
            "max_steps": DEFAULT_MAX_STEPS,
            "max_dim": DEFAULT_MAX_DIM,
        },
        "simplicity": {"horizon": 20, "trials": 5, "seed": 0},
    },
    "dual": {
        "product": {"left": None, "right": None},
        "identity": {"identity": None, "bound": 8},
        "grassmann": {"generators": 3, "samples": 50, "seed": 0, "max_index": 6},
    },
    "construct": {"graded-dual": {"horizon": 64}},
}


def _mode_flags(args) -> None:
    """Fill in the defaults of the flags of args.mode; refuse a flag of
    another mode of the same command."""
    for mode, flags in MODE_FLAGS.get(args.command, {}).items():
        for dest, default in flags.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif mode != args.mode:
                raise SpecFileError(
                    f"--{dest.replace('_', '-')} is a {args.command} {mode} flag; "
                    f"{args.command} {args.mode} does not take it"
                )


def _spec_args(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", help="builtin example name")
    group.add_argument("--spec", help="path to a spec file")


def _load(args):
    """Returns (spec-or-algebra, provenance dict)."""
    if args.example:
        obj = builtin(args.example)
        return obj, {"source": f"builtin:{args.example}"}
    digest = hashlib.sha256(pathlib.Path(args.spec).read_bytes()).hexdigest()
    return load_spec(args.spec), {"source": f"file:{args.spec}", "sha256": digest}


def _require_coalgebra(obj) -> CoalgebraSpec:
    if not isinstance(obj, CoalgebraSpec):
        raise SpecFileError(
            "this command needs a coalgebra; got a graded algebra "
            "(use `construct graded-dual` first)"
        )
    return obj


def parse_label(spec: CoalgebraSpec, text: str):
    text = text.strip()
    if ":" not in text:
        raise SpecFileError(f"bad label {text!r}; use family:index")
    fam, _, idx = text.rpartition(":")
    try:
        index = int(idx)
    except ValueError:
        raise SpecFileError(f"bad label index in {text!r}") from None
    return spec.label(fam, index)


def _split_checks(text: str) -> list:
    """Split a --checks list on the commas outside brackets, so a catalog
    name such as "[[x,y],[z,t]]" stays whole."""
    names, depth, start = [], 0, 0
    for j, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            names.append(text[start:j])
            start = j + 1
    names.append(text[start:])
    return [n.strip() for n in names if n.strip()]


def _verdict(report: dict, checks: list):
    """Attach the CheckReports and their joint verdict; returns the report
    and its exit code."""
    passed = all(c.passed for c in checks)
    report["results"] = [
        {
            "check": c.name,
            "passed": c.passed,
            "checked": [list(r) for r in c.checked],
            "witnesses": [dataclasses.asdict(w) for w in c.witnesses],
        }
        for c in checks
    ]
    report["verdict"] = "pass" if passed else "fail"
    return report, EXIT_PASS if passed else EXIT_FAIL


def cmd_check(args):
    if args.signature is not None and not args.identity:
        raise SpecFileError(
            "--signature grades only the identity given with --identity; "
            "catalog checks run ungraded"
        )
    obj, provenance = _load(args)
    spec = _require_coalgebra(obj)
    catalog = builtin_identities()

    def identity(p, name):
        return check_identity(
            spec, p, args.max_index, koszul_pairing=args.koszul_pairing, name=name
        )

    results = []
    for name in _split_checks(args.checks):
        if name == "cocomm":
            results.append(cocommutativity_check(spec, args.max_index))
        elif name == "coderivation":
            results.append(coderivation_check(spec, args.max_index))
        elif name == "shift-bound":
            results.append(validate_shift_bound(spec, args.max_index))
        else:
            for ident in BUNDLES.get(name, [name]):
                if ident not in catalog:
                    known = sorted(set(BUNDLES) | set(catalog))
                    hint = difflib.get_close_matches(name, known, n=3)
                    raise SpecFileError(
                        f"unknown check {name!r}"
                        + (f"; did you mean {', '.join(hint)}?" if hint else "")
                    )
                results.append(identity(catalog[ident], ident))
    if args.identity:
        p = parse_identity(args.identity)
        if args.signature is not None:
            p = p.with_signature(args.signature)
        results.append(identity(p, f"identity {args.identity}"))
    if not results:
        raise SpecFileError("nothing to check: pass --checks and/or --identity")
    return _verdict({"spec": provenance}, results)


def cmd_closure(args):
    obj, provenance = _load(args)
    spec = _require_coalgebra(obj)
    if args.mode == "simplicity":
        result = simplicity_probe(
            spec, args.horizon, trials=args.trials, seed=args.seed
        )
        report = {
            "spec": provenance,
            "seed": args.seed,
            "simplicity": dataclasses.asdict(result),
            "verdict": "pass" if result.passed else "fail",
        }
        return report, EXIT_PASS if result.passed else EXIT_FAIL
    if not args.generators:
        raise SpecFileError("closure finiteness needs --generators")
    generators = [
        FormalVector.unit(parse_label(spec, g)) for g in args.generators.split(",")
    ]
    result = local_finiteness_probe(
        spec, generators, max_steps=args.max_steps, max_dim=args.max_dim
    )
    payload = {
        "verdict": result.kind,
        "final_dim": result.trace.final_dim,
        "dims": list(result.trace.dims),
        "steps": [
            {"dim": s.dim, "added": list(s.added)} for s in result.trace.steps
        ],
    }
    report = {
        "spec": provenance,
        "closure": payload,
        "verdict": result.kind,
    }
    code = EXIT_PASS if result.kind == "finite-dimensional" else EXIT_BUDGET
    return report, code


def cmd_construct(args):
    obj, provenance = _load(args)
    if args.mode == "graded-dual":
        if not isinstance(obj, GradedAlgebraSpec):
            raise SpecFileError("graded-dual needs a graded algebra input")
        spec = graded_dual(obj, horizon=args.horizon)
    else:
        source = _require_coalgebra(obj)
        if args.mode == "gelfand-dorfman":
            spec = gelfand_dorfman(source)
        elif args.mode == "antisymmetrize":
            spec = antisymmetrize(source)
        else:
            spec = kantor(source)
    save_spec(spec, args.output)
    samples = []
    for label in spec.labels_upto(3)[:6]:
        samples.append({"label": str(label), "value": str(delta(spec, label))})
    report = {
        "spec": provenance,
        "constructed": {"name": spec.name, "path": args.output, "samples": samples},
        "verdict": "pass",
    }
    return report, EXIT_PASS


def cmd_dual(args):
    obj, provenance = _load(args)
    spec = _require_coalgebra(obj)
    report = {"spec": provenance}
    if args.mode == "product":
        if not args.left or not args.right:
            raise SpecFileError("dual product needs --left and --right")
        left = parse_label(spec, args.left)
        right = parse_label(spec, args.right)
        value = dual_product(
            spec,
            coordinate_functional(spec, left.family, left.index),
            coordinate_functional(spec, right.family, right.index),
        )
        rendered = " + ".join(
            f"{c}*xi_{l}" for l, c in value.items()
        ) or "0"
        report["product"] = f"xi_{left} * xi_{right} = {rendered}"
        report["verdict"] = "pass"
        return report, EXIT_PASS
    if args.mode == "identity":
        if not args.identity:
            raise SpecFileError("dual identity needs --identity")
        p = parse_identity(args.identity)
        result = bruteforce_identity(spec, p, args.bound, name=f"oracle {args.identity}")
        return _verdict(report, [result])
    result = grassmann_envelope_check(
        spec,
        generators=args.generators,
        samples=args.samples,
        seed=args.seed,
        max_index=args.max_index,
    )
    report["seed"] = args.seed
    return _verdict(report, [result])


def cmd_list_examples(args):
    entries = [
        {
            "name": e.name,
            "kind": e.kind,
            "description": e.description,
            "lineage": e.lineage,
        }
        for e in list_examples()
    ]
    return {"examples": entries, "verdict": "pass"}, EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
