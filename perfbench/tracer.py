"""Outside-in tracing of cocheck's layers.

`Tracer.install` replaces public functions and methods of the engine
modules with timing wrappers, from outside the package.  Several modules
import functions by value (`from .coalgebra import delta`), so a function
is replaced in every loaded `cocheck` module that holds it; methods are
replaced on their classes.  A name that no longer exists fails the run.

Every wrapped call adds to its name's call count and self time (its
duration minus the time of wrapped calls made inside it).  Calls above
the vector/tensor kernel also keep a span (name, start, end, parent
span, job) in memory, written out by `write_spans` when the run ends.
Kernel operations run millions of times a pass, so they are only counted
and timed, not kept as spans.
"""
from __future__ import annotations

import time
from array import array

# (span name, module, attribute path, keeps spans)
TARGETS = [
    ("coalgebra.delta", "coalgebra", "delta", True),
    ("coalgebra.d_label", "coalgebra", "d_label", True),
    ("coalgebra.delta_linear", "coalgebra", "delta_linear", True),
    ("coalgebra.apply_d", "coalgebra", "apply_d", True),
    ("coalgebra.coderivation_check", "coalgebra", "coderivation_check", True),
    ("coalgebra.cocommutativity_check", "coalgebra", "cocommutativity_check", True),
    ("coalgebra.validate_shift_bound", "coalgebra", "validate_shift_bound", True),
    ("identities.translate", "identities", "translate", True),
    ("identities.check_identity", "identities", "check_identity", True),
    ("identities.apply", "identities", "CoidentityMap.apply", True),
    ("identities.builtin_identities", "identities", "builtin_identities", True),
    ("dual.dual_product", "dual", "dual_product", True),
    ("dual.dual_derivation", "dual", "dual_derivation", True),
    ("dual.product", "dual", "DualEvaluator.product", True),
    ("dual.polynomial", "dual", "DualEvaluator.polynomial", True),
    ("dual.bruteforce_identity", "dual", "bruteforce_identity", True),
    ("dual.envelope_product", "dual", "envelope_product", True),
    ("dual.grassmann_envelope_check", "dual", "grassmann_envelope_check", True),
    ("linalg.vector.add", "linalg", "FormalVector.__add__", False),
    ("linalg.vector.sub", "linalg", "FormalVector.__sub__", False),
    ("linalg.vector.scale", "linalg", "FormalVector.scale", False),
    ("linalg.tensor.add", "linalg", "FormalTensor.__add__", False),
    ("linalg.tensor.sub", "linalg", "FormalTensor.__sub__", False),
    ("linalg.tensor.scale", "linalg", "FormalTensor.scale", False),
    ("linalg.tensor.tensor", "linalg", "FormalTensor.tensor", False),
    ("linalg.tensor.flip", "linalg", "FormalTensor.flip", False),
    ("linalg.extract_components", "linalg", "extract_components", True),
    ("linalg.echelon.insert", "linalg", "EchelonSubspace.insert", True),
    ("linalg.echelon.reduce", "linalg", "EchelonSubspace.reduce", True),
    ("closure.components", "closure", "components", True),
    ("closure.bimodule_step", "closure", "bimodule_step", True),
    ("closure.generated_subcoalgebra", "closure", "generated_subcoalgebra", True),
    ("closure.local_finiteness_probe", "closure", "local_finiteness_probe", True),
    ("closure.simplicity_probe", "closure", "simplicity_probe", True),
    ("constructions.gelfand_dorfman", "constructions", "gelfand_dorfman", True),
    ("constructions.antisymmetrize", "constructions", "antisymmetrize", True),
    ("constructions.kantor", "constructions", "kantor", True),
    ("constructions.graded_dual", "constructions", "graded_dual", True),
    ("specfile.load_spec", "specfile", "load_spec", True),
    ("specfile.save_spec", "specfile", "save_spec", True),
    ("identlang.parse", "identlang", "parse_identity", True),
    ("cli.main", "cli", "main", True),
    ("cli.cmd_check", "cli", "cmd_check", True),
    ("cli.cmd_closure", "cli", "cmd_closure", True),
    ("cli.cmd_construct", "cli", "cmd_construct", True),
    ("cli.cmd_dual", "cli", "cmd_dual", True),
    ("cli.emit", "cli", "emit", True),
]

# Layer groups for self-time shares: a span name belongs to the first
# group whose prefix it starts with.
GROUPS = [
    "coalgebra.delta", "coalgebra.d_label", "coalgebra.linear", "coalgebra.checks",
    "identities.apply", "identities", "dual", "linalg.echelon", "linalg.vector",
    "linalg.tensor", "linalg", "closure", "constructions", "specfile",
    "identlang", "cli",
]
GROUP_ALIASES = {
    "coalgebra.delta_linear": "coalgebra.linear",
    "coalgebra.apply_d": "coalgebra.linear",
    "coalgebra.coderivation_check": "coalgebra.checks",
    "coalgebra.cocommutativity_check": "coalgebra.checks",
    "coalgebra.validate_shift_bound": "coalgebra.checks",
}

# Layers the issue names as busy on each workload: the traced run fails
# if any of these records no calls there, so a refactor that renames or
# bypasses a wrapped function cannot produce silent zeros.
BUSY = {
    "identity-sweep": ["identities.apply", "identities.translate",
                       "coalgebra.delta", "identlang.parse"],
    "oracle-crosscheck": ["dual.polynomial", "dual.product", "dual.dual_product",
                          "dual.envelope_product", "identities.apply",
                          "linalg.vector.add", "specfile.load_spec"],
    "closure-probe": ["closure.generated_subcoalgebra", "closure.components",
                      "linalg.echelon.insert", "linalg.echelon.reduce",
                      "linalg.vector.add", "linalg.extract_components"],
    "structure-scan": ["coalgebra.delta", "coalgebra.d_label",
                       "coalgebra.coderivation_check", "linalg.tensor.add",
                       "constructions.graded_dual", "specfile.save_spec",
                       "specfile.load_spec"],
}


class TraceError(RuntimeError):
    """The engine no longer has a wrapped name, or a busy layer was idle."""


def group_of(name: str) -> str:
    name = GROUP_ALIASES.get(name, name)
    for group in GROUPS:
        if name == group or name.startswith(group + "."):
            return group
    raise TraceError(f"span {name!r} belongs to no layer group")


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"{module.__name__}.{path} no longer exists")
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise TraceError(f"{module.__name__}.{path} no longer exists")
    elif not hasattr(owner, attr):
        raise TraceError(f"{module.__name__}.{path} no longer exists")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Call counts, self times, work counters and spans of one traced pass."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.counters = {
            "coalgebra.delta.distinct": 0,
            "identities.translate.steps": 0,
            "identities.apply.residual_terms": 0,
            "dual.dual_product.labels_scanned": 0,
            "dual.product.misses": 0,
            "linalg.echelon.rows_added": 0,
            "closure.steps": 0,
            "closure.components.vectors": 0,
        }
        self.hook_s = 0.0
        self.job = 0
        # Child-time accumulators of the open wrapped calls; the bottom
        # entry collects time outside any wrapped call.
        self._child = [0.0]
        self._open = [-1]  # span ids of the open spanned calls
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_job = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._seen_delta: set = set()
        self._job_specs: dict = {}

    # -- installing ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every loaded module of `package`."""
        import sys

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        hooks = {
            "coalgebra.delta": self._on_delta,
            "identities.translate": self._on_translate,
            "identities.apply": self._on_apply,
            "dual.dual_product": self._on_dual_product,
            "linalg.echelon.insert": self._on_insert,
            "closure.components": self._on_components,
            "closure.generated_subcoalgebra": self._on_closure,
        }
        for idx, (name, modname, path, spans) in enumerate(TARGETS):
            module = sys.modules.get(f"{package.__name__}.{modname}")
            if module is None:
                raise TraceError(f"module {package.__name__}.{modname} is not loaded")
            owner, attr, original = _resolve(module, path)
            wrapper = self._wrap(original, idx, spans, hooks.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            patched = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched += 1
            if not patched:
                raise TraceError(f"{name}: no module holds {modname}.{path}")

    def _wrap(self, fn, idx: int, spans: bool, hook):
        perf = time.perf_counter
        child = self._child
        calls = self.calls
        self_s = self.self_s
        if not spans:
            def kernel_wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf() - t0
                    self_s[idx] += d - child.pop()
                    child[-1] += d
                    calls[idx] += 1
            kernel_wrapper.__wrapped__ = fn
            return kernel_wrapper

        open_ = self._open
        s_name, s_parent, s_job = self._span_name, self._span_parent, self._span_job
        s_start, s_end = self._span_start, self._span_end
        tracer = self

        def span_wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(idx)
            s_parent.append(open_[-1])
            s_job.append(tracer.job)
            s_end.append(0.0)
            open_.append(sid)
            child.append(0.0)
            t0 = perf()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                d = t1 - t0
                s_end[sid] = t1
                self_s[idx] += d - child.pop()
                child[-1] += d
                calls[idx] += 1
                open_.pop()
            if hook is not None:
                h0 = perf()
                hook(args, result)
                h = perf() - h0
                tracer.hook_s += h
                child[-1] += h  # bookkeeping is not the caller's own time
            return result

        span_wrapper.__wrapped__ = fn
        return span_wrapper

    # -- work counters --------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen_delta.clear()
        self._job_specs.clear()

    def _on_delta(self, args, result):
        spec, label = args[0], args[1]
        # Holding the spec keeps its id unique for the rest of the job.
        self._job_specs[id(spec)] = spec
        key = (id(spec), label)
        if key not in self._seen_delta:
            self._seen_delta.add(key)
            self.counters["coalgebra.delta.distinct"] += 1

    def _on_translate(self, args, result):
        self.counters["identities.translate.steps"] += sum(
            len(steps) for _, steps in result.branches)

    def _on_apply(self, args, result):
        self.counters["identities.apply.residual_terms"] += len(result)

    def _on_dual_product(self, args, result):
        spec, f, g = args[0], args[1], args[2]
        if f and g:
            window = f.max_index() + g.max_index() + spec.shift_bound
            self.counters["dual.dual_product.labels_scanned"] += sum(
                hi - lo + 1 for _, lo, hi in spec.checked_ranges(window))
        parent = self._open[-1]
        if parent >= 0 and self._span_name[parent] == self.index["dual.product"]:
            self.counters["dual.product.misses"] += 1

    def _on_insert(self, args, result):
        if result is not None:
            self.counters["linalg.echelon.rows_added"] += 1

    def _on_components(self, args, result):
        self.counters["closure.components.vectors"] += len(result)

    def _on_closure(self, args, result):
        self.counters["closure.steps"] += len(result.steps)

    # -- results ------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.index[name]]

    def self_of(self, *prefixes: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s)
                   if any(n == p or n.startswith(p + ".") for p in prefixes))

    def require_busy(self, workload: str) -> None:
        idle = [n for n in BUSY[workload] if not self.calls_of(n)]
        if idle:
            raise TraceError(f"{workload}: busy layers recorded no calls: {idle}")

    def group_self(self) -> dict:
        out = dict.fromkeys(GROUPS, 0.0)
        for name, s in zip(self.names, self.self_s):
            out[group_of(name)] += s
        return out

    def metrics(self) -> dict:
        c = self.counters
        calls = self.calls_of

        def ratio(num, den):
            return num / den if den else 0.0

        delta_calls = calls("coalgebra.delta")
        vector_ops = sum(calls(n) for n in self.names if n.startswith("linalg.vector."))
        tensor_ops = sum(calls(n) for n in self.names if n.startswith("linalg.tensor."))
        inserts = calls("linalg.echelon.insert")
        products = calls("dual.product")
        return {
            "coalgebra.delta.calls": delta_calls,
            "coalgebra.delta.distinct": c["coalgebra.delta.distinct"],
            "coalgebra.delta.reuse_ratio":
                1.0 - ratio(c["coalgebra.delta.distinct"], delta_calls)
                if delta_calls else 0.0,
            "coalgebra.delta.self_s": self.self_of("coalgebra.delta"),
            "coalgebra.d_label.calls": calls("coalgebra.d_label"),
            "coalgebra.d_label.self_s": self.self_of("coalgebra.d_label"),
            "coalgebra.checks.self_s": self.self_of(
                "coalgebra.coderivation_check", "coalgebra.cocommutativity_check",
                "coalgebra.validate_shift_bound"),
            "coalgebra.linear.self_s": self.self_of(
                "coalgebra.delta_linear", "coalgebra.apply_d"),
            "identities.translate.steps": c["identities.translate.steps"],
            "identities.apply.calls": calls("identities.apply"),
            "identities.apply.self_s": self.self_of("identities.apply"),
            "identities.apply.residual_terms": c["identities.apply.residual_terms"],
            "dual.polynomial.calls": calls("dual.polynomial"),
            "dual.polynomial.self_s": self.self_of("dual.polynomial"),
            "dual.product.calls": products,
            "dual.product.memo_hit_ratio":
                1.0 - ratio(c["dual.product.misses"], products) if products else 0.0,
            "dual.dual_product.calls": calls("dual.dual_product"),
            "dual.dual_product.labels_scanned": c["dual.dual_product.labels_scanned"],
            "dual.dual_product.self_s": self.self_of("dual.dual_product"),
            "dual.envelope_product.calls": calls("dual.envelope_product"),
            "dual.envelope_product.self_s": self.self_of("dual.envelope_product"),
            "dual.self_s": self.self_of("dual"),
            "linalg.echelon.inserts": inserts,
            "linalg.echelon.rows_added": c["linalg.echelon.rows_added"],
            "linalg.echelon.useful_ratio": ratio(c["linalg.echelon.rows_added"], inserts),
            "linalg.echelon.reduce.calls": calls("linalg.echelon.reduce"),
            "linalg.echelon.self_s": self.self_of("linalg.echelon"),
            "linalg.vector.ops": vector_ops,
            "linalg.tensor.ops": tensor_ops,
            "linalg.vector.self_s": self.self_of("linalg.vector"),
            "linalg.tensor.self_s": self.self_of("linalg.tensor"),
            "linalg.kernel.self_s": self.self_of(
                "linalg.vector", "linalg.tensor", "linalg.extract_components"),
            "closure.runs": calls("closure.generated_subcoalgebra"),
            "closure.steps": c["closure.steps"],
            "closure.components.calls": calls("closure.components"),
            "closure.components.vectors": c["closure.components.vectors"],
            "closure.self_s": self.self_of("closure"),
            "constructions.self_s": self.self_of("constructions"),
            "specfile.self_s": self.self_of("specfile"),
            "identlang.parse.self_s": self.self_of("identlang.parse"),
            "cli.emit.self_s": self.self_of("cli.emit"),
            "trace.spans": len(self._span_name),
        }

    def write_spans(self, path, job_ids) -> None:
        """Write the kept spans as tab-separated lines, jobs first."""
        with open(path, "w", encoding="utf-8") as out:
            for i, job_id in enumerate(job_ids):
                out.write(f"# job {i}\t{job_id}\n")
            out.write("span\tparent\tjob\tname\tstart\tend\n")
            for sid in range(len(self._span_name)):
                out.write(
                    f"{sid}\t{self._span_parent[sid]}\t{self._span_job[sid]}\t"
                    f"{self.names[self._span_name[sid]]}\t"
                    f"{self._span_start[sid]:.9f}\t{self._span_end[sid]:.9f}\n")
