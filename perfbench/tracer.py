"""Per-module tracing of integrable_lab from outside the package.

A Tracer wraps public functions and methods of the lab's modules while it
is installed and restores every original when it is removed; nothing
under ``src/`` is edited.  Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent)`` for every call, kept
  in memory; a name's self time is its spans' durations minus the time
  covered by their direct children;
* count wrappers only bump a counter.  They are used for hot leaves
  (``SparseMatrix.entry``/``add_to``, ``tbinom``, ``bethe_vector``),
  whose time is left in the caller's self time.

A function imported by name into other modules (``from .scalars import
tbinom``) is bound in several namespaces, so each is patched; methods
are patched on their class.

Per-call quantities (basis sizes, nnz, roots) are read from what the
wrapped calls received and returned, so they follow the program when it
changes.
"""

from __future__ import annotations

import gc
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name); "Class.method" patches the class attribute
SPANS = [
    ("graded", "SparseMatrix.mul", "graded.mul"),
    ("graded", "SparseMatrix.add", "graded.add"),
    ("graded", "GradedOperator.add", "graded.add"),
    ("graded", "GradedOperator.compose", "graded.compose"),
    ("graded", "SparseMatrix.__eq__", "graded.eq"),
    ("graded", "GradedOperator.__eq__", "graded.eq"),
    ("lattice", "toda_monodromy", "lattice.toda_monodromy"),
    ("lattice", "periodic_transfer", "lattice.periodic_transfer"),
    ("lattice", "open_transfer", "lattice.open_transfer"),
    ("baxter_q", "ar_project_check", "baxter_q.ar_project_check"),
    ("baxter_q", "build_qmatrix", "baxter_q.build_qmatrix"),
    ("baxter_q", "trace_qmatrix", "baxter_q.trace_qmatrix"),
    ("baxter_q", "tq_check", "baxter_q.tq_check"),
    ("scalars", "tfact", "scalars.tfact"),
    ("scalars", "tpoch", "scalars.tpoch"),
    ("hall_littlewood", "hl_R", "hall_littlewood.hl_R"),
    ("hall_littlewood", "skew_P", "hall_littlewood.skew_P"),
    ("partitions", "partition_basis", "partitions.basis"),
    ("partitions", "occupation_basis", "partitions.basis"),
    ("partitions", "window_basis", "partitions.basis"),
    ("vertex_ops", "build_gamma", "vertex_ops.build_gamma"),
    ("vertex_ops", "gamma_commutation_check", "vertex_ops.gamma_commutation_check"),
    ("gaudin", "gaudin_sum", "gaudin.gaudin_sum"),
    ("bethe", "bethe_solve", "bethe.bethe_solve"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_matrix", "cli.matrix"),
    ("cli", "cmd_verify", "cli.verify"),
]

# (module, attribute, count name, span name or None): with a span name,
# only calls made while that span is the innermost open one are counted
COUNTS = [
    ("graded", "SparseMatrix.entry", "graded.entry", None),
    ("graded", "SparseMatrix.add_to", "graded.add_to", None),
    ("scalars", "tbinom", "scalars.tbinom", None),
    ("bethe", "bethe_vector", "bethe.bethe_vector", None),
    # gaudin_sum normalises each term it sums by one spin_state_norm call
    ("gaudin", "spin_state_norm", "gaudin.gaudin_sum.terms", "gaudin.gaudin_sum"),
]

PACKAGE = "integrable_lab"
ROOT = "pass"


def _asserted_columns(N, max_weight, max_len):
    """Source columns ar_project_check asserts: partitions with lam_1 <= N+1
    and N+1 units of headroom in both weight and length."""
    def count(weight, max_part, length):
        if weight == 0 or length == 0:
            return 1
        return 1 + sum(count(weight - p, p, length - 1)
                       for p in range(1, min(weight, max_part) + 1))
    head = N + 1
    if max_weight < head or max_len < head:
        return 0
    return count(max_weight - head, N + 1, max_len - head)


def _arguments(fn, args, kwargs):
    """A call's arguments by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Installs span/count wrappers on the lab's modules; see module doc."""

    def __init__(self):
        # index -> (name, start, end, parent index or -1); an open span
        # holds its name alone until it closes
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)   # quantities recorded by hooks
        self.tbinom_args = set()
        self._patches = []     # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _patch(self, module_name, attr, wrap):
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, wrap(original))
            return
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "graded.mul": self._hook_mul,
            "lattice.toda_monodromy": self._hook_monodromy,
            "baxter_q.ar_project_check": self._hook_ar_project,
            "partitions.basis": self._hook_basis,
            "bethe.bethe_solve": self._hook_bethe,
        }
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr,
                        lambda fn, name=name: self._span_wrapper(name, fn, hooks.get(name)))
        for module_name, attr, name, scope in COUNTS:
            self._patch(module_name, attr,
                        lambda fn, name=name, scope=scope: self._count_wrapper(name, fn, scope))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(name)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_wrapper(self, name, fn, scope=None):
        counts, spans, stack = self.counts, self.spans, self._stack
        if scope is not None:
            def wrapper(*args, **kwargs):
                if stack and spans[stack[-1]] == scope:
                    counts[name] += 1
                return fn(*args, **kwargs)
        elif name == "scalars.tbinom":
            seen = self.tbinom_args

            def wrapper(*args, **kwargs):
                counts[name] += 1
                seen.add(args + tuple(sorted(kwargs.items())))
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def root(self):
        """Span that every span of one pass descends from."""
        idx = len(self.spans)
        self.spans.append(ROOT)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1)

    # -- hooks: per-call quantities read from arguments and results ------

    def _hook_mul(self, fn, args, kwargs, result):
        self.sums["graded.mul.nnz_out"] += result.nnz()

    def _hook_monodromy(self, fn, args, kwargs, result):
        states = len(_arguments(fn, args, kwargs)["basis"])
        self.sums["lattice.toda_monodromy.window_states"] += states
        # the monodromy span has closed, so the stack holds its callers
        if any(self.spans[i] == "baxter_q.ar_project_check" for i in self._stack):
            self.sums["baxter_q.ar_project.window_states"] += states

    def _hook_ar_project(self, fn, args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        self.sums["baxter_q.ar_project.asserted_columns"] += \
            _asserted_columns(a["N"], a["max_weight"], a["max_len"])

    def _hook_basis(self, fn, args, kwargs, result):
        self.sums["partitions.basis.states"] += len(result)

    def _hook_bethe(self, fn, args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        if a["M"] > 0:  # M = 0 returns the empty root without seeding
            self.sums["bethe.bethe_solve.roots"] += len(result.roots)
            self.sums["bethe.bethe_solve.seeds"] += a["seeds"]

    # -- summaries -------------------------------------------------------

    def self_times(self):
        """name -> (self seconds, outermost inclusive seconds, span count)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, parent) in enumerate(spans):
            acc = out[name]
            acc[0] += (end - start) - child[i]
            acc[2] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # not nested in a span of the same name
                acc[1] += end - start
        return {name: tuple(v) for name, v in out.items()}


class GcMonitor:
    """Pause time and generation-2 collections, via gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = None

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self._start = None
            if info.get("generation") == 2:
                self.gen2 += 1

    @contextmanager
    def watching(self):
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)
