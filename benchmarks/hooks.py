"""Wrappers the benchmark puts around fblopt functions from its own files.

Nothing under src/ is edited: a hook replaces the target function in every
fblopt module namespace that holds it (callers look it up there at call
time) and restores the original when removed. A target that no longer
exists is reported as absent instead of failing the run.

EvalTimer is the only hook of the untraced runs. Tracer records a span at
each layer boundary of a serial run, plus a few counters.
"""

import importlib
import os
import pickle
import struct
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class _Patches:
    """Replaced attributes, remembered so they can be put back."""

    def __init__(self):
        self._saved = []

    def install(self, module_name, qualname, make_wrapper) -> bool:
        """Wrap module_name.qualname with make_wrapper(original).

        Returns False, and changes nothing, when the target is missing.
        """
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = vars(owner).get(attr)
        if raw is None:
            return False
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(owner, attr, make_wrapper(raw))
            return True
        wrapper = make_wrapper(raw)
        for name, module in list(sys.modules.items()):
            if name == "fblopt" or name.startswith("fblopt."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapper)
        return True

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class EvalTimer:
    """Times every scheme_dispatch call of one scheme.

    Each call appends (start, seconds) on the monotonic clock to a file
    opened in append mode before any pool starts, so forked pool workers
    write to it too; records are 16 bytes and each is one write call.
    """

    RECORD = struct.Struct("<dd")

    def __init__(self, path, scheme):
        self.path = str(path)
        self.scheme = scheme
        self._fd = None
        self._patches = _Patches()

    def __enter__(self):
        self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND | os.O_TRUNC)
        fd, scheme, record = self._fd, self.scheme, self.RECORD

        def make(dispatch):
            def timed(*args, **kwargs):
                if (args[0] if args else kwargs.get("scheme")) != scheme:
                    return dispatch(*args, **kwargs)
                start = time.monotonic()
                result = dispatch(*args, **kwargs)
                os.write(fd, record.pack(start, time.monotonic() - start))
                return result

            return timed

        if not self._patches.install("fblopt.harness", "scheme_dispatch", make):
            os.close(self._fd)
            raise RuntimeError("fblopt.harness.scheme_dispatch not found; cannot time evaluations")
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        os.close(self._fd)

    def clear(self):
        os.ftruncate(self._fd, 0)

    def records(self):
        """(start, seconds) pairs written so far."""
        with open(self.path, "rb") as fh:
            return list(self.RECORD.iter_unpack(fh.read()))


# Span hooks: (span name, module, qualname). Each is a layer boundary.
SPANS = (
    ("harness.trial", "fblopt.harness", "_run_trial"),
    ("harness.scheme_dispatch", "fblopt.harness", "scheme_dispatch"),
    ("channel.sample_realization", "fblopt.channel", "sample_realization"),
    ("error_assignment.from_caps", "fblopt.error_assignment", "SortedQosProfile.from_caps"),
    ("error_assignment.optimal_errors", "fblopt.error_assignment", "optimal_errors"),
    ("error_assignment.beta_k", "fblopt.error_assignment", "beta_k"),
    ("kernels.q_inverse", "fblopt.kernels", "q_inverse"),
    ("power.solve_power", "fblopt.power", "solve_power"),
    ("power.alm_run", "fblopt.power", "_alm_run"),
    ("power.spg", "fblopt.power", "_spg"),
    ("power.water_filling", "fblopt.power", "water_filling"),
    ("power.sr_infinity", "fblopt.power", "sr_infinity"),
    ("joint.solve_joint", "fblopt.joint", "solve_joint"),
    ("joint.alternate", "fblopt.joint", "_alternate"),
    ("joint.make_report", "fblopt.joint", "make_report"),
    ("cli.emit_csv", "fblopt.cli", "emit_csv"),
    ("cli.write_manifest", "fblopt.cli", "write_manifest"),
)

# Count-only hooks, too frequent for a span each: (counter, module, qualname).
COUNTS = (
    ("power.objective", "fblopt.power", "_PowerObjective.value"),
    ("power.objective", "fblopt.power", "_PowerObjective.grad"),
)


class Tracer:
    """Spans and counters of one serial run, kept in memory.

    A span is (name, start, end, parent index, evaluation index); the
    evaluation index is that of the enclosing harness.trial span. Besides
    call counts, `tally` holds quantities read from arguments and results:
    q_inverse input sizes, SPG iterations, alternations, silent-start wins,
    first-start wins and pickled task bytes. A tally whose source changed
    shape is listed in `unreadable` rather than guessed.
    """

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.tally = Counter()
        self.unreadable = set()
        self.dispatch_ms = defaultdict(list)
        self.absent = []
        self._stack = []
        self._alm_results = []
        self._eval = -1
        self._patches = _Patches()

    def __enter__(self):
        for name, module, qualname in SPANS:
            if not self._patches.install(module, qualname, self._span(name)):
                self.absent.append(name)
        for name, module, qualname in COUNTS:
            if not self._patches.install(module, qualname, self._count(name)):
                self.absent.append(name)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _read(self, key, fn):
        try:
            self.tally[key] += fn()
        except (TypeError, IndexError, AttributeError):
            self.unreadable.add(key)

    def _before(self, name, args):
        if name == "harness.trial":
            self._eval += 1
            self._read("task_bytes", lambda: len(pickle.dumps(args[0])))
        elif name == "kernels.q_inverse":
            self._read("q_inverse_values", lambda: np.size(args[0]))
        elif name == "power.solve_power":
            self._alm_results.append([])

    def _after(self, name, args, result, seconds):
        if name == "power.alm_run" and self._alm_results:
            self._alm_results[-1].append(result)
        elif name == "power.solve_power":
            runs = self._alm_results.pop()
            if runs:
                self.tally["solves_with_alm"] += 1
                self.tally["first_start_wins"] += result is runs[0]
        elif name == "power.spg":
            self._read("spg_iters", lambda: int(result[2]))
        elif name == "joint.alternate":
            self._read("alternations", lambda: int(result[5]))
        elif name == "joint.solve_joint":
            self._read("silent_start_wins", lambda: "silent_start" in result.flags)
        elif name == "harness.scheme_dispatch":
            self.dispatch_ms[args[0]].append(seconds * 1e3)

    def _span(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                self.calls[name] += 1
                self._before(name, args)
                parent = self._stack[-1] if self._stack else -1
                index = len(self.spans)
                self.spans.append(None)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    if name == "power.solve_power":
                        self._alm_results.pop()
                    raise
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent, self._eval)
                self._after(name, args, result, end - start)
                return result

            return traced

        return make

    def _count(self, name):
        def make(fn):
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def self_seconds(self):
        """Total self time per span name: span time minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out
