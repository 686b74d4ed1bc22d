"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public callables of each padicmult module, and
the references other modules hold to them, with recorders.  A span records
its name, start, end and parent span in memory, in thread CPU time like the
timed rounds; ``Tracer.write`` writes them out as JSON lines at the end.  A
span's self time is its duration minus the time its direct child spans
cover.  Hot constructors get a plain counter instead of a span.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name); "Class.method" patches the class
SPANS = [
    ("operators", "TruncatedOp.apply", "operators.apply"),
    ("operators", "TruncatedOp.compose", "operators.compose"),
    ("operators", "TruncatedOp.adjoint", "operators.adjoint"),
    ("operators", "TruncatedOp.build", "operators.build"),
    ("operators", "TruncatedOp.__eq__", "operators.eq"),
    ("operators", "TruncatedOp.range_fixed_points", "operators.range_fixed_points"),
    ("functions", "alpha_endo", "functions.endo"),
    ("functions", "beta_endo", "functions.endo"),
    ("representations", "build_orbit_rep", "representations.build"),
    ("representations", "build_cyclic_rep", "representations.build"),
    ("representations", "build_digit_rep", "representations.build"),
    ("representations", "build_hs_rep", "representations.build"),
    ("representations", "intertwiner", "representations.build"),
    ("representations", "window_shift", "representations.build"),
    ("representations", "check_covariance", "representations.check_covariance"),
    ("representations", "check_matrix_units", "representations.check_matrix_units"),
    ("representations", "canonical_words", "representations.canonical_words"),
    ("representations", "orbit_decompose", "representations.orbit_decompose"),
    ("unit_groups", "quotient_group", "unit_groups.quotient_group"),
    ("unit_groups", "subgroup", "unit_groups.subgroup"),
    ("unit_groups", "unit_order", "unit_groups.unit_order"),
    ("unit_groups", "unit_order_naive", "unit_groups.unit_order_naive"),
    ("unit_groups", "find_nr", "unit_groups.find_nr"),
    ("unit_groups", "find_primitive_root", "unit_groups.find_primitive_root"),
    ("classification", "classify", "classification.classify"),
    ("ktheory", "algebra_k_groups", "ktheory.k_groups"),
    ("ktheory", "primed_algebra_k_groups", "ktheory.k_groups"),
    ("ktheory", "ideal_k_groups", "ktheory.k_groups"),
    ("ktheory", "hs_k_groups", "ktheory.k_groups"),
    ("padic", "teichmuller", "padic.teichmuller"),
    ("unit_groups", "factorint", "sympy.factorint"),
]

# (module, attribute, counter name): counted, not timed
COUNTERS = [
    ("scalars", "Scalar.__post_init__", "scalars.created"),
    ("functions", "LocallyConstantFn.__post_init__", "functions.created"),
    ("padic", "as_prime", "padic.as_prime.calls"),
    ("padic", "multiplier_residue", "padic.multiplier_residue.calls"),
    ("padic", "isprime", "sympy.isprime.calls"),
]


def _result_counts(name: str, result, counts: Counter) -> None:
    if name == "unit_groups.quotient_group":
        counts["unit_groups.quotient_group.table_cells"] += sum(len(row) for row in result.table)
    elif name == "unit_groups.subgroup":
        counts["unit_groups.subgroup.elements"] += len(result.elements)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- recorders -------------------------------------------------------------

    def _span(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, starts, ends, parents, stack = (
            self.span_name, self.starts, self.ends, self.parents, self.stack
        )
        counts = self.counts
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            index = len(starts)
            span_name.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            _result_counts(name, result, counts)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self, package, suites: dict) -> None:
        """Wrap every listed callable of `package`, and `suites` (the verify
        suite table) entry by entry as verify.<suite> spans."""
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        for module_name, attr, name in SPANS:
            module = sys.modules[f"{prefix}.{module_name}"]
            self._patch(modules, module, attr, lambda fn, name=name: self._span(name, fn))
        for module_name, attr, name in COUNTERS:
            module = sys.modules[f"{prefix}.{module_name}"]
            self._patch(modules, module, attr, lambda fn, name=name: self._counter(name, fn))
        for suite, fn in list(suites.items()):
            suites[suite] = self._span(f"verify.{suite}", fn)
            self._restore.append((suites.__setitem__, suite, fn))

    def _patch(self, modules, module, attr: str, make) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            setattr(cls, method, replacement)
            self._restore.append((setattr, cls, method, original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    self._restore.append((setattr, other, key, original))

    def uninstall(self) -> None:
        for action, *args in reversed(self._restore):
            action(*args)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of spans, total duration, self time."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        covered = [0.0] * len(self.starts)
        for index in range(len(self.starts) - 1, -1, -1):
            duration = self.ends[index] - self.starts[index]
            parent = self.parents[index]
            if parent >= 0:
                covered[parent] += duration
            name = self.names[self.span_name[index]]
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - covered[index]
        return calls, total, self_time

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w") as out:
            for index in range(len(self.starts)):
                out.write(json.dumps({
                    "id": index,
                    "name": self.names[self.span_name[index]],
                    "start_us": round((self.starts[index] - origin) * 1e6, 3),
                    "end_us": round((self.ends[index] - origin) * 1e6, 3),
                    "parent": self.parents[index],
                }) + "\n")
