"""In-memory spans around the public functions of each ``stefan`` module.

The benchmark process replaces each traced function under every name a
``stefan`` module holds it by (``stefan.optimize.energy``,
``stefan.kernel.log_gap``, ...), so calls made inside the library are
seen too; library files are never edited.  A span keeps its name, start,
end and parent; spans stay in memory and are written as one JSON file
when the run ends.  Standard library only, so a traced CLI process
imports nothing ``stefan`` does not.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# kernel.log_gap calls with both ends beyond this take the log-space branch
TAIL_SWITCH = 6.0


def _log_gap_tail(tracer, idx, args, result):
    if args[0] >= TAIL_SWITCH or args[1] <= -TAIL_SWITCH:
        tracer.tail_calls += 1


def _minimize_info(tracer, idx, args, result):
    tracer.extra[idx] = [len(args[0].d), result.iterations, result.status.value]


# (module, function, hook run after each call or None); the span is named
# "<layer>.<function>"
TARGETS = (
    ("stefan.kernel", "cdf", None),
    ("stefan.kernel", "pdf", None),
    ("stefan.kernel", "log_pdf", None),
    ("stefan.kernel", "log_gap", _log_gap_tail),
    ("stefan.energy", "check_wellposedness", None),
    ("stefan.energy", "energy", None),
    ("stefan.energy", "gradient", None),
    ("stefan.energy", "hessian_parts", None),
    ("stefan.energy", "hessian", None),
    ("stefan.optimize", "minimize", _minimize_info),
    ("stefan.optimize", "newton_step", None),
    ("stefan.solution", "assemble", None),
    ("stefan.solution", "validate", None),
    ("stefan.solution", "evaluate_profile", None),
)
ROOT = "problem"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m.split('.')[-1]}.{f}" for m, f, _ in TARGETS]
        self.name = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra = {}
        self.tail_calls = 0
        self._stack = [-1]
        self._patched = []

    def __len__(self):
        return len(self.name)

    def span(self, name_id, fn, info=None):
        """fn wrapped so that every call records one span."""
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if info is not None:
                info(self, idx, args, result)
            return result

        return traced

    def root(self, fn):
        """Run fn() inside the root span of one problem."""
        return self.span(0, fn)()

    def install(self):
        """Patch every stefan module attribute that holds a traced function."""
        modules = [m for k, m in list(sys.modules.items()) if k == "stefan" or k.startswith("stefan.")]
        for name_id, (mod_name, fn_name, info) in enumerate(TARGETS, start=1):
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.span(name_id, original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "extra": {str(k): v for k, v in self.extra.items()},
                    "log_gap_tail_calls": self.tail_calls,
                },
                fh,
            )
