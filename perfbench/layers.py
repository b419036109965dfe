"""Per-layer self time and call counts for the benchmark's traced runs.

:class:`LayerTrace` wraps the public entry point of each in-process
layer from the outside, by replacing the class attribute or module
binding for the duration of one traced pass, so the program itself
carries no tracing code and untraced passes run the unmodified
functions.  Each wrapped call pushes a frame; on return its elapsed
time is charged to its layer minus the time of the wrapped calls made
inside it (self time), and the elapsed time is added to the caller's
child time.  Layers nest the same way the program calls them::

    api.diagnose
      -> LeastInterleavingFirstSearch.search / CausalityAnalysis.analyze
        -> ScheduleExecutionEngine.shape_plan / .run / .run_plan
          -> ScheduleController.run          (RunResult.signature_hash)
            -> KernelMachine.step, snapshot_machine / restore_machine
"""

import functools
import sys
import time
from collections import Counter, defaultdict


def _targets():
    """(layer name, owner, attribute) for every wrapped entry point.

    Module-level functions are bound under their own name in every
    module that imported them, so each binding is replaced.
    """
    from repro import api
    from repro.core.causality import CausalityAnalysis
    from repro.core.lifs import LeastInterleavingFirstSearch
    from repro.engine.engine import ScheduleExecutionEngine
    from repro.hypervisor.controller import RunResult, ScheduleController
    from repro.kernel import snapshot
    from repro.kernel.machine import KernelMachine

    targets = [
        ("lifs", LeastInterleavingFirstSearch, "search"),
        ("ca", CausalityAnalysis, "analyze"),
        ("policy", ScheduleExecutionEngine, "shape_plan"),
        ("engine", ScheduleExecutionEngine, "run"),
        ("engine", ScheduleExecutionEngine, "run_plan"),
        ("controller", ScheduleController, "run"),
        ("signature", RunResult, "signature_hash"),
        ("kernel", KernelMachine, "step"),
    ]
    functions = [("api", api.diagnose),
                 ("snapshot.capture", snapshot.snapshot_machine),
                 ("snapshot.restore", snapshot.restore_machine)]
    for layer, fn in functions:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        targets.append((layer, module, attr))
    return targets


class LayerTrace:
    """Accumulates self time and calls per layer across traced passes."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn):
        clock = time.perf_counter
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def __enter__(self):
        for layer, owner, attr in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def total_self_s(self):
        return sum(self.self_s.values())
