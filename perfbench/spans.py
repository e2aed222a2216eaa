"""Span wrappers around the public functions of each hspeed layer.

A span is opened when a wrapped function is entered (or, for a generator
function, each time the consumer asks it for the next item) and closed
when it returns or raises.  A layer's self time is the sum of its spans
minus the time covered by spans nested inside them, so the self times of
all layers add up to the time spent inside any span.

Each wrapper is installed in every module namespace that binds the
original object, because hspeed modules import names from one another
(``canonical_data`` is bound in ``hspeed.property``, ``hspeed.structures``
and ``hspeed.components``); patching only the defining module would let
those calls escape their spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) -> layer, for layers that are single functions
NAMED = {
    ("hspeed.canon", "canonical_data"): "canon",
    ("hspeed.structures", "induced_substructure"): "structures.induced",
    ("hspeed.structures", "apply_bijection"): "structures.bijection",
    ("hspeed.oscillate", "max_subgraph_density"): "oscillate.density",
    ("hspeed.oscillate", "max_subgraph_density_brute"): "oscillate.density",
    ("hspeed.oscillate", "in_P"): "oscillate.in_p",
    ("hspeed.oscillate", "sample_dense_member"): "oscillate.sample",
    ("hspeed.oscillate", "build_sequence"): "oscillate.sequence",
    ("hspeed.cli", "main"): "cli",
}
# private helpers that belong to a named layer; skipped if a later version drops them
OPTIONAL = {
    ("hspeed.oscillate", "_verify_p_membership"): "oscillate.in_p",
}
# layers made of every public function a module defines
WHOLE_MODULES = {
    "hspeed.property": "property",
    "hspeed.template": "template",
    "hspeed.simclass": "simclass",
    "hspeed.components": "components",
    "hspeed.arrays": "arrays",
}


class Tracer:
    """Accumulates per-layer calls and self time for the spans it wraps."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.classes = 0  # canonical classes yielded by generate_levels
        self.sample_draws = 0
        self.sample_accepted = 0
        self._child = []  # time covered by nested spans, one entry per open span

    def _close(self, layer: str, start: float):
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - self._child.pop()
        if self._child:
            self._child[-1] += elapsed

    def wrap(self, layer: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            counts_classes = fn.__name__ == "generate_levels"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._child.append(0.0)
                    start = tracer.clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(layer, start)
                    if counts_classes:
                        tracer.classes += len(item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer._child.append(0.0)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(layer, start)

        if layer == "oscillate.sample":
            return self._count_draws(fn, wrapper)
        return wrapper

    def _count_draws(self, fn, wrapper):
        """Count sampler draws: a success took cert.attempts, a give-up took max_attempts."""
        signature = inspect.signature(fn)
        gave_up = sys.modules["hspeed.errors"].SampleBudgetExceeded

        @functools.wraps(fn)
        def sample_wrapper(*args, **kwargs):
            try:
                cert = wrapper(*args, **kwargs)
            except gave_up:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.sample_draws += bound.arguments["max_attempts"]
                raise
            self.sample_draws += cert.attempts
            self.sample_accepted += 1
            return cert

        return sample_wrapper

    def install(self):
        """Replace every traced function in every loaded hspeed module namespace."""
        targets = {}
        for (mod_name, attr), layer in list(NAMED.items()) + list(OPTIONAL.items()):
            module = sys.modules[mod_name]
            if not hasattr(module, attr):
                if (mod_name, attr) in NAMED:
                    raise AttributeError(f"{mod_name}.{attr} is gone; update perfbench/spans.py")
                continue
            targets[id(getattr(module, attr))] = (getattr(module, attr), layer)
        for mod_name, layer in WHOLE_MODULES.items():
            module = sys.modules[mod_name]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod_name and id(value) not in targets):
                    targets[id(value)] = (value, layer)
        wrappers = {key: self.wrap(layer, fn) for key, (fn, layer) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "hspeed" or mod_name.startswith("hspeed.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    setattr(module, attr, wrappers[id(value)])
