"""Span tracer wired, from outside the program, around the calls into each
coaodv_sim layer.

`Tracer` replaces every reference to a wired function that the coaodv_sim
modules hold, both module globals and values of module-level dicts such as
`sim._DISCOVER`, because the program calls through several of them (`cli`
imports the model functions by name, `protocol` imports `is_cooperative` by
name). Spans (name, parent, start, end) are kept in memory; a layer's self
time is its spans' durations minus the time covered by their child spans. A
wired function that no longer exists is recorded as absent, not an error, and
one that exists but is never called is reported, so the tracer cannot go
silently empty.
"""

from __future__ import annotations

import random
import sys
import types
from collections import Counter
from time import perf_counter

ROOT_SPAN = "compare"

# (module, function, layer). Layer None means counted only: these run too
# often, or too deep inside another layer, to be worth a span each.
WIRING = (
    ("model", "scenario_from_json", "model"),
    ("model", "validate_scenario", "model"),
    ("protocol", "_adjacency", "topology"),
    ("protocol", "exchange_hello", "hello"),
    ("protocol", "aodv_discover", "discovery"),
    ("protocol", "coaodv_discover", "discovery"),
    ("protocol", "completed_request", "discovery"),
    ("protocol", "_hops_to", None),
    ("coopmath", "is_cooperative", None),
    ("sim", "run", "data"),
    ("cli", "_metric_rows", "report"),
    ("cli", "_write_report", "report"),
)


def _observe(name: str, result, counts: Counter) -> None:
    """Count the work a call did, from what it returned."""
    if name == "scenario_from_json":
        counts["model.nodes"] = len(result.nodes)
    elif name == "_adjacency":
        counts["protocol.edges"] = sum(len(v) for v in result.values()) // 2
    elif name == "exchange_hello":
        flags = [e.coop_status for table in result.values() for e in table.entries.values()]
        counts["hello.coop_edges"] += sum(flags)
        counts["hello.directed_edges"] += len(flags)
    elif name == "coaodv_discover":
        counts["coaodv.found"] += 1
    elif name == "_hops_to":
        counts["protocol.bfs_visits"] += len(result)
    elif name == "run":
        counts["sim.packets_sent"] += result.packets_sent


def _package_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "coaodv_sim"]


class Tracer:
    """Context manager: while active, every wired call records a span or a
    count, and `random.Random` as the program sees it counts its draws."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self._draws = [0]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wiring ---------------------------------------------------------------

    def _replace(self, original, replacement) -> int:
        """Point every reference the program holds to `original` at
        `replacement`; return how many were replaced."""
        found = 0
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value, False))
                    setattr(mod, key, replacement)
                    found += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v, True))
                            value[k] = replacement
                            found += 1
        return found

    def __enter__(self):
        for module, name, layer in WIRING:
            fn = getattr(sys.modules.get(f"coaodv_sim.{module}"), name, None)
            if fn is None:
                self.absent.append(f"{module}.{name}")
                continue
            self.counts[f"calls.{name}"] = 0
            self._replace(fn, self._wrap(fn, name, layer))
        if not self._replace(random, self._counting_random_module()):
            self.absent.append("sim.random")
        return self

    @property
    def rng_draws(self) -> int:
        return self._draws[0]

    def __exit__(self, *exc):
        for container, key, value, is_dict in reversed(self._undo):
            if is_dict:
                container[key] = value
            else:
                setattr(container, key, value)
        self._undo.clear()
        return False

    def _wrap(self, fn, name: str, layer: str | None):
        counts = self.counts
        calls = f"calls.{name}"

        def observe(result):
            try:
                _observe(name, result, counts)
            except (AttributeError, TypeError):
                self.unobserved.add(name)

        if layer is None:

            def counted(*args, **kwargs):
                counts[calls] += 1
                result = fn(*args, **kwargs)
                observe(result)
                return result

            return counted

        def spanned(*args, **kwargs):
            counts[calls] += 1
            result = self.call(name, fn, *args, **kwargs)
            observe(result)
            return result

        return spanned

    def _counting_random_module(self) -> types.ModuleType:
        """A stand-in for the `random` module whose Random counts random()."""
        draws = self._draws

        class CountingRandom(random.Random):
            # Overriding random() would otherwise switch randrange() and
            # friends to a different draw sequence.
            _randbelow = random.Random._randbelow_with_getrandbits

            # Default arguments and a list cell keep the per-draw cost low.
            def random(self, _draws=draws, _base=random.Random.random):
                _draws[0] += 1
                return _base(self)

        shim = types.ModuleType("random")
        shim.__dict__.update(vars(random))
        shim.Random = CountingRandom
        return shim

    # -- spans ----------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) inside a span named `name`."""
        span = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def self_times(self) -> Counter:
        """Seconds of self time per layer; the root span's is 'other'."""
        layer_of = {name: layer for _, name, layer in WIRING}
        layer_of[ROOT_SPAN] = "other"
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, _, start, end), child in zip(self.spans, covered):
            out[layer_of[name]] += end - start - child
        return out

    def uncalled(self) -> list[str]:
        """Wired functions that exist but were never called."""
        prefix = "calls."
        return sorted(
            k[len(prefix):] for k, v in self.counts.items() if k.startswith(prefix) and v == 0
        )
