"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions of the `bek` layers with timing
wrappers, at every module attribute that names them (the defining module
and each module that imported the name), and puts the originals back on
exit.  It never edits a file of the program.

Spans are aggregated as they close rather than stored one by one: the
sweep makes more than a million kernel calls, and a list of that many
span records would dwarf the program's own memory.  Each wrapper keeps,
per function, the call count, the inclusive time (sum of span lengths)
and the self time (span length minus the part covered by child spans).
The self times of all wrapped functions, plus the time outside any span,
add up to the traced wall time by construction, so that sum checks
nothing.  What can go wrong is attribution: `bek` code that no wrapper
names runs inside an enclosing span and is counted as that span's self
time.  The spans in CATCH_ALL_SPANS enclose other layers, and their self
time is reported under a narrow name (`cli.run`'s as `cli.emit.s`,
serialization; `identities.verify`'s as `identities.compare.s`) or not at
all (the umbral verifiers).  The closure check bounds their self times
together, `trace.catch_all_s`, by CATCH_ALL_SHARE of the traced wall time;
when a change moves work into unwrapped code, the share grows and the
check fails, which says a wrapper is missing.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

# Public functions per layer, as (layer, function name).  Every module of
# the package that holds one of these names gets it replaced.
LAYER_FUNCTIONS: tuple[tuple[str, str], ...] = (
    ("cli", "run"),
    ("exactmath", "poly_mul"),
    ("exactmath", "poly_add"),
    ("exactmath", "poly_sub"),
    ("exactmath", "poly_scale"),
    ("exactmath", "poly_shift"),
    ("exactmath", "pochhammer"),
    ("sequences", "bernoulli_number"),
    ("sequences", "euler_number"),
    ("sequences", "genocchi_number"),
    ("sequences", "euler_poly_at_zero"),
    ("sequences", "bernoulli_poly"),
    ("sequences", "euler_poly"),
    ("identities", "verify"),
    ("umbral", "umbral_pow"),
    ("umbral", "umbral_eval"),
    ("umbral", "apply_delta"),
    ("umbral", "verify_lemma1"),
    ("umbral", "verify_lemma2"),
    ("umbral", "verify_lemma3"),
    ("umbral", "verify_lemma4"),
    ("umbral", "verify_general_f"),
    ("umbral", "verify_annihilation"),
    ("stochastic", "dirichlet_moment_mc"),
    ("stochastic", "dirichlet_moment_exact"),
    ("stochastic", "block_generator"),
)

# Operators of the umbral expression algebra, as (layer, class, method):
# the verifiers sum and scale whole expressions, outside umbral_pow.
LAYER_METHODS: tuple[tuple[str, str, str], ...] = (
    ("umbral", "UmbralExpr", "__add__"),
    ("umbral", "UmbralExpr", "__mul__"),
)

MODULES = ("cli", "identities", "sequences", "umbral", "stochastic", "exactmath")

CATCH_ALL_SPANS = (
    "cli.run",
    "identities.verify",
    "umbral.verify_lemma1",
    "umbral.verify_lemma2",
    "umbral.verify_lemma3",
    "umbral.verify_lemma4",
    "umbral.verify_general_f",
    "umbral.verify_annihilation",
)
CATCH_ALL_SHARE = 0.05


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    extra: int = 0


class Tracer:
    """Aggregating span recorder; one per traced process."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {}
        # child-time accumulators, one per open span plus the root
        self._stack: list[float] = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """A wrapper recording every call of `fn` under `name`.

        `on_call(args, result)` returns an int added to the span's `extra`
        counter (coefficient products, monomials produced, ...).
        """
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stack[-1] += span
                stat.calls += 1
                stat.total += span
                stat.self_time += span - child
            if on_call is not None:
                stat.extra += on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_layers(self, counters: dict[str, Callable]) -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever a `bek` module names it,
        and every LAYER_METHODS entry on its class."""
        for layer, fname in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"bek.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", original, counters.get(fname))
            for mod_name in MODULES:
                module = sys.modules[f"bek.{mod_name}"]
                if getattr(module, fname, None) is original:
                    self._patched.append((module, fname, original))
                    setattr(module, fname, wrapper)
        for layer, cls_name, method in LAYER_METHODS:
            cls = getattr(sys.modules[f"bek.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", original))

    def restore(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def self_total(self) -> float:
        return sum(s.self_time for s in self.stats.values())

    def catch_all_s(self) -> float:
        """Self time of the CATCH_ALL_SPANS, together."""
        return sum(self.stat(name).self_time for name in CATCH_ALL_SPANS)

    def stat(self, name: str) -> SpanStat:
        return self.stats.get(name, SpanStat())
