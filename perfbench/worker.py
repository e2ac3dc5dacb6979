"""One benchmark round in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--probe]

Started by run.py, never by hand.  The process imports `bek` from the
source tree, stamps the monotonic clock (the parent turns the stamp into
set-up time), runs one round of the workload, records its wall time and
peak resident set, checks the output and prints one JSON line.  With
--probe it stops after the import.  With --trace the round runs with the
layer wrappers of spans.py installed, and the line also carries the
per-layer figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time

from workloads import WORKLOADS, import_bek

# The parent starts the set-up clock before it spawns this process.
bek = import_bek()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

from checks import CHECKERS  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SLICES, SpeedSampler, reference_slice  # noqa: E402


def peak_rss_mb() -> float:
    """VmHWM of this process: unlike ru_maxrss it does not carry over the
    parent's peak across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class _MaxIndex:
    """Highest index asked of each sequence function, for table_entries."""

    def __init__(self) -> None:
        self.top: dict[str, int] = {}

    def counter(self, name: str):
        def on_call(args, result) -> int:
            if args[0] > self.top.get(name, -1):
                self.top[name] = args[0]
            return 0

        return on_call


SEQUENCE_FUNCTIONS = ("bernoulli_number", "euler_number", "genocchi_number",
                      "euler_poly_at_zero", "bernoulli_poly", "euler_poly")
UMBRAL_VERIFIERS = ("verify_lemma1", "verify_lemma2", "verify_lemma3", "verify_lemma4",
                    "verify_general_f", "verify_annihilation")


def traced_round(workload, inputs) -> tuple[list, SpeedSampler, float, dict]:
    """Run one round under the tracer; returns outputs, timing, rss, figures.

    Span times are raw seconds.  They include the speed sampler's slices
    (about 1% of the round), which run inside whatever span is open.
    `trace.unattributed_s` is the round's wall time minus all self times:
    the benchmark's own loop, small by construction.  `trace.catch_all_s`
    is the figure the closure check in spans.py bounds.
    """
    tracer = Tracer()
    top = _MaxIndex()
    counters = {
        "poly_mul": lambda args, result: len(args[0]) * len(args[1]),
        "umbral_pow": lambda args, result: len(result.terms),
        **{name: top.counter(name) for name in SEQUENCE_FUNCTIONS},
    }
    registry = {
        name: dataclasses.replace(spec, evaluate=tracer.wrap(f"identities.eval.{name}", spec.evaluate))
        for name, spec in bek.identities.REGISTRY.items()
    }
    tracer.patch_layers(counters)
    try:
        with SpeedSampler(*SLICES[workload.slice]) as sampler:
            outputs = workload.run(bek, inputs, registry)
    finally:
        tracer.restore()
    rss = peak_rss_mb()

    def total(name: str) -> float:
        return tracer.stat(name).total

    entry_s = {name: total(f"identities.eval.{name}") for name in registry}
    caches = (bek.identities._bern_product.cache_info(), bek.identities._euler_product.cache_info())
    figures = {
        "exactmath.poly_mul.calls": tracer.stat("exactmath.poly_mul").calls,
        "exactmath.poly_mul.s": total("exactmath.poly_mul"),
        "exactmath.poly_mul.coeff_products": tracer.stat("exactmath.poly_mul").extra,
        "exactmath.poly_add.calls": tracer.stat("exactmath.poly_add").calls + tracer.stat("exactmath.poly_sub").calls,
        "exactmath.poly_add.s": total("exactmath.poly_add") + total("exactmath.poly_sub"),
        "exactmath.poly_scale.s": total("exactmath.poly_scale"),
        "exactmath.poly_shift.s": total("exactmath.poly_shift"),
        "exactmath.pochhammer.calls": tracer.stat("exactmath.pochhammer").calls,
        "exactmath.pochhammer.s": total("exactmath.pochhammer"),
        **{f"sequences.{name}.s": total(f"sequences.{name}") for name in SEQUENCE_FUNCTIONS},
        "sequences.table_entries": sum(n + 1 for n in top.top.values()),
        **{f"identities.eval_s.{name}": s for name, s in entry_s.items()},
        "identities.verify.s": total("identities.verify"),
        "identities.compare.s": tracer.stat("identities.verify").self_time,
        "identities.product_cache.hits": sum(c.hits for c in caches),
        "identities.product_cache.misses": sum(c.misses for c in caches),
        "identities.slowest_entry_s": max(entry_s.values()),
        "identities.warm_sweep_s": 0.0,  # set by main() on the sweep
        "umbral.umbral_pow.calls": tracer.stat("umbral.umbral_pow").calls,
        "umbral.umbral_pow.s": total("umbral.umbral_pow"),
        "umbral.umbral_pow.terms": tracer.stat("umbral.umbral_pow").extra,
        "umbral.umbral_eval.s": total("umbral.umbral_eval"),
        "umbral.apply_delta.s": total("umbral.apply_delta"),
        "umbral.expr_add.s": total("umbral.UmbralExpr.__add__"),
        "umbral.expr_mul.s": total("umbral.UmbralExpr.__mul__"),
        **{f"umbral.{name}.s": total(f"umbral.{name}") for name in UMBRAL_VERIFIERS},
        "stochastic.dirichlet_moment_mc.s": total("stochastic.dirichlet_moment_mc"),
        "stochastic.blocks": tracer.stat("stochastic.block_generator").calls,
        "stochastic.block_generator.s": total("stochastic.block_generator"),
        "stochastic.dirichlet_moment_exact.s": total("stochastic.dirichlet_moment_exact"),
        "cli.run.s": total("cli.run"),
        "cli.emit.s": tracer.stat("cli.run").self_time,
        "trace.wall_s": sampler.wall_s,
        "trace.unattributed_s": sampler.wall_s - tracer.self_total(),
        "trace.catch_all_s": tracer.catch_all_s(),
    }
    return outputs, sampler, rss, figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    reference_slice()
    result: dict = {"ready": READY, "ready_slice": reference_slice()}
    if args.probe:
        print(json.dumps(result))
        return 0
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.trace:
        outputs, sampler, rss, figures = traced_round(workload, inputs)
        if args.workload == "sweep":
            # A second pass in the same process, untraced, on warm caches;
            # in reference seconds, like the end-to-end wall time.
            with SpeedSampler(*SLICES[workload.slice]) as warm_sampler:
                warm = workload.run(bek, inputs)
            figures["identities.warm_sweep_s"] = warm_sampler.reference_s
            if warm != outputs:
                result.setdefault("errors", []).append("sweep: warm pass output differs")
        result["figures"] = figures
    else:
        with SpeedSampler(*SLICES[workload.slice]) as sampler:
            outputs = workload.run(bek, inputs)
        rss = peak_rss_mb()
    verdict = CHECKERS[args.workload](inputs, outputs, args.seed)
    result.update(
        wall=sampler.raw_s,
        wall_ref=sampler.reference_s,
        slice_s=statistics.median(sampler.slices),
        rss_mb=rss,
        items=workload.items(inputs),
        attempted=verdict.attempted,
        failed=verdict.failed,
        errors=result.get("errors", []) + verdict.errors,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
