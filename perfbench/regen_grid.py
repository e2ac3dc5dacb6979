"""Print the sweep grid listing from the registry's current default grids.

    python3 perfbench/regen_grid.py > perfbench/sweep_grid.json

The sweep workload reads the committed listing, not the registry, so a
later change to the program's default grids changes neither the workload
nor its figures until this command is run again and the result committed.
One line per `bek verify` invocation: identity, k, parameters as exact
"p/q" text, the n values, and the display labels each point reports.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from workloads import import_bek


def _param_text(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            out[key] = [str(Fraction(v)) for v in value]
        else:
            out[key] = str(Fraction(value))
    return out


def grid_listing() -> list[dict]:
    identities = import_bek().identities
    listing = []
    for entry in identities.REGISTRY.values():
        for k in entry.default_ks or (None,):
            ns = list(entry.default_n(k))
            for params in entry.default_param_sets(k):
                point = {"n": ns[0], **({"k": k} if k is not None else {}), **params}
                displays = [label for label, _, _ in entry.evaluate(point)]
                listing.append({
                    "identity": entry.name,
                    "k": k,
                    "params": _param_text(params),
                    "n": ns,
                    "displays": displays,
                })
    return listing


def main() -> int:
    rows = grid_listing()
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
