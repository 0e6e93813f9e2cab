"""Regenerate expected.json: the exact answers for the fixed instance banks.

    python3 perfbench/pin.py          # from the root of a checkout

The banks are fixed by inputs.BANK_SEED and each workload seed shows the
program an isomorphic copy, so these answers hold for every seed:
frontier -> [holds, omega, Delta]; witness_scan -> [generic found, HM found].
Run it only when a bank recipe changes, and review the diff.
"""

import json
import sys
from time import perf_counter

import run

run.import_program()
from ekrlab import hypergraph, verifier, witnesses  # noqa: E402

import inputs  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    pins = {"frontier": [], "witness_scan": []}
    for n, k, edges in inputs.base_bank(inputs.FRONTIER_RECIPES):
        H = hypergraph.parse_hypergraph(inputs.to_text(n, k, edges))
        t0 = perf_counter()
        v = verifier.verify_ekr(H, node_budget=wl.FRONTIER_BUDGET)
        print(f"frontier ({n},{k}) m={H.m}: {v.holds} {v.omega} {v.Delta} "
              f"{perf_counter() - t0:.3f} s", file=sys.stderr)
        pins["frontier"].append([v.holds, v.omega, v.Delta])
    for n, k, edges in inputs.base_bank(inputs.WITNESS_RECIPES):
        H = hypergraph.parse_hypergraph(inputs.to_text(n, k, edges))
        t0 = perf_counter()
        g = witnesses.find_generic_clique(H, wl.GENERIC_T, wl.GENERIC_ZETA,
                                          node_budget=wl.WITNESS_BUDGET)
        hm = witnesses.find_hilton_milner(H, wl.HM_D)
        print(f"witness ({n},{k}) m={H.m}: {g is not None} {hm is not None} "
              f"{perf_counter() - t0:.3f} s", file=sys.stderr)
        pins["witness_scan"].append([g is not None, hm is not None])
    with open(wl.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
