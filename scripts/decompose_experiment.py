#!/usr/bin/env python3
"""Empirical success rate of the constructive decomposition pipeline on
sampled simple d-regular graphs.

Usage: python scripts/decompose_experiment.py [--n 400] [--d 6] [--k 4]
       [--trials 10] [--seed 0]
"""

import argparse
import time

from stardecomp.decomp import DecompositionFailed, decompose, verify_decomposition
from stardecomp.graphs import sample_simple


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ok = 0
    t0 = time.time()
    for trial in range(args.trials):
        seed = args.seed + trial
        g, tries = sample_simple(args.n, args.d, seed)
        try:
            sd = decompose(g, args.k, seed=seed)
        except DecompositionFailed as exc:
            print(f"seed {seed}: FAILED at {exc.stage} ({exc.detail})")
            continue
        valid, diagnostics = verify_decomposition(g, sd)
        status = "ok" if valid else f"INVALID: {diagnostics}"
        print(f"seed {seed}: {len(sd.centers)} stars, "
              f"leftover {len(sd.pairs)}, sampler tries {tries}: {status}")
        ok += valid
    print(f"{ok}/{args.trials} verified decompositions "
          f"in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
