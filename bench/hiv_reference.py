"""Regenerate the crude Monte-Carlo reference of the temporal-hiv workload.

    python3 bench/hiv_reference.py --paths 20000000 --seed 900001

Estimates P(contact-tracing epidemic outlives T = 90) with ``epirare.cmc``
over batches of paths, batch b drawing from ``SeedSpec(seed, replication=b)``,
and prints the estimate with its binomial standard error.  The result is
stored in ``workloads.HIV_REFERENCE`` and ``workloads.HIV_REFERENCE_SE``.
"""

from __future__ import annotations

import argparse
import json
import math

from workloads import HIV_DESK, HIV_EVENT
from epirare.core import SeedSpec
from epirare.estimators import cmc

BATCH = 500_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.paths % BATCH:
        parser.error(f"--paths must be a multiple of {BATCH}")
    hits = 0
    for b in range(args.paths // BATCH):
        est = cmc(HIV_DESK, HIV_EVENT, BATCH, SeedSpec(args.seed, replication=b))
        hits += round(est.value * BATCH)
    p = hits / args.paths
    se = math.sqrt(p * (1.0 - p) / args.paths)
    print(json.dumps({"paths": args.paths, "seed": args.seed, "hits": hits,
                      "value": p, "std_error": se}))


if __name__ == "__main__":
    main()
