#!/usr/bin/env python3
"""Class counts for the two n = 5 one-dimensional families with extra
automorphisms (threefold and Klein-four symmetry).

Prints the predicted count per prime and, inside the exhaustive range,
recomputes it from scratch and checks agreement.  A disagreement raises
VerificationError, so ``python -O`` checks it too; the script then prints
the error and exits 3, as the ``zpaction`` command does.
"""

import argparse
import sys

from zpaction.enumeration import ActionParams, VerificationError
from zpaction.classify import classify_triples
from zpaction.predictions import case_group, predicted_triple_count

TABLES = {
    "d3": ("N5_D3", (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    "k4": ("N5_K4", (2, 3, 5, 7, 11, 13, 17, 19, 23)),
}


def print_table(label, case, primes, exhaustive_limit):
    """Print one family's rows; raises VerificationError when two routes disagree."""
    group = case_group(case)
    print(f"== {label} family, normalizer order "
          f"{classify_triples(ActionParams(2, 5, 2), group, 'predicted').normalizer.order}")
    print("p     N     |C|    checked")
    for p in primes:
        res = classify_triples(ActionParams(p, 5, 2), group, mode="predicted")
        if res.count != (formula := predicted_triple_count(case, p)):
            raise VerificationError(f"{label} p={p}: {res.count} classes, closed form {formula}")
        checked = ""
        if p <= exhaustive_limit:
            full = classify_triples(ActionParams(p, 5, 2), group, mode="exhaustive")
            if full.count != res.count or full.invariant != res.invariant:
                raise VerificationError(f"{label} p={p}: exhaustive and predicted routes differ")
            checked = "exhaustive-ok"
        print(f"{p:<5d} {res.count:<5d} {len(res.invariant):<6d} {checked}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exhaustive-limit", type=int, default=13,
                        help="largest prime to re-check exhaustively")
    args = parser.parse_args()
    try:
        for label, (case, primes) in TABLES.items():
            print_table(label, case, primes, args.exhaustive_limit)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
