#!/usr/bin/env python3
"""Reproduce the orbit-count table for Z_p^2 actions at n = 3.

For each prime, counts the relabeling orbits of the parameter space two
ways, the explicit partition and the keyless Burnside count (route B),
and prints a row.  ``classify_orbits`` raises VerificationError if the
two counts differ, so ``python -O`` checks them too; the script then
prints the error and exits 3, as the ``zpaction`` command does.
"""

import argparse
import sys

from zpaction.enumeration import ActionParams, VerificationError
from zpaction.classify import classify_orbits
from zpaction.hgroup import symmetric_group

DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 113)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default=",".join(map(str, DEFAULT_PRIMES)))
    args = parser.parse_args()
    s4 = symmetric_group(4)
    print("p     |F|     N")
    for p in (int(tok) for tok in args.primes.split(",")):
        try:
            report = classify_orbits(ActionParams(p, 3, 2), s4)
        except VerificationError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 3
        print(f"{p:<5d} {len(report.keys):<7d} {report.count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
