#!/usr/bin/env python3
"""Reproduce the orbit-count table for Z_p^2 actions at n = 3.

For each prime, counts the relabeling orbits of the parameter space two
ways (explicit partition and Burnside average) and prints a row; the two
counts are asserted equal.
"""

import argparse

from zpaction.enumeration import ActionParams, KeySet
from zpaction.classify import burnside_count_full, orbit_partition
from zpaction.hgroup import symmetric_group

DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 113)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", default=",".join(map(str, DEFAULT_PRIMES)))
    args = parser.parse_args()
    s4 = symmetric_group(4)
    print("p     |F|     N")
    for p in (int(tok) for tok in args.primes.split(",")):
        params = ActionParams(p, 3, 2)
        keys = KeySet.full(params)
        count = orbit_partition(keys, s4).count
        assert count == burnside_count_full(params, s4)
        print(f"{p:<5d} {len(keys):<7d} {count}")


if __name__ == "__main__":
    main()
