#!/usr/bin/env python3
"""Run every registered exhaustive claim and print its report.

Takes no options.  Exit status is 0 when all claims hold, 1 otherwise.
"""

import argparse
import sys
import time

from rbx.orbits import CLAIMS, verify_claim


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    all_ok = True
    for claim in CLAIMS:
        start = time.monotonic()
        report = verify_claim(claim)
        elapsed = time.monotonic() - start
        print(report.format(), end="")
        print(f"  [{elapsed:.2f}s]")
        all_ok = all_ok and report.ok
    print("all claims hold" if all_ok else "SOME CLAIMS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
