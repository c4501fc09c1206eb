#!/usr/bin/env python3
"""Recompute the pinned operator counts by brute force, without rbx.

    python3 perfbench/bruteforce.py            # every count below
    python3 perfbench/bruteforce.py TP4-F2-w1  # one of them

Every n x n matrix over F_p is tested against the Rota-Baxter identity
with the code in check.py, and the number that pass is compared with
check.FIGURES.  Only spaces of at most 5^9 matrices are covered: TP4 over
F2 (2^16 matrices, a few seconds), J(1,1) and K3 over F3 (3^9) and over F5
(5^9, about a minute each).  The Gr2 and M2 counts over F3 (3^16
matrices) are out of reach here; they rest on the paper's figures.
Exit status 1 if any count differs.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import FIGURES, is_rb, load_algebra  # noqa: E402

# figure name -> (algebra file, weight)
SPACES = {
    "TP4-F2-w1": ("tp4_f2.alg", 1),
    "J11-F3-w1": ("j11_f3.alg", 1),
    "K3-F3-w1": ("k3_f3.alg", 1),
    "J11-F5-w1": ("j11_f5.alg", 1),
    "K3-F5-w1": ("k3_f5.alg", 1),
    "K3-F5-w0": ("k3_f5.alg", 0),
}


def count(filename: str, weight: int) -> int:
    a = load_algebra(filename)
    return sum(
        1
        for m in itertools.product(range(a.p), repeat=a.dim * a.dim)
        if is_rb(a, m, weight)
    )


def main(argv: list[str]) -> int:
    names = argv or list(SPACES)
    ok = True
    for name in names:
        filename, weight = SPACES[name]
        start = time.perf_counter()
        found = count(filename, weight)
        same = found == FIGURES[name]
        ok = ok and same
        print(
            f"{name}: {found} operators, pinned {FIGURES[name]}: "
            f"{'same' if same else 'DIFFERENT'} [{time.perf_counter() - start:.1f}s]",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
