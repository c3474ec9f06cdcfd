#!/usr/bin/env python3
"""Convergence of Rayleigh-quotient sampling to the SVD frame bounds.

Draws a random full-rank cyclic sampling instance, computes the optimal
frame bounds as extreme squared singular values of the sampling matrix, and
tracks how close the empirical min/max of ||R a||^2 / ||a||^2 get as the
number of random draws grows.  The instance generator is the one the tests
use, ``tests/instances.py``.
"""

import argparse
import os
import sys

import numpy as np

from orbitsamp.cyclic import check_rank

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from instances import CyclicInstanceConfig, random_cyclic_instance  # noqa: E402


def run(seed, max_draws):
    rng = np.random.default_rng(seed)
    inst = random_cyclic_instance(
        rng, CyclicInstanceConfig(max_dim=12, max_order=6, max_generators=2)
    )
    R = inst.sample_matrix
    sv = check_rank(R).singular_values
    lo, hi = sv[-1] ** 2, sv[0] ** 2
    print(
        f"instance: orders={list(R.orders)} r={R.r} s={R.s} "
        f"bounds=[{lo:.6f}, {hi:.6f}]"
    )
    header = f"{'draws':>8} {'emp min':>12} {'emp max':>12} {'gap lo':>9} {'gap hi':>9}"
    print(header)
    print("-" * len(header))
    draws = 0
    emp_lo, emp_hi = np.inf, 0.0
    checkpoint = 16
    while draws < max_draws:
        batch = min(checkpoint - draws, max_draws - draws)
        a = rng.standard_normal((batch, R.cols)) + 1j * rng.standard_normal(
            (batch, R.cols)
        )
        q = np.linalg.norm(a @ R.matrix.T, axis=1) ** 2 / np.linalg.norm(a, axis=1) ** 2
        emp_lo = min(emp_lo, q.min())
        emp_hi = max(emp_hi, q.max())
        draws += batch
        if draws >= checkpoint:
            print(
                f"{draws:>8} {emp_lo:>12.6f} {emp_hi:>12.6f} "
                f"{(emp_lo - lo) / lo:>9.2%} {(hi - emp_hi) / hi:>9.2%}"
            )
            checkpoint *= 4
    sandwich = lo - 1e-9 <= emp_lo and emp_hi <= hi + 1e-9
    print(f"sandwich property held for every draw: {sandwich}")
    return 0 if sandwich else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-draws", type=int, default=65536)
    args = ap.parse_args()
    return run(args.seed, args.max_draws)


if __name__ == "__main__":
    sys.exit(main())
