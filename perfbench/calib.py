"""Calibration child: a fixed workload shaped like a cofactor stage.

    python3 perfbench/calib.py

It starts an interpreter, imports the numpy and scipy modules the CLI
imports, and runs fixed small dense solves, sparse products, sigmoids and a
line-parsing loop on seeded inputs. It never imports cofactor, so a change to
the program cannot change its time; run.py times it once per round and scales
the stage times by it, to take out the machine's own drift in speed.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.special


def main() -> None:
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((40, 32))
    gram = basis.T @ basis + np.eye(32)
    rhs = rng.standard_normal(32)
    for _ in range(2000):   # per-call cost of small SPD solves, like the row updates
        scipy.linalg.solve(gram, rhs, assume_a="pos")
    clicks = sp.random(2000, 1000, density=0.02, random_state=1, format="csr")
    weights = rng.standard_normal((1000, 32))
    for _ in range(5):      # co-occurrence counts and sigmoid layers
        (clicks.T @ clicks).tocoo()
        scipy.special.expit(clicks @ weights)
    index: dict[str, int] = {}
    for k in range(60000):  # split, map and convert, like parsing a ratings file
        user, item, value = f"u{k % 997} i{k % 1009} {k % 5 + 1}".split()
        index.setdefault(user, len(index))
        index.setdefault(item, len(index))
        float(value)


if __name__ == "__main__":
    main()
