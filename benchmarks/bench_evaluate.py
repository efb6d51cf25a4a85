"""Timing for the batch evaluator.

Times wc.evaluate on two fixed workloads and reports the best wall time
over several repeats, with the rate in entry-samples per second (stored
kernel entries times sample rows).

Usage: python3 benchmarks/bench_evaluate.py [--samples 200000] [--repeats 5]
"""

import argparse
import time

import numpy as np

import wienerchaos as wc


def _workloads(samples: int):
    rng = np.random.default_rng(0)

    # family-style workload: sparse second-order kernel on a wide space
    vec = wc.generate(wc.FamilySpec("vanishing_overlap", (2, 2), (1, 1), theta=0.5), 256)
    element = vec.groups[0][0]
    dim = element.space.dimension
    yield "blocked order 2", element, rng.standard_normal((samples, dim))

    # denser workload: random third-order kernel on a narrow space
    space = wc.HilbertSpace(10)
    entries = {}
    while len(entries) < 200:
        idx = tuple(sorted(int(i) for i in rng.integers(1, 11, size=3)))
        entries[idx] = float(rng.normal())
    element = wc.ChaosElement(wc.SymmetricTensor(space, 3, entries))
    yield "random order 3", element, rng.standard_normal((samples, 10))


def _best(fn, args, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    print(f"samples per run: {args.samples}")
    header = f"{'workload':<16} {'entries':>7} {'best s':>9} {'entry-samples/s':>16}"
    print(header)
    print("-" * len(header))

    for name, element, x in _workloads(args.samples):
        entries = len(element.kernel.entries)
        best = _best(wc.evaluate, (element, x), args.repeats)
        print(f"{name:<16} {entries:>7} {best:>9.4f} {entries * x.shape[0] / best:>16.3g}")


if __name__ == "__main__":
    main()
