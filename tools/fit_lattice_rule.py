"""Refits the cost model behind psokmeans.lattice_pays. Run from repo root
with one BLAS thread (takes a few minutes):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/fit_lattice_rule.py

For a grid of (n, d, distinct values, particles, k) it times on random
count/9 data the work that lattice_pays selects for one swarm iteration:
the nearest-centroid labels and the lower medians of the partition they
induce, by the table (psokmeans.lattice_labels, then Lattice.medians) and by
the direct kernel (the batched kmeans.assignment_fitness, then
psokmeans._median_step). It fits nanoseconds per evaluation by relative
least squares and reports how often the fitted constants and the constants
in lattice_pays pick the slower kernel.
"""

import itertools
import timeit

import numpy as np

from motifswarm.kmeans import assignment_fitness
from motifswarm.psokmeans import Lattice, _median_step, lattice_labels, lattice_pays

NS = [20, 60, 150, 400, 1000, 3000]
DS = [20, 60, 180, 400]
DISTINCT = [3, 10, 30, 1000]
SWARMS = [(20, 5), (10, 2), (20, 3)]


def best_time(f, cells):
    reps = max(3, int(2e6 // cells))
    return min(timeit.repeat(f, number=reps, repeat=3)) / reps


def measure():
    rows = []
    for n, d, distinct, (p, k) in itertools.product(NS, DS, DISTINCT, SWARMS):
        if n * d > 200_000:
            continue
        rng = np.random.default_rng(n + d + distinct)
        flat = rng.integers(0, distinct, size=(n, d)) / 9.0
        ordered = np.sort(flat, axis=0)
        values = d + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        lattice = Lattice(flat, ordered)
        labels_of = lattice_labels(flat, lattice, k)
        centroids = flat[rng.integers(0, n, size=(p, k))]
        centroids += rng.normal(scale=0.3 * flat.std(), size=centroids.shape)

        def direct_pass():
            labels = assignment_fitness(flat, centroids.reshape(-1, d), k)[0]
            _median_step(flat, centroids.copy(), labels)

        def lattice_pass():
            lattice.medians(centroids.copy(), labels_of(centroids))

        cells = p * k * n * (d + values)
        rows.append((n, d, values, p * k, best_time(direct_pass, cells),
                     best_time(lattice_pass, cells)))
    return rows


def fit(features, seconds):
    x, y = np.array(features, float), np.array(seconds)
    coef, *_ = np.linalg.lstsq(x / y[:, None], np.ones_like(y), rcond=None)
    return coef * 1e9


def picks_slower(pays, rows):
    return [r for r in rows if pays(*r[:4]) != (r[5] < r[4])]


def main():
    rows = measure()
    direct = fit([[m * n * d, m] for n, d, v, m, *_ in rows], [r[4] for r in rows])
    lattice = fit([[m * v, m * v * n, n * v] for n, d, v, m, *_ in rows],
                  [r[5] for r in rows])
    print("direct ns: per data cell and centroid %.3g, per centroid %.3g" % tuple(direct))
    print("lattice ns: per value and centroid %.3g, per multiply-add %.3g, "
          "per mask cell %.3g" % tuple(lattice))

    def fitted(n, d, values, m):
        return (m * values * (lattice[0] + lattice[1] * n) + lattice[2] * n * values
                < m * (direct[0] * n * d + direct[1]))

    print(f"the fitted constants pick the slower kernel on "
          f"{len(picks_slower(fitted, rows))} of {len(rows)} shapes")
    wrong = picks_slower(lattice_pays, rows)
    print(f"lattice_pays picks the slower kernel on {len(wrong)} of {len(rows)} shapes")
    for n, d, v, m, t_direct, t_lattice in wrong:
        print(f"  n={n} d={d} values={v} centroids={m}: lattice/direct "
              f"{t_lattice / t_direct:.2f}")


if __name__ == "__main__":
    main()
