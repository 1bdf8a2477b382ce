"""Lloyd-style k-means under the city-block distance.

Works on an (n, ws, 20) window stack or on plain vectors. Because
mean-updated centroids are not guaranteed to lower an L1 objective
monotonically, every iteration's (assignment, centroids) pair is scored and
the best-seen pair is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

# _labelled_l1 sums rows through a buffer of about ROW_CELLS float cells.
ROW_CELLS = 2**16


@dataclass
class ClusterSet:
    """Result of one clustering run.

    centroids has shape (k, *item_shape); assignment maps item index to
    cluster index; trace holds the fitness of each iteration's snapshot.
    """

    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    iterations_run: int
    final_fitness: float
    converged: bool
    trace: list[float] = field(default_factory=list)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster)


def as_item_arrays(data) -> np.ndarray:
    """The items (an (n, ...) array or a list of same-shaped arrays) as one
    (n, ...) float array of finite values. Refused when n times the summed
    range of each item coordinate overflows: that bounds a partition's L1
    cost, n distances from items to centres within the items' range."""
    try:
        items = np.asarray(data, dtype=float)
    except ValueError:
        raise ContractError("items must share one shape") from None
    if len(items) == 0:
        raise ContractError("empty dataset")
    flat = items.reshape(len(items), -1)
    if not np.isfinite(flat).all():
        bad = np.isfinite(flat).all(axis=1).argmin()
        raise ContractError(f"item {bad} holds a non-finite value")
    with np.errstate(over="ignore"):
        bound = len(items) * (flat.max(axis=0) - flat.min(axis=0)).sum()
    if not np.isfinite(bound):
        raise ContractError("items span too wide a range: their L1 costs overflow")
    return items


def _pairwise_l1(flat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) city-block distances, one centroid at a time through a reused
    (n, d) buffer: an (n, k, d) broadcast would leave the cache."""
    out = np.empty((flat.shape[0], centroids.shape[0]))
    buf = np.empty(flat.shape)
    for c, centroid in enumerate(centroids):
        np.subtract(flat, centroid, out=buf)
        np.abs(buf, out=buf)
        buf.sum(axis=1, out=out[:, c])
    return out


def _labelled_l1(flat, centroids, labels) -> np.ndarray:
    """(n, P) city-block distances from each item to its labelled centroid,
    for P sets of k centroids given as a (P, k, d) array and (n, P) labels.
    Each is a row sum, as in _pairwise_l1, so it equals that kernel's
    distance bit for bit. Rows pass through one reused buffer of about
    ROW_CELLS cells, which stays in cache and adds little to peak memory."""
    n, d = flat.shape
    step = max(1, ROW_CELLS // d)
    out = np.empty(labels.shape)
    buf = np.empty((min(n, step), d))
    for p, centroid_set in enumerate(centroids):
        for start in range(0, n, step):
            rows = slice(start, start + step)
            part = buf[:min(step, n - start)]
            np.take(centroid_set, labels[rows, p], axis=0, out=part, mode="clip")
            np.subtract(flat[rows], part, out=part)
            np.abs(part, out=part)
            part.sum(axis=1, out=out[rows, p])
    return out


def assignment_fitness(flat, centroids, k: int):
    """Score P sets of k centroids, given as one (P * k, d) array, on the
    (n, d) items flat. Returns the (n, P) nearest-centroid labels (ties to
    the lowest index) and the (P,) penalty-free fitness of _labelled_fitness."""
    dist = _pairwise_l1(flat, centroids).reshape(flat.shape[0], -1, k)
    labels = dist.argmin(axis=2)
    return labels, _labelled_fitness(dist.min(axis=2), labels, k, 0.0)


def _labelled_fitness(nearest, labels, k: int, empty_penalty: float):
    """The (P,) intra-cluster fitness of (n, P) nearest distances and their
    labels: the distances summed, over k, plus empty_penalty per cluster no
    label uses."""
    # cumsum adds the nearest distances one at a time in item order, so the
    # fitness equals a plain loop over the items bit for bit (the
    # intra_cluster_fitness oracle in tests/helpers.py).
    fitness = np.cumsum(nearest, axis=0)[-1] / k
    if empty_penalty:
        used = (labels[:, :, None] == np.arange(k)).any(axis=0)
        fitness += empty_penalty * (k - used.sum(axis=1))
    return fitness


def _seed_weighted(flat: np.ndarray, k: int, rng) -> np.ndarray:
    """Pick k distinct items as centroids, weighting each pick by squared
    distance to the nearest already-chosen one (k-means++ scheme)."""
    n = flat.shape[0]
    chosen = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)
    while len(chosen) < k:
        # One pass per pick: the minimum is exact, so this running nearest
        # distance equals the minimum over all chosen items.
        np.minimum(nearest, _pairwise_l1(flat, flat[chosen[-1:]])[:, 0], out=nearest)
        # Scaled by a power of two (exact) so that the squares cannot overflow.
        weights = np.ldexp(nearest, -np.frexp(nearest.max())[1])**2
        weights[chosen] = 0.0
        total = weights.sum()
        if total <= 0.0:
            remaining = [i for i in range(n) if i not in chosen]
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=weights / total)))
    return flat[chosen].copy()


def kmeans_run(data, k: int, max_iter: int, seed: int) -> ClusterSet:
    """Cluster items into k groups; deterministic for a given seed.

    Centroids start on distance-weighted item picks (k-means++) and move to
    their members' means. Stops when an iteration changes no assignment, or
    after max_iter iterations. Items so large that n times their largest
    magnitude overflows are refused: a mean sums at most n of them.
    """
    items = as_item_arrays(data)
    n = items.shape[0]
    item_shape = items.shape[1:]
    if not 1 <= k <= n:
        raise ContractError(f"k={k} must be in [1, {n}]")
    if max_iter < 1:
        raise ContractError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    flat = items.reshape(n, -1)
    with np.errstate(over="ignore"):
        if not np.isfinite(n * max(flat.max(), -flat.min())):
            raise ContractError("items are too large: their cluster means overflow")

    centroids = _seed_weighted(flat, k, rng)

    best_fitness = np.inf
    best_labels = None
    best_centroids = None
    trace: list[float] = []
    prev_labels = None
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        labels, fitness = assignment_fitness(flat, centroids, k)
        labels, fitness = labels[:, 0], float(fitness[0])
        trace.append(fitness)
        if fitness < best_fitness:
            best_fitness = fitness
            best_labels = labels.copy()
            best_centroids = centroids.copy()
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        prev_labels = labels

        new_centroids = centroids.copy()
        for c in range(k):
            members = flat[labels == c]
            if members.shape[0] == 0:
                # Reseed a dead cluster on the item farthest from it.
                far = _pairwise_l1(flat, centroids[c : c + 1])[:, 0]
                new_centroids[c] = flat[int(far.argmax())]
            else:
                new_centroids[c] = members.mean(axis=0)
        centroids = new_centroids

    return ClusterSet(
        k=k,
        centroids=best_centroids.reshape((k,) + item_shape),
        assignment=best_labels,
        iterations_run=iterations,
        final_fitness=best_fitness,
        converged=converged,
        trace=trace,
    )
