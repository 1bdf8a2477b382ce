"""Spans and counters around the public functions of each motifswarm module.

The layers are the module names. A traced operation replaces each named
function at every `motifswarm.*` module attribute that binds it (so
`pso_kmeans` is seen whether called as psokmeans.pso_kmeans or through the
names psobiclust, report and cli imported), and puts the originals back
afterwards. Ordinary functions record one span each (name, start, end,
parent span); hot functions only add to counters. Self time is a call's
duration minus the time of the wrapped calls it made.

`metrics.cityblock` is never wrapped: it runs ~600k times per compare
operation, and `kmeans._distance_matrix` recognises it by identity to take
its vectorised path.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> public functions traced in it
LAYERS = {
    "cli": ["main"],
    "seqio": ["load_corpus"],
    "featurize": ["build_cluster_dataset", "build_bicluster_matrix"],
    "kmeans": ["kmeans_run"],
    "pso": ["pso_optimize"],
    "psokmeans": ["pso_kmeans", "assignment_fitness"],
    "psobiclust": ["seed_biclusters", "pso_bicluster"],
    "metrics": ["intra_cluster_fitness", "msr", "build_profile"],
    "motif": ["build_motif_report", "render_logo_svg"],
    "report": ["compare_pipelines", "profile_for_members"],
}

# Called once per particle per swarm step: counters only, no spans.
HOT = {"psokmeans.assignment_fitness", "metrics.intra_cluster_fitness", "metrics.msr"}


def _result_counts(name: str, result) -> dict:
    """Work counts read off a traced call's return value."""
    if name == "seqio.load_corpus":
        return {"seqio.residues": sum(len(s.residues) for s in result.sequences)}
    if name == "featurize.build_cluster_dataset":
        return {"featurize.windows": len(result)}
    if name == "featurize.build_bicluster_matrix":
        return {"featurize.windows": int(result.shape[0])}
    if name == "kmeans.kmeans_run":
        return {"kmeans.iterations": int(result.iterations_run)}
    if name == "pso.pso_optimize":
        return {"pso.steps": int(result[0].iteration)}
    if name == "psobiclust.seed_biclusters":
        return {"psobiclust.seeds": len(result)}
    if name == "psobiclust.pso_bicluster":
        return {"psobiclust.biclusters_out": len(result)}
    return {}


class Tracer:
    """Aggregates for one traced operation."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls_under = Counter()  # (parent name, name) -> calls
        self.counts = Counter()
        self.spans = []  # [name, start, end, parent span index or None]
        self.missing = []
        self._stack = []  # [name, child time, span index]

    def wrap(self, name: str, fn):
        hot = name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = None
            if not hot:
                span = len(self.spans)
                parent_span = next((f[2] for f in reversed(self._stack)
                                    if f[2] is not None), None)
                self.spans.append([name, 0.0, 0.0, parent_span])
            frame = [name, 0.0, span]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    self.calls_under[(parent[0], name)] += 1
                if span is not None:
                    self.spans[span][1:3] = [start, end]
            try:
                self.counts.update(_result_counts(name, result))
            except (AttributeError, TypeError, IndexError):
                pass  # the return value changed shape; its counts read as 0
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every LAYERS function for the duration of the block."""
        patches = []
        for module_name, names in LAYERS.items():
            try:
                module = importlib.import_module(f"motifswarm.{module_name}")
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "motifswarm"
                                           or mod_name.startswith("motifswarm.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(patches):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "calls_under": {f"{p}>{n}": c for (p, n), c in self.calls_under.items()},
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }


def layer_metrics(s: dict, bytes_written: int, recovery: float) -> dict:
    """Per-layer metric values of one traced operation from its summary.
    A function that was never called, or no longer exists, reads as 0."""
    calls, total, own, counts = s["calls"], s["total_s"], s["self_s"], s["counts"]
    under = s["calls_under"]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    bic_evals = under.get("psobiclust.pso_bicluster>metrics.msr", 0)
    fit_calls = calls.get("psokmeans.assignment_fitness", 0)
    return {
        "recovery_rate": recovery,
        "psokmeans.pso_kmeans.s": own.get("psokmeans.pso_kmeans", 0.0),
        "psokmeans.assignment_fitness.s": own.get("psokmeans.assignment_fitness", 0.0),
        "psokmeans.assignment_fitness.calls": fit_calls,
        "psokmeans.evals_per_s": rate(fit_calls, total.get("psokmeans.pso_kmeans", 0.0)),
        "pso.pso_optimize.self_s": own.get("pso.pso_optimize", 0.0),
        "pso.steps": counts.get("pso.steps", 0),
        "metrics.intra_cluster_fitness.s": own.get("metrics.intra_cluster_fitness", 0.0),
        "metrics.intra_cluster_fitness.calls": calls.get("metrics.intra_cluster_fitness", 0),
        "metrics.msr.s": own.get("metrics.msr", 0.0),
        "metrics.msr.calls": calls.get("metrics.msr", 0),
        "metrics.msr.us_per_call": 1e6 * rate(own.get("metrics.msr", 0.0),
                                              calls.get("metrics.msr", 0)),
        "metrics.build_profile.s": own.get("metrics.build_profile", 0.0),
        "psobiclust.seed_biclusters.s": own.get("psobiclust.seed_biclusters", 0.0),
        "psobiclust.pso_bicluster.self_s": own.get("psobiclust.pso_bicluster", 0.0),
        "psobiclust.fitness_evals": bic_evals,
        "psobiclust.evals_per_s": rate(bic_evals, total.get("psobiclust.pso_bicluster", 0.0)),
        "psobiclust.seeds": counts.get("psobiclust.seeds", 0),
        "psobiclust.biclusters_out": counts.get("psobiclust.biclusters_out", 0),
        "seqio.load_corpus.s": own.get("seqio.load_corpus", 0.0),
        "seqio.load_corpus.calls": calls.get("seqio.load_corpus", 0),
        "seqio.residues_per_s": rate(counts.get("seqio.residues", 0),
                                     total.get("seqio.load_corpus", 0.0)),
        "featurize.build_cluster_dataset.s": own.get("featurize.build_cluster_dataset", 0.0),
        "featurize.build_bicluster_matrix.s": own.get("featurize.build_bicluster_matrix", 0.0),
        "featurize.windows_per_s": rate(
            counts.get("featurize.windows", 0),
            total.get("featurize.build_cluster_dataset", 0.0)
            + total.get("featurize.build_bicluster_matrix", 0.0)),
        "kmeans.kmeans_run.s": own.get("kmeans.kmeans_run", 0.0),
        "kmeans.iterations": counts.get("kmeans.iterations", 0),
        "motif.build_motif_report.s": own.get("motif.build_motif_report", 0.0),
        "motif.render_logo_svg.s": own.get("motif.render_logo_svg", 0.0),
        "motif.groups": calls.get("motif.build_motif_report", 0),
        "report.compare_pipelines.self_s": own.get("report.compare_pipelines", 0.0),
        "report.profile_for_members.s": own.get("report.profile_for_members", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "cli.bytes_written": bytes_written if calls.get("cli.main") else 0,
    }


def layer_self_share(s: dict, op_s: float) -> dict:
    """Self time of each module as a share of the operation's wall time; the
    remainder is time outside every traced function."""
    shares = Counter()
    for name, t in s["self_s"].items():
        shares[name.split(".", 1)[0]] += t / op_s
    shares["untraced"] = 1.0 - sum(shares.values())
    return {k: round(v, 4) for k, v in sorted(shares.items())}
