"""Command-line surface: prepare, cluster, bicluster, motifs, compare.

Configuration comes from built-in defaults, then an optional JSON config
file, then flags, each layer overriding the last, and is checked once as a
report.Settings. report renders every artifact body (JSON and CSV text,
group entries, tallies); this module writes the files and gives every JSON
artifact one header: the settings' echo (all of them but the output
directory), the version and the seed. No artifact holds a timestamp, so
reruns with identical inputs are byte-identical wherever they are written.

Exit codes: 1 contract violation, 2 unreadable/malformed input, 3 invalid
content, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import shutil
import sys
import unicodedata
from collections import Counter
from pathlib import Path

from . import __version__, featurize
from .errors import ContractError, InputError, ValidationError
from .motif import (SAA_THRESHOLD, build_motif_report, position_frequencies,
                    render_logo_svg)
from .report import (ENGINES, Settings, bicluster_entries, cluster_corpus, cluster_entries,
                     compare_pipelines, corpus_segment_counts, corpus_windows, csv_field,
                     csv_text, json_text, tally_to_csv, windows_csv_text)
from .seqio import AMINO_ACIDS, Corpus, load_corpus, load_sample_corpus, read_text

VERSION = f"motifswarm-v{__version__}"

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 64


def build_config(args: argparse.Namespace) -> Settings:
    """Layer built-in defaults, then the config file, then explicit flags;
    Settings checks the result."""
    keys = [f.name for f in dataclasses.fields(Settings) if f.init]
    merged = {}
    if getattr(args, "config", None):
        try:
            text = read_text(args.config)
        except OSError as exc:
            raise InputError(f"cannot read config file: {exc}") from exc
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise InputError("config file must hold a single JSON object")
        for key in file_cfg:
            if key not in keys:
                raise InputError(f"unknown config key {key!r}")
        merged.update(file_cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if isinstance(merged.get("thresholds"), str):
        try:
            merged["thresholds"] = [float(t) for t in merged["thresholds"].split(",")]
        except ValueError as exc:
            raise InputError(f"bad thresholds value: {exc}") from exc
    return Settings(**merged)


def _load_corpus(cfg: Settings) -> Corpus:
    if cfg.sample_corpus:
        return load_sample_corpus()
    if cfg.sequences is None:
        raise InputError("no input corpus: pass --sequences FILE or --sample-corpus")
    return load_corpus(cfg.sequences, cfg.structures)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _artifact(cfg: Settings, fields: dict) -> str:
    """JSON text of an artifact: the settings' echo, version and seed, then fields."""
    return json_text({"config": cfg.echo(), "version": VERSION, "seed": cfg.seed, **fields})


def cmd_prepare(cfg: Settings) -> None:
    """Write the frequency windows, the normalized matrix and a manifest."""
    corpus = _load_corpus(cfg)
    windows = corpus_windows(corpus, cfg)
    matrix = featurize.normalize_windows(windows, cfg.normalization)
    out = Path(cfg.out)

    letters = list(AMINO_ACIDS)
    ids = [csv_field(seq.id) for seq in corpus.sequences]
    _write_text(out / "windows.csv", windows_csv_text(ids, windows))
    # .tolist() gives Python float cells, which csv_text writes directly.
    matrix_rows = ((sid, *row) for sid, row in zip(ids, matrix.tolist()))
    _write_text(out / "matrix.csv", csv_text(["sequence_id", *letters], matrix_rows))
    _write_text(out / "manifest.json", _artifact(cfg, {
        "n_sequences": len(corpus.sequences),
        "n_windows": len(windows),
        "window_shape": list(windows.shape[1:]),
        "matrix_shape": list(matrix.shape),
        "has_structures": corpus.structures is not None,
        "outputs": ["windows.csv", "matrix.csv"],
    }))


def cmd_cluster(cfg: Settings) -> None:
    """Cluster the frequency windows and write the grouping report."""
    corpus = _load_corpus(cfg)
    cs = cluster_corpus(corpus_windows(corpus, cfg), cfg)
    out = Path(cfg.out)
    _write_text(out / "clusters.json", _artifact(cfg, {
        "engine": cfg.engine,
        "fitness": float(cs.final_fitness),
        "iterations_run": cs.iterations_run,
        "converged": cs.converged,
        "clusters": cluster_entries(corpus, cs, corpus_segment_counts(corpus)),
    }))
    if cfg.trace:
        rows = ((i, float(f)) for i, f in enumerate(cs.trace))
        _write_text(Path(cfg.trace), csv_text(["iteration", "fitness"], rows))


def cmd_bicluster(cfg: Settings) -> None:
    """Bicluster the normalized matrix and write the group report."""
    corpus = _load_corpus(cfg)
    entries, lam = bicluster_entries(corpus, corpus_windows(corpus, cfg), cfg)
    _write_text(Path(cfg.out) / "biclusters.json", _artifact(cfg, {
        "lambda": lam,
        "biclusters": entries,
    }))


def _load_bicluster_groups(path: str, corpus: Corpus) -> list:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"bicluster report is not valid JSON: {exc}") from exc
    entries = data.get("biclusters") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise InputError(f"{path} does not look like a bicluster report")
    known = {s.id for s in corpus.sequences}
    seen = set()
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("rows"), list)
                and all(isinstance(r, str) for r in entry["rows"])
                and isinstance(entry.get("cols"), str)):
            raise InputError(f"{path}: bicluster entry {n} needs a string 'id', "
                             "a list of sequence ids 'rows' and a letter string 'cols'")
        # The id names the group's files, so it must stay inside motifs/, and
        # sits in the logo's XML comment, which "--" would end and where XML
        # allows no control character; a lone surrogate encodes in no file.
        gid = entry["id"]
        if gid in ("", ".", "..") or set(gid) & set("/\\\0"):
            raise InputError(f"{path}: bicluster entry {n} has id {gid!r}, "
                             "which is not a plain file name")
        if "--" in gid or any(unicodedata.category(c) in ("Cc", "Cs") for c in gid):
            raise InputError(f"{path}: bicluster entry {n} has id {gid!r}, which "
                             "holds '--', a control character or a lone surrogate")
        if gid in seen:
            raise ValidationError(f"{path}: bicluster entry {n} repeats the group id "
                                  f"{gid!r}, which names its output files")
        seen.add(gid)
        if not entry["rows"]:
            raise ValidationError(f"{path}: bicluster entry {n} ({gid!r}) has no rows")
        repeated = [r for r, count in Counter(entry["rows"]).items() if count > 1]
        if repeated:
            raise ValidationError(f"{path}: bicluster entry {n} ({gid!r}) "
                                  f"lists row {repeated[0]!r} more than once")
        unknown = [r for r in entry["rows"] if r not in known]
        if unknown:
            raise ValidationError(
                f"bicluster {gid} references unknown sequence ids: "
                f"{', '.join(unknown[:5])}")
        letters = set(entry["cols"]) - set(AMINO_ACIDS)
        if letters:
            raise ValidationError(
                f"bicluster {gid} has motif letters outside the 20 amino "
                f"acids: {''.join(sorted(letters))!r}")
        if not entry["cols"]:
            raise ValidationError(f"{path}: bicluster entry {n} ({gid!r}) has no 'cols'")
        repeated = [c for c, count in Counter(entry["cols"]).items() if count > 1]
        if repeated:
            raise ValidationError(f"{path}: bicluster entry {n} ({gid!r}) "
                                  f"lists motif letter {repeated[0]!r} more than once")
    return entries


def cmd_motifs(cfg: Settings) -> None:
    """Write per-group SAA/motif reports and sequence logos.

    Groups come from an existing bicluster report when --biclusters is given,
    otherwise the biclustering stage runs first with this same config.
    """
    corpus = _load_corpus(cfg)
    entries = _load_bicluster_groups(cfg.biclusters, corpus) if cfg.biclusters else None
    windows = corpus_windows(corpus, cfg)
    if entries is None:
        entries, _ = bicluster_entries(corpus, windows, cfg)
    row_of = {seq.id: i for i, seq in enumerate(corpus.sequences)}
    out = Path(cfg.out) / "motifs"
    group_ids = []
    for entry in entries:
        members = windows[[row_of[r] for r in entry["rows"]]]
        freqs = position_frequencies(members)
        # every window block fills position 0, so its count is the block count
        n_segments = int(members[:, 0].sum())
        report = build_motif_report(
            entry["id"], freqs, frozenset(entry["cols"]), n_segments,
            threshold=cfg.saa_threshold, correction=cfg.logo_correction)
        _write_text(out / f"{entry['id']}.json", _artifact(cfg, {"report": report}))
        blurb = f"<!-- {VERSION} seed={cfg.seed} group={entry['id']} -->\n"
        _write_text(out / f"{entry['id']}.svg", blurb + render_logo_svg(report))
        group_ids.append(entry["id"])
    _write_text(out / "motifs.json", _artifact(cfg, {"groups": group_ids}))


def cmd_compare(cfg: Settings) -> None:
    """Run both pipelines and write the side-by-side homology tally."""
    report = compare_pipelines(_load_corpus(cfg), cfg)
    out = Path(cfg.out)
    _write_text(out / "compare.json", _artifact(cfg, report))
    _write_text(out / "tally.csv", tally_to_csv(report["tally"]))


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_io_flags(p) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="JSON config file; explicit flags override it")
    p.add_argument("--sequences", metavar="FASTA", help="input sequence file")
    p.add_argument("--structures", metavar="FILE",
                   help="secondary-structure annotations paired by id")
    p.add_argument("--sample-corpus", action="store_const", const=True,
                   default=None, help="use the bundled sample corpus")
    p.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="RNG seed recorded in every output")
    p.add_argument("--window-size", type=int)
    p.add_argument("--window-scheme", choices=featurize.WINDOW_SCHEMES)
    p.add_argument("--normalization", choices=featurize.NORMALIZATION_METHODS)


def _add_swarm_flags(p) -> None:
    p.add_argument("--n-particles", type=int)
    p.add_argument("--max-iter", type=int,
                   help=f"at most this many iterations (default: {Settings.max_iter}); "
                   "a swarm stops sooner once its best fitness stalls")
    p.add_argument("--w", type=float, help="inertia weight")
    p.add_argument("--c1", type=float, help="cognitive acceleration")
    p.add_argument("--c2", type=float, help="social acceleration")


def _add_bicluster_flags(p) -> None:
    p.add_argument("--k-rows", type=int, help="row clusters crossed into biclusters")
    p.add_argument("--k-cols", type=int, help="column clusters crossed into biclusters")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="volume reward weight (default: 0.1 x full-matrix MSR)")


def _add_cluster_flags(p) -> None:
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--k", type=int, help="number of clusters")
    p.add_argument("--trace", metavar="CSV",
                   help="also write the per-iteration fitness trace")


def _add_motif_flags(p) -> None:
    p.add_argument("--biclusters", metavar="JSON",
                   help="reuse an existing bicluster report instead of rerunning")
    p.add_argument("--saa-threshold", type=float,
                   help=f"positional frequency cutoff (default: {SAA_THRESHOLD})")
    p.add_argument("--no-logo-correction", dest="logo_correction",
                   action="store_const", const=False, default=None,
                   help="skip the small-sample information correction")


def _add_compare_flags(p) -> None:
    p.add_argument("--k", type=int, help="number of clusters")
    p.add_argument("--thresholds", help="comma-separated descending cutoffs")


#: Each command's function, help line and flag groups, in --help order.
COMMANDS = {
    "prepare": (cmd_prepare, "emit frequency windows and the normalized matrix as "
                "CSV plus a manifest", (_add_io_flags,)),
    "cluster": (cmd_cluster, "group sequences by their windows",
                (_add_io_flags, _add_swarm_flags, _add_cluster_flags)),
    "bicluster": (cmd_bicluster, "select coherent sequence/amino-acid submatrices",
                  (_add_io_flags, _add_swarm_flags, _add_bicluster_flags)),
    "motifs": (cmd_motifs, "emit SAA/motif reports and logos per group",
               (_add_io_flags, _add_swarm_flags, _add_bicluster_flags, _add_motif_flags)),
    "compare": (cmd_compare, "tally structure homology of clusters vs biclusters",
                (_add_io_flags, _add_swarm_flags, _add_bicluster_flags, _add_compare_flags)),
}


def build_parser(command) -> argparse.ArgumentParser:
    """The parser of every command, with the flags of command alone (None
    for none): the others are registered with their help line, which is all
    the top-level --help and its usage errors show."""
    # argparse's HelpFormatter reads the terminal width each time it is made,
    # and add_argument makes one per call; read it once, as it would.
    width = shutil.get_terminal_size().columns - 2
    parser_class = functools.partial(
        _Parser, formatter_class=functools.partial(argparse.HelpFormatter, width=width))
    parser = parser_class(prog="motifswarm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=parser_class)
    for name, (func, help_line, flag_groups) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            for add_flags in flag_groups:
                add_flags(p)
            p.set_defaults(func=func, parser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes no option with a value, so the first argument that
    # names a command is the one argparse runs. argparse leaves a command's
    # unknown arguments to the top level; the command's parser refuses them.
    args, unknown = build_parser(next((a for a in argv if a in COMMANDS), None)
                                 ).parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = build_config(args)
        args.func(cfg)
    except ContractError as exc:
        print(f"motifswarm: contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ValidationError as exc:
        print(f"motifswarm: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InputError, OSError) as exc:
        print(f"motifswarm: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
