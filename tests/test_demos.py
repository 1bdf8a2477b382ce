import json
import re
import runpy
import shlex
from pathlib import Path

from motifswarm import cli

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo_and_its_command(name, tmp_path, monkeypatch, capsys):
    """Run one demo in tmp_path, then the CLI command it prints as its
    equivalent; returns the demo's output and the command's output directory."""
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    printed = capsys.readouterr().out
    command = re.search(r"the CLI equivalent: motifswarm (.*)$", printed, re.MULTILINE)
    argv = shlex.split(command.group(1))
    assert argv[-2:] == ["--out", "out/"]
    assert cli.main(argv[:-1] + [str(tmp_path / "out")]) == 0
    return printed, tmp_path / "out"


def test_cluster_demo_command_writes_its_fitness(tmp_path, monkeypatch, capsys):
    printed, out = run_demo_and_its_command("02_cluster_windows.py", tmp_path,
                                            monkeypatch, capsys)
    fitness = re.search(r"pso-k-means: fitness +([\d.]+)", printed).group(1)
    written = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
    assert f"{written['fitness']:.2f}" == fitness


def test_bicluster_demo_command_writes_its_best_msr(tmp_path, monkeypatch, capsys):
    printed, out = run_demo_and_its_command("03_bicluster_matrix.py", tmp_path,
                                            monkeypatch, capsys)
    best = printed.split("ranked (best first):\n")[1].splitlines()[0]
    msr = re.search(r"MSR ([\d.]+)", best).group(1)
    written = json.loads((out / "biclusters.json").read_text(encoding="utf-8"))
    assert f"{written['biclusters'][0]['msr']:.4f}" == msr


def test_motifs_demo_command_writes_its_relations(tmp_path, monkeypatch, capsys):
    printed, out = run_demo_and_its_command("04_motif_reports.py", tmp_path,
                                            monkeypatch, capsys)
    relations = re.search(r"^  group-0: \d+ seqs, motif \S+ +((?:[FPD] )*[FPD])$", printed,
                          re.MULTILINE).group(1)
    report = json.loads((out / "motifs" / "bicluster-00.json").read_text(encoding="utf-8"))
    assert " ".join(pos["relation"][0] for pos in report["report"]["positions"]) == relations


def test_compare_demo_command_writes_its_tally(tmp_path, monkeypatch, capsys):
    printed, out = run_demo_and_its_command("05_compare_pipelines.py", tmp_path,
                                            monkeypatch, capsys)
    assert (out / "tally.csv").read_text(encoding="utf-8") in printed
