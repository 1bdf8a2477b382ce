import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from motifswarm import cli, report
from motifswarm.motif import render_logo_svg
from motifswarm.report import Settings
from motifswarm.seqio import AMINO_ACIDS, sample_corpus_paths

from helpers import csv_oracle


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def assert_fails_cleanly(capsys, code, expected_code):
    """The command exited with expected_code and one stderr line, no
    traceback; returns that line."""
    err = capsys.readouterr().err
    assert code == expected_code, err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


FAST = ["--max-iter", "20", "--n-particles", "8"]


class TestPrepare:
    def test_sample_corpus_manifest(self, tmp_path):
        assert run_cli("prepare", "--sample-corpus", "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_sequences"] == 30
        assert manifest["n_windows"] == 30
        assert manifest["window_shape"] == [9, 20]
        assert manifest["matrix_shape"] == [30, 20]
        assert manifest["config"]["seed"] == 0
        assert manifest["version"].startswith("motifswarm-v")

    def test_csv_headers(self, tmp_path):
        run_cli("prepare", "--sample-corpus", "--out", tmp_path)
        windows = (tmp_path / "windows.csv").read_text().splitlines()
        assert windows[0] == "sequence_id,position," + ",".join(AMINO_ACIDS)
        assert len(windows) == 1 + 30 * 9
        matrix = (tmp_path / "matrix.csv").read_text().splitlines()
        assert matrix[0] == "sequence_id," + ",".join(AMINO_ACIDS)
        assert len(matrix) == 1 + 30

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run_cli("prepare", "--sequences", tmp_path / "nope.fasta",
                       "--out", tmp_path)
        assert code == 2
        assert "nope.fasta" in capsys.readouterr().err

    def test_no_input_exits_2(self, tmp_path):
        assert run_cli("prepare", "--out", tmp_path) == 2

    def test_non_ascii_residue_exits_3(self, tmp_path, capsys):
        fasta = tmp_path / "seqs.fasta"
        fasta.write_text(">a\nAAAAAAAAA\u00df\u0131\n", encoding="utf-8")
        assert run_cli("prepare", "--sequences", fasta, "--out", tmp_path) == 3
        assert "illegal residue '\u00df' at position 10" in capsys.readouterr().err

    def test_ids_with_a_comma_or_quote_read_back_whole(self, tmp_path):
        fasta = tmp_path / "seqs.fasta"
        fasta.write_text('>a,b\nACDEFGHIKLMNPQRSTV\n>q"x\nACDEFGHIKLMNPQRSTV\n')
        assert run_cli("prepare", "--sequences", fasta, "--out", tmp_path) == 0
        for name, width, per_id in (("windows.csv", 22, 9), ("matrix.csv", 21, 1)):
            with open(tmp_path / name, newline="") as f:
                rows = list(csv.reader(f))
            assert {len(row) for row in rows} == {width}
            assert [row[0] for row in rows[1:]] == ["a,b"] * per_id + ['q"x'] * per_id

    def test_rerun_is_byte_identical(self, tmp_path):
        names = ("windows.csv", "matrix.csv", "manifest.json")
        run_cli("prepare", "--sample-corpus", "--out", tmp_path)
        first = {n: (tmp_path / n).read_bytes() for n in names}
        run_cli("prepare", "--sample-corpus", "--out", tmp_path)
        for name in names:
            assert (tmp_path / name).read_bytes() == first[name]


    @pytest.mark.parametrize("flags,windows_sha,matrix_sha", [
        ([], "a494f15c0f913696bbe7e2e928f92768a7a0f49729366e8ac22d68bf2eeeca5c",
         "7e95e6c4007a09da118cbcf79b4131961e2532a90df4a78509ac2eb1d8f81816"),
        (["--window-scheme", "sliding", "--normalization", "mode"],
         "085cef112b35fdb38b7c2f0dc2f43ec062f2fbbba217b8114306227851bcce02",
         "399c846087b955b19da59944c1551385ffebbc7f7a4f5802d3f022862c9cbeee"),
        (["--window-size", "5", "--normalization", "range"],
         "bbe99ef636f3b42a9038f3bbd2e17e20e6ca2af12165a5116d66d7dfc4dbe245",
         "e7d4d6038f62513509e50c0587960db3ff0464f07b6466182b0b6fac1a6314b1"),
    ])
    def test_csv_bytes_are_pinned(self, tmp_path, flags, windows_sha, matrix_sha):
        # Digests of the sample corpus's CSVs as the per-sequence counting
        # loop and per-cell str join wrote them; a change to counting,
        # normalization or CSV formatting that moves a byte fails.
        assert run_cli("prepare", "--sample-corpus", *flags, "--out", tmp_path) == 0
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("windows.csv", "matrix.csv")]
        assert digests == [windows_sha, matrix_sha]


def test_csv_cells_match_str():
    header = ["id", "n", "x", "y"]
    rows = [("100%", 2**70, -0.0, 1e16), ("a%sb", -3, 1e-7, 0.1),
            ("%d", 0, float(2**70), 1 / 3)]
    assert report.csv_text(header, iter(rows)) == csv_oracle(header, rows)
    assert report.csv_text(header, []) == csv_oracle(header, [])


class TestCluster:
    @pytest.mark.parametrize("engine", ["kmeans", "pso-kmeans"])
    def test_engines(self, tmp_path, engine):
        assert run_cli("cluster", "--sample-corpus", "--engine", engine,
                       "--k", "3", "--out", tmp_path, *FAST) == 0
        data = json.loads((tmp_path / "clusters.json").read_text())
        assert data["engine"] == engine
        assert len(data["clusters"]) == 3
        assert sum(c["size"] for c in data["clusters"]) == 30
        members = [m for c in data["clusters"] for m in c["members"]]
        assert len(set(members)) == 30
        assert data["fitness"] >= 0.0

    def test_structure_scores_included(self, tmp_path):
        run_cli("cluster", "--sample-corpus", "--k", "3", "--out", tmp_path, *FAST)
        data = json.loads((tmp_path / "clusters.json").read_text())
        scored = [c for c in data["clusters"] if c["size"] > 0]
        assert all("similarity" in c and "homology" in c for c in scored)

    def test_trace_csv(self, tmp_path):
        # The PSO k-medians search stops 3 iterations after gbest last
        # improves, well inside --max-iter 20.
        trace = tmp_path / "trace.csv"
        run_cli("cluster", "--sample-corpus", "--k", "3", "--out", tmp_path,
                "--trace", trace, *FAST)
        data = json.loads((tmp_path / "clusters.json").read_text())
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,fitness"
        fits = [float(line.split(",")[1]) for line in lines[1:]]
        assert data["converged"] is True
        assert len(fits) == data["iterations_run"] < 20
        assert fits == sorted(fits, reverse=True)
        assert fits[-4] == fits[-1] and (len(fits) == 4 or fits[-5] > fits[-4])

    def test_trace_has_one_row_per_iteration_run(self, tmp_path):
        # At default settings the window swarm's gbest stalls long before
        # --max-iter 100, and the report says so.
        trace = tmp_path / "trace.csv"
        assert run_cli("cluster", "--sample-corpus", "--out", tmp_path,
                       "--trace", trace) == 0
        data = json.loads((tmp_path / "clusters.json").read_text())
        assert data["converged"] is True
        assert data["iterations_run"] < 100
        rows = trace.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(data["iterations_run"]))
        assert float(rows[-1].split(",")[1]) == data["fitness"]

    def test_bad_k_exits_1(self, tmp_path):
        assert run_cli("cluster", "--sample-corpus", "--k", "999",
                       "--out", tmp_path, *FAST) == 1

    @pytest.mark.parametrize("engine,clusters_sha,trace_sha", [
        ("pso-kmeans", "884126bd2ebff506c14e5c14ea0bdf068922bcf5d70cd4e9a612733efb0f20e6",
         "c0599d839a51c999213085326d51ad7e8d1383ee7111992c6c06eb2860ee9adc"),
        ("kmeans", "f816b05a1c784fb8dc5caaee1c51c3af350014a3225d2f92c6209bd801f63819",
         "72cf972753c38c2ef7bd3d9fcefd1b562122bd5f201f690eb39781f6d478b118"),
    ])
    def test_report_and_trace_bytes_are_pinned(self, tmp_path, monkeypatch, engine,
                                               clusters_sha, trace_sha):
        # Digests at seed 0 (the version string included), written from one
        # working directory so that the echoed trace path is "trace.csv": a
        # change to the scorer, the engines or the assignment that moves a
        # byte fails.
        monkeypatch.chdir(tmp_path)
        assert run_cli("cluster", "--sample-corpus", "--engine", engine, "--seed", "0",
                       "--trace", "trace.csv", "--out", "o") == 0
        digests = [hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in ("o/clusters.json", "trace.csv")]
        assert digests == [clusters_sha, trace_sha]


class TestBicluster:
    def test_lambda_overflowing_the_volume_reward_exits_1(self, tmp_path):
        """A finite lambda so large that the volume reward overflows ends in
        one stderr line. Run in a fresh interpreter, where a numpy overflow
        warning would print to stderr."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sample_corpus": true, "lam": 1e308}')
        proc = subprocess.run(
            [sys.executable, "-m", "motifswarm.cli", "bicluster", "--config", str(cfg),
             *FAST, "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert "lambda 1e+308 overflows the volume reward" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_report_fields(self, tmp_path):
        assert run_cli("bicluster", "--sample-corpus", "--k-rows", "3",
                       "--k-cols", "2", "--out", tmp_path, *FAST) == 0
        data = json.loads((tmp_path / "biclusters.json").read_text())
        assert data["lambda"] > 0.0
        assert data["biclusters"]
        for entry in data["biclusters"]:
            assert entry["size"] == len(entry["rows"])
            assert entry["volume"] == entry["size"] * len(entry["cols"])
            assert set(entry["cols"]) <= set(AMINO_ACIDS)
            assert entry["msr"] >= 0.0

    def test_more_crossings_than_a_swarm_holds(self, tmp_path):
        # 11 x 10 crossings exceed the 100 particles a swarm may have; the
        # biclusters are the crossings, so none is refused.
        assert run_cli("bicluster", "--sample-corpus", "--k-rows", "11",
                       "--k-cols", "10", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "biclusters.json").read_text())
        assert 100 < len(data["biclusters"]) <= 110

    def test_lambda_flag_echoed(self, tmp_path):
        run_cli("bicluster", "--sample-corpus", "--k-rows", "2", "--k-cols", "2",
                "--lambda", "0.25", "--out", tmp_path, *FAST)
        data = json.loads((tmp_path / "biclusters.json").read_text())
        assert data["lambda"] == 0.25
        assert data["config"]["lam"] == 0.25


class TestMotifs:
    def test_from_bicluster_report(self, tmp_path):
        run_cli("bicluster", "--sample-corpus", "--k-rows", "3", "--k-cols", "2",
                "--out", tmp_path, *FAST)
        assert run_cli("motifs", "--sample-corpus", "--out", tmp_path,
                       "--biclusters", tmp_path / "biclusters.json") == 0
        index = json.loads((tmp_path / "motifs" / "motifs.json").read_text())
        assert index["groups"]
        for gid in index["groups"]:
            payload = json.loads((tmp_path / "motifs" / f"{gid}.json").read_text())
            assert payload["report"]["group_id"] == gid
            assert len(payload["report"]["positions"]) == 9
            svg = (tmp_path / "motifs" / f"{gid}.svg").read_text()
            assert svg.startswith("<!--") and "<svg" in svg

    def test_auto_runs_biclustering(self, tmp_path):
        assert run_cli("motifs", "--sample-corpus", "--k-rows", "2",
                       "--k-cols", "2", "--out", tmp_path, *FAST) == 0
        assert (tmp_path / "motifs" / "motifs.json").exists()

    def test_unknown_member_id_exits_3(self, tmp_path):
        bogus = {"biclusters": [{"id": "bicluster-00", "rows": ["ghost"],
                                 "cols": "AG"}]}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(bogus))
        assert run_cli("motifs", "--sample-corpus", "--biclusters", path,
                       "--out", tmp_path) == 3

    def test_malformed_report_exits_2(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("[1, 2, 3]")
        assert run_cli("motifs", "--sample-corpus", "--biclusters", path,
                       "--out", tmp_path) == 2

    @pytest.mark.parametrize("entry,expected_code", [
        ({"id": "g", "cols": "AG"}, 2),
        ({"rows": ["hel01"], "cols": "AG"}, 2),
        ({"id": "g", "rows": ["hel01"]}, 2),
        ({"id": 7, "rows": ["hel01"], "cols": "AG"}, 2),
        ({"id": "g", "rows": [1, 2], "cols": "AG"}, 2),
        ({"id": "g", "rows": ["hel01"], "cols": ["A", "G"]}, 2),
        ({"id": "g", "rows": "hel01", "cols": "AG"}, 2),
        ({"id": "g", "rows": ["hel01"], "cols": "AZ"}, 3),
    ])
    def test_bad_bicluster_entry_fails_cleanly(self, tmp_path, capsys, entry,
                                               expected_code):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"biclusters": [entry]}))
        code = run_cli("motifs", "--sample-corpus", "--biclusters", path,
                       "--out", tmp_path)
        assert_fails_cleanly(capsys, code, expected_code)
        assert not (tmp_path / "motifs").exists()

    @pytest.mark.parametrize("entries,message", [
        ([{"id": "g", "rows": ["hel01"], "cols": "AG"},
          {"id": "h", "rows": ["str07"], "cols": "AG"},
          {"id": "g", "rows": ["str07"], "cols": "L"}],
         "bicluster entry 2 repeats the group id 'g'"),
        ([{"id": "g", "rows": ["hel01"], "cols": "AG"},
          {"id": "h", "rows": [], "cols": "AG"}],
         "bicluster entry 1 ('h') has no rows"),
        ([{"id": "g", "rows": ["hel01", "hel02"], "cols": "AG"},
          {"id": "h", "rows": ["hel02", "hel01", "hel02"], "cols": "AG"}],
         "bicluster entry 1 ('h') lists row 'hel02' more than once"),
        ([{"id": "g", "rows": ["hel01"], "cols": ""}],
         "bicluster entry 0 ('g') has no 'cols'"),
        ([{"id": "g", "rows": ["hel01"], "cols": "AG"},
          {"id": "h", "rows": ["hel02"], "cols": "AAD"}],
         "bicluster entry 1 ('h') lists motif letter 'A' more than once"),
    ], ids=["repeated-id", "empty-rows", "repeated-row", "empty-cols", "repeated-col"])
    def test_repeated_group_id_or_empty_rows_exits_3(self, tmp_path, capsys, entries,
                                                      message):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"biclusters": entries}))
        code = run_cli("motifs", "--sample-corpus", "--biclusters", path,
                       "--out", tmp_path / "out")
        err = assert_fails_cleanly(capsys, code, 3)
        assert f"{path}: {message}" in err
        assert not (tmp_path / "out").exists()

    def test_logo_rebuilds_from_the_report_json(self, tmp_path):
        # The report a group's JSON holds is all its logo is drawn from.
        assert run_cli("motifs", "--sample-corpus", "--out", tmp_path) == 0
        out = tmp_path / "motifs"
        groups = json.loads((out / "motifs.json").read_text())["groups"]
        assert groups
        for gid in groups:
            payload = json.loads((out / f"{gid}.json").read_text())
            svg = (out / f"{gid}.svg").read_text().split("\n", 1)[1]
            assert render_logo_svg(payload["report"]) == svg

    @pytest.mark.parametrize("flags,reports_sha,logos_sha", [
        ([], "2aaecc75df42066b09fb87056131b4b0d6ab8ab441ad6c6080e2e22fb85fb485",
         "a3dd36ced3cb65d4e52a58cf172f5c69470fa46d797da120dd04c36eeb983737"),
        (["--window-size", "5", "--saa-threshold", "0.12", "--no-logo-correction"],
         "62969f34955ff2cb0ca837cc304c42a580b00f65fa0cf94f417e755978051af1",
         "fe2a95e5ed1e56cf2134d5180eec1d9d9bbd0e0715a256023620a56400a26f03"),
    ], ids=["defaults", "window-5-no-correction"])
    def test_report_and_logo_bytes_are_pinned(self, tmp_path, flags, reports_sha,
                                              logos_sha):
        # Digests of all 15 groups' reports and logos (without the logo's
        # version blurb) at seed 5: a change to the SAA, relation, logo or
        # SVG bytes fails, a version bump does not.
        assert run_cli("motifs", "--sample-corpus", "--seed", "5", *flags,
                       "--out", tmp_path) == 0
        out = tmp_path / "motifs"
        reports, logos = hashlib.sha256(), hashlib.sha256()
        for gid in json.loads((out / "motifs.json").read_text())["groups"]:
            payload = json.loads((out / f"{gid}.json").read_text())
            reports.update(report.json_text(payload["report"]).encode())
            logos.update((out / f"{gid}.svg").read_bytes().split(b"\n", 1)[1])
        assert [reports.hexdigest(), logos.hexdigest()] == [reports_sha, logos_sha]

    # The last three are file names, but the logo cannot hold them.
    @pytest.mark.parametrize("gid", ["../escaped", "a/b", "a\\b", "", ".", "..",
                                     "nul\0", "a--b", "a\x01b", "a\ud800b"])
    def test_group_id_that_is_not_a_file_name_exits_2(self, tmp_path, capsys, gid):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"biclusters": [{"id": gid, "rows": ["hel01"],
                                                    "cols": "AG"}]}))
        code = run_cli("motifs", "--sample-corpus", "--biclusters", path,
                       "--out", tmp_path / "out")
        assert_fails_cleanly(capsys, code, 2)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("gid", ["a&b", "x<y"])
    def test_group_id_is_escaped_in_the_logo(self, tmp_path, gid):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"biclusters": [{"id": gid, "rows": ["hel01", "hel02"],
                                                    "cols": "AG"}]}))
        assert run_cli("motifs", "--sample-corpus", "--biclusters", path,
                       "--out", tmp_path) == 0
        svg = ET.parse(tmp_path / "motifs" / f"{gid}.svg").getroot()
        assert svg.find("{http://www.w3.org/2000/svg}title").text == gid

    @pytest.mark.parametrize("threshold", ["-1", "1.5", "nan"])
    def test_saa_threshold_outside_unit_interval_exits_1(self, tmp_path, capsys,
                                                         threshold):
        code = run_cli("motifs", "--sample-corpus", "--saa-threshold", threshold,
                       "--out", tmp_path)
        assert_fails_cleanly(capsys, code, 1)

    def test_window_size_reaches_reports_and_logos(self, tmp_path):
        assert run_cli("motifs", "--sample-corpus", "--window-size", "7",
                       "--k-rows", "2", "--k-cols", "2", "--out", tmp_path, *FAST) == 0
        index = json.loads((tmp_path / "motifs" / "motifs.json").read_text())
        assert index["groups"]
        for gid in index["groups"]:
            payload = json.loads((tmp_path / "motifs" / f"{gid}.json").read_text())
            assert [p["position"] for p in payload["report"]["positions"]] == \
                list(range(1, 8))
            svg = (tmp_path / "motifs" / f"{gid}.svg").read_text()
            texts = ET.fromstring(svg.split("\n", 1)[1]).iter(
                "{http://www.w3.org/2000/svg}text")
            # position labels are the 12-point digits; bit labels are 11-point
            labels = [t.text for t in texts
                      if t.get("font-size") == "12" and t.text.isdigit()]
            assert labels == [str(i) for i in range(1, 8)]


class TestCompare:
    def test_outputs(self, tmp_path):
        assert run_cli("compare", "--sample-corpus", "--k", "3", "--k-rows", "3",
                       "--k-cols", "2", "--out", tmp_path, *FAST) == 0
        data = json.loads((tmp_path / "compare.json").read_text())
        assert data["version"].startswith("motifswarm-v")
        assert data["config"]["seed"] == 0
        tally = (tmp_path / "tally.csv").read_text().splitlines()
        assert tally[0] == "threshold,clusters,biclusters"
        assert [line.split(",")[0] for line in tally[1:]] == \
            ["0.70", "0.65", "0.60"]

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            run_cli("compare", "--sample-corpus", "--k", "3", "--k-rows", "3",
                    "--k-cols", "2", "--seed", "11", "--out", tmp_path / sub,
                    *FAST)
        assert (tmp_path / "a" / "compare.json").read_bytes() == \
            (tmp_path / "b" / "compare.json").read_bytes()
        assert (tmp_path / "a" / "tally.csv").read_bytes() == \
            (tmp_path / "b" / "tally.csv").read_bytes()

    def test_bytes_are_pinned(self, tmp_path, monkeypatch):
        # Digests at seed 0, the header's version and seed included.
        monkeypatch.chdir(tmp_path)
        assert run_cli("compare", "--sample-corpus", "--seed", "0", "--out", "o") == 0
        digests = [hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in ("o/compare.json", "o/tally.csv")]
        assert digests == [
            "49ad00f586f436bf181455fcabf956d461ee0b663c87020065463262301206a2",
            "e7edf3efb59b15fe273dbb8fdd3347a44fb82b5a82a5c8964d8b1c1b200424a6"]

    @pytest.mark.parametrize("flags", [["--w", "0.1"], ["--c1", "3"], ["--c2", "0.2"]])
    def test_swarm_coefficients_drive_the_run(self, tmp_path, flags):
        base = ["compare", "--sample-corpus", "--k", "3", "--k-rows", "3",
                "--k-cols", "2", *FAST]
        run_cli(*base, "--out", tmp_path / "default")
        run_cli(*base, *flags, "--out", tmp_path / "changed")
        assert (tmp_path / "default" / "compare.json").read_bytes() != \
            (tmp_path / "changed" / "compare.json").read_bytes()

    def test_thresholds_flag(self, tmp_path):
        run_cli("compare", "--sample-corpus", "--k", "2", "--k-rows", "2",
                "--k-cols", "2", "--thresholds", "0.8,0.5", "--out", tmp_path,
                *FAST)
        tally = (tmp_path / "tally.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in tally[1:]] == ["0.80", "0.50"]

    def test_window_flags_drive_the_run(self, tmp_path):
        base = ["compare", "--sample-corpus", "--k", "3", "--k-rows", "3",
                "--k-cols", "2", *FAST]
        run_cli(*base, "--out", tmp_path / "default")
        run_cli(*base, "--window-size", "5", "--out", tmp_path / "size")
        run_cli(*base, "--window-scheme", "sliding", "--out", tmp_path / "scheme")
        default = (tmp_path / "default" / "compare.json").read_bytes()
        assert (tmp_path / "size" / "compare.json").read_bytes() != default
        assert (tmp_path / "scheme" / "compare.json").read_bytes() != default

    def test_missing_structures_exits_3(self, tmp_path):
        fasta = tmp_path / "seqs.fasta"
        fasta.write_text(">a\nARNDCQEGHILKMFPSTWYV\n>b\nAAAAAAAAAGGGGGGGGG\n")
        assert run_cli("compare", "--sequences", fasta, "--out", tmp_path) == 3


class TestCommandsAgree:
    """bicluster, cluster and compare run the same stages: one seed and one
    set of flags give the same groups in every report."""

    COMMON = ["--sample-corpus", "--seed", "4", "--max-iter", "5"]
    CLUSTER = ["--k", "3"]
    BICLUSTER = ["--k-rows", "3", "--k-cols", "2"]

    def run_compare(self, out, *flags):
        assert run_cli("compare", *self.COMMON, *self.CLUSTER, *self.BICLUSTER,
                       *flags, "--out", out) == 0
        return json.loads((out / "compare.json").read_text())

    def test_bicluster_and_compare(self, tmp_path):
        assert run_cli("bicluster", *self.COMMON, *self.BICLUSTER,
                       "--out", tmp_path / "b") == 0
        cmp = self.run_compare(tmp_path / "c")
        bic = json.loads((tmp_path / "b" / "biclusters.json").read_text())
        assert bic["lambda"] == cmp["lambda"]
        assert len(bic["biclusters"]) == len(cmp["biclusters"]) > 0
        for b, c in zip(bic["biclusters"], cmp["biclusters"]):
            assert b["id"] == c["id"]
            assert b["rows"] == c["members"]
            assert set(b["cols"]) == set(c["amino_acids"])
            assert (b["msr"], b["volume"]) == (c["msr"], c["volume"])

    def test_cluster_and_compare(self, tmp_path):
        assert run_cli("cluster", "--engine", "pso-kmeans", *self.COMMON, *self.CLUSTER,
                       "--out", tmp_path / "k") == 0
        cmp = self.run_compare(tmp_path / "c")
        clusters = json.loads((tmp_path / "k" / "clusters.json").read_text())
        assert [c for c in clusters["clusters"] if c["size"]] == cmp["clusters"]

    def test_motifs_from_either_group_source(self, tmp_path):
        """motifs biclusters first unless given a bicluster report; both
        routes write the same groups, reports and logos."""
        assert run_cli("motifs", *self.COMMON, *self.BICLUSTER,
                       "--out", tmp_path / "auto") == 0
        assert run_cli("bicluster", *self.COMMON, *self.BICLUSTER,
                       "--out", tmp_path / "b") == 0
        groups_json = tmp_path / "b" / "biclusters.json"
        assert run_cli("motifs", *self.COMMON, *self.BICLUSTER,
                       "--biclusters", groups_json, "--out", tmp_path / "given") == 0
        auto, given = tmp_path / "auto" / "motifs", tmp_path / "given" / "motifs"
        assert sorted(os.listdir(auto)) == sorted(os.listdir(given))
        groups = json.loads((auto / "motifs.json").read_text())["groups"]
        assert groups
        for name in ["motifs", *groups]:
            a, g = (json.loads((d / f"{name}.json").read_text()) for d in (auto, given))
            assert a["config"].pop("biclusters") is None
            assert g["config"].pop("biclusters") == str(groups_json)
            assert a == g
        for svg in (f"{gid}.svg" for gid in groups):
            assert (auto / svg).read_bytes() == (given / svg).read_bytes()

    def test_compare_runs_the_configured_engine(self, tmp_path):
        cfg = tmp_path / "kmeans.json"
        cfg.write_text('{"engine": "kmeans"}')
        assert run_cli("cluster", "--config", cfg, *self.COMMON, *self.CLUSTER,
                       "--out", tmp_path / "k") == 0
        cmp = self.run_compare(tmp_path / "c", "--config", cfg)
        clusters = json.loads((tmp_path / "k" / "clusters.json").read_text())
        assert cmp["config"]["engine"] == clusters["engine"] == "kmeans"
        assert [c for c in clusters["clusters"] if c["size"]] == cmp["clusters"]


def test_every_json_artifact_carries_one_header(tmp_path):
    """The five commands head every JSON artifact alike: the settings'
    echo, the version and the seed the settings hold."""
    for command in ("prepare", "cluster", "bicluster", "motifs", "compare"):
        assert run_cli(command, "--sample-corpus", "--seed", "3",
                       "--out", tmp_path / command) == 0
    artifacts = sorted(tmp_path.rglob("*.json"))
    assert {p.relative_to(tmp_path).as_posix() for p in artifacts} >= {
        "prepare/manifest.json", "cluster/clusters.json", "bicluster/biclusters.json",
        "motifs/motifs/motifs.json", "motifs/motifs/bicluster-00.json",
        "compare/compare.json"}
    echo = Settings(sample_corpus=True, seed=3).echo()
    assert echo["thresholds"] == list(report.DEFAULT_THRESHOLDS)
    for path in artifacts:
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["config"] == echo, path
        assert data["version"] == cli.VERSION, path
        assert data["seed"] == data["config"]["seed"] == 3, path


class TestConfigLayering:
    def test_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_corpus": True, "k": 2,
                                   "max_iter": 15, "n_particles": 6,
                                   "out": str(tmp_path / "o")}))
        assert run_cli("cluster", "--config", cfg) == 0
        data = json.loads((tmp_path / "o" / "clusters.json").read_text())
        assert data["config"]["k"] == 2
        assert data["config"]["max_iter"] == 15

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_corpus": True, "k": 2,
                                   "max_iter": 15, "n_particles": 6}))
        run_cli("cluster", "--config", cfg, "--k", "3", "--out", tmp_path)
        data = json.loads((tmp_path / "clusters.json").read_text())
        assert data["config"]["k"] == 3

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"clusters_k": 2}')
        assert run_cli("cluster", "--config", cfg, "--out", tmp_path) == 2

    @pytest.mark.parametrize("command,values", [
        ("cluster", {"k": "three"}),
        ("motifs", {"saa_threshold": "0.5"}),
        ("cluster", {"k": True}),
        ("cluster", {"k": 2.5}),
        ("cluster", {"max_iter": None}),
        ("cluster", {"w": False}),
        ("cluster", {"sample_corpus": "yes"}),
        ("bicluster", {"lam": "0.1"}),
        ("compare", {"thresholds": ["high"]}),
    ])
    def test_mistyped_file_value_exits_2(self, tmp_path, capsys, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_corpus": True, **values}))
        code = run_cli(command, "--config", cfg, "--out", tmp_path / "o")
        assert_fails_cleanly(capsys, code, 2)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["normalization", "window_scheme"])
    def test_unknown_choice_in_file_exits_1(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_corpus": True, key: "bogus"}))
        code = run_cli("cluster", "--config", cfg, "--out", tmp_path / "o")
        assert "'bogus'" in assert_fails_cleanly(capsys, code, 1)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("values", [{"sample_corpus": True, "out": "o\ud800"},
                                        {"sequences": "s\ud800.fasta"}])
    def test_path_the_file_system_cannot_encode_exits_2(self, tmp_path, monkeypatch,
                                                        capsys, values):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(values))
        code = run_cli("prepare", "--config", "cfg.json")
        assert "is not a file-system path" in assert_fails_cleanly(capsys, code, 2)
        assert os.listdir() == ["cfg.json"]

    def test_undecodable_argv_path_still_works(self, tmp_path):
        # An argv byte that is not UTF-8 arrives as a surrogate escape, which
        # encodes back to the same bytes.
        out = tmp_path / os.fsdecode(b"\xed\xa0\x80")
        assert run_cli("prepare", "--sample-corpus", "--out", out) == 0
        assert (out / "manifest.json").exists()

    def test_int_file_value_passes_as_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_corpus": True, "w": 1, "k": 2,
                                   "max_iter": 3, "n_particles": 4}))
        assert run_cli("cluster", "--config", cfg, "--out", tmp_path) == 0
        data = json.loads((tmp_path / "clusters.json").read_text())
        assert data["config"]["w"] == 1.0
        assert isinstance(data["config"]["w"], float)

    def test_bad_json_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("k = 2")
        assert run_cli("cluster", "--config", cfg, "--out", tmp_path) == 2

    @pytest.mark.parametrize("command,flags,artifacts", [
        ("compare", ["--k", "3", "--k-rows", "3", "--k-cols", "2", "--w", "0.5",
                     "--window-size", "7", "--thresholds", "0.8,0.5"],
         ["compare.json", "tally.csv"]),
        ("cluster", ["--k", "3", "--c1", "1.2", "--window-scheme", "sliding"],
         ["clusters.json"]),
    ])
    def test_echoed_config_reproduces_the_run(self, tmp_path, command, flags,
                                              artifacts):
        assert run_cli(command, "--sample-corpus", "--seed", "3", *FAST, *flags,
                       "--out", tmp_path / "first") == 0
        echo = json.loads((tmp_path / "first" / artifacts[0]).read_text())["config"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(echo))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "again") == 0
        for name in artifacts:
            assert (tmp_path / "again" / name).read_bytes() == \
                (tmp_path / "first" / name).read_bytes()


@pytest.mark.parametrize("window_size", ["0", "-3"])
@pytest.mark.parametrize("command", [["prepare"], ["cluster", "--engine", "kmeans"]])
def test_window_size_below_one_exits_1(tmp_path, capsys, command, window_size):
    code = run_cli(*command, "--sample-corpus", "--window-size", window_size,
                   "--out", tmp_path)
    err = capsys.readouterr().err
    assert code == 1
    assert f"window size must be >= 1, got {window_size}" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("window_size", [10**12, 10**30])
@pytest.mark.parametrize("command", ["prepare", "cluster", "bicluster", "motifs",
                                     "compare"])
def test_window_longer_than_a_sequence_exits_3_before_allocating(
        tmp_path, capsys, command, window_size, source):
    size = ["--window-size", str(window_size)]
    if source == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_size": window_size}))
        size = ["--config", cfg]
    code = run_cli(command, "--sample-corpus", *size, "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 3)
    assert f"sequence 'hel01' has length 18 < window size {window_size}" in err
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json"}


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("name", ["sequences", "structures"])
def test_sample_corpus_with_an_input_path_exits_1(tmp_path, capsys, name, source):
    path = str(sample_corpus_paths()[name == "structures"])
    given = ["--sample-corpus", f"--{name}", path]
    if source == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_corpus": True, name: path}))
        given = ["--config", cfg]
    code = run_cli("prepare", *given, "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 1)
    assert f"sample_corpus and {name}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", [["prepare"], ["cluster"],
                                     ["cluster", "--engine", "kmeans"],
                                     ["bicluster"], ["motifs"], ["compare"]])
def test_negative_seed_exits_1(tmp_path, capsys, command, source):
    seed = ["--seed", "-1"]
    if source == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -3}')
        seed = ["--config", cfg]
    code = run_cli(*command, "--sample-corpus", *seed, "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 1)
    assert "seed must be >= 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [
    ["--thresholds", "nan"],
    ["--thresholds", "inf,0.5"],
    ["--lambda", "nan"],
    ["--lambda", "inf"],
    ["--lambda=-inf"],
    '{"thresholds": [0.7, NaN]}',
    '{"lam": Infinity}',
    '{"thresholds": [%d]}' % 10**400,
    '{"lam": %d}' % -10**400,
])
def test_non_finite_threshold_or_lambda_exits_1(tmp_path, capsys, values):
    if isinstance(values, str):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(values)
        values = ["--config", cfg]
    code = run_cli("compare", "--sample-corpus", *values, *FAST,
                   "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 1)
    assert "must be finite" in err
    assert not (tmp_path / "out").exists()


def test_thresholds_that_do_not_descend_exit_1_before_any_work(tmp_path, capsys,
                                                              monkeypatch):
    def never(*args):
        raise AssertionError("the clustering stage ran")

    monkeypatch.setattr(report, "cluster_corpus", never)
    code = run_cli("compare", "--sample-corpus", "--thresholds", "0.5,0.7",
                   "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 1)
    assert "thresholds must be sorted descending, got [0.5, 0.7]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("cluster", "c1"), ("compare", "c2")])
def test_coefficient_overflowing_the_velocity_update_exits_1(tmp_path, command, key):
    """A finite swarm coefficient so large that the velocity update overflows
    ends in one stderr line. Run in a fresh interpreter, where a numpy
    overflow warning would print to stderr."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_corpus": True, key: 1e308}))
    proc = subprocess.run(
        [sys.executable, "-m", "motifswarm.cli", command, "--config", str(cfg),
         *FAST, "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "velocity update overflowed at iteration" in proc.stderr
    assert f"{key}=1e+308" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["prepare", "cluster", "bicluster", "motifs",
                                     "compare"])
def test_sequence_file_without_records_exits_3(tmp_path, capsys, command):
    fasta = tmp_path / "empty.fasta"
    fasta.write_text("")
    code = run_cli(command, "--sequences", fasta, "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 3)
    assert f"{fasta} holds no sequence records" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--sequences", "--structures", "--config",
                                  "--biclusters"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, flag):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xff\xfe>a\nAAAAAAAAA\n")
    source = {"--sequences": [],
              "--structures": ["--sequences", sample_corpus_paths()[0]]}.get(
                  flag, ["--sample-corpus"])
    code = run_cli("motifs", *source, flag, latin1, "--out", tmp_path / "out")
    err = assert_fails_cleanly(capsys, code, 2)
    assert "can't decode byte 0xff" in err
    assert str(latin1) in err
    assert not (tmp_path / "out").exists()


def test_inputs_that_start_with_a_byte_order_mark_read_as_without(tmp_path):
    bom = tmp_path / "bom"
    bom.mkdir()
    for path in sample_corpus_paths():
        (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

    def csvs(root, out):
        assert run_cli("prepare", "--sequences", root / "sequences.fasta",
                       "--structures", root / "structures.txt", "--out", out) == 0
        return [(out / name).read_bytes() for name in ("windows.csv", "matrix.csv")]

    assert csvs(bom, tmp_path / "bom") == csvs(sample_corpus_paths()[0].parent,
                                               tmp_path / "plain")

    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + b'{"sample_corpus": true, "seed": 2}')
    assert run_cli("prepare", "--config", config, "--out", tmp_path / "cfg") == 0
    manifest = json.loads((tmp_path / "cfg" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["sample_corpus"] is True
    assert manifest["seed"] == 2


@pytest.mark.parametrize("sequences,structures,message", [
    (">a\nAAAAAAAAA\n>b\nCCCCCCCCC\n>a\nGGGGGGGGG\n", None,
     "sequence 'a' is a repeated id"),
    (">a\nAAAAAAAAA\n", ">a\nHHHHHHHHH\n>a\nEEEEEEEEE\n",
     "structure 'a' (line 4) is a repeated id"),
])
def test_repeated_id_exits_3(tmp_path, capsys, sequences, structures, message):
    fasta = tmp_path / "seqs.fasta"
    fasta.write_text(sequences)
    argv = ["prepare", "--sequences", fasta, "--out", tmp_path / "out"]
    if structures is not None:
        (tmp_path / "ss.txt").write_text(structures)
        argv += ["--structures", tmp_path / "ss.txt"]
    err = assert_fails_cleanly(capsys, run_cli(*argv), 3)
    assert message in err
    assert not (tmp_path / "out").exists()


class TestUsage:
    def test_unknown_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 64

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--bogus")
        assert exc.value.code == 64

    def test_no_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 64

    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "motifswarm.cli", "prepare",
             "--sample-corpus", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "manifest.json").exists()


# Flag values for the boundary test: valid ones mixed with wrong ranges, wrong
# types and non-finite numbers. "{root}" stands for the example's directory.
SOURCES = [["--sample-corpus"], ["--sequences", "{sample}/sequences.fasta",
                                 "--structures", "{sample}/structures.txt"],
           ["--sequences", "{root}/empty.fasta"], ["--sequences", "{root}/missing"],
           ["--sequences", "{root}"], ["--sequences", "{root}/latin1.fasta"], []]
IO_FLAGS = {
    "--seed": ["0", "3", "-1", "x"],
    "--window-size": ["1", "5", "0", "-3", "1000", "1000000000000"],
    "--window-scheme": ["chunked", "sliding", "diagonal"],
    "--normalization": ["mean", "range", "mode", "median"],
}
SWARM_FLAGS = {"--w": ["0.5", "-1", "nan", "inf", "1e308", "-1e200"],
               "--c1": ["0", "2", "nan", "1e308"], "--c2": ["1", "-inf", "1e308"]}
BICLUSTER_FLAGS = {"--k-rows": ["1", "3", "0", "40"], "--k-cols": ["1", "2", "0", "21"],
                   "--lambda": ["0.1", "0", "-0.5", "nan", "inf"]}
CLUSTER_FLAGS = {"--k": ["1", "3", "0", "-2", "999"]}
COMMAND_FLAGS = {
    "prepare": IO_FLAGS,
    "cluster": {**IO_FLAGS, **SWARM_FLAGS, **CLUSTER_FLAGS,
                "--engine": ["kmeans", "pso-kmeans", "lloyd"]},
    "bicluster": {**IO_FLAGS, **SWARM_FLAGS, **BICLUSTER_FLAGS},
    "motifs": {**IO_FLAGS, **SWARM_FLAGS, **BICLUSTER_FLAGS,
               "--saa-threshold": ["0", "0.07", "1", "-1", "1.5", "nan"],
               "--biclusters": ["{root}/groups.json", "{root}/repeated.json",
                                "{root}/empty.fasta", "{root}/missing",
                                "{root}/latin1.fasta"]},
    "compare": {**IO_FLAGS, **SWARM_FLAGS, **BICLUSTER_FLAGS, **CLUSTER_FLAGS,
                "--thresholds": ["0.7,0.6", "0.6,0.7", "nan", "inf,0.5", "", "x"]},
}
# Config-file values: one of the key's own type, valid or not, or any JSON
# scalar or list. Path keys only name files inside the example's directory, as
# the flags do.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(), st.text(max_size=2)), max_size=3))
KIND_VALUES = {"int": st.integers(-3, 40), "float": st.floats(), "bool": st.booleans(),
               "tuple": st.lists(st.floats(), max_size=3),
               "str": st.sampled_from(["chunked", "sliding", "mode", "kmeans", "x"])}
PATH_VALUES = st.sampled_from([None, 7, "{root}/missing", "{root}/latin1.fasta",
                               "{root}/s\ud800"])
CONFIG_VALUES = {
    f.name: PATH_VALUES if f.name in ("sequences", "structures", "biclusters", "trace",
                                      "out")
    else st.one_of(KIND_VALUES[f.type.partition(" | ")[0]], JSON_VALUES)
    for f in dataclasses.fields(Settings) if f.init}
CONFIG_VALUES["clusters_k"] = JSON_VALUES


@st.composite
def invocations(draw):
    """(argv, config) for one command: its input flags (mostly the sample
    corpus), a subset of its other flags, tiny swarms, and maybe a
    config-file object."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    source = draw(st.sampled_from(SOURCES)) if draw(st.booleans()) else SOURCES[0]
    argv = [command, *source]
    flags = COMMAND_FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    if command != "prepare":
        argv += ["--max-iter", draw(st.sampled_from(["1", "2", "0"])),
                 "--n-particles", draw(st.sampled_from(["1", "3", "0", "101"]))]
    if command == "cluster":
        argv += ["--trace", "{root}/out/trace.csv"]
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True,
                             max_size=4))
        config = {key: draw(CONFIG_VALUES[key]) for key in keys}
    return argv, config


def _tree(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")}


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_every_input_ends_in_a_documented_exit_code(invocation):
    """Any mix of flags and config-file values ends in exit 0, 1, 2, 3 or 64
    without a traceback, and writes nothing outside --out."""
    argv, config = invocation
    sample = Path(cli.__file__).parent / "data" / "sample_corpus"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "empty.fasta").write_text("")
        (root / "latin1.fasta").write_bytes(b"\xff\xfe>a\nAAAAAAAAA\n")
        group = {"id": "g", "rows": ["hel01", "str07"], "cols": "AGL"}
        (root / "groups.json").write_text(json.dumps({"biclusters": [group]}))
        (root / "repeated.json").write_text(json.dumps({"biclusters": [group, group]}))
        argv = [a.format(root=root, sample=sample) for a in argv]
        if config is not None:
            text = json.dumps(config).replace("{root}", str(root))
            (root / "cfg.json").write_text(text)
            argv += ["--config", str(root / "cfg.json")]
        before, cwd_before = _tree(root), set(os.listdir())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main([*argv, "--out", str(root / "out")])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 64), err.getvalue()
        assert "Traceback" not in err.getvalue()
        written = _tree(root) - before
        assert all(p.parts[0] == "out" for p in written), written
        assert set(os.listdir()) == cwd_before
