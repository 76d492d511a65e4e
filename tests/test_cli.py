import argparse
import hashlib
import json
import math
import os
import platform

import numpy as np
import pytest

from gumbelmark import (
    ARS,
    GenConfig,
    HigherCriticism,
    Key,
    SumScore,
    ToySource,
    TrGoF,
    __version__,
    cli,
    critical_value,
    generate,
    null_sf,
    pivot_series,
    tolerance_limit,
)
from gumbelmark import experiments
from gumbelmark.cli import main
from gumbelmark.detectors import BoundarySpec
from gumbelmark.streams import child_seed, substream
from gumbelmark.watermark import TokenSeq

from util import count_law_passes

KEY = "00112233445566778899aabbccddeeff"


def run(*argv) -> int:
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_text(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def read_csv_rows(path) -> list[str]:
    """Lines of a CSV file read as bytes: '\\n' endings only, no '\\r'."""
    raw = read_text(path, "rb")
    assert b"\r" not in raw and raw.endswith(b"\n")
    return raw.decode("utf-8").strip().split("\n")


# the first work each experiment suite starts, once it has checked its flags
FIRST_WORK = {"hist": "histogram_study", "boundary": "boundary_grid", "efficiency": "rate_curve",
              "tolerance": "generate"}


def stub_first_work(monkeypatch, suite):
    def work_must_not_start(*args, **kwargs):
        pytest.fail(f"experiment {suite} started on out-of-range flags")
    monkeypatch.setattr(cli, FIRST_WORK[suite], work_must_not_start)


class TestGenerate:
    def test_watermarked_roundtrip(self, tmp_path):
        out = str(tmp_path / "seq.json")
        rc = run("generate", "--key", KEY, "--n", "50", "--m", "5", "--delta", "0.3",
                 "--seed", "11", "--out", out)
        assert rc == 0
        seq = TokenSeq.from_json(read_text(out))
        assert len(seq) == 55
        assert "W" in seq.provenance
        manifest = read_json(out + ".manifest.json")
        assert manifest["outputs"] == [os.path.realpath(out)]
        assert manifest["command"] == "generate"

    def test_null_has_no_watermark(self, tmp_path):
        out = str(tmp_path / "null.json")
        assert run("generate", "--null", "--n", "30", "--seed", "4", "--out", out) == 0
        seq = TokenSeq.from_json(read_text(out))
        assert "W" not in seq.provenance

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert run("generate", "--key", KEY, "--n", "64", "--seed", "7", "--out", out) == 0
        assert read_text(a, "rb") == read_text(b, "rb")

    def test_missing_key_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GUMBELMARK_KEY", raising=False)
        out = str(tmp_path / "x.json")
        assert run("generate", "--n", "10", "--out", out) == 2

    def test_key_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GUMBELMARK_KEY", KEY)
        out = str(tmp_path / "env.json")
        assert run("generate", "--n", "10", "--out", out) == 0

    def test_generated_count_flagged(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert run("generate", "--key", KEY, "--n", "400", "--m", "5", "--delta", "0.3",
                   "--seed", "3", "--out", out) == 0
        seq = TokenSeq.from_json(read_text(out))
        assert len(seq) - 5 == 400


# sha256 of the bytes each command writes, recorded before generate and
# generate_null shared one loop and random edits took plain arguments; the
# opt_0.9 verdict re-pinned when verdicts dropped their p_value_floor field,
# and every watermarked one when the first generated token's context stopped
# counting as seen (null and no_masking kept theirs)
GOLDEN_SHA256 = {
    "generate": "c5c399001b9e5b24db806ccbbee07ce6974a87efda5e8d636c1e09d3c6ebbee0",
    "null": "58ee7c36a744d1aaeabe4d06ca44997a58186adb9d0dbae24ce7809f9f31d2ae",
    "no_masking": "f7be964c64d24f1a6e80e3c0443b7acfba9dd5f165e28a596b4cc9874b8a15ef",
    "sub": "6a8755164db17a6e990a599d78c8bb3957be792cfca47501562c25d98406e64d",
    "ins": "e45045abfdb918807c3247f6e5977b3bd49bc431a3d116e8ce540e609f1cb6d0",
    "del": "73faa3766fee76bc917bf7125e1bc885e45803d7e1b18fe77f68afcf431ff353",
    "adv": "b8c0f27ecad2d7752314c97e1cf3b902e718836632b47735c709ed881130420c",
    "tolerance": "a33216e82f4720a6457b433f18c50fbc0a4ab61adb456bb7ae4a29fef3b33957",
    "opt_0.9": "3a0197f42f421d2ad2ee788f5d26423ae28f9ca45eddbed456a7a55932e9ffaa",
}
GEN_ARGS = ("--n", "80", "--m", "2", "--vocab-size", "20", "--seed", "5")


def sha256_of(path) -> str:
    return hashlib.sha256(read_text(path, "rb")).hexdigest()


class TestByteGoldens:
    @pytest.mark.parametrize("name, flags", [
        ("generate", ("--key", KEY)),
        ("null", ("--null",)),
        ("no_masking", ("--key", KEY, "--no-masking")),
    ])
    def test_generate(self, tmp_path, name, flags):
        out = str(tmp_path / "seq.json")
        assert run("generate", *flags, *GEN_ARGS, "--out", out) == 0
        assert sha256_of(out) == GOLDEN_SHA256[name]

    @pytest.mark.parametrize("kind", ["sub", "ins", "del", "adv"])
    def test_edit(self, tmp_path, kind):
        seq, out = str(tmp_path / "seq.json"), str(tmp_path / "edited.json")
        assert run("generate", "--key", KEY, *GEN_ARGS, "--out", seq) == 0
        assert run("edit", "--in", seq, "--edit", kind, "--fraction", "0.2", "--seed", "9",
                   "--vocab-size", "20", "--key", KEY, "--out", out) == 0
        assert sha256_of(out) == GOLDEN_SHA256[kind]

    def test_tolerance_suite(self, tmp_path):
        out_dir = str(tmp_path / "tol")
        assert run("experiment", "tolerance", "--key", KEY, "--vocab-size", "20", "--n0", "120",
                   "--n-test", "65", "--m", "5", "--delta", "0.3", "--trials", "2", "--alpha", "0.01",
                   "--seed", "3", "--out-dir", out_dir) == 0
        assert sha256_of(os.path.join(out_dir, "tolerance.csv")) == GOLDEN_SHA256["tolerance"]

    def test_failed_suite_leaves_no_csv(self, tmp_path, capsys):
        # alpha = 1e-30 lies below the least alpha of the exact law at the first
        # decision, after the header is written: exit 3, and no partial CSV,
        # no temporary and no out dir are left
        out_dir = tmp_path / "tol"
        assert run("experiment", "tolerance", "--key", KEY, "--alpha", "1e-30", "--n0", "40", "--n-test", "30",
                   "--m", "5", "--trials", "1", "--out-dir", str(out_dir)) == 3
        assert "least alpha" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_suite_keeps_an_existing_out_dir(self, tmp_path, capsys):
        # only a directory the call made is removed, and only when empty
        out_dir = tmp_path / "tol"
        out_dir.mkdir()
        assert run("experiment", "tolerance", "--key", KEY, "--alpha", "1e-30", "--n0", "40", "--n-test", "30",
                   "--m", "5", "--trials", "1", "--out-dir", str(out_dir)) == 3
        assert "least alpha" in capsys.readouterr().err
        assert out_dir.is_dir() and os.listdir(out_dir) == []

    @pytest.mark.parametrize("argv, code", [
        (("hist", "--n", "2000", "--trials", "3", "--vocab-size", "50", "--alpha", "1e-30"), 3),
        (("hist", "--alpha", "0"), 2),
    ], ids=["data_error", "usage_error"])
    def test_failed_suite_leaves_no_directory_it_made(self, tmp_path, capsys, argv, code):
        # every missing ancestor of --out-dir that the call made is removed,
        # and an empty directory that was there before stays
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "nest" / "a" / "b")) == code
        assert capsys.readouterr().err.count("\n") == 1 and os.listdir(tmp_path) == []
        (tmp_path / "keep").mkdir()
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "keep" / "a" / "b")) == code
        assert os.listdir(tmp_path) == ["keep"] and os.listdir(tmp_path / "keep") == []
        # ".." is resolved before any directory is made: x of x/../y is never made
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "x" / ".." / "y")) == code
        assert os.listdir(tmp_path) == ["keep"]
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "x" / ".." / "keep" / "y")) == code
        assert os.listdir(tmp_path) == ["keep"] and os.listdir(tmp_path / "keep") == []

    def test_out_dir_is_resolved_before_it_is_made(self, tmp_path):
        # the suite writes where the kernel resolves --out-dir, and makes no x for x/../y
        argv = ("experiment", "efficiency", "--delta-max", "0.05")
        assert run(*argv, "--out-dir", str(tmp_path / "plain")) == 0
        assert run(*argv, "--out-dir", str(tmp_path / "x" / ".." / "y")) == 0
        assert sorted(os.listdir(tmp_path)) == ["plain", "y"]
        eff = [read_text(str(tmp_path / d / "efficiency.csv"), "rb") for d in ("plain", "y")]
        assert eff[0] == eff[1]
        outputs = read_json(str(tmp_path / "y" / "manifest.json"))["outputs"]
        assert outputs == [os.path.realpath(tmp_path / "y" / "efficiency.csv")]

    @pytest.mark.parametrize("delta0", ["0.9", "0.99", "0.999"])
    def test_opt_verdict_is_finite_or_a_data_error(self, tmp_path, capsys, delta0):
        # the opt null moments are finite up to delta0 = 1, and so is the
        # statistic: the split-form log density keeps y**(1/P - 1), which
        # underflows at 0.999, out of the log
        seq, out = str(tmp_path / "seq.json"), str(tmp_path / "verdict.json")
        assert run("generate", "--key", KEY, "--n", "100", "--vocab-size", "20", "--seed", "1", "--out", seq) == 0
        rc = run("detect", "--in", seq, "--key", KEY, "--vocab-size", "20", "--detector", "sum", "--score", "opt",
                 "--delta0", delta0, "--calibrate", "--out", out)
        if delta0 == "0.9":
            assert rc == 0 and sha256_of(out) == GOLDEN_SHA256["opt_0.9"]
            return
        verdict = read_json(out)
        assert rc == 0 and verdict["reject"] is True
        assert all(math.isfinite(verdict[k]) for k in ("statistic", "critical_value", "p_value"))
        assert "Warning" not in capsys.readouterr().err


# a run that writes the targets, a second run whose write fails once its
# temporary is filled, and the suffix of the target whose os.replace fails
# (None: a CSV row raises mid-file); "{seq}" is a sequence file, "{out}" tmp_path
TOLERANCE_ARGS = ("experiment", "tolerance", "--key", KEY, "--n0", "40", "--n-test", "30", "--m", "5",
                  "--trials", "1", "--out-dir", "{out}/tol")
FAILED_WRITES = {
    "sequence": (("generate", "--key", KEY, *GEN_ARGS, "--out", "{out}/seq.json"), ("--seed", "6"), "seq.json",
                 ("seq.json", "seq.json.manifest.json")),
    "verdict": (("detect", "--in", "{seq}", "--key", KEY, "--critical-value", "1", "--out", "{out}/v.json"),
                ("--calibrate",), "v.json", ("v.json", "v.json.manifest.json")),
    "manifest": (("detect", "--in", "{seq}", "--key", KEY, "--critical-value", "1", "--out", "{out}/v.json"),
                 ("--calibrate",), "v.json.manifest.json", ("v.json.manifest.json",)),
    "calibration": (("calibrate", "--n", "50", "--out", "{out}/c.json"), ("--n", "60"), "c.json",
                    ("c.json", "c.json.manifest.json")),
    "csv": (TOLERANCE_ARGS, ("--alpha", "1e-30"), None, ("tol/tolerance.csv", "tol/manifest.json")),
}


@pytest.mark.parametrize("case", FAILED_WRITES)
def test_failed_write_leaves_the_old_file(seq_file, tmp_path, capsys, monkeypatch, case):
    # every file goes through one temp-and-rename writer: a write that fails
    # after its temporary is filled exits 3 and leaves the target it would
    # have replaced byte for byte, and no temporary
    first, changed, fail_suffix, kept = FAILED_WRITES[case]
    argv = [a.format(seq=seq_file, out=tmp_path) for a in first]
    assert run(*argv) == 0
    before = {name: read_text(str(tmp_path / name), "rb") for name in kept}
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(fail_suffix):
            assert os.path.getsize(src) > 0, "the temporary is filled before it replaces its target"
            raise OSError(f"cannot replace {dst}")
        return real_replace(src, dst)

    if fail_suffix is not None:
        monkeypatch.setattr(os, "replace", replace)
    assert run(*argv, *changed) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert {name: read_text(str(tmp_path / name), "rb") for name in kept} == before
    assert list(tmp_path.rglob("*.tmp")) == []
    if case == "manifest":  # the new verdict beside the old manifest: its pinned digest tells them apart
        verdict = str(tmp_path / "v.json")
        pinned = read_json(verdict + ".manifest.json")["output_sha256"][os.path.realpath(verdict)]
        assert pinned != sha256_of(verdict)


# each command's run: its argv ("{seq}" a sequence file, "{out}" the out dir),
# where its manifest sits, the command it records, and its outputs
MANIFESTS = {
    "generate": (("generate", "--key", KEY, *GEN_ARGS, "--out", "{out}/seq.json"), "seq.json.manifest.json",
                 "generate", ("seq.json",)),
    "edit": (("edit", "--in", "{seq}", "--edit", "sub", "--fraction", "0.1", "--vocab-size", "20", "--seed", "4",
              "--out", "{out}/e.json"), "e.json.manifest.json", "edit", ("e.json",)),
    "detect": (("detect", "--in", "{seq}", "--key", KEY, "--calibrate", "--seed", "2", "--out", "{out}/v.json"),
               "v.json.manifest.json", "detect", ("v.json",)),
    "calibrate": (("calibrate", "--n", "50", "--seed", "3", "--out", "{out}/c.json"), "c.json.manifest.json",
                  "calibrate", ("c.json",)),
    "suite": (("experiment", "hist", "--n", "50", "--trials", "2", "--vocab-size", "5", "--s-list", "1",
               "--seed", "8", "--out-dir", "{out}/h"), "h/manifest.json", "experiment hist",
              ("h/hist_samples.csv", "h/hist_power.json")),
}


@pytest.mark.parametrize("case", MANIFESTS)
def test_manifest_pins_each_output(seq_file, tmp_path, case):
    # main writes every manifest from the record its command returns: at its
    # path, naming the command, the seed and the outputs (each resolved), each
    # output pinned by the SHA-256 of the bytes on disk
    argv, manifest_name, command, names = MANIFESTS[case]
    argv = [a.format(seq=seq_file, out=tmp_path) for a in argv]
    assert run(*argv) == 0
    manifest = read_json(str(tmp_path / manifest_name))
    outputs = [os.path.realpath(tmp_path / name) for name in names]
    assert manifest["command"] == command and manifest["outputs"] == outputs
    assert manifest["seed"] == int(argv[argv.index("--seed") + 1])
    assert manifest["output_sha256"] == {path: sha256_of(path) for path in outputs}


def test_manifest_paths_are_found_from_any_directory(tmp_path, monkeypatch):
    # a run given relative paths writes at them, and its manifest records each
    # path resolved: read from another directory, every output is there and
    # matches its pinned digest, and every input is there too
    (tmp_path / "run").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    runs = {
        "seq.json": ("generate", "--key", KEY, *GEN_ARGS),
        "e.json": ("edit", "--in", "seq.json", "--edit", "sub", "--fraction", "0.1", "--vocab-size", "20"),
        "v.json": ("detect", "--in", "e.json", "--key", KEY, "--calibrate"),
        "c.json": ("calibrate", "--n", "50"),
    }
    for out, argv in runs.items():
        assert run(*argv, "--out", out) == 0
    assert run("experiment", "efficiency", "--delta-max", "0.05", "--out-dir", "eff") == 0
    assert sorted(os.listdir()) == sorted(["eff", *runs, *(f"{out}.manifest.json" for out in runs)])
    manifests = [f"{out}.manifest.json" for out in runs] + ["eff/manifest.json"]
    manifests = [read_json(path) for path in manifests]
    monkeypatch.chdir(tmp_path / "elsewhere")
    for manifest in manifests:
        outputs = manifest["outputs"]
        assert outputs and all(os.path.isabs(path) and os.path.isfile(path) for path in outputs)
        assert manifest["output_sha256"] == {path: sha256_of(path) for path in outputs}
    run_dir = os.path.realpath(tmp_path / "run")
    assert [m["config"]["in"] for m in manifests[1:3]] == [os.path.join(run_dir, "seq.json"),
                                                          os.path.join(run_dir, "e.json")]
    assert manifests[4]["config"]["out_dir"] == os.path.join(run_dir, "eff")


def test_memory_error_is_a_data_error(tmp_path, capsys, monkeypatch):
    # an array too large for the host (a tiny --step) exits 3 with one line,
    # and the suite leaves no out dir; the stub raises, so no array is asked for
    message = "Unable to allocate 6.48 TiB for an array with shape (890000000001,) and data type float64"

    def too_large(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_suite_efficiency", too_large)
    out_dir = tmp_path / "eff"
    assert run("experiment", "efficiency", "--step", "1e-12", "--out-dir", str(out_dir)) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out_dir.exists()


# a detector flag out of its range, and the text of the rule it breaks
BAD_DETECTOR_FLAGS = {
    ("--detector", "trgof", "--s", "3"): "s must lie in [-1, 2], got 3.0",
    ("--detector", "sum", "--score", "ind", "--delta0", "1.5"): "delta0 must lie in (0, 1)",
    # 1 - delta0 rounds to 1: opt's least-favorable law is a point mass
    # and its null variance 0 (ZeroDivisionError, or a threshold of 0)
    ("--detector", "sum", "--score", "opt", "--delta0", "1e-300"): "with 1 - delta0 < 1, got 1e-300",
    ("--detector", "sum", "--score", "opt", "--delta0", "1e-17"): "with 1 - delta0 < 1, got 1e-17",
    ("--alpha", "1.5"): "alpha must lie in (0, 1), got 1.5",
    ("--c-plus", "1.5"): "c_plus must lie in [0, 1], got 1.5",
    ("--critical-value", "nan"): "critical value must be finite, got nan",
    ("--critical-value", "inf"): "critical value must be finite, got inf",
    ("--critical-value=-inf",): "critical value must be finite, got -inf",
    ("--s", "nan"): "s must lie in [-1, 2], got nan",
    ("--c-plus", "nan"): "c_plus must lie in [0, 1], got nan",
    ("--c-plus", "-0.1"): "c_plus must lie in [0, 1], got -0.1",
    ("--detector", "hc", "--c-plus", "2"): "c_plus must lie in [0, 1], got 2.0",
    ("--detector", "sum", "--score", "opt", "--delta0", "nan"): "with 1 - delta0 < 1, got nan",
    ("--alpha", "nan"): "alpha must lie in (0, 1), got nan",
    ("--alpha", "0"): "alpha must lie in (0, 1), got 0.0",
}


@pytest.fixture(scope="module")
def seq_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("detect") / "seq.json")
    assert run("generate", "--key", KEY, "--n", "300", "--m", "5", "--delta", "0.3",
               "--vocab-size", "20", "--seed", "21", "--out", path) == 0
    return path


class TestDetect:

    def test_requires_critical_value_or_calibrate(self, seq_file, tmp_path):
        out = str(tmp_path / "v.json")
        assert run("detect", "--in", seq_file, "--key", KEY, "--out", out) == 2

    def test_right_key_rejects(self, seq_file, tmp_path):
        out = str(tmp_path / "v.json")
        rc = run("detect", "--in", seq_file, "--key", KEY, "--detector", "trgof",
                 "--s", "2", "--calibrate", "--reps", "2000", "--outer", "3",
                 "--alpha", "0.01", "--seed", "5", "--out", out)
        assert rc == 0
        verdict = read_json(out)
        assert verdict["reject"] is True
        assert verdict["n_scored"] == 300
        assert verdict["statistic"] >= verdict["critical_value"]

    def test_wrong_key_accepts(self, seq_file, tmp_path):
        out = str(tmp_path / "w.json")
        rc = run("detect", "--in", seq_file, "--key", "deadbeef", "--detector", "trgof",
                 "--s", "2", "--calibrate", "--reps", "2000", "--outer", "3",
                 "--alpha", "0.01", "--seed", "5", "--out", out)
        assert rc == 0
        assert read_json(out)["reject"] is False

    def test_sum_detector(self, seq_file, tmp_path):
        out = str(tmp_path / "s.json")
        rc = run("detect", "--in", seq_file, "--key", KEY, "--detector", "sum",
                 "--score", "ars", "--calibrate", "--alpha", "0.01", "--out", out)
        assert rc == 0
        assert read_json(out)["reject"] is True

    @pytest.mark.parametrize("detector", [["trgof", "--s", "2"], ["trgof", "--s", "1"], ["hc"],
                                          ["sum", "--score", "ars"]])
    @pytest.mark.parametrize("key", [KEY, "deadbeef"])
    def test_reject_is_p_value_at_most_alpha(self, seq_file, tmp_path, detector, key):
        out = str(tmp_path / "p.json")
        assert run("detect", "--in", seq_file, "--key", key, "--detector", *detector,
                   "--calibrate", "--alpha", "0.01", "--out", out) == 0
        verdict = read_json(out)
        assert 0.0 <= verdict["p_value"] <= 1.0
        assert verdict["reject"] is (verdict["p_value"] <= 0.01)

    def test_verdict_and_manifest_schema(self, seq_file, tmp_path):
        out = str(tmp_path / "v.json")
        assert run("detect", "--in", seq_file, "--key", KEY, "--calibrate", "--out", out) == 0
        verdict = read_json(out)
        assert set(verdict) == {"statistic", "p_value", "n_scored", "critical_value", "reject", "detector"}
        # s = 1 on the watermarked document and on two weaker edits of it: each
        # tail lies below 3.0e-12, where 1 - P(no crossing) is rounding noise at
        # n = 300, and the three p-values fall as the statistic rises
        det = TrGoF(s=1.0, c_plus=1.0 / 300)
        docs = [seq_file]
        for fraction in ("0.12", "0.15"):
            docs.append(str(tmp_path / f"edited_{fraction}.json"))
            assert run("edit", "--in", seq_file, "--edit", "sub", "--fraction", fraction, "--seed", "3",
                       "--vocab-size", "20", "--out", docs[-1]) == 0
        strong = []
        for doc in docs:
            assert run("detect", "--in", doc, "--key", KEY, "--s", "1", "--calibrate", "--out", out) == 0
            strong.append(read_json(out))
            assert strong[-1]["p_value"] == null_sf(det, 300, strong[-1]["statistic"])
            assert 0.0 < strong[-1]["p_value"] <= 1e-11 and strong[-1]["reject"] is True
        assert [v["statistic"] for v in strong] == sorted((v["statistic"] for v in strong), reverse=True)
        assert [v["p_value"] for v in strong] == sorted(v["p_value"] for v in strong)
        assert len({v["p_value"] for v in strong}) == 3
        # the wrong key: an ordinary tail
        assert run("detect", "--in", seq_file, "--key", "deadbeef", "--s", "1", "--calibrate", "--out", out) == 0
        weak = read_json(out)
        assert weak["p_value"] == null_sf(det, 300, weak["statistic"]) > 1e-3
        manifest = read_json(out + ".manifest.json")
        assert set(manifest) == {"command", "config", "seed", "version", "library_versions", "outputs",
                                 "output_sha256", "wall_clock_s", "timings_s"}
        assert manifest["output_sha256"] == {os.path.realpath(out): sha256_of(out)}
        # the package loads no other library, though the test suite has loaded scipy
        versions = manifest["library_versions"]
        assert versions == {"python": platform.python_version(), "numpy": np.__version__}
        timings = manifest["timings_s"]
        assert set(timings) == {"load", "pivots", "calibrate", "score"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= manifest["wall_clock_s"] + 1e-3

    def test_too_few_scored_positions_is_data_error(self, tmp_path, capsys):
        # the exact law takes every n >= 1: two scored positions calibrate, and
        # a sequence no longer than its window has none to score
        seq, out = str(tmp_path / "short.json"), str(tmp_path / "v.json")
        assert run("generate", "--key", KEY, "--n", "2", "--m", "5", "--seed", "1", "--out", seq) == 0
        assert run("detect", "--in", seq, "--key", KEY, "--vocab-size", "20", "--calibrate", "--out", out) == 0
        verdict = read_json(out)
        assert verdict["n_scored"] == 2
        assert verdict["critical_value"] == critical_value(TrGoF(s=2.0, c_plus=0.5), 2, 0.01)
        bare = tmp_path / "bare.json"
        bare.write_text(TokenSeq([1, 2, 3, 4, 5], ["P"] * 5, 5).to_json() + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("detect", "--in", str(bare), "--key", KEY, "--vocab-size", "20", "--calibrate",
                   "--out", str(tmp_path / "w.json")) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no scored positions" in err
        assert "Traceback" not in err and not os.path.exists(tmp_path / "w.json")

    def test_small_alpha_is_calibrated(self, tmp_path):
        # 400 scored positions: alpha = 1e-12 lies below the rounding of
        # 1 - P(no crossing) there (~2e-12), and still solves
        seq, out = str(tmp_path / "seq.json"), str(tmp_path / "v.json")
        assert run("generate", "--key", KEY, "--n", "400", "--m", "5", "--seed", "1", "--out", seq) == 0
        assert run("detect", "--in", seq, "--key", KEY, "--calibrate", "--alpha", "1e-12", "--out", out) == 0
        verdict = read_json(out)
        assert verdict["n_scored"] == 400
        det = TrGoF(s=2.0, c_plus=1.0 / 400)
        assert null_sf(det, 400, verdict["critical_value"]) == pytest.approx(1e-12, rel=1e-6)

    def test_alpha_below_accuracy_is_refused(self, tmp_path, capsys):
        # 30 scored positions: alpha = 1e-30 lies below null_sf at the top of the bracket
        seq = str(tmp_path / "seq.json")
        assert run("generate", "--key", KEY, "--n", "30", "--m", "5", "--seed", "1", "--out", seq) == 0
        capsys.readouterr()
        assert run("detect", "--in", seq, "--key", KEY, "--vocab-size", "20", "--calibrate", "--alpha", "1e-30",
                   "--out", str(tmp_path / "v.json")) == 3
        assert run("calibrate", "--n", "30", "--alpha", "1e-30", "--out", str(tmp_path / "c.json")) == 2
        err = capsys.readouterr().err
        assert err.count("accuracy") == 2 and "Traceback" not in err
        assert not os.path.exists(tmp_path / "v.json") and not os.path.exists(tmp_path / "c.json")

    @pytest.mark.parametrize("vocab", [(), ("--vocab-size", "20")], ids=["inferred_vocab", "given_vocab"])
    def test_empty_sequence_is_data_error(self, tmp_path, capsys, vocab):
        empty = tmp_path / "empty.json"
        empty.write_text('{"tokens": [], "provenance": [], "m": 0}')
        assert run("detect", "--in", str(empty), "--key", KEY, "--critical-value", "1", *vocab,
                   "--out", str(tmp_path / "v.json")) == 3
        err = capsys.readouterr().err
        assert err == f"data error: token sequence file {empty} is empty: no tokens to score\n"
        assert not os.path.exists(tmp_path / "v.json")

    @pytest.mark.parametrize("flags", list(BAD_DETECTOR_FLAGS))
    def test_bad_detector_flag_is_usage_error(self, seq_file, tmp_path, capsys, flags):
        assert run("detect", "--in", seq_file, "--key", KEY, "--vocab-size", "20", "--calibrate",
                   *flags, "--out", str(tmp_path / "v.json")) == 2
        assert run("calibrate", "--n", "100", *flags, "--out", str(tmp_path / "c.json")) == 2
        lines = capsys.readouterr().err.splitlines()
        # one line per command, each naming the rule the flag breaks; --n is
        # not at fault, so calibrate's line does not name it
        assert len(lines) == 2 and all(line.startswith("usage error: ") for line in lines)
        assert all(BAD_DETECTOR_FLAGS[flags] in line for line in lines)
        assert "cannot calibrate" not in lines[1]
        assert not os.path.exists(tmp_path / "v.json") and not os.path.exists(tmp_path / "c.json")

    @pytest.mark.parametrize("flags, rule", [
        (("--n", "0"), "need n >= 1, got 0"),
        (("--n", "0", "--detector", "sum"), "need n >= 1, got 0"),
        (("--n", "30", "--alpha", "1e-30"), "accuracy"),
    ], ids=["n0", "n0_sum", "alpha_below_accuracy"])
    def test_calibrate_names_n_for_what_n_decides(self, tmp_path, capsys, flags, rule):
        # the detector at n and its critical value refuse these: the line names --n
        assert run("calibrate", *flags, "--out", str(tmp_path / "c.json")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"usage error: cannot calibrate at --n {flags[1]}: ")
        assert rule in lines[0] and not os.path.exists(tmp_path / "c.json")

    @pytest.mark.parametrize("flags, unread", [
        (("--detector", "hc"), ("--s", "3")),
        (("--detector", "sum"), ("--c-plus", "2")),
        (("--detector", "sum", "--score", "ars"), ("--delta0", "nan")),
    ], ids=["hc_s", "sum_c_plus", "ars_delta0"])
    def test_flag_the_detector_does_not_read_changes_nothing(self, seq_file, tmp_path, flags, unread):
        # a detector checks only the flags it reads: a value out of another
        # detector's range is neither refused nor used
        for tag, argv in (("plain", flags), ("unread", flags + unread)):
            assert run("detect", "--in", seq_file, "--key", KEY, "--vocab-size", "20", "--calibrate", *argv,
                       "--out", str(tmp_path / f"v_{tag}.json")) == 0
            assert run("calibrate", "--n", "100", *argv, "--out", str(tmp_path / f"c_{tag}.json")) == 0
        for name in ("v", "c"):
            assert read_text(tmp_path / f"{name}_unread.json", "rb") == read_text(tmp_path / f"{name}_plain.json", "rb")

    @pytest.mark.parametrize("kind", ["trgof", "hc", "sum"])
    def test_detector_block_is_the_spec_detector(self, seq_file, tmp_path, kind):
        # detect and calibrate score and calibrate the detector of the spec
        # the flags describe, whatever the c+ rule
        for c_plus in ("0", "1/n", "1/n2", 0.3):
            spec = BoundarySpec(name=kind, kind=kind, c_plus_rule=c_plus, score_kind=ARS if kind == "sum" else None)
            flags = ("--detector", kind, "--c-plus", str(c_plus), "--alpha", "0.05")
            v, c = str(tmp_path / "v.json"), str(tmp_path / "c.json")
            assert run("detect", "--in", seq_file, "--key", KEY, "--vocab-size", "20", "--calibrate", *flags,
                       "--out", v) == 0
            assert run("calibrate", "--n", "100", *flags, "--out", c) == 0
            assert read_json(v)["detector"] == spec.detector(300).fit(300, 0.05).to_config(), c_plus
            assert read_json(c)["detector"] == spec.detector(100).fit(100, 0.05).to_config(), c_plus

    def test_missing_file_is_usage_error(self, tmp_path):
        out = str(tmp_path / "x.json")
        assert run("detect", "--in", str(tmp_path / "nope.json"), "--key", KEY,
                   "--critical-value", "1", "--out", out) == 2

    @pytest.mark.parametrize("text, reason", [
        ("[1, 2, 3]", "a token sequence must be a JSON object"),
        ("null", "a token sequence must be a JSON object"),
        ('{"tokens": 5, "provenance": [], "m": 1}', "tokens must be a list of integers"),
        ('{"tokens": [1, 2, 3], "provenance": 7, "m": 1}', "provenance must be a list of strings"),
        ('{"tokens": [1, 2, 1.5], "provenance": ["P", "S", "S"], "m": 1}', "tokens must be a list of integers"),
        ('{"tokens": [1, 2, true], "provenance": ["P", "S", "S"], "m": 1}', "tokens must be a list of integers"),
        ('{"tokens": [1, 2, 3], "provenance": ["P", "S", 0], "m": 1}', "provenance must be a list of strings"),
        ('{"tokens": [1, 2, 3], "provenance": ["P", "S", "S"], "m": 1.0}', "m must be a non-negative integer"),
        ('{"tokens": [1, 2, 3], "provenance": ["P", "S", "S"], "m": -1}', "m must be a non-negative integer"),
        ('{"provenance": ["P", "S", "S"], "m": 1}', "missing field 'tokens'"),
        ('{"tokens": [1, 2, 3], "m": 1}', "missing field 'provenance'"),
        ('{"tokens": [1, 2, 3], "provenance": ["P", "S", "S"]}', "missing field 'm'"),
    ], ids=["list", "null", "int_tokens", "int_provenance", "float_id", "bool_id", "int_flag",
            "float_m", "negative_m", "no_tokens", "no_provenance", "no_m"])
    def test_wrong_shape_file_is_data_error(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("detect", "--in", str(bad), "--key", KEY, "--critical-value", "1",
                   "--out", str(tmp_path / "v.json")) == 3
        assert run("edit", "--in", str(bad), "--edit", "sub", "--fraction", "0.1", "--vocab-size", "20",
                   "--out", str(tmp_path / "e.json")) == 3
        err = capsys.readouterr().err
        assert err == f"data error: bad token sequence file {bad}: {reason}\n" * 2
        assert not os.path.exists(tmp_path / "v.json") and not os.path.exists(tmp_path / "e.json")

    def test_corrupt_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("detect", "--in", str(bad), "--key", KEY,
                   "--critical-value", "1", "--out", str(tmp_path / "x.json")) == 3

    def test_deeply_nested_file_is_data_error(self, tmp_path, capsys):
        # json recurses once per nested list: past the interpreter's limit it
        # raises RecursionError, which must map to exit 3 like any bad file
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100000)
        assert run("detect", "--in", str(bad), "--key", KEY, "--critical-value", "1",
                   "--out", str(tmp_path / "v.json")) == 3
        for kind in ("sub", "ins", "del", "adv"):
            assert run("edit", "--in", str(bad), "--edit", kind, "--fraction", "0.1", "--vocab-size", "20",
                       "--key", KEY, "--out", str(tmp_path / "e.json")) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 5 and all(line.startswith(f"data error: bad token sequence file {bad}: ") for line in lines)
        assert os.listdir(tmp_path) == ["bad.json"]


class TestEdit:
    def test_edit_then_detect(self, tmp_path):
        seq = str(tmp_path / "seq.json")
        edited = str(tmp_path / "edited.json")
        assert run("generate", "--key", KEY, "--n", "100", "--vocab-size", "20",
                   "--seed", "2", "--out", seq) == 0
        assert run("edit", "--in", seq, "--edit", "sub", "--fraction", "0.1",
                   "--seed", "3", "--vocab-size", "20", "--out", edited) == 0
        before = TokenSeq.from_json(read_text(seq))
        after = TokenSeq.from_json(read_text(edited))
        assert len(after) == len(before)
        assert sum(c == "E" for c in after.provenance) == 10

    def test_repeat_detect_reuses_the_critical_value(self, tmp_path, monkeypatch):
        # two verdicts on one edited file in one process: the second solves
        # nothing and runs the one pass of the exact law its p-value takes
        seq, edited = str(tmp_path / "seq.json"), str(tmp_path / "edited.json")
        assert run("generate", "--key", KEY, "--n", "200", "--vocab-size", "20",
                   "--seed", "4", "--out", seq) == 0
        assert run("edit", "--in", seq, "--edit", "sub", "--fraction", "0.1",
                   "--seed", "4", "--vocab-size", "20", "--out", edited) == 0
        passes = count_law_passes(monkeypatch)
        verdicts, counts = [], []
        for i in range(2):
            out, before = str(tmp_path / f"verdict{i}.json"), passes[0]
            assert run("detect", "--in", edited, "--key", KEY, "--vocab-size", "20",
                       "--detector", "trgof", "--s", "1", "--calibrate", "--out", out) == 0
            verdicts.append(read_text(out, "rb"))
            counts.append(passes[0] - before)
        assert verdicts[0] == verdicts[1]
        assert 8 <= counts[0] <= 10 and counts[1] == 1, counts

    @pytest.mark.parametrize("argv", [
        ("edit", "--edit", "sub", "--fraction", "1.5", "--vocab-size", "20"),
        ("edit", "--edit", "adv", "--fraction", "nan", "--vocab-size", "20"),
        ("edit", "--edit", "del", "--fraction", "0.1", "--vocab-size", "1"),
        ("generate", "--delta", "1.5"),
        ("generate", "--delta", "nan"),
        ("generate", "--vocab-size", "1"),
        ("generate", "--delta-min", "0.5", "--delta-max", "0.2"),
        ("detect", "--calibrate", "--vocab-size", "0"),
        ("detect", "--calibrate", "--vocab-size", "1"),
        ("detect", "--calibrate", "--vocab-size", "-3"),
    ], ids=["edit_fraction", "edit_fraction_nan", "edit_vocab", "generate_delta", "generate_delta_nan",
            "generate_vocab", "generate_empty_delta_range", "detect_vocab_0", "detect_vocab_1",
            "detect_vocab_negative"])
    def test_out_of_range_flag_is_usage_error(self, seq_file, tmp_path, capsys, argv):
        # as for calibrate and experiment: checked before any input is read,
        # exit 2 with one line, and no output
        source = ("--in", seq_file) if argv[0] in ("edit", "detect") else ("--n", "10")
        assert run(*argv, *source, "--key", KEY, "--out", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1 and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_adversarial_needs_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GUMBELMARK_KEY", raising=False)
        seq = str(tmp_path / "seq.json")
        assert run("generate", "--key", KEY, "--n", "40", "--vocab-size", "20",
                   "--seed", "2", "--out", seq) == 0
        assert run("edit", "--in", seq, "--edit", "adv", "--fraction", "0.1",
                   "--vocab-size", "20", "--out", str(tmp_path / "e.json")) == 2


class TestCalibrateCmd:
    def test_writes_result_and_cache(self, tmp_path):
        out = str(tmp_path / "calib.json")
        rc = run("calibrate", "--detector", "trgof", "--s", "2", "--n", "100",
                 "--alpha", "0.05", "--reps", "500", "--outer", "2", "--seed", "1",
                 "--out", out)
        assert rc == 0
        res = read_json(out)
        assert set(res) == {"alpha", "critical_value", "detector", "n"}
        assert res["n"] == 100 and res["alpha"] == 0.05
        # exact calibration is cheap enough that nothing is cached
        assert sorted(os.listdir(tmp_path)) == ["calib.json", "calib.json.manifest.json"]
        assert run("calibrate", "--n", "100", "--cache-dir", str(tmp_path / "cache"), "--out", out) == 2

    def test_detector_block_is_calibrated(self, tmp_path):
        # a --critical-value flag is replaced, in the detector block as well
        out = str(tmp_path / "calib.json")
        assert run("calibrate", "--n", "100", "--critical-value", "5", "--out", out) == 0
        res = read_json(out)
        want = critical_value(TrGoF(s=2.0, c_plus=0.01), 100, 0.01)
        assert res["critical_value"] == res["detector"]["critical_value"] == want
        assert read_json(out + ".manifest.json")["config"]["detector"] == res["detector"]

    def test_sum_clt(self, tmp_path):
        out = str(tmp_path / "calib.json")
        rc = run("calibrate", "--detector", "sum", "--score", "ars", "--n", "400",
                 "--alpha", "0.01", "--out", out)
        assert rc == 0
        assert read_json(out)["critical_value"] == pytest.approx(446.5269574808168, abs=1e-6)

    def test_sum_takes_any_alpha(self, tmp_path):
        # 1 - 1e-30 rounds to 1, which the CLT threshold never forms
        out = str(tmp_path / "calib.json")
        assert run("calibrate", "--detector", "sum", "--n", "400", "--alpha", "1e-30", "--out", out) == 0
        crit = read_json(out)["critical_value"]
        assert null_sf(SumScore(ARS), 400, crit) == pytest.approx(1e-30, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--n", "0"),
        ("calibrate", "--n", "-5"),
        ("calibrate", "--detector", "hc", "--n", "0"),
        ("calibrate", "--detector", "sum", "--n", "0"),
        ("experiment", "boundary", "--n", "0"),
        ("experiment", "boundary", "--n", "1"),
        ("experiment", "hist", "--n", "0"),
        ("experiment", "hist", "--n", "1"),  # the mixture's q floor divides by log n
        ("experiment", "sumboundary", "--n", "1"),
        ("generate", "--key", KEY, "--n", "0"),
        ("generate", "--null", "--n", "10", "--m", "0"),
        ("experiment", "tolerance", "--n-test", "5", "--m", "5"),
        ("experiment", "tolerance", "--n-test", "4", "--m", "5"),
        ("experiment", "hist", "--trials", "0"),
        ("experiment", "efficiency", "--step", "0"),
        ("experiment", "boundary", "--grid", "1"),
        ("experiment", "tolerance", "--m", "0"),
    ])
    def test_too_small_n_is_usage_error(self, tmp_path, capsys, argv):
        out = ["--out-dir", str(tmp_path / "x")] if argv[0] == "experiment" else ["--out", str(tmp_path / "c.json")]
        assert run(*argv, *out) == 2
        err = capsys.readouterr().err
        # the message names the flag that is too small
        assert err.startswith("usage error:") and argv[-2] in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []


    def test_least_n_is_the_library_rule(self, tmp_path, capsys):
        # critical_value alone decides the least n, 1 for every detector: the
        # exact laws calibrate at n = 1 and 2, and n = 0 is refused
        for detector, n, det in (("sum", 1, SumScore(ARS)), ("trgof", 1, TrGoF(s=1.0, c_plus=1.0)),
                                 ("trgof", 2, TrGoF(s=1.0, c_plus=0.5)), ("hc", 2, HigherCriticism(c_plus=0.5))):
            out = str(tmp_path / f"{detector}{n}.json")
            assert run("calibrate", "--detector", detector, "--s", "1", "--n", str(n), "--out", out) == 0
            assert read_json(out)["critical_value"] == critical_value(det, n, 0.01), (detector, n)
        empty = tmp_path / "trgof"
        empty.mkdir()
        assert run("calibrate", "--detector", "trgof", "--n", "0", "--out", str(empty / "c.json")) == 2
        assert "--n 0" in capsys.readouterr().err and os.listdir(empty) == []

    def test_short_lengths_run_the_suites(self, tmp_path):
        # hist calibrates at --n 2, and tolerance decides sequences with a
        # single scored position (--n-test = --m + 1)
        assert run("experiment", "hist", "--n", "2", "--vocab-size", "20", "--trials", "5", "--s-list", "2,1",
                   "--out-dir", str(tmp_path / "hist")) == 0
        assert set(read_json(str(tmp_path / "hist" / "hist_power.json"))) == {"2.0", "1.0"}
        assert run("experiment", "tolerance", "--key", KEY, "--vocab-size", "20", "--n0", "20", "--n-test", "6",
                   "--m", "5", "--trials", "1", "--out-dir", str(tmp_path / "tol")) == 0
        assert len(read_csv_rows(str(tmp_path / "tol" / "tolerance.csv"))) == 4


class TestExperimentSuites:
    @pytest.mark.parametrize("argv", [
        ("hist", "--alpha", "0"),
        ("tolerance", "--alpha", "1.5"),
        ("efficiency", "--eps", "0"),
        ("hist", "--vocab-size", "1"),
        ("hist", "--s-list", "2,x"),
    ])
    def test_out_of_range_experiment_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert argv[-2] in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_bad_s_list_names_the_flag_not_the_helper(self, tmp_path, capsys):
        assert run("experiment", "hist", "--s-list", "2,x", "--out-dir", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "--s-list" in err and "'2,x'" in err and "_s_list" not in err

    @pytest.mark.parametrize("argv", [
        ("hist", "--s-list", "3"),
        ("hist", "--s-list", "2,-1.5"),
        ("boundary", "--s", "3"),
        ("boundary", "--s", "nan"),
    ])
    def test_s_outside_its_range_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # the [-1, 2] that TrGoF and detect --s hold; the suite starts no work
        stub_first_work(monkeypatch, argv[0])
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "[-1, 2]" in err and argv[1] in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ("--delta-max", "1.0"),
        ("--delta-min", "0.5", "--delta-max", "0.2"),
        ("--delta-min", "0"),
    ], ids=["max_at_1", "empty_grid", "min_at_0"])
    def test_delta_range_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # unchecked, --delta-max 1.0 would put delta = 1 on the grid, where
        # the least-favorable law does not exist: the rate curve never starts
        stub_first_work(monkeypatch, "efficiency")
        assert run("experiment", "efficiency", *argv, "--out-dir", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: need 0 < --delta-min <= --delta-max < 1") and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ("hist", "--p", "2"),
        ("hist", "--q", "2"),
        ("hist", "--q", "-0.5"),
        ("hist", "--q", "1e-5"),  # below log_n(V/(V-1)) = 1.45e-4 at n = V = 1000
        ("hist", "--c-plus", "2"),
        ("boundary", "--c-plus", "2"),
        ("tolerance", "--c-plus", "-0.5"),
        ("tolerance", "--n0", "0"),
        ("tolerance", "--delta", "1.5"),
        ("tolerance", "--delta", "0"),
    ], ids=["hist_p", "hist_q", "hist_q_negative", "hist_q_floor", "hist_c_plus", "boundary_c_plus",
            "tolerance_c_plus", "tolerance_n0", "tolerance_delta", "tolerance_delta_0"])
    def test_value_the_library_refuses_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # the suite's mixture, detector, source and generation config are made
        # from the flags before it starts any work, and the out dir is removed
        stub_first_work(monkeypatch, argv[0])
        assert run("experiment", *argv, "--key", KEY, "--out-dir", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1 and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag, value, rule", [
        ("--p", "2", "p must lie in [0, 1], got 2.0"),
        ("--q", "nan", "q must lie in [0, 1], got nan"),
    ], ids=["p", "q_nan"])
    def test_mixture_exponent_names_itself(self, tmp_path, capsys, monkeypatch, flag, value, rule):
        # MixtureConfig checks p and q by check_fraction, which names the one at fault
        stub_first_work(monkeypatch, "hist")
        assert run("experiment", "hist", flag, value, "--out-dir", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --n 1000, ") and err.endswith(f": {rule}\n") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, unread, outputs", [
        (("efficiency", "--delta-min", "0.05", "--delta-max", "0.3", "--step", "0.05"),
         ("--vocab-size", "1", "--n", "1", "--trials", "0", "--s", "3"), ["efficiency.csv"]),
        (("gapcheck", "--trials", "2000", "--seed", "2"), ("--s", "3", "--n", "1"), ["gapcheck.csv"]),
        (("tolerance", "--key", KEY, "--vocab-size", "20", "--n0", "40", "--n-test", "30", "--m", "5",
          "--trials", "1", "--seed", "3"), ("--n", "1"), ["tolerance.csv"]),
        (("hist", "--n", "200", "--vocab-size", "20", "--trials", "10", "--s-list", "2,1"), ("--s", "3"),
         ["hist_samples.csv", "hist_power.json"]),
    ], ids=["efficiency", "gapcheck", "tolerance", "hist"])
    def test_flag_the_suite_does_not_read_changes_nothing(self, tmp_path, argv, unread, outputs):
        # each suite checks only the flags it reads: a value out of another
        # suite's range is neither refused nor used
        assert run("experiment", *argv, "--out-dir", str(tmp_path / "plain")) == 0
        assert run("experiment", *argv, *unread, "--out-dir", str(tmp_path / "unread")) == 0
        for name in outputs:
            assert read_text(str(tmp_path / "unread" / name), "rb") == read_text(str(tmp_path / "plain" / name), "rb")

    def test_efficiency_suite_monotone(self, tmp_path):
        out_dir = str(tmp_path / "eff")
        rc = run("experiment", "efficiency", "--eps", "1.0", "--delta-min", "0.05",
                 "--delta-max", "0.5", "--step", "0.05", "--seed", "0", "--out-dir", out_dir)
        assert rc == 0
        rows = read_csv_rows(os.path.join(out_dir, "efficiency.csv"))[1:]
        rates = [float(r.split(",")[2]) for r in rows]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        manifest = read_json(os.path.join(out_dir, "manifest.json"))
        assert manifest["outputs"]

    def test_hist_suite(self, tmp_path):
        out_dir = str(tmp_path / "hist")
        rc = run("experiment", "hist", "--n", "300", "--p", "0.1", "--q", "0.3",
                 "--vocab-size", "30", "--trials", "30", "--s-list", "2,1",
                 "--seed", "1", "--out-dir", out_dir)
        assert rc == 0
        rows = read_csv_rows(os.path.join(out_dir, "hist_samples.csv"))
        assert rows[0] == "s,hypothesis,log_n_stat" and len(rows) == 1 + 2 * 2 * 30
        power = read_json(os.path.join(out_dir, "hist_power.json"))
        assert set(power) == {"2.0", "1.0"}

    def test_hist_refused_alpha_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        # the critical values are solved before the trials, so an alpha below
        # the exact law's least alpha fails before any mixture is sampled
        trials = []
        monkeypatch.setattr(experiments, "sample_mixture", lambda *a: trials.append(a))
        out_dir = str(tmp_path / "hist")
        assert run("experiment", "hist", "--n", "2000", "--trials", "300", "--vocab-size", "50",
                   "--alpha", "1e-30", "--out-dir", out_dir) == 3
        assert "accuracy" in capsys.readouterr().err and trials == []
        assert not os.path.exists(out_dir)

    def test_boundary_suite_smoke(self, tmp_path):
        out_dir = str(tmp_path / "bnd")
        rc = run("experiment", "boundary", "--n", "200", "--grid", "3", "--trials", "20",
                 "--vocab-size", "20", "--seed", "2", "--out-dir", out_dir)
        assert rc == 0
        rows = read_csv_rows(os.path.join(out_dir, "boundary.csv"))
        assert len(rows) == 1 + 9

    def test_reproducible_suite(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (a, b):
            assert run("experiment", "hist", "--n", "200", "--p", "0.2", "--q", "0.4",
                       "--vocab-size", "20", "--trials", "15", "--s-list", "2",
                       "--seed", "9", "--out-dir", d) == 0
        fa = read_text(os.path.join(a, "hist_samples.csv"))
        fb = read_text(os.path.join(b, "hist_samples.csv"))
        assert fa == fb


class TestParser:
    """One parser serves every main call of a process."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli.build_parser.cache_clear()

    def test_second_call_adds_no_argument(self, tmp_path, monkeypatch):
        calls, add = [], argparse._ActionsContainer.add_argument

        def counting(container, *args, **kwargs):
            calls.append(args)
            return add(container, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        counts = []
        for i in range(2):
            before = len(calls)
            assert run("calibrate", "--n", "50", "--out", str(tmp_path / f"c{i}.json")) == 0
            counts.append(len(calls) - before)
        assert counts[0] > 60 and counts[1] == 0, counts

    def test_errors_leave_the_parser_usable(self, seq_file, tmp_path, capsys):
        reused, fresh = str(tmp_path / "reused.json"), str(tmp_path / "fresh.json")
        detect = ("detect", "--in", seq_file, "--key", KEY, "--calibrate", "--out")
        # an argument argparse refuses is one usage error line, not its usage block
        assert run(*detect, reused, "--no-such-flag") == 2
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --no-such-flag\n"
        assert run("calibrate", "--n", "1.5", "--out", reused) == 2
        assert capsys.readouterr().err == "usage error: argument --n: invalid int value: '1.5'\n"
        assert not os.path.exists(reused)
        assert run("--version") == 0
        assert capsys.readouterr().out == f"gumbelmark {__version__}\n"
        assert run("calibrate", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: gumbelmark calibrate")
        assert run(*detect, reused) == 0
        cli.build_parser.cache_clear()
        assert run(*detect, fresh) == 0
        assert read_text(reused, "rb") == read_text(fresh, "rb")

    def test_no_state_leaks_between_calls(self, tmp_path):
        null, marked = str(tmp_path / "null.json"), str(tmp_path / "marked.json")
        assert run("generate", "--null", "--n", "30", "--seed", "4", "--out", null) == 0
        assert run("generate", "--key", KEY, "--n", "30", "--seed", "4", "--out", marked) == 0
        assert "W" not in TokenSeq.from_json(read_text(null)).provenance
        assert "W" in TokenSeq.from_json(read_text(marked)).provenance
        s_lists = []
        for i, flags in enumerate((("--s-list", "1"), ())):
            out_dir = str(tmp_path / f"hist{i}")
            assert run("experiment", "hist", "--n", "50", "--trials", "2", "--vocab-size", "5", *flags,
                       "--out-dir", out_dir) == 0
            s_lists.append(read_json(os.path.join(out_dir, "manifest.json"))["config"]["s_list"])
        assert s_lists == [[1.0], [2.0, 1.5, 1.0, 0.5, 0.0]]

    def test_commands_are_looked_up_when_they_run(self, tmp_path, monkeypatch):
        # the parser holds names, not functions: a command or suite patched
        # after the first main call (a stub, a tracer's wrapper) is the one run
        assert run("calibrate", "--n", "50", "--out", str(tmp_path / "c.json")) == 0
        ran = []
        monkeypatch.setattr(cli, "cmd_detect",
                            lambda args: ran.append(("detect", args.infile)) or {"config": {}, "outputs": []})
        monkeypatch.setattr(cli, "_suite_efficiency", lambda args: ran.append(("efficiency", args.eps)) or [])
        assert run("detect", "--in", "seq.json", "--critical-value", "1", "--out", str(tmp_path / "v.json")) == 0
        assert run("experiment", "efficiency", "--eps", "0.5", "--out-dir", str(tmp_path / "eff")) == 0
        assert ran == [("detect", "seq.json"), ("efficiency", 0.5)]
        assert read_json(str(tmp_path / "v.json.manifest.json"))["outputs"] == []
        assert read_json(str(tmp_path / "eff" / "manifest.json"))["outputs"] == []

    @pytest.mark.parametrize("argv", [
        ("generate", "--null", "--n", "10"),
        ("edit", "--in", "{seq}", "--edit", "sub", "--fraction", "0.1", "--vocab-size", "20"),
        ("detect", "--in", "{seq}", "--key", KEY, "--critical-value", "1"),
        ("calibrate", "--n", "100"),
        ("experiment", "gapcheck", "--trials", "10"),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, seq_file, tmp_path, capsys, argv):
        out = ["--out-dir", str(tmp_path / "x")] if argv[0] == "experiment" else ["--out", str(tmp_path / "o.json")]
        assert run(*(a.format(seq=seq_file) for a in argv), "--seed", "-1", *out) == 2
        err = capsys.readouterr().err
        assert "argument --seed: seed must be a non-negative integer, got '-1'" in err
        assert os.listdir(tmp_path) == []


class TestDetectPower:
    def test_right_key_power_and_wrong_key_level(self, tmp_path):
        # end-to-end: 200 seeded runs at n = 400, delta = 0.3, alpha = 0.01;
        # right key must reject in >= 95% of runs, a wrong key in about alpha
        from gumbelmark import (
            GenConfig, Key, ToySource, TrGoF, generate, mc_critical, pivot_series,
        )
        from gumbelmark.streams import child_seed, substream

        vocab, m, n = 20, 5, 400
        det = TrGoF(s=2.0, c_plus=1.0 / n)
        crit = mc_critical(det, n, 0.01, reps=4000, outer=5, seed=55)
        key, wrong = Key(bytes.fromhex(KEY)), Key(b"not-the-key")
        hits = miss = 0
        for i in range(200):
            src = ToySource(vocab, (0.3, 0.3), seed=child_seed(42, i, 0))
            prompt = substream(42, i, 1).integers(0, vocab, size=m).tolist()
            seq = generate(src, key, prompt, GenConfig(n=n, m=m, masking=True,
                                                       seed=child_seed(42, i, 2)))
            hits += det.statistic(pivot_series(seq, key, vocab)) >= crit
            miss += det.statistic(pivot_series(seq, wrong, vocab)) >= crit
        assert hits / 200 >= 0.95
        assert miss / 200 <= 0.04


class TestRemainingSuites:
    def test_sumboundary_suite(self, tmp_path):
        out_dir = str(tmp_path / "sb")
        rc = run("experiment", "sumboundary", "--n", "300", "--grid", "3", "--trials", "20",
                 "--vocab-size", "20", "--seed", "1", "--out-dir", out_dir)
        assert rc == 0
        rows = read_csv_rows(os.path.join(out_dir, "sumboundary.csv"))
        assert len(rows) == 1 + 9 * 4  # header + grid cells x four scores

    @pytest.mark.parametrize("scores", ["ind", "ars:0.5", "opt:2", "ind:x", "nope"])
    def test_sumboundary_bad_scores_is_usage_error(self, tmp_path, capsys, scores):
        # ind needs a parameter, ars takes none, opt's lies in (0, 1)
        rc = run("experiment", "sumboundary", "--scores", f"ars,{scores}", "--n", "300", "--grid", "2",
                 "--trials", "5", "--vocab-size", "20", "--out-dir", str(tmp_path / "sb"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and scores in err and err.count("\n") == 1

    def test_gapcheck_suite(self, tmp_path):
        out_dir = str(tmp_path / "gc")
        rc = run("experiment", "gapcheck", "--trials", "30000", "--seed", "2",
                 "--out-dir", out_dir)
        assert rc == 0
        rows = read_csv_rows(os.path.join(out_dir, "gapcheck.csv"))[1:]
        assert all(r.endswith("True") for r in rows)

    def test_tolerance_suite(self, tmp_path):
        out_dir = str(tmp_path / "tol")
        rc = run("experiment", "tolerance", "--key", KEY, "--vocab-size", "20",
                 "--n0", "120", "--n-test", "65", "--m", "5", "--delta", "0.3",
                 "--trials", "1", "--alpha", "0.01",
                 "--seed", "3", "--out-dir", out_dir)
        assert rc == 0
        # the manifest records the run but never the watermark key
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            assert KEY not in fh.read()
        rows = read_csv_rows(os.path.join(out_dir, "tolerance.csv"))[1:]
        assert len(rows) == 3  # sub, ins, del for the one sequence
        for r in rows:
            frac = float(r.split(",")[2])
            assert 0.0 <= frac <= 1.0

    def test_tolerance_calibrates_at_each_length(self, tmp_path):
        # deletions leave head(n_test) shorter than n_test; each decision is
        # calibrated at its own scored length (one threshold at n_test - m = 8
        # gives 0.75 here), down to the exact law's least n, 1
        out_dir = str(tmp_path / "tol")
        rc = run("experiment", "tolerance", "--key", KEY, "--vocab-size", "200", "--n0", "8", "--n-test", "9",
                 "--m", "1", "--delta", "0.5", "--alpha", "0.05", "--trials", "1", "--seed", "3", "--out-dir", out_dir)
        assert rc == 0
        key = Key.from_hex(KEY)
        source = ToySource(200, (0.5, 0.5), child_seed(3, 1, 0))
        prompt = substream(3, 2, 0).integers(0, 200, size=1).tolist()
        seq = generate(source, key, prompt, GenConfig(n=8, m=1, masking=True, seed=child_seed(3, 3, 0)))
        lengths = []

        def decide(ts):
            piv = pivot_series(ts, key, 200)
            lengths.append(piv.n)
            return piv.n >= 1 and TrGoF(s=2.0, c_plus=1.0 / piv.n).fit(piv.n, alpha=0.05).predict(piv)

        res = tolerance_limit(seq, "del", decide, 9, child_seed(3, 4, 0), 200)
        assert read_csv_rows(os.path.join(out_dir, "tolerance.csv"))[3] == f"0,del,{res.fraction!r},True"
        assert res.fraction == 0.625 and min(lengths) < 3


# ---------------------------------------------------------------------------
# the bad-input corpus: every malformed sequence file and every out-of-range
# numeric flag exits 2 or 3 with one line; a flag the command does not read
# changes nothing. --seed is left out: argparse's own type check refuses a
# negative seed before any command runs (test_negative_seed_is_usage_error)
# ---------------------------------------------------------------------------

# a valid sequence over V = 20 with m = 2; each malformed file breaks it in one place
GOOD_SEQ = {"tokens": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3], "provenance": ["P", "P"] + ["W", "S"] * 4, "m": 2}


def seq_text(**fields) -> str:
    """GOOD_SEQ as JSON with ``fields`` replaced; a field set to None is left out."""
    return json.dumps({k: v for k, v in dict(GOOD_SEQ, **fields).items() if v is not None})


def with_entry(name: str, i: int, value) -> list:
    entries = list(GOOD_SEQ[name])
    entries[i] = value
    return entries


BAD_SEQ_FILES = {
    "empty": "",
    "not_json": "tokens: 3 1 4",
    "json_list": "[3, 1, 4]",
    "no_tokens": seq_text(tokens=None),
    "no_provenance": seq_text(provenance=None),
    "no_m": seq_text(m=None),
    "bool_id": seq_text(tokens=with_entry("tokens", 4, True)),
    "float_id": seq_text(tokens=with_entry("tokens", 4, 4.5)),
    "negative_id": seq_text(tokens=with_entry("tokens", 4, -1)),
    "id_past_4_bytes": seq_text(tokens=with_entry("tokens", 4, 2**32)),
    "id_at_vocab": seq_text(tokens=with_entry("tokens", 4, 20)),
    "provenance_short": seq_text(provenance=GOOD_SEQ["provenance"][:-1]),
    "provenance_unknown_flag": seq_text(provenance=with_entry("provenance", 4, "X")),
    "watermark_in_prompt": seq_text(provenance=with_entry("provenance", 0, "W")),
    "negative_m": seq_text(m=-1),
    "float_m": seq_text(m=2.5),
    "m_at_length": seq_text(provenance=["P", "P"] + ["S"] * 8, m=10),
    "deeply_nested": "[" * 100000,
}

FILE_COMMANDS = {
    "detect": ("detect", "--vocab-size", "20", "--critical-value", "1"),
    "edit_sub": ("edit", "--edit", "sub", "--fraction", "0.1", "--vocab-size", "20"),
    "edit_ins": ("edit", "--edit", "ins", "--fraction", "0.1", "--vocab-size", "20"),
    "edit_del": ("edit", "--edit", "del", "--fraction", "0.1", "--vocab-size", "20"),
    "edit_adv": ("edit", "--edit", "adv", "--fraction", "0.1", "--vocab-size", "20"),
}

NONFINITE = ("nan", "inf", "-inf")
COUNT = ("0", "-1")  # an int flag that counts, or a length: each must be at least 1
VOCAB = ("0", "-1", "1")
FRACTION = (*NONFINITE, "-0.1", "1.5")  # a [0, 1] flag
OPEN_UNIT = (*NONFINITE, "0", "-0.1", "1", "1.5")  # a (0, 1) flag
S_VALUES = (*NONFINITE, "-1.5", "3")  # TrGoF's s lies in [-1, 2]
C_PLUS = (*NONFINITE, "-0.1", "2")

# base argv of each command (each one fast), then each flag it reads with the
# values out of its range; "{seq}" is a valid sequence file over V = 20
DETECTOR_FLAGS = {"--s": S_VALUES, "--c-plus": C_PLUS, "--alpha": OPEN_UNIT, "--critical-value": NONFINITE}
FLAG_COMMANDS = {
    "generate": (("generate", "--key", KEY, "--n", "20", "--vocab-size", "20"), {
        "--vocab-size": VOCAB, "--n": COUNT, "--m": COUNT, "--delta": OPEN_UNIT,
        "--delta-min": OPEN_UNIT, "--delta-max": OPEN_UNIT}),
    "edit": (("edit", "--in", "{seq}", "--edit", "sub", "--fraction", "0.1", "--vocab-size", "20"), {
        "--fraction": FRACTION, "--vocab-size": (*VOCAB, "2")}),
    "detect": (("detect", "--in", "{seq}", "--key", KEY, "--critical-value", "1"), {
        "--vocab-size": (*VOCAB, "2"), **DETECTOR_FLAGS}),
    "detect_opt": (("detect", "--in", "{seq}", "--key", KEY, "--critical-value", "1", "--detector", "sum",
                    "--score", "opt"), {
        "--delta0": (*OPEN_UNIT, "1e-300")}),
    "detect_ind": (("detect", "--in", "{seq}", "--key", KEY, "--critical-value", "1", "--detector", "sum",
                    "--score", "ind"), {
        "--delta0": OPEN_UNIT}),
    "calibrate": (("calibrate", "--n", "50"), {"--n": COUNT, **DETECTOR_FLAGS}),
    "calibrate_opt": (("calibrate", "--n", "50", "--detector", "sum", "--score", "opt"), {
        "--delta0": (*OPEN_UNIT, "1e-300")}),
    "experiment_hist": (("experiment", "hist", "--n", "50", "--trials", "2", "--vocab-size", "5", "--s-list", "2"), {
        "--n": (*COUNT, "1"), "--trials": COUNT, "--vocab-size": VOCAB, "--p": (*NONFINITE, "-1", "1.5"),
        "--q": (*NONFINITE, "0", "-1", "1.5"), "--s-list": S_VALUES, "--c-plus": C_PLUS, "--alpha": OPEN_UNIT}),
    "experiment_boundary": (("experiment", "boundary", "--n", "50", "--grid", "2", "--trials", "2",
                             "--vocab-size", "5"), {
        "--grid": VOCAB, "--n": (*COUNT, "1"), "--trials": COUNT, "--vocab-size": VOCAB, "--s": S_VALUES,
        "--c-plus": C_PLUS}),
    "experiment_sumboundary": (("experiment", "sumboundary", "--n", "50", "--grid", "2", "--trials", "2",
                                "--vocab-size", "5"), {
        "--grid": VOCAB, "--n": (*COUNT, "1"), "--trials": COUNT, "--vocab-size": VOCAB}),
    "experiment_efficiency": (("experiment", "efficiency", "--delta-max", "0.05", "--step", "0.02"), {
        "--eps": (*NONFINITE, "0", "-1", "1.5"), "--delta-min": (*NONFINITE, "0", "-1", "1"),
        "--delta-max": (*NONFINITE, "0", "-1", "1"), "--step": (*NONFINITE, "0", "-1")}),
    "experiment_gapcheck": (("experiment", "gapcheck", "--trials", "10"), {"--trials": COUNT}),
    "experiment_tolerance": (("experiment", "tolerance", "--key", KEY, "--vocab-size", "20", "--n0", "20",
                              "--n-test", "6", "--m", "5", "--trials", "1"), {
        "--trials": COUNT, "--n0": COUNT, "--m": COUNT, "--n-test": COUNT, "--vocab-size": VOCAB,
        "--delta": OPEN_UNIT, "--s": S_VALUES, "--c-plus": C_PLUS, "--alpha": OPEN_UNIT}),
}

# numeric flags each command has but does not read, set all at once to each
# kind of bad value (an int flag takes only the finite ones)
EXPERIMENT_INT_FLAGS = ("--n", "--grid", "--trials", "--vocab-size", "--m", "--n0", "--n-test")
EXPERIMENT_FLOAT_FLAGS = ("--p", "--q", "--s", "--s-list", "--c-plus", "--alpha", "--eps", "--delta-min",
                          "--delta-max", "--step", "--delta")


def unread_by(suite: str, flags: tuple) -> tuple:
    return tuple(f for f in flags if f not in FLAG_COMMANDS[f"experiment_{suite}"][1])


UNREAD_FLAGS = {
    "generate_delta": ((), ("--delta",)),
    "detect": (("--reps", "--outer"), ()),
    "detect_sum": (("--reps", "--outer"), ("--s", "--c-plus", "--delta0")),
    "detect_hc": ((), ("--s", "--delta0")),
    "calibrate": (("--reps", "--outer"), ("--delta0",)),
    **{f"experiment_{suite}": (unread_by(suite, EXPERIMENT_INT_FLAGS), unread_by(suite, EXPERIMENT_FLOAT_FLAGS))
       for suite in ("hist", "boundary", "sumboundary", "efficiency", "gapcheck", "tolerance")},
}
UNREAD_BASE = {"generate_delta": FLAG_COMMANDS["generate"][0] + ("--delta-min", "0.2", "--delta-max", "0.4"),
               "detect_sum": FLAG_COMMANDS["detect"][0] + ("--detector", "sum"),
               "detect_hc": FLAG_COMMANDS["detect"][0] + ("--detector", "hc")}
UNREAD_VALUES = {"nan": ("nan", None), "inf": ("inf", None), "-inf": ("-inf", None), "0": ("0", "0"),
                 "-1": ("-1", "-1"), "huge": ("1e300", "1000000000000")}


# arguments argparse itself refuses: a value an int flag or --seed cannot
# take, an unknown flag, a missing required flag or subcommand
ARGPARSE_INT_FLAGS = {"generate": ("--vocab-size", "--n", "--m"), "edit": ("--vocab-size",),
                      "detect": ("--vocab-size", "--reps", "--outer"), "calibrate": ("--n", "--reps", "--outer"),
                      "experiment_gapcheck": EXPERIMENT_INT_FLAGS}
ARGPARSE_MISSING = {"generate-n": ("generate", "--null"), "edit-edit": ("edit", "--in", "{seq}", "--fraction", "0.1"),
                    "detect-in": ("detect", "--key", KEY, "--critical-value", "1"), "calibrate-n": ("calibrate",),
                    "experiment-suite": ("experiment",)}


def bad_input_cases() -> list:
    cases = []
    for file_name, text in BAD_SEQ_FILES.items():
        for cmd_name, argv in FILE_COMMANDS.items():
            cases.append(pytest.param(text, (*argv, "--in", "{seq}", "--key", KEY), True,
                                      id=f"file-{file_name}-{cmd_name}"))
    for cmd_name, (argv, flags) in FLAG_COMMANDS.items():
        for flag, values in flags.items():
            for value in values:
                cases.append(pytest.param(None, (*argv, f"{flag}={value}"), True,
                                          id=f"flag-{cmd_name}-{flag[2:]}={value}"))
    for cmd_name, int_flags in ARGPARSE_INT_FLAGS.items():
        argv = FLAG_COMMANDS[cmd_name][0]
        for bad in (*(f"{f}={v}" for f in (*int_flags, "--seed") for v in ("1.5", "x")), "--seed=-1",
                    "--no-such-flag"):
            cases.append(pytest.param(None, (*argv, bad), True, id=f"argparse-{cmd_name}-{bad[2:]}"))
    for label, argv in ARGPARSE_MISSING.items():
        cases.append(pytest.param(None, argv, True, id=f"argparse-missing-{label}"))
    for cmd_name, (int_flags, float_flags) in UNREAD_FLAGS.items():
        argv = UNREAD_BASE.get(cmd_name) or FLAG_COMMANDS[cmd_name][0]
        for label, (float_value, int_value) in UNREAD_VALUES.items():
            unread = [f"{f}={float_value}" for f in float_flags]
            if int_value is not None:
                unread += [f"{f}={int_value}" for f in int_flags]
            if unread:
                cases.append(pytest.param(None, (*argv, *unread), False, id=f"unread-{cmd_name}-{label}"))
    return cases


@pytest.mark.parametrize("text, argv, refused", bad_input_cases())
def test_bad_input_exits_with_one_line(seq_file, tmp_path, capsys, text, argv, refused):
    # a refused input exits 2 or 3 with one usage or data error line and writes
    # nothing; a run whose bad values sit only in unread flags exits 0, and its
    # manifest, which records them, is strict JSON
    if text is not None:
        seq = tmp_path / "bad.json"
        seq.write_text(text)
    else:
        seq = seq_file
    out = str(tmp_path / "out")
    target = ("--out-dir", out) if argv[0] == "experiment" else ("--out", out)
    code = run(*(a.format(seq=seq) for a in argv), *target)
    err = capsys.readouterr().err
    if refused:
        assert code in (2, 3), (code, err)
        assert err.count("\n") == 1 and err.startswith(("usage error: ", "data error: ")), err
        assert not os.path.exists(out)
    else:
        assert (code, err) == (0, "")
        manifest = os.path.join(out, "manifest.json") if argv[0] == "experiment" else out + ".manifest.json"
        json.loads(read_text(manifest), parse_constant=pytest.fail)
