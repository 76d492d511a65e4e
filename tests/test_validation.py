"""Each input rule is raised by one ``_validation`` function, so every entry
point that takes the value refuses it with the same message."""

import math

import numpy as np
import pytest

from gumbelmark import (
    EditPlan,
    GenConfig,
    Key,
    MixtureConfig,
    ToySource,
    TrGoF,
    critical_value,
    generate,
    make_m1,
    make_m2,
    mc_critical,
    null_sf,
    prf_uniform,
    prf_vector,
)
from gumbelmark.cli import main
from gumbelmark.detectors import resolve_c_plus
from gumbelmark.watermark import TokenSeq

KEY = Key(b"one-rule")


@pytest.mark.parametrize("vocab", [1, 0, -3])
def test_vocab_size_rule_has_one_message(vocab):
    seq = TokenSeq([0, 1, 0, 1], ["P", "P", "S", "S"], 2)
    makers = {
        "make_m2": lambda: make_m2(0.3, vocab),
        "make_m1": lambda: make_m1(0.3, vocab, np.random.default_rng(0)),
        "ToySource": lambda: ToySource(vocab, (0.3, 0.3), 0),
        "prf_vector": lambda: prf_vector(KEY, [0], vocab),
        "EditPlan": lambda: EditPlan(seq, "sub", vocab, 0),
        "MixtureConfig": lambda: MixtureConfig(n=100, p=0.5, q=0.5, vocab_size=vocab),
    }
    for name, make in makers.items():
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == f"vocab size must be >= 2, got {vocab}", name


@pytest.mark.parametrize("call, message", [
    (lambda: prf_uniform(KEY, [1, -2, 3], 0), "window and token contains id -2 outside the 4-byte range"),
    (lambda: prf_uniform(KEY, [1, 2], 2**32), "window and token contains id 4294967296 outside the 4-byte range"),
    (lambda: prf_vector(KEY, [1, 25, 30], 20), "window contains id 25 >= vocab size 20"),
    (lambda: prf_vector(KEY, [1, -1, 30], 20), "window contains id -1 outside the 4-byte range"),
    (lambda: generate(ToySource(20, (0.3, 0.3), 0), KEY, [1, 2, 3, 20, 21], GenConfig(n=3, m=5)),
     "prompt contains id 20 >= vocab size 20"),
], ids=["prf_uniform_negative", "prf_uniform_wide", "prf_vector_vocab", "prf_vector_negative", "generate_prompt"])
def test_bad_id_is_named(call, message):
    # the message pivot_series gives: the first bad id, and the bound it breaks
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n", [0, -2])
def test_series_length_rule_has_one_message(n):
    det = TrGoF(2.0, 0.0)
    for call in (lambda: critical_value(det, n, 0.05), lambda: null_sf(det, n, 1.0),
                 lambda: mc_critical(det, n, 0.05, reps=100, outer=1), lambda: resolve_c_plus("1/n", n)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"need n >= 1, got {n}"


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
def test_alpha_rule_has_one_message(alpha):
    det = TrGoF(2.0, 0.0)
    for call in (lambda: critical_value(det, 10, alpha), lambda: mc_critical(det, 10, alpha, reps=100, outer=1)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"alpha must lie in (0, 1), got {alpha!r}"


@pytest.mark.parametrize("argv, owner_text", [
    (("hist", "--vocab-size", "1"), "vocab size must be >= 2, got 1"),
    (("tolerance", "--alpha", "1.5"), "alpha must lie in (0, 1), got 1.5"),
    (("hist", "--s-list", "3"), "s must lie in [-1, 2], got 3.0"),
], ids=["hist_vocab_size", "tolerance_alpha", "hist_s_list"])
def test_experiment_flag_prints_the_owners_text(tmp_path, capsys, argv, owner_text):
    # the suite builds the object that owns the flag's rule: the CLI names the
    # flag, and the rule's text is the owner's
    assert main(["experiment", *argv, "--out-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and argv[1] in err and err.endswith(f"{owner_text}\n")
