"""Human-edit simulators and the edit tolerance limit.

Random edits draw replacement/insert tokens uniformly from the vocabulary
(a substitution may redraw the original token; such accidental no-ops still
count toward the edit budget). Adversarial edits recompute all pivots under
the true key and replace the tokens carrying the strongest watermark signal.
The prompt region is never touched.

One engine, ``EditPlan``, makes every random edit: a fixed random
permutation of the editable positions determines which positions the first
k edits touch. ``apply_random_edit`` takes the first ceil(fraction * n)
edits of a plan, and the tolerance limit (the largest edit count a detector
survives) binary-searches k over the nested edit sets of one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_fraction, check_scored_sequence, check_vocab_size
from .pivotal import pivot_series
from .watermark import EDITED, PROMPT, TokenSeq


class EditPlan:
    """Nested edits: ``apply(k)`` edits the positions pi[0:k] of a fixed
    random permutation pi over the editable positions, with all replacement
    and insertion draws fixed up front so apply(k) is deterministic in k."""

    def __init__(self, seq: TokenSeq, kind: str, vocab_size: int, seed: int):
        if kind not in ("sub", "ins", "del"):
            raise ValueError(f"random edits are sub/ins/del, got {kind!r} (adv: apply_adversarial_edit)")
        vocab_size = check_vocab_size(vocab_size)
        check_scored_sequence(seq.tokens, seq.m, vocab_size)  # only a sequence the verifier can score is edited
        self.seq = seq
        self.kind = kind
        rng = np.random.default_rng(seed)
        self.pi = rng.permutation([i for i, c in enumerate(seq.provenance) if c != PROMPT])
        self.replacements = rng.integers(0, vocab_size, size=self.pi.size)
        self.slot_uniforms = rng.random(self.pi.size)

    @property
    def n_editable(self) -> int:
        return int(self.pi.size)

    def apply(self, k: int) -> TokenSeq:
        if not 0 <= k <= self.pi.size:
            raise ValueError(f"edit count {k} outside [0, {self.pi.size}]")
        tokens = list(self.seq.tokens)
        prov = list(self.seq.provenance)
        if self.kind == "sub":
            for j in range(k):
                at = int(self.pi[j])
                tokens[at] = int(self.replacements[j])
                prov[at] = EDITED
        elif self.kind == "ins":
            first_gen = int(self.pi.min()) if self.pi.size else len(tokens)
            for j in range(k):
                at = first_gen + int(self.slot_uniforms[j] * (len(tokens) - first_gen + 1))
                tokens.insert(at, int(self.replacements[j]))
                prov.insert(at, EDITED)
        else:  # del
            drop = {int(p) for p in self.pi[:k]}
            tokens = [t for i, t in enumerate(tokens) if i not in drop]
            prov = [c for i, c in enumerate(prov) if i not in drop]
        return TokenSeq(tokens, prov, self.seq.m)


def apply_random_edit(seq: TokenSeq, kind: str, fraction: float, vocab_size: int, seed: int) -> TokenSeq:
    """Substitute, insert, or delete ceil(fraction * generated length) tokens:
    the first edits of an ``EditPlan`` seeded with ``seed``."""
    check_fraction(fraction)
    plan = EditPlan(seq, kind, vocab_size, seed)
    k = math.ceil(fraction * plan.n_editable)
    if kind == "del" and len(seq.tokens) - k < seq.m + 1:
        raise ValueError(f"deleting {k} tokens would leave fewer than m + 1 = {seq.m + 1}")
    return plan.apply(k)


def apply_adversarial_edit(
    seq: TokenSeq, fraction: float, key, vocab_size: int, seed: int
) -> TokenSeq:
    """Replace the fraction of scored tokens with the largest pivots.

    Models an editor who knows the key: pivots are recomputed exactly as the
    verifier would, and the strongest-signal positions are overwritten with
    uniform vocabulary draws.
    """
    check_fraction(fraction)
    rng = np.random.default_rng(seed)
    piv = pivot_series(seq, key, vocab_size)
    k = math.ceil(fraction * piv.n)
    order = (seq.m + int(j) for j in np.argsort(-piv.y, kind="stable"))
    targets = [at for at in order if seq.provenance[at] != PROMPT][:k]
    tokens = list(seq.tokens)
    prov = list(seq.provenance)
    for at in targets:
        tokens[at] = int(rng.integers(0, vocab_size))
        prov[at] = EDITED
    return TokenSeq(tokens, prov, seq.m)


@dataclass(frozen=True)
class ToleranceResult:
    fraction: float
    rejected_unedited: bool


def tolerance_limit(
    seq: TokenSeq,
    kind: str,
    detector,
    n_test: int,
    seed: int,
    vocab_size: int,
) -> ToleranceResult:
    """Binary-search the largest edit count the detector still rejects at.

    ``detector`` is a callable taking a TokenSeq (already truncated to the
    first n_test tokens) and returning True when it rejects the no-watermark
    null. If it fails on the unedited sequence the limit is 0 with a flag.
    The returned fraction is (edit count) / (editable length).
    """
    plan = EditPlan(seq, kind, vocab_size, seed)
    n0 = plan.n_editable
    if n0 == 0:
        raise ValueError("sequence has no editable positions")

    def decide(k: int) -> bool:
        return bool(detector(plan.apply(k).head(n_test)))

    if not decide(0):
        return ToleranceResult(0.0, rejected_unedited=False)
    if not decide(1):
        return ToleranceResult(0.0, rejected_unedited=True)
    lo, hi = 1, n0
    while hi - lo >= 2:
        mid = (lo + hi) // 2
        if decide(mid):
            lo = mid
        else:
            hi = mid
    return ToleranceResult(lo / n0, rejected_unedited=True)
