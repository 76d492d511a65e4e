"""Gumbel-max watermarked generation.

The decoder picks argmax_w log(U_w) / P_w over the vocabulary, which is
distributed exactly according to P when the U_w are i.i.d. uniforms, yet is a
deterministic function of (key, context window). Generation optionally applies
repeated-context masking: a token is watermarked only when its m-token window
has not been seen before in this sequence (prompt windows included); masked
positions fall back to plain multinomial sampling from a dedicated seeded
stream, independent of the watermark pseudorandomness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._validation import check_ntp_dist
from .prf import _as_key, _id_chunks, _prefixed_uniforms, _window_prefix
from .tokensource import ToySource, toy_next_dist

PROMPT, WATERMARKED, SAMPLED, EDITED = "P", "W", "S", "E"
_PROVENANCE = {PROMPT, WATERMARKED, SAMPLED, EDITED}


@dataclass
class TokenSeq:
    """Token ids with per-position provenance flags (diagnostics only).

    Provenance is never visible to detectors; it exists so experiments can
    count watermarked/sampled/edited positions. The first m positions can
    never be watermarked (they lack a full window).
    """

    tokens: list[int]
    provenance: list[str]
    m: int

    def __post_init__(self):
        self.tokens = [int(t) for t in self.tokens]
        self.provenance = list(self.provenance)
        self.m = int(self.m)
        if len(self.tokens) != len(self.provenance):
            raise ValueError("tokens and provenance must have equal length")
        bad = set(self.provenance) - _PROVENANCE
        if bad:
            raise ValueError(f"unknown provenance flags: {sorted(bad)}")
        if any(c == WATERMARKED for c in self.provenance[: self.m]):
            raise ValueError("the first m positions can never be watermarked")

    def __len__(self) -> int:
        return len(self.tokens)

    def head(self, n: int) -> "TokenSeq":
        return TokenSeq(self.tokens[:n], self.provenance[:n], self.m)

    def to_json(self) -> str:
        return json.dumps({"tokens": self.tokens, "provenance": self.provenance, "m": self.m})

    @classmethod
    def from_json(cls, text: str) -> "TokenSeq":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a token sequence must be a JSON object")
        tokens, provenance, m = obj["tokens"], obj["provenance"], obj["m"]
        # bool is an int subclass; ids and m must be JSON integers, not true or 1.5
        if not isinstance(tokens, list) or any(type(t) is not int for t in tokens):
            raise ValueError("tokens must be a list of integers")
        if not isinstance(provenance, list) or any(type(c) is not str for c in provenance):
            raise ValueError("provenance must be a list of strings")
        if type(m) is not int or m < 0:
            raise ValueError("m must be a non-negative integer")
        return cls(tokens=tokens, provenance=provenance, m=m)


@dataclass(frozen=True)
class GenConfig:
    n: int
    m: int = 5
    masking: bool = True
    seed: int = 0

    def __post_init__(self):
        if int(self.n) < 1 or int(self.m) < 1:
            raise ValueError("need n >= 1 and m >= 1")


def gumbel_decode(probs, xi):
    """argmax over supported tokens of log(U_w) / P_w.

    Tokens with P_w = 0 are excluded (score -inf); ties break to the lowest
    index so results are reproducible even under float collisions. ``xi`` may
    be a single vector or a batch with vectors along the last axis.
    """
    p = check_ntp_dist(probs)
    x = np.asarray(xi, dtype=float)
    if x.shape[-1] != p.size:
        raise ValueError(f"xi has length {x.shape[-1]}, expected {p.size}")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValueError("xi entries must lie strictly in (0, 1)")
    idx = _gumbel_argmax(p, x)
    return int(idx) if x.ndim == 1 else idx


def _gumbel_argmax(p: np.ndarray, x: np.ndarray):
    """``gumbel_decode`` on a valid NTP vector and uniforms in (0, 1), unchecked."""
    with np.errstate(divide="ignore"):
        return np.argmax(np.where(p > 0.0, np.log(x) / p, -np.inf), axis=-1)


def _prompt_windows(prompt: list[int], m: int) -> set[tuple[int, ...]]:
    return {tuple(prompt[i : i + m]) for i in range(len(prompt) - m + 1)}


def generate(source: ToySource, key, prompt, cfg: GenConfig) -> TokenSeq:
    """Autoregressively append cfg.n tokens to ``prompt`` under the watermark.

    The prompt must supply at least m tokens so every generated position has a
    full window.
    """
    if key is None:
        raise ValueError("generate needs a key; generate_null is the unwatermarked control")
    return _generate(source, key, prompt, cfg)


def generate_null(source: ToySource, prompt, cfg: GenConfig) -> TokenSeq:
    """Unwatermarked control: every generated token is multinomially sampled."""
    return _generate(source, None, prompt, cfg)


def _generate(source: ToySource, key, prompt, cfg: GenConfig) -> TokenSeq:
    """The generation loop; with ``key`` None every position is sampled, as a
    masked one is. The prompt is checked before the key."""
    prompt = [int(t) for t in prompt]
    if len(prompt) < cfg.m:
        raise ValueError(f"prompt length {len(prompt)} < window size {cfg.m}")
    if min(prompt) < 0 or max(prompt) >= source.vocab_size:
        raise ValueError("prompt contains tokens outside the source vocabulary")
    tokens = list(prompt)
    prov = [PROMPT] * len(prompt)
    fallback = np.random.default_rng(cfg.seed)
    seen = _prompt_windows(prompt, cfg.m) if cfg.masking else set()
    if key is not None:
        # built per call, not cached: at V = 32000 the table holds ~1.5 MB
        key, ids = _as_key(key), _id_chunks(source.vocab_size)
    for _ in range(cfg.n):
        window = tuple(tokens[-cfg.m :])
        probs = toy_next_dist(source, tokens)
        if key is None or window in seen:
            # inverse-CDF draw from the fallback stream, independent of the watermark PRF
            u = fallback.random()
            tok = min(int(np.searchsorted(np.cumsum(probs), u, side="right")), probs.size - 1)
            prov.append(SAMPLED)
        else:
            # prf_vector and gumbel_decode on inputs that pass their checks
            tok = _gumbel_argmax(probs, _prefixed_uniforms(_window_prefix(key, window), ids))
            prov.append(WATERMARKED)
        if cfg.masking:
            seen.add(window)
        tokens.append(int(tok))
    return TokenSeq(tokens, prov, cfg.m)
