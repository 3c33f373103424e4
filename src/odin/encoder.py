"""Tokenization, parameter initialization, and the Transformer block.

The attention here is asymmetric: queries come from the text tokens only,
while keys and values may additionally include one prepended graph-enhanced
token. That token is context for a single block; it emits no query and no
output row, so the residual connection stays shape-compatible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rngutil import generator

PAD, CLS, MASK, UNK = "[PAD]", "[CLS]", "[MASK]", "[UNK]"
SPECIALS = (PAD, CLS, MASK, UNK)

_WORD_RE = re.compile(r"[a-z0-9]+")


def word_tokens(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    pad_id = 0
    cls_id = 1
    mask_id = 2
    unk_id = 3

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, tok in enumerate(self.id_to_token):
                fh.write(f"{tok}\t{i}\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """The vocab `save` wrote; a damaged file raises ValueError naming `path`."""
        id_to_token: list[str] = []
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    tok, *idx = line.rstrip("\n").split("\t")
                    if idx != [str(len(id_to_token))]:
                        raise ValueError(f"line {len(id_to_token) + 1} is not 'token<TAB>"
                                         f"{len(id_to_token)}': vocab ids must be dense")
                    id_to_token.append(tok)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls({t: i for i, t in enumerate(id_to_token)}, tuple(id_to_token))


def build_vocab(corpus) -> Vocab:
    """The specials, then every lowercased word token of the corpus, sorted.
    Only a token the corpus lacks encodes as [UNK]."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    kept = sorted({tok for text in corpus for tok in word_tokens(text)})
    id_to_token = SPECIALS + tuple(kept)
    return Vocab({t: i for i, t in enumerate(id_to_token)}, id_to_token)


def tokenize(text: str, vocab: Vocab, max_len: int) -> np.ndarray:
    """[CLS] followed by word-token ids, truncated to max_len. Never empty."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    get, unk = vocab.token_to_id.get, vocab.unk_id
    return np.asarray([vocab.cls_id, *(get(tok, unk) for tok in word_tokens(text)[:max_len - 1])],
                      dtype=np.int64)


# -- parameters ----------------------------------------------------------------


@dataclass
class ModelDims:
    """Model widths: the `dims` section of a run config and the shape record
    of a ParamSet. The MLP hidden width is d * mlp_ratio."""

    d: int = 32
    heads: int = 4
    max_len: int = 32
    mlp_ratio: int = 4

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ConfigError on a size that is not an int, a d, heads or
        mlp_ratio below 1, a max_len below 2 ([CLS] and one word), or a d
        that the heads do not divide."""
        for name in ("d", "heads", "max_len", "mlp_ratio"):
            value, least = getattr(self, name), 2 if name == "max_len" else 1
            if type(value) is not int:
                raise ConfigError(f"dims.{name} must be an int, got {value!r}")
            if value < least:
                raise ConfigError(f"dims.{name} must be at least {least}, got {value}")
        if self.d % self.heads != 0:
            raise ConfigError(f"dims.d {self.d} is not divisible by dims.heads {self.heads}")


class ConfigError(ValueError):
    pass


@dataclass
class LayerParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bv: Tensor
    bo: Tensor
    w_up: Tensor
    b_up: Tensor
    w_down: Tensor
    b_down: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor


@dataclass
class StageParams:
    """Weights of one graph-aggregation stage; never shared across stages."""

    w1: Tensor  # applied to the neighbor mean
    w2: Tensor  # applied to the node's own [CLS]


@dataclass
class ParamSet:
    dims: ModelDims
    vocab_size: int
    depth: int
    token_emb: Tensor
    pos_emb: Tensor
    layers: list[LayerParams]
    stages: list[StageParams]
    mlm_head: Tensor

    def named_parameters(self):
        yield "token_emb", self.token_emb
        yield "pos_emb", self.pos_emb
        for i, lp in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wo", "bq", "bv", "bo",
                         "w_up", "b_up", "w_down", "b_down",
                         "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
                yield f"layers.{i}.{name}", getattr(lp, name)
        for j, sp in enumerate(self.stages):
            yield f"stages.{j}.w1", sp.w1
            yield f"stages.{j}.w2", sp.w2
        yield "mlm_head", self.mlm_head


def as_param(data) -> Tensor:
    """A trainable leaf. Parameters are float32: at d=32 the model is bound by
    memory traffic, and float32 halves it."""
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)


def init_params(vocab_size: int, dims: ModelDims, depth: int, num_stages: int,
                seed: int | None) -> ParamSet:
    """Fresh float32 parameters: symmetric uniform at 1/sqrt(d), drawn in
    float64 and rounded, with zero biases and unit gains. Seed None draws
    nothing and allocates no parameter memory: the skeleton that load_model
    fills. Its arrays are read-only zero-stride views of one float32 scalar
    (np.broadcast_to), 0 for weights and biases and 1 for gains, so a load
    replaces each array and cannot update one in place."""
    rng = None if seed is None else generator(seed, "init")
    d, hidden = dims.d, dims.d * dims.mlp_ratio
    bound = 1.0 / np.sqrt(d)

    def full(value, *shape) -> Tensor:
        if rng is None:
            return as_param(np.broadcast_to(np.float32(value), shape))
        return as_param(np.full(shape, value, np.float32))

    def uniform(*shape) -> Tensor:
        return full(0, *shape) if rng is None else as_param(rng.uniform(-bound, bound, shape))

    layers = []
    for _ in range(depth):
        layers.append(LayerParams(
            wq=uniform(d, d), wk=uniform(d, d), wv=uniform(d, d), wo=uniform(d, d),
            bq=full(0, d), bv=full(0, d), bo=full(0, d),
            w_up=uniform(d, hidden), b_up=full(0, hidden),
            w_down=uniform(hidden, d), b_down=full(0, d),
            ln1_g=full(1, d), ln1_b=full(0, d), ln2_g=full(1, d), ln2_b=full(0, d),
        ))
    stages = [StageParams(w1=uniform(d, d), w2=uniform(d, d)) for _ in range(num_stages)]
    token_emb = uniform(vocab_size, d)
    pos_emb = uniform(dims.max_len, d)
    mlm_head = uniform(vocab_size, d)
    return ParamSet(dims, vocab_size, depth, token_emb, pos_emb, layers, stages, mlm_head)


def embed_batch(token_matrix: np.ndarray, params: ParamSet) -> Tensor:
    """(N, T) padded token ids -> (N, T, d) initial states: one ad.embed node."""
    if token_matrix.shape[1] > params.dims.max_len:
        raise ValueError("sequence longer than max_len")
    if np.any(token_matrix < 0):
        raise IndexError("negative token id")
    return ad.embed(params.token_emb, params.pos_emb, token_matrix)


# -- attention and the block ------------------------------------------------------


def attention_block(x: Tensor, agg: Tensor | None, lp: LayerParams, heads: int,
                    lengths: np.ndarray, full_rows: int, out: np.ndarray | None = None) -> Tensor:
    """The block as one tape node, `ad.post_norm_block`: h = LN1(x + attention
    @ wo + bo), then LN2(h + MLP(h)), with asymmetric multi-head attention over
    (N, T, d) states of real lengths `lengths` and an optional (N, d)
    graph-enhanced token prepended to the keys and values only. The first
    `full_rows` sequences query with every token, the others with [CLS]
    alone. The (N, T, d) output ((N, 1, d) if `full_rows` is 0) is 0 at PAD
    positions and, past `full_rows`, at all but [CLS]. An off-tape caller
    may pass `out`, the array to write it into (see ad.post_norm_block)."""
    return ad.post_norm_block(x, agg, lp.wq, lp.bq, lp.wk, lp.wv, lp.bv, lp.wo, lp.bo,
                              lp.ln1_g, lp.ln1_b, lp.w_up, lp.b_up, lp.w_down, lp.b_down,
                              lp.ln2_g, lp.ln2_b, heads, lengths, full_rows, out)


def transformer_block(x: Tensor, agg: Tensor | None, lp: LayerParams, heads: int,
                      lengths: np.ndarray, *, full_rows: int, out: np.ndarray | None = None):
    """Post-norm block: LN(x + attention), then LN(. + MLP(.)), as one tape
    node (attention_block) that keeps only its output and the second norm's
    per-row scale, and rebuilds that norm's normalized rows from the output
    in backward, so the second norm's gain must have no zero entry. The
    agg token is consumed by the attention; output length equals input length.
    The output is exactly 0 at PAD positions, past each sequence's real
    length in `lengths`.

    Only the first `full_rows` = f sequences keep their token states. The
    others run their [CLS] row alone: it queries the same keys and values as
    in the full block, so it gets the same output up to rounding, and no
    other position is computed. Returns (states, cls): the (f, T, d) token
    states, None when f is 0, and the (N, d) [CLS] output of every sequence,
    both slices of the one node's output. Off the tape with f = N, `out`,
    an (N, T, d) array that may be x's own buffer, takes the output."""
    y = attention_block(x, agg, lp, heads, lengths, full_rows, out=out)
    f = full_rows
    return (None if f == 0 else y if f == len(y.data) else y[:f]), y[:, 0]
