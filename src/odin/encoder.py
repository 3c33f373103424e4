"""Tokenization, parameter initialization, and the Transformer block.

The attention here is asymmetric: queries come from the text tokens only,
while keys and values may additionally include one prepended graph-enhanced
token. That token is context for a single block; it emits no query and no
output row, so the residual connection stays shape-compatible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, tok in enumerate(self.id_to_token):
                fh.write(f"{tok}\t{i}\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        id_to_token: list[str] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tok, idx = line.rstrip("\n").split("\t")
                if int(idx) != len(id_to_token):
                    raise ValueError(f"{path}: vocab ids must be dense, got id {idx} "
                                     f"where {len(id_to_token)} was expected")
                id_to_token.append(tok)
        return cls({t: i for i, t in enumerate(id_to_token)}, tuple(id_to_token))


def build_vocab(corpus, min_freq: int = 1) -> Vocab:
    """Frequency vocabulary over lowercased word tokens; rare tokens fall
    back to [UNK] at encode time."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    counts: dict[str, int] = {}
    for text in corpus:
        for tok in word_tokens(text):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(t for t, c in counts.items() if c >= min_freq)
    id_to_token = SPECIALS + tuple(kept)
    return Vocab({t: i for i, t in enumerate(id_to_token)}, id_to_token)


def tokenize(text: str, vocab: Vocab, max_len: int) -> np.ndarray:
    """[CLS] followed by word-token ids, truncated to max_len. Never empty."""
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    ids = [vocab.cls_id]
    for tok in word_tokens(text):
        if len(ids) == max_len:
            break
        ids.append(vocab.encode(tok))
    return np.asarray(ids, dtype=np.int64)


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
        if self.d % self.heads != 0:
            raise ConfigError(f"model dim {self.d} not divisible by {self.heads} heads")


class ConfigError(ValueError):
    pass


@dataclass
class LayerParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
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
    mlm_head: Tensor | None  # None means tied to token_emb
    heads: dict[str, Tensor] = field(default_factory=dict)

    def mlm_weight(self) -> Tensor:
        return self.token_emb if self.mlm_head is None else self.mlm_head

    def named_parameters(self):
        yield "token_emb", self.token_emb
        yield "pos_emb", self.pos_emb
        for i, lp in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
                         "w_up", "b_up", "w_down", "b_down",
                         "ln1_g", "ln1_b", "ln2_g", "ln2_b"):
                yield f"layers.{i}.{name}", getattr(lp, name)
        for j, sp in enumerate(self.stages):
            yield f"stages.{j}.w1", sp.w1
            yield f"stages.{j}.w2", sp.w2
        if self.mlm_head is not None:
            yield "mlm_head", self.mlm_head
        for name in sorted(self.heads):
            yield f"heads.{name}", self.heads[name]

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.zero_grad()


def _uniform(rng, shape, d) -> Tensor:
    # symmetric uniform scaled by 1/sqrt(model dim) across the board
    bound = 1.0 / np.sqrt(d)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_params(
    vocab_size: int,
    dims: ModelDims,
    depth: int,
    num_stages: int,
    seed: int,
    tie_mlm: bool = False,
) -> ParamSet:
    """Fresh parameters: symmetric uniform at 1/sqrt(d), unit gains."""
    rng = generator(seed, "init")
    d, hidden = dims.d, dims.d * dims.mlp_ratio
    layers = []
    for _ in range(depth):
        layers.append(LayerParams(
            wq=_uniform(rng, (d, d), d), wk=_uniform(rng, (d, d), d),
            wv=_uniform(rng, (d, d), d), wo=_uniform(rng, (d, d), d),
            bq=Tensor(np.zeros(d), requires_grad=True),
            bk=Tensor(np.zeros(d), requires_grad=True),
            bv=Tensor(np.zeros(d), requires_grad=True),
            bo=Tensor(np.zeros(d), requires_grad=True),
            w_up=_uniform(rng, (d, hidden), d),
            b_up=Tensor(np.zeros(hidden), requires_grad=True),
            w_down=_uniform(rng, (hidden, d), d),
            b_down=Tensor(np.zeros(d), requires_grad=True),
            ln1_g=Tensor(np.ones(d), requires_grad=True),
            ln1_b=Tensor(np.zeros(d), requires_grad=True),
            ln2_g=Tensor(np.ones(d), requires_grad=True),
            ln2_b=Tensor(np.zeros(d), requires_grad=True),
        ))
    stages = [
        StageParams(w1=_uniform(rng, (d, d), d), w2=_uniform(rng, (d, d), d))
        for _ in range(num_stages)
    ]
    token_emb = _uniform(rng, (vocab_size, d), d)
    pos_emb = _uniform(rng, (dims.max_len, d), d)
    mlm_head = None if tie_mlm else _uniform(rng, (vocab_size, d), d)
    return ParamSet(dims, vocab_size, depth, token_emb, pos_emb, layers, stages, mlm_head)


def embed_batch(token_matrix: np.ndarray, params: ParamSet) -> Tensor:
    """(N, T) padded token ids -> (N, T, d) initial states."""
    n, t = token_matrix.shape
    if t > params.dims.max_len:
        raise ValueError("sequence longer than max_len")
    if np.any(token_matrix < 0):
        raise IndexError("negative token id")
    flat = ad.take_rows(params.token_emb, token_matrix.reshape(-1))
    rows = ad.reshape(flat, (n, t, params.dims.d))
    return rows + params.pos_emb[:t]


# -- attention and the block ------------------------------------------------------


def attention_core(
    queries_from: Tensor,
    keys_from: Tensor,
    lp: LayerParams,
    heads: int,
    key_mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention of (N, T, d) queries over (N, T', d) keys/values:
    the q, k and v linears, one `ad.attention` node (heads, scale, masked
    softmax and weighted sum of values), then the output linear.

    key_mask, if given, is (N, T') with True marking attendable positions.
    """
    d = queries_from.shape[-1]
    if d % heads:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    mask = None if key_mask is None else np.where(key_mask, 0.0, -np.inf)
    ctx = ad.attention(ad.linear(queries_from, lp.wq, lp.bq), ad.linear(keys_from, lp.wk, lp.bk),
                       ad.linear(keys_from, lp.wv, lp.bv), heads, mask)
    return ad.linear(ctx, lp.wo, lp.bo)


def attention_block(
    x: Tensor,
    agg: Tensor | None,
    lp: LayerParams,
    heads: int,
    key_mask: np.ndarray | None = None,
) -> Tensor:
    """Asymmetric attention over (N, T, d) states with an optional (N, d)
    graph-enhanced token prepended to keys/values only."""
    if agg is None:
        kv, mask = x, key_mask
    else:
        kv = ad.concat([ad.reshape(agg, (agg.shape[0], 1, agg.shape[1])), x], axis=1)
        if key_mask is None:
            mask = None
        else:
            ones = np.ones((key_mask.shape[0], 1), dtype=bool)
            mask = np.concatenate([ones, key_mask], axis=1)
    return attention_core(x, kv, lp, heads, key_mask=mask)


def transformer_block(
    x: Tensor,
    agg: Tensor | None,
    lp: LayerParams,
    heads: int,
    key_mask: np.ndarray | None = None,
    rows: int | None = None,
) -> Tensor:
    """Post-norm block: LN(x + attention), then LN(. + MLP(.)). The agg
    token is consumed by the attention; output length equals input length.
    The output is exactly 0 at PAD positions (key_mask False); a mask
    without a False entry is dropped, so input without PAD pays for no
    masking and no zeroing.

    With `rows`, the block stable-sorts the sequences by real length (one
    past the last True of key_mask), runs on chunks of at most that many
    sequences, each trimmed to its longest sequence, and returns the rows in
    the input order with the trimmed columns 0. Sequences do not interact
    inside a block, so real positions get the same output up to rounding,
    while no chunk spends work on the PAD columns it trimmed. The chunks are
    row gathers and slices, so gradients flow through them too."""
    if key_mask is not None and key_mask.all():
        key_mask = None  # no PAD: nothing to mask or zero
    if rows is not None:
        n, t, d = x.shape
        ends = np.full(n, t) if key_mask is None else t - np.argmax(key_mask[:, ::-1], axis=1)
        order = np.argsort(ends, kind="stable")
        parts = []
        for i in range(0, n, rows):
            idx = order[i:i + rows]
            width = int(ends[idx[-1]])  # sorted ascending: the last is the longest
            part = transformer_block(ad.take_rows(x, idx)[:, :width],
                                     None if agg is None else ad.take_rows(agg, idx), lp,
                                     heads, None if key_mask is None else key_mask[idx, :width])
            if width < t:
                part = ad.concat([part, Tensor(np.zeros((len(idx), t - width, d)))], axis=1)
            parts.append(part)
        joined = ad.concat(parts, axis=0)
        del parts  # without a tape nothing else holds the chunks
        return ad.take_rows(joined, np.argsort(order))
    attn = attention_block(x, agg, lp, heads, key_mask=key_mask)
    h = ad.layer_norm(x + attn, lp.ln1_g, lp.ln1_b)
    m = ad.linear(ad.gelu(ad.linear(h, lp.w_up, lp.b_up)), lp.w_down, lp.b_down)
    out = ad.layer_norm(h + m, lp.ln2_g, lp.ln2_b)
    if key_mask is not None:
        out = out * key_mask[:, :, None]
    return out
