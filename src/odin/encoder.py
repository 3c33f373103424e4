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
                assert int(idx) == len(id_to_token), "vocab ids must be dense"
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


@dataclass(frozen=True)
class ModelDims:
    d: int = 32
    heads: int = 4
    max_len: int = 32
    mlp_ratio: int = 4

    def __post_init__(self):
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


# -- token states ---------------------------------------------------------------


@dataclass
class TokenStates:
    """Hidden vectors for one node's token sequence; row 0 is [CLS]."""

    states: Tensor  # (seq_len, d)
    layer: int = 0

    @property
    def cls(self) -> Tensor:
        return self.states[0]


def embed(tokens: np.ndarray, params: ParamSet) -> TokenStates:
    """Token embedding plus position embedding, layer index 0."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.max(initial=0) >= params.vocab_size or tokens.min(initial=0) < 0:
        raise IndexError("token id out of range")
    if len(tokens) > params.dims.max_len:
        raise ValueError("sequence longer than max_len")
    rows = ad.take_rows(params.token_emb, tokens)
    pos = params.pos_emb[: len(tokens)]
    return TokenStates(rows + pos, layer=0)


def embed_batch(token_matrix: np.ndarray, params: ParamSet) -> Tensor:
    """(N, T) padded token ids -> (N, T, d) initial states."""
    n, t = token_matrix.shape
    if t > params.dims.max_len:
        raise ValueError("sequence longer than max_len")
    flat = ad.take_rows(params.token_emb, token_matrix.reshape(-1))
    rows = ad.reshape(flat, (n, t, params.dims.d))
    return rows + params.pos_emb[:t]


# -- attention and the block ------------------------------------------------------


def _split_heads(x: Tensor, heads: int) -> Tensor:
    n, t, d = x.shape
    return ad.transpose(ad.reshape(x, (n, t, heads, d // heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    n, h, t, hd = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (n, t, h * hd))


def attention_core(
    queries_from: Tensor,
    keys_from: Tensor,
    lp: LayerParams,
    heads: int,
    key_mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention of (N, T, d) queries over (N, T', d) keys/values.

    key_mask, if given, is (N, T') with True marking attendable positions.
    """
    d = queries_from.shape[-1]
    if d % heads:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    hd = d // heads
    q = _split_heads(ad.linear(queries_from, lp.wq, lp.bq), heads)
    k = _split_heads(ad.linear(keys_from, lp.wk, lp.bk), heads)
    v = _split_heads(ad.linear(keys_from, lp.wv, lp.bv), heads)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    mask = None
    if key_mask is not None:
        mask = np.where(key_mask, 0.0, -np.inf)[:, None, None, :]
    weights = ad.softmax(scores, mask=mask)
    ctx = ad.matmul(weights, v)
    return ad.linear(_merge_heads(ctx), lp.wo, lp.bo)


def _promote(states: Tensor | TokenStates):
    if isinstance(states, TokenStates):
        return ad.reshape(states.states, (1,) + states.states.shape), states.layer, True
    if states.ndim == 2:
        return ad.reshape(states, (1,) + states.shape), None, True
    return states, None, False


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


def asymmetric_attention(states, agg, lp: LayerParams, heads: int) -> Tensor | TokenStates:
    """Per-node form of attention_block; accepts (T, d) or TokenStates."""
    x3, layer, squeeze = _promote(states)
    agg3 = None if agg is None else ad.reshape(agg, (1, agg.shape[-1]))
    out = attention_block(x3, agg3, lp, heads)
    if squeeze:
        out2 = ad.reshape(out, out.shape[1:])
        return TokenStates(out2, layer) if layer is not None else out2
    return out


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

    With `rows`, the block runs over chunks of at most that many sequences
    and joins their outputs, so its intermediates stay that size. Sequences
    do not interact inside a block, so the output is the same; the chunks
    are slices, so gradients flow through them too."""
    if rows is not None and x.shape[0] > rows:
        parts = []
        for i in range(0, x.shape[0], rows):
            part_agg = None if agg is None else agg[i:i + rows]
            part_mask = None if key_mask is None else key_mask[i:i + rows]
            parts.append(transformer_block(x[i:i + rows], part_agg, lp, heads, part_mask))
        return ad.concat(parts, axis=0)
    attn = attention_block(x, agg, lp, heads, key_mask=key_mask)
    h = ad.layer_norm(x + attn, lp.ln1_g, lp.ln1_b)
    m = ad.linear(ad.gelu(ad.linear(h, lp.w_up, lp.b_up)), lp.w_down, lp.b_down)
    return ad.layer_norm(h + m, lp.ln2_g, lp.ln2_b)


def transformer_layer(states, agg, lp: LayerParams, heads: int):
    """Per-node form of transformer_block; layer index advances by one."""
    x3, layer, squeeze = _promote(states)
    agg3 = None if agg is None else ad.reshape(agg, (1, agg.shape[-1]))
    out = transformer_block(x3, agg3, lp, heads)
    if squeeze:
        out2 = ad.reshape(out, out.shape[1:])
        return TokenStates(out2, layer + 1) if layer is not None else out2
    return out


def mlm_logits(state: Tensor, params: ParamSet) -> Tensor:
    """Scores over the vocabulary: one dot product per token row."""
    w = params.mlm_weight()
    single = state.ndim == 1
    x = ad.reshape(state, (1, -1)) if single else state
    logits = ad.matmul(x, w.T)
    return ad.reshape(logits, (-1,)) if single else logits
