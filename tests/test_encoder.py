import numpy as np
import pytest

from odin import autodiff as ad
from odin import encoder as enc
from odin.autodiff import Tensor
from odin.encoder import ModelDims, Vocab, build_vocab, tokenize

from helpers import finite_diff_check, full_block, no_pad


def make_layer_params(d, rng=None, mlp_ratio=4):
    hidden = d * mlp_ratio

    def mat(shape, fan):
        if rng is None:
            return Tensor(np.zeros(shape), requires_grad=True)
        return Tensor(rng.uniform(-1, 1, shape) / np.sqrt(fan), requires_grad=True)

    zeros = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    ones = lambda *s: Tensor(np.ones(s), requires_grad=True)
    return enc.LayerParams(
        wq=mat((d, d), d), wk=mat((d, d), d), wv=mat((d, d), d), wo=mat((d, d), d),
        bq=zeros(d), bv=zeros(d), bo=zeros(d),
        w_up=mat((d, hidden), d), b_up=zeros(hidden),
        w_down=mat((hidden, d), hidden), b_down=zeros(d),
        ln1_g=ones(d), ln1_b=zeros(d), ln2_g=ones(d), ln2_b=zeros(d),
    )


def dense_attention_oracle(x, agg, lp, heads):
    """Independent per-head loop evaluation of asymmetric attention."""
    kv = x if agg is None else np.vstack([agg, x])
    d = x.shape[1]
    hd = d // heads
    q = x @ lp.wq.data + lp.bq.data
    k = kv @ lp.wk.data
    v = kv @ lp.wv.data + lp.bv.data
    ctx = np.zeros_like(x)
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        ctx[:, sl] = w @ v[:, sl]
    return ctx @ lp.wo.data + lp.bo.data


# -- vocab / tokenize -------------------------------------------------------


def test_build_vocab_min_freq_one():
    v = build_vocab(["a b", "b c"])  # every token is kept, even one seen once
    assert {"a", "b", "c"} <= set(v.token_to_id)
    assert v.size == 4 + 3
    assert [v.token_to_id[s] for s in enc.SPECIALS] == [0, 1, 2, 3]
    assert list(tokenize("d", v, max_len=4)) == [v.cls_id, v.unk_id]


def test_vocab_round_trip(tmp_path):
    v = build_vocab(["graph nets are fun", "fun graphs"])
    path = tmp_path / "vocab.tsv"
    v.save(path)
    assert Vocab.load(path) == v


def test_vocab_load_rejects_ids_that_are_not_dense(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("[PAD]\t0\n[CLS]\t1\n[MASK]\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="dense"):
        Vocab.load(path)


def test_tokenize_empty_text():
    v = build_vocab(["x"])
    ids = tokenize("", v, max_len=8)
    assert list(ids) == [v.cls_id]


def test_tokenize_truncates():
    v = build_vocab(["w"])
    text = " ".join(["w"] * 100)
    assert len(tokenize(text, v, max_len=16)) == 16


def _tokenize_word_by_word(text, vocab, max_len):
    """The tokenizer as a loop that stops at max_len ids."""
    ids = [vocab.cls_id]
    for tok in enc.word_tokens(text):
        if len(ids) == max_len:
            break
        ids.append(vocab.token_to_id.get(tok, vocab.unk_id))
    return ids


@pytest.mark.parametrize("max_len", [2, 3, 7, 40])
def test_tokenize_equals_the_word_by_word_loop(max_len):
    v = build_vocab(["alpha beta gamma", "delta epsilon"])
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "Theta!", "42"]
    texts = ["", "zeta", "alpha zeta beta", *(" ".join(rng.choice(words, size=n))
                                             for n in (1, 5, 12, 30))]
    for text in texts:
        ids = tokenize(text, v, max_len)
        assert ids.dtype == np.int64
        assert list(ids) == _tokenize_word_by_word(text, v, max_len), text
    assert len(tokenize(" ".join(words * 5), v, max_len)) == max_len


def test_tokenize_known_bigram_table_lookup():
    v = build_vocab(["graph net graph"])
    ids = tokenize("graph net", v, max_len=8)
    assert list(ids) == [v.cls_id, v.token_to_id["graph"], v.token_to_id["net"]]


def test_tokenize_lowercases_and_strips_punct():
    v = build_vocab(["hello world"])
    ids = tokenize("Hello, WORLD!", v, max_len=8)
    assert list(ids) == [v.cls_id, v.token_to_id["hello"], v.token_to_id["world"]]


# -- embedding ----------------------------------------------------------------


def small_params(vocab_size=11, d=8, heads=2, max_len=10, depth=2, stages=1, seed=0):
    dims = ModelDims(d=d, heads=heads, max_len=max_len)
    return enc.init_params(vocab_size, dims, depth, stages, seed)


def test_embed_zero_tables():
    p = small_params()
    p.token_emb.data[:] = 0.0
    p.pos_emb.data[:] = 0.0
    out = enc.embed_batch(np.array([[1, 4, 5]]), p)
    assert out.shape == (1, 3, 8) and np.all(out.data == 0.0)


def test_embed_single_cls():
    p = small_params()
    out = enc.embed_batch(np.array([[1]]), p)
    np.testing.assert_allclose(out.data[0, 0], p.token_emb.data[1] + p.pos_emb.data[0])


def test_embed_matches_gather_oracle():
    rng = np.random.default_rng(5)
    p = small_params()
    toks = np.array([1, 7, 3])
    want = np.stack([p.token_emb.data[t] + p.pos_emb.data[i] for i, t in enumerate(toks)])
    got = enc.embed_batch(toks[None], p).data[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_embed_rejects_out_of_range():
    p = small_params(vocab_size=5)
    with pytest.raises(IndexError):
        enc.embed_batch(np.array([[1, 9]]), p)


def test_embed_rejects_negative_ids():
    p = small_params(vocab_size=5)
    with pytest.raises(IndexError):
        enc.embed_batch(np.array([[1, -1]]), p)


def test_embed_batch_matches_per_node():
    p = small_params()
    mat = np.array([[1, 4, 0], [1, 2, 3]])
    batch = enc.embed_batch(mat, p).data
    for i in range(2):
        single = enc.embed_batch(mat[i:i + 1], p).data[0]
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


# -- attention -----------------------------------------------------------------


def _after_attention(lp, z):
    """The block's output from z, the residual sum of its attention
    sublayer: h = LN1(z), then LN2(h + MLP(h))."""
    h = ad.layer_norm(Tensor(z), lp.ln1_g, lp.ln1_b).data
    m = ad.gelu(Tensor(h @ lp.w_up.data + lp.b_up.data)).data @ lp.w_down.data + lp.b_down.data
    return ad.layer_norm(Tensor(h + m), lp.ln2_g, lp.ln2_b).data


def test_attention_single_token_value_identity():
    # one token attends to itself alone: the context is its value, x @ I,
    # so the attention sublayer's residual sum is x + x
    d = 4
    lp = make_layer_params(d, np.random.default_rng(2))
    lp.wv.data[:] = np.eye(d)
    lp.wo.data[:] = np.eye(d)
    lp.bv.data[:] = lp.bo.data[:] = 0.0
    x = Tensor(np.array([[[1.0, -2.0, 3.0, 0.5]]]))
    out = enc.attention_block(x, None, lp, 2, no_pad(x), 1)
    np.testing.assert_allclose(out.data, _after_attention(lp, x.data + x.data), atol=1e-10)


def test_attention_all_zero_projections_ignore_agg():
    d = 4
    lp = make_layer_params(d)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, d)))
    agg = Tensor(np.full((1, d), 100.0))
    out = enc.attention_block(x, agg, lp, 2, no_pad(x), 1)
    np.testing.assert_array_equal(out.data, _after_attention(lp, x.data))


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(7)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    lp.ln1_g.data[:] = rng.uniform(0.5, 1.5, d)
    lp.ln1_b.data[:] = rng.standard_normal(d) * 0.1
    x = Tensor(rng.standard_normal((1, 2, d)) * 0.3)
    agg = Tensor(rng.standard_normal((1, d)) * 0.3)
    # the whole block: output projection, residual, LN1 and the MLP sublayer
    got = enc.attention_block(x, agg, lp, heads, no_pad(x), 1).data[0]
    want = _after_attention(lp, x.data[0] + dense_attention_oracle(x.data[0], agg.data, lp,
                                                                   heads))
    assert np.max(np.abs(got - want)) < 1e-6
    cls = enc.attention_block(x, agg, lp, heads, no_pad(x), 0).data[0]
    np.testing.assert_allclose(cls[:1], got[:1], rtol=0, atol=1e-12)
    assert not cls[1:].any()


def test_attention_output_rows_equal_query_count():
    # the output keeps the input's shape; a sequence past full_rows queries
    # with [CLS] alone and its other rows are 0; with full_rows 0 only the
    # [CLS] rows are returned
    rng = np.random.default_rng(3)
    lp = make_layer_params(8, rng)
    x = Tensor(rng.standard_normal((2, 5, 8)))
    agg = Tensor(rng.standard_normal((2, 8)))
    assert enc.attention_block(x, agg, lp, 2, no_pad(x), 2).data.all()
    out = enc.attention_block(x, agg, lp, 2, no_pad(x), 1).data
    assert out.shape == (2, 5, 8)
    assert out[0].all() and out[1, 0].all() and not out[1, 1:].any()
    cls = enc.attention_block(x, agg, lp, 2, no_pad(x), 0).data
    np.testing.assert_allclose(cls, out[:, :1], rtol=0, atol=1e-12)


def test_attention_weights_are_distributions(monkeypatch):
    # The weights the attention node itself uses, recorded where it computes
    # them: 10 sequences with an agg token and a PAD tail of one or two
    # keys, all querying with every token or with [CLS] alone. Sorted by
    # length, they make tiles of 4, 4 and 2 sequences, each trimmed to its
    # longest sequence. Backward recomputes each
    # tile's weights and must get the forward's bits.
    monkeypatch.setattr(ad, "_TILE", 4)
    rng = np.random.default_rng(11)
    d, heads, n, t = 8, 2, 10, 4
    lp = make_layer_params(d, rng)
    x = Tensor(rng.standard_normal((n, t, d)), requires_grad=True)
    agg = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    lengths = np.full(n, t)
    lengths[0::3], lengths[2::3] = t - 1, t - 2
    calls = []
    weights = ad._attention_weights

    def record(q, k, mask):
        w = weights(q, k, mask)
        calls.append((w.copy(), mask))
        return w

    monkeypatch.setattr(ad, "_attention_weights", record)
    # sorted lengths 2 2 2 3 | 3 3 3 4 | 4 4: a tile without PAD gets no mask
    for full, shapes in ((n, [(4, t - 1, t, True), (4, t, t + 1, True), (2, t, t + 1, False)]),
                         (0, [(4, 1, t, True), (4, 1, t + 1, True), (2, 1, t + 1, False)])):
        calls.clear()
        out = enc.attention_block(x, agg, lp, heads, lengths, full)
        forward = list(calls)
        assert [(*w.shape[:1], *w.shape[2:], mask is not None)
                for w, mask in forward] == shapes
        for w, mask in forward:
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
            hidden = np.zeros(w.shape, bool) if mask is None else np.broadcast_to(
                mask[:, None, None, :] < 0, w.shape)
            assert (w[hidden] == 0.0).all() and (w[~hidden] > 0.0).all()
        out.backward(rng.standard_normal(out.shape))
        assert len(calls) == 2 * len(forward)
        for (fwd, _), (bwd, _) in zip(forward, calls[len(forward):]):
            np.testing.assert_array_equal(bwd, fwd)


def test_attention_content_based_kv_permutation():
    # attention sees no positions: permuting the tokens permutes the
    # sublayer's output rows alike, with the agg token still first among
    # the keys and values
    rng = np.random.default_rng(13)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    x = rng.standard_normal((1, 5, d))
    agg = Tensor(rng.standard_normal((1, d)))
    perm = np.random.default_rng(1).permutation(5)
    out_a = enc.attention_block(Tensor(x), agg, lp, heads, [5], 1).data
    out_b = enc.attention_block(Tensor(x[:, perm]), agg, lp, heads, [5], 1).data
    np.testing.assert_allclose(out_a[:, perm], out_b, atol=1e-10)


def test_attention_key_mask_hides_rows():
    rng = np.random.default_rng(17)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    x_short = Tensor(rng.standard_normal((1, 2, d)))
    pad = np.zeros((1, 1, d))
    x_padded = Tensor(np.concatenate([x_short.data, pad], axis=1))
    out_padded = enc.attention_block(x_padded, None, lp, heads, np.array([2]), 1).data
    out_short = enc.attention_block(x_short, None, lp, heads, np.array([2]), 1).data
    np.testing.assert_allclose(out_padded[:, :2], out_short, atol=1e-12)


# -- transformer layer ------------------------------------------------------------


def test_layer_zero_weights_is_double_layernorm():
    d = 4
    lp = make_layer_params(d)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, d)))
    got = full_block(x, None, lp, 2).data
    ones, zeros = Tensor(np.ones(d)), Tensor(np.zeros(d))
    want = ad.layer_norm(ad.layer_norm(x, ones, zeros), ones, zeros).data
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_layer_shape_contract_with_agg():
    rng = np.random.default_rng(1)
    lp = make_layer_params(8, rng)
    for t in (1, 3, 6):
        x = Tensor(rng.standard_normal((1, t, 8)))
        agg = Tensor(rng.standard_normal((1, 8)))
        states, cls = enc.transformer_block(x, agg, lp, 2, [t], full_rows=1)
        assert states.shape == (1, t, 8) and cls.shape == (1, 8)


def test_layer_matches_composed_sublayers():
    rng = np.random.default_rng(23)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    x = Tensor(rng.standard_normal((1, 2, d)) * 0.5)
    agg = Tensor(rng.standard_normal((1, d)) * 0.5)
    got = full_block(x, agg, lp, heads).data[0]

    attn = dense_attention_oracle(x.data[0], agg.data, lp, heads)
    h = ad.layer_norm(Tensor(x.data[0] + attn), lp.ln1_g, lp.ln1_b).data
    up = h @ lp.w_up.data + lp.b_up.data
    act = ad.gelu(Tensor(up)).data
    m = act @ lp.w_down.data + lp.b_down.data
    want = ad.layer_norm(Tensor(h + m), lp.ln2_g, lp.ln2_b).data
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_layer_shift_invariance():
    # a constant added to every coordinate must be absorbed by the first
    # normalization; zero the attention out-projection so the shift reaches
    # it unmixed (any other path re-projects the constant)
    rng = np.random.default_rng(29)
    lp = make_layer_params(8, rng)
    lp.wo.data[:] = 0.0
    x = rng.standard_normal((1, 3, 8))
    a = full_block(Tensor(x), None, lp, 2).data
    b = full_block(Tensor(x + 7.3), None, lp, 2).data
    assert np.max(np.abs(a - b)) < 1e-5


def test_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    d, heads = 4, 2
    lp = make_layer_params(d, rng)
    x = Tensor(rng.standard_normal((1, 2, d)) * 0.4, requires_grad=True)
    agg = Tensor(rng.standard_normal((1, d)) * 0.4, requires_grad=True)
    w = Tensor(rng.standard_normal((1, 2, d)))
    tensors = [x, agg, lp.wq, lp.wk, lp.wv, lp.wo, lp.w_up, lp.w_down,
               lp.ln1_g, lp.ln1_b, lp.ln2_g, lp.ln2_b, lp.bq, lp.b_up]

    def loss():
        out = full_block(x, agg, lp, heads)
        return (out * w).sum()

    finite_diff_check(loss, tensors, probes=6, rng=rng)


# -- dims -------------------------------------------------------------------------


def test_dims_head_divisibility():
    with pytest.raises(enc.ConfigError):
        ModelDims(d=10, heads=4)
