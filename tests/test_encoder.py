import numpy as np
import pytest

from odin import autodiff as ad
from odin import encoder as enc
from odin.autodiff import Tensor
from odin.encoder import ModelDims, Vocab, build_vocab, tokenize

from helpers import finite_diff_check, split_heads


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
        bq=zeros(d), bk=zeros(d), bv=zeros(d), bo=zeros(d),
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
    k = kv @ lp.wk.data + lp.bk.data
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
    v = build_vocab(["a b", "b c"], min_freq=1)
    assert {"a", "b", "c"} <= set(v.token_to_id)
    assert v.size == 4 + 3
    assert [v.token_to_id[s] for s in enc.SPECIALS] == [0, 1, 2, 3]


def test_build_vocab_min_freq_two():
    v = build_vocab(["a b", "b c"], min_freq=2)
    assert "b" in v.token_to_id
    assert v.encode("a") == v.unk_id and v.encode("c") == v.unk_id


def test_vocab_round_trip(tmp_path):
    v = build_vocab(["graph nets are fun", "fun graphs"], min_freq=1)
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


def test_attention_single_token_value_identity():
    d = 4
    lp = make_layer_params(d)
    lp.wv.data[:] = np.eye(d)
    lp.wo.data[:] = np.eye(d)
    x = Tensor(np.array([[[1.0, -2.0, 3.0, 0.5]]]))
    out = enc.attention_block(x, None, lp, heads=2)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_attention_all_zero_projections_ignore_agg():
    d = 4
    lp = make_layer_params(d)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, d)))
    agg = Tensor(np.full((1, d), 100.0))
    out = enc.attention_block(x, agg, lp, heads=2)
    assert np.all(out.data == 0.0)


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(7)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    x = Tensor(rng.standard_normal((1, 2, d)) * 0.3)
    agg = Tensor(rng.standard_normal((1, d)) * 0.3)
    got = enc.attention_block(x, agg, lp, heads).data[0]
    want = dense_attention_oracle(x.data[0], agg.data, lp, heads)
    assert np.max(np.abs(got - want)) < 1e-6


def test_attention_output_rows_equal_query_count():
    rng = np.random.default_rng(3)
    lp = make_layer_params(8, rng)
    x = Tensor(rng.standard_normal((1, 5, 8)))
    agg = Tensor(rng.standard_normal((1, 8)))
    assert enc.attention_block(x, agg, lp, heads=2).shape == (1, 5, 8)


def test_attention_weights_are_distributions():
    rng = np.random.default_rng(11)
    d, heads, t = 8, 2, 4
    lp = make_layer_params(d, rng)
    x = Tensor(rng.standard_normal((1, t, d)))
    q = split_heads(ad.linear(x, lp.wq, lp.bq), heads)
    k = split_heads(ad.linear(x, lp.wk, lp.bk), heads)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d // heads))
    w = ad.softmax(scores).data
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)


def test_attention_content_based_kv_permutation():
    rng = np.random.default_rng(13)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    q_in = Tensor(rng.standard_normal((1, 3, d)))
    kv = rng.standard_normal((1, 5, d))
    perm = np.random.default_rng(1).permutation(5)
    out_a = enc.attention_core(q_in, Tensor(kv), lp, heads).data
    out_b = enc.attention_core(q_in, Tensor(kv[:, perm]), lp, heads).data
    np.testing.assert_allclose(out_a, out_b, atol=1e-10)


def test_attention_key_mask_hides_rows():
    rng = np.random.default_rng(17)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    x_short = Tensor(rng.standard_normal((1, 2, d)))
    pad = np.zeros((1, 1, d))
    x_padded = Tensor(np.concatenate([x_short.data, pad], axis=1))
    mask = np.array([[True, True, False]])
    out_padded = enc.attention_block(x_padded, None, lp, heads, key_mask=mask).data
    out_short = enc.attention_block(x_short, None, lp, heads).data
    np.testing.assert_allclose(out_padded[:, :2], out_short, atol=1e-12)


# -- transformer layer ------------------------------------------------------------


def test_layer_zero_weights_is_double_layernorm():
    d = 4
    lp = make_layer_params(d)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, d)))
    got = enc.transformer_block(x, None, lp, heads=2).data
    ones, zeros = Tensor(np.ones(d)), Tensor(np.zeros(d))
    want = ad.layer_norm(ad.layer_norm(x, ones, zeros), ones, zeros).data
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_layer_shape_contract_with_agg():
    rng = np.random.default_rng(1)
    lp = make_layer_params(8, rng)
    for t in (1, 3, 6):
        x = Tensor(rng.standard_normal((1, t, 8)))
        agg = Tensor(rng.standard_normal((1, 8)))
        assert enc.transformer_block(x, agg, lp, heads=2).shape == (1, t, 8)


def test_layer_matches_composed_sublayers():
    rng = np.random.default_rng(23)
    d, heads = 8, 2
    lp = make_layer_params(d, rng)
    x = Tensor(rng.standard_normal((1, 2, d)) * 0.5)
    agg = Tensor(rng.standard_normal((1, d)) * 0.5)
    got = enc.transformer_block(x, agg, lp, heads).data[0]

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
    a = enc.transformer_block(Tensor(x), None, lp, heads=2).data
    b = enc.transformer_block(Tensor(x + 7.3), None, lp, heads=2).data
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
        out = enc.transformer_block(x, agg, lp, heads)
        return (out * w).sum()

    finite_diff_check(loss, tensors, probes=6, rng=rng)


# -- MLM head ---------------------------------------------------------------------


def test_mlm_head_tied_uses_token_embeddings():
    p = enc.init_params(11, ModelDims(d=8, heads=2, max_len=10), 1, 0, seed=0, tie_mlm=True)
    assert p.mlm_head is None
    assert p.mlm_weight() is p.token_emb


def test_dims_head_divisibility():
    with pytest.raises(enc.ConfigError):
        ModelDims(d=10, heads=4)
