import numpy as np
import pytest

from egoground.autodiff import (
    Adam,
    NonFiniteError,
    ParamStore,
    SGD,
    Tensor,
    _attention_core,
    attention,
    grad_check,
    init_attention,
    init_layer_norm,
    init_linear,
    init_mlp,
    layer_norm,
    linear,
    make_optimizer,
    make_rng,
    mlp,
    no_grad,
)
from tape_reference import (
    add,
    concat,
    div,
    getitem,
    matmul,
    mean,
    mul,
    pow_,
    relu,
    sigmoid,
    softmax,
    softplus,
    sqrt,
    sub,
    sum_,
    transpose,
)


def test_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.inf])
    with pytest.raises(ValueError):
        Tensor(np.nan)


def test_non_finite_tensor_raises_typed_error():
    with pytest.raises(NonFiniteError) as err:
        Tensor([np.inf])
    assert isinstance(err.value, ValueError)


def test_op_outputs_are_unchecked_and_backward_refuses_a_non_finite_loss():
    # finiteness is checked where data enters and at the loss, not per op
    x = Tensor([1e308])
    with np.errstate(over="ignore"):
        loss = mul(x, 10.0)
    assert loss.data[0] == np.inf
    with pytest.raises(NonFiniteError, match="non-finite loss inf"):
        loss.backward()


def test_tensor_is_float64_row_major():
    t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3).T)
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_backward_requires_scalar():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.backward()


def test_square_gradient_matches_fd_tightly():
    # f(w) = w^2 at w = 3: analytic gradient 6, central differences exact
    # up to roundoff because the quadratic's odd terms cancel.
    store = ParamStore()
    store.create("w", 3.0)
    report = grad_check(lambda s: mul(s["w"], s["w"]), store, eps=1e-5)
    assert report.max_rel_err < 1e-8


def test_broadcast_add_mul_gradients():
    rng = make_rng(7)
    store = ParamStore()
    store.create("a", rng.normal(size=(3, 1)))
    store.create("b", rng.normal(size=(5,)))

    def fn(s):
        return sum_(mul(add(s["a"], s["b"]), s["a"]))

    report = grad_check(fn, store, eps=1e-5, tol=1e-6)
    assert report.passed


def test_getitem_fancy_index_accumulates_repeats():
    store = ParamStore()
    store.create("m", np.arange(6.0).reshape(3, 2))
    idx = np.array([0, 0, 2], dtype=np.intp)
    out = sum_(getitem(store["m"], idx))
    out.backward()
    np.testing.assert_allclose(store["m"].grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_concat_and_slice_gradients():
    rng = make_rng(3)
    store = ParamStore()
    store.create("a", rng.normal(size=(2, 3)))
    store.create("b", rng.normal(size=(2, 2)))

    def fn(s):
        joined = concat([s["a"], s["b"]], axis=1)
        middle = getitem(joined, (slice(None), slice(1, 4)))
        return sum_(mul(middle, middle))

    assert grad_check(fn, store, eps=1e-5, tol=1e-6).passed


def test_core_op_gradients_against_fd():
    rng = make_rng(5)
    store = ParamStore()
    store.create("x", rng.uniform(0.5, 2.0, size=(3, 4)))

    def fn(s):
        x = s["x"]
        y = add(add(div(x, add(x, 1.0)), mul(mul(x, 0.5), x)),
                mul(pow_(x, -2.0), sum_(x, axis=0)))
        z = add(add(pow_(y, 0.5), div(mean(x, axis=1, keepdims=True), x)), pow_(x, 1.5))
        return mean(mul(z, z))

    assert grad_check(fn, store, eps=1e-5, tol=1e-6).passed


def test_linear_layer_squared_loss_gradcheck():
    rng = make_rng(17)
    store = ParamStore()
    init_linear(store, "lin", 4, 3, rng)
    x = Tensor(rng.normal(size=(5, 4)))
    target = rng.normal(size=(5, 3))

    def fn(s):
        err = sub(linear(x, s, "lin"), target)
        return sum_(mul(err, err))

    assert grad_check(fn, store, eps=1e-5, tol=1e-6).passed


def test_linear_shape_mismatch_names_layer():
    rng = make_rng(1)
    store = ParamStore()
    init_linear(store, "lin", 4, 3, rng)
    with pytest.raises(ValueError, match="lin"):
        linear(Tensor(np.zeros((2, 5))), store, "lin")


def test_mlp_gradcheck_and_shape_error():
    rng = make_rng(23)
    store = ParamStore()
    init_mlp(store, "mlp", [4, 6, 2], rng)
    x = Tensor(rng.normal(size=(3, 4)) + 0.1)

    def fn(s):
        out = mlp(x, s, "mlp")
        return sum_(mul(out, out))

    assert grad_check(fn, store, eps=1e-5, tol=1e-4).passed
    with pytest.raises(ValueError, match="mlp"):
        mlp(Tensor(np.zeros((3, 5))), store, "mlp")


def test_mlp_applies_every_layer_the_store_holds():
    rng = make_rng(24)
    store = ParamStore()
    init_mlp(store, "deep", [4, 5, 6, 3], rng)
    x = Tensor(rng.normal(size=(2, 4)) + 0.1)
    out = mlp(x, store, "deep")
    assert out.shape == (2, 3)
    h = np.maximum(x.data @ store["deep.0.w"].data + store["deep.0.b"].data, 0.0)
    h = np.maximum(h @ store["deep.1.w"].data + store["deep.1.b"].data, 0.0)
    expect = h @ store["deep.2.w"].data + store["deep.2.b"].data
    np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-12)

    def fn(s):
        y = mlp(x, s, "deep")
        return sum_(mul(y, y))

    assert grad_check(fn, store, eps=1e-5, tol=1e-4).passed


def test_mlp_without_layers_names_prefix():
    store = ParamStore()
    init_mlp(store, "mlp", [4, 6, 2], make_rng(25))
    with pytest.raises(ValueError, match="'absent'"):
        mlp(Tensor(np.zeros((3, 4))), store, "absent")


def test_layer_norm_normalizes_and_gradchecks():
    rng = make_rng(29)
    store = ParamStore()
    init_layer_norm(store, "ln", 6)
    x = Tensor(rng.normal(size=(4, 6)) * 3.0 + 1.0)
    y = layer_norm(x, store, "ln")
    np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(y.data.std(axis=-1), np.ones(4), atol=1e-3)

    def fn(s):
        out = layer_norm(x, s, "ln")
        return sum_(mul(out, sigmoid(out)))

    assert grad_check(fn, store, eps=1e-5, tol=1e-4).passed


def test_attention_single_key_identity_projections():
    # With identity projections and one key, softmax over one logit is 1, so
    # every output row equals the single value row.
    store = ParamStore()
    dim = 3
    for part in ("q", "k", "v", "o"):
        store.create(f"att.{part}.w", np.eye(dim))
        store.create(f"att.{part}.b", np.zeros(dim))
    q = Tensor(np.arange(6.0).reshape(2, 3))
    kv = Tensor([[0.5, -1.0, 2.0]])
    out = attention(q, kv, store, "att")
    np.testing.assert_allclose(out.data, np.tile(kv.data, (2, 1)), atol=1e-12)


def test_attention_zero_output_projection_gives_zeros():
    rng = make_rng(31)
    store = ParamStore()
    init_attention(store, "att", 4, rng, zero_out=True)
    q = Tensor(rng.normal(size=(3, 4)))
    kv = Tensor(rng.normal(size=(2, 4)))
    out = attention(q, kv, store, "att")
    assert np.all(out.data == 0.0)


def test_attention_empty_keys_error():
    rng = make_rng(37)
    store = ParamStore()
    init_attention(store, "att", 4, rng)
    with pytest.raises(ValueError):
        attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4))), store, "att")


def test_attention_gradcheck_single_and_multi_head():
    rng = make_rng(41)
    q_data = rng.normal(size=(3, 4))
    kv_data = rng.normal(size=(5, 4))
    for heads in (1, 2):
        store = ParamStore()
        init_attention(store, "att", 4, rng)

        def fn(s):
            out = attention(Tensor(q_data), Tensor(kv_data), s, "att", heads=heads)
            return sum_(mul(out, out))

        assert grad_check(fn, store, eps=1e-5, tol=1e-4).passed


def _attention_weights(q, kv, store, prefix, heads):
    """The (H, N, T) softmax weights of ``attention(q, kv, ...)``."""
    _, w = _attention_core(linear(q, store, f"{prefix}.q"), linear(kv, store, f"{prefix}.k"),
                           linear(kv, store, f"{prefix}.v"), heads)
    return w


def test_attention_weights_rows_sum_to_one():
    rng = make_rng(43)
    store = ParamStore()
    init_attention(store, "att", 4, rng)
    q = Tensor(rng.normal(size=(3, 4)))
    kv = Tensor(rng.normal(size=(5, 4)))
    w = _attention_weights(q, kv, store, "att", heads=2)
    assert w.shape == (2, 3, 5)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((2, 3)), atol=1e-12)


def test_grad_check_flags_broken_backward():
    # A deliberately wrong backward rule must be reported as a failure.
    store = ParamStore()
    store.create("w", np.array([1.5, -0.7]))

    def bad_square(t):
        out = Tensor(t.data * t.data, (t,))

        def backward(g):
            t.grad += g * 3.0  # wrong: should be 2 * t.data

        out._backward = backward
        return out

    report = grad_check(lambda s: sum_(bad_square(s["w"])), store, eps=1e-5, tol=1e-4)
    assert not report.passed
    assert report.max_rel_err > 0.1


def test_grad_check_refuses_bad_eps_and_tol_by_name():
    store = ParamStore()
    store.create("w", np.array([1.5, -0.7]))

    def fn(s):
        raise AssertionError("grad_check evaluated the loss")

    for eps, tol, name in ((0.0, 1e-4, "eps"), (-1e-5, 1e-4, "eps"), (np.nan, 1e-4, "eps"),
                           (np.inf, 1e-4, "eps"), (1e-5, np.nan, "tol"), (1e-5, 0.0, "tol"),
                           (1e-5, -1.0, "tol"), (1e-5, np.inf, "tol")):
        with pytest.raises(ValueError, match=rf"grad_check {name} must be finite and > 0"):
            grad_check(fn, store, eps=eps, tol=tol)


def test_param_store_duplicate_and_grad_slots():
    store = ParamStore()
    p = store.create("w", np.ones((2, 2)))
    assert p.grad is not None and p.grad.shape == (2, 2) and np.all(p.grad == 0.0)
    with pytest.raises(ValueError):
        store.create("w", np.ones(1))


def test_sgd_step_matches_hand_value():
    store = ParamStore()
    p = store.create("w", 1.0)
    p.grad[...] = 2.0
    SGD(lr=0.1).step(store)
    assert p.data == pytest.approx(0.8, abs=0.0)
    assert np.all(p.grad == 0.0)


def test_adam_first_step_is_signed_lr():
    # With constant gradient, bias correction makes the first update
    # -lr * g / (|g| + eps) which is -lr * sign(g) up to eps.
    store = ParamStore()
    p = store.create("w", 1.0)
    p.grad[...] = 2.0
    Adam(lr=0.01).step(store)
    assert abs(float(p.data.reshape(())) - 0.99) < 1e-7


def test_adam_three_steps_match_reference_loop():
    # Independent transcription of the update rule, run alongside.
    rng = make_rng(47)
    w0 = rng.normal(size=(3,))
    grads = [rng.normal(size=(3,)) for _ in range(3)]

    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    w_ref = w0.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + eps)

    store = ParamStore()
    p = store.create("w", w0)
    opt = Adam(lr=lr)
    for g in grads:
        p.grad[...] = g
        opt.step(store)
    np.testing.assert_allclose(p.data, w_ref, atol=1e-15)


def test_optimizer_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        SGD(lr=0.0)
    with pytest.raises(ValueError):
        Adam(lr=-1.0)
    with pytest.raises(ValueError):
        make_optimizer("unknown", 0.1)


def test_rng_is_deterministic_per_seed():
    a = make_rng(123, 4).normal(size=8)
    b = make_rng(123, 4).normal(size=8)
    c = make_rng(123, 5).normal(size=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _attention_block(store, x):
    h = layer_norm(attention(x, x, store, "att", heads=2), store, "ln")
    y = concat([softmax(h, axis=-1), softplus(sigmoid(mul(h, 0.5)))], axis=1)
    return mlp(y, store, "mlp")


def test_no_grad_records_nothing_and_computes_the_same_values():
    rng = make_rng(71)
    store = ParamStore()
    init_attention(store, "att", 4, rng)
    init_layer_norm(store, "ln", 4)
    init_mlp(store, "mlp", [8, 6, 3], rng)
    x = Tensor(rng.normal(size=(5, 4)))
    taped = _attention_block(store, x)
    with no_grad():
        bare = _attention_block(store, x)
    assert bare.data.tobytes() == taped.data.tobytes()
    assert taped._parents and taped._backward is not None
    assert bare._parents == () and bare._backward is None
    # recording resumes after the block, also when the block raised
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    again = sigmoid(x)
    assert again._parents == (x,) and again._backward is not None


def test_no_grad_nests():
    x = Tensor([1.0, 2.0])
    with no_grad():
        with no_grad():
            pass
        inner = add(x, x)
    assert inner._parents == () and inner._backward is None


# ---------------------------------------------------------------------------
# Fused ops against their unfused compositions
# ---------------------------------------------------------------------------


def _linear_ref(x, store, name):
    return add(matmul(x, store[name + ".w"]), store[name + ".b"])


def _layer_norm_ref(x, store, name):
    mu = mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    y = div(centered, sqrt(add(var, 1e-5)))
    return add(mul(y, store[name + ".g"]), store[name + ".b"])


def _attention_ref(q, kv, store, prefix, heads):
    qp = _linear_ref(q, store, f"{prefix}.q")
    kp = _linear_ref(kv, store, f"{prefix}.k")
    vp = _linear_ref(kv, store, f"{prefix}.v")
    d = q.shape[-1] // heads
    outs = []
    for h in range(heads):
        cols = (slice(None), slice(h * d, (h + 1) * d))
        logits = matmul(getitem(qp, cols), transpose(getitem(kp, cols)))
        w = softmax(mul(logits, 1.0 / np.sqrt(d)), axis=-1)
        outs.append(matmul(w, getitem(vp, cols)))
    merged = outs[0] if heads == 1 else concat(outs, axis=1)
    return _linear_ref(merged, store, f"{prefix}.o")


def _op_nodes(out):
    """Recorded ops (nodes with a backward closure) reachable from ``out``."""
    seen, stack, count = {id(out)}, [out], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def _grads(fn, store, weights):
    store.zero_grad()
    out = fn(store)
    sum_(mul(out, Tensor(weights))).backward()
    grads = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grad()
    return out, grads


def _assert_fused_matches(fused, reference, store, rng, fd=True):
    out = fused(store)
    weights = rng.normal(size=out.shape)
    out_f, grads_f = _grads(fused, store, weights)
    out_r, grads_r = _grads(reference, store, weights)
    assert out_f.data.tobytes() == out_r.data.tobytes()
    for name in store.names():
        scale = max(np.abs(grads_r[name]).max(), 1e-300)
        assert np.abs(grads_f[name] - grads_r[name]).max() / scale <= 1e-12, name

    if fd:
        def loss(s):
            return sum_(mul(fused(s), Tensor(weights)))

        assert grad_check(loss, store, eps=1e-5, tol=1e-5).passed


def test_fused_linear_matches_composition():
    rng = make_rng(101)
    store = ParamStore()
    store.create("x", rng.normal(size=(5, 4)))
    init_linear(store, "lin", 4, 3, rng, bias=rng.normal(size=3))
    assert _op_nodes(linear(store["x"], store, "lin")) == 1
    _assert_fused_matches(lambda s: linear(s["x"], s, "lin"),
                          lambda s: _linear_ref(s["x"], s, "lin"), store, rng)


def _mlp_ref(x, store, layers):
    h = linear(x, store, layers[0])
    for name in layers[1:]:
        h = linear(relu(h), store, name)
    return h


@pytest.mark.parametrize("sizes, zero_last, last_bias", [
    ([5, 7, 3], False, 0.0),
    ([4, 5, 6, 3], False, 0.0),
    ([6, 6, 6], True, 1.0),   # qim's init: zero last weight, constant output
    ([6, 12], False, 0.0),
])
def test_fused_mlp_matches_chain_bytes(sizes, zero_last, last_bias):
    rng = make_rng(151 + len(sizes))
    store = ParamStore()
    init_mlp(store, "m", sizes, rng, zero_last=zero_last, last_bias=last_bias)
    store.data[:] += rng.normal(scale=0.05, size=store.data.shape) * (not zero_last)
    layers = [f"m.{i}" for i in range(len(sizes) - 1)]
    x_data = rng.normal(size=(9, sizes[0]))
    x_data[0] = 0.0  # with a zero first bias, row 0's hidden units sit on the ReLU kink
    store["m.0.b"].data[:] = 0.0
    upstream = rng.normal(size=(9, sizes[-1]))
    got = []
    for fn in (lambda x: mlp(x, store, "m"), lambda x: _mlp_ref(x, store, layers)):
        x = Tensor(x_data)
        out = fn(x)
        sum_(mul(out, Tensor(upstream))).backward()
        got.append((out.data.tobytes(), x.grad.tobytes(), store.grad.tobytes()))
        store.zero_grad()
    assert got[0] == got[1]
    assert _op_nodes(mlp(Tensor(x_data), store, "m")) == 1


CONSTANT = make_rng(163).normal(size=(3, 4))
CONSTANT_OPS = {
    "add": (lambda x, k, s: add(x, k), CONSTANT),
    "mul": (lambda x, k, s: mul(x, k), CONSTANT),
    "mul float": (lambda x, k, s: mul(x, k), 2.5),
    "concat": (lambda x, k, s: concat([x, k], axis=1), CONSTANT),
    "linear": (lambda x, k, s: linear(k, s, "lin"), CONSTANT),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_OPS))
def test_constant_operands_record_no_node(name):
    # an array or float operand is held and checked as a leaf holds its data,
    # but records no node and gets no gradient; every other byte is a leaf's
    op, k = CONSTANT_OPS[name]
    rng = make_rng(165)
    store = ParamStore()
    store.create("x", rng.normal(size=(3, 4)))
    init_linear(store, "lin", 4, 2, rng, bias=rng.normal(size=2))
    got = []
    for operand in (k, Tensor(k)):
        out = op(store["x"], operand, store)
        sum_(mul(out, Tensor(make_rng(166).normal(size=out.shape)))).backward()
        got.append((out.data.tobytes(), store.grad.tobytes()))
        store.zero_grad()
    assert got[0] == got[1]
    params = {id(p) for _, p in store.items()}
    assert all(id(parent) in params for parent in op(store["x"], k, store)._parents)
    with pytest.raises(NonFiniteError, match="^non-finite values in tensor$"):
        op(store["x"], k * np.nan, store)


SUBLAYERS = {
    "attention": lambda h, s, residual=None: attention(h, h, s, "att", heads=2, residual=residual),
    "mlp": lambda h, s, residual=None: mlp(h, s, "ffn", residual=residual),
}


@pytest.mark.parametrize("sublayer", sorted(SUBLAYERS))
def test_residual_operand_matches_the_add_bytes(sublayer):
    # the pre-norm residual joins its sublayer's node: value and every gradient
    # byte are those of ``r + sublayer(h)``, where ``r`` is also read by h's norm
    rng = make_rng(167)
    store = ParamStore()
    store.create("x", rng.normal(size=(6, 8)))
    init_linear(store, "pre", 8, 8, rng, bias=rng.normal(size=8))
    init_layer_norm(store, "ln", 8)
    init_attention(store, "att", 8, rng)
    init_mlp(store, "ffn", [8, 16, 8], rng)
    upstream = Tensor(rng.normal(size=(6, 8)))
    fn = SUBLAYERS[sublayer]
    got = []
    for fused in (True, False):
        r = linear(store["x"], store, "pre")
        h = layer_norm(r, store, "ln")
        out = fn(h, store, residual=r) if fused else add(r, fn(h, store))
        sum_(mul(out, upstream)).backward()
        got.append((out.data.tobytes(), store.grad.tobytes(), _op_nodes(out)))
        store.zero_grad()
    assert got[0][:2] == got[1][:2]
    assert got[0][2] == got[1][2] - 1


def test_fused_linear_rejects_non_matrix_input():
    store = ParamStore()
    init_linear(store, "lin", 4, 3, make_rng(102))
    with pytest.raises(ValueError, match="'lin'"):
        linear(Tensor(np.zeros(4)), store, "lin")


def test_fused_layer_norm_matches_composition():
    rng = make_rng(103)
    store = ParamStore()
    store.create("x", rng.normal(size=(6, 8)) * 3.0 + 1.0)
    store.create("ln.g", rng.normal(size=8))
    store.create("ln.b", rng.normal(size=8))
    assert _op_nodes(layer_norm(store["x"], store, "ln")) == 1
    _assert_fused_matches(lambda s: layer_norm(s["x"], s, "ln"),
                          lambda s: _layer_norm_ref(s["x"], s, "ln"), store, rng)


# (N, T, C): a small case for the finite-difference check, and the decoder's
# visual cross-attention size, where a transposed-view key operand would
# make BLAS round the logits differently from the per-head composition
@pytest.mark.parametrize("n,t,dim", [(3, 5, 8), (32, 154, 32)])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_fused_attention_matches_composition(heads, n, t, dim):
    rng = make_rng(107, heads, t)
    store = ParamStore()
    store.create("q", rng.normal(size=(n, dim)))
    store.create("kv", rng.normal(size=(t, dim)))
    init_attention(store, "att", dim, rng)
    out = attention(store["q"], store["kv"], store, "att", heads=heads)
    w = _attention_weights(store["q"], store["kv"], store, "att", heads)
    assert _op_nodes(out) == 5
    assert w.shape == (heads, n, t)
    _assert_fused_matches(
        lambda s: attention(s["q"], s["kv"], s, "att", heads=heads),
        lambda s: _attention_ref(s["q"], s["kv"], s, "att", heads), store, rng,
        fd=n * t < 100)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_fused_self_attention_matches_composition(heads):
    rng = make_rng(109, heads)
    store = ParamStore()
    store.create("h", rng.normal(size=(6, 8)))
    init_attention(store, "att", 8, rng)
    assert _op_nodes(attention(store["h"], store["h"], store, "att", heads=heads)) == 5
    _assert_fused_matches(
        lambda s: attention(s["h"], s["h"], s, "att", heads=heads),
        lambda s: _attention_ref(s["h"], s["h"], s, "att", heads), store, rng)


def test_attention_weights_match_per_head_softmax():
    rng = make_rng(113)
    store = ParamStore()
    init_attention(store, "att", 8, rng)
    q = Tensor(rng.normal(size=(3, 8)))
    kv = Tensor(rng.normal(size=(5, 8)))
    w = _attention_weights(q, kv, store, "att", heads=4)
    qp, kp = _linear_ref(q, store, "att.q"), _linear_ref(kv, store, "att.k")
    for h in range(4):
        cols = (slice(None), slice(2 * h, 2 * h + 2))
        logits = matmul(getitem(qp, cols), transpose(getitem(kp, cols)))
        ref = softmax(mul(logits, 1.0 / np.sqrt(2)), axis=-1)
        assert w[h].tobytes() == ref.data.tobytes()


# ---------------------------------------------------------------------------
# The flat parameter arena
# ---------------------------------------------------------------------------


def _arena_store(rng):
    store = ParamStore()
    for i, shape in enumerate([(3, 4), (4,), (), (2, 2, 3), (0,), (7,), (5, 6)]):
        store.create(f"p{i}", rng.normal(size=shape))
    return store


def _address(a):
    return a.__array_interface__["data"][0]


def test_arena_params_are_views_in_creation_order():
    store = _arena_store(make_rng(127))
    data, grad = store.data, store.grad
    assert data.size == grad.size == store.total_parameters() == 12 + 4 + 1 + 12 + 0 + 7 + 30
    offset = 0
    for name, p in store.items():
        if p.data.size:
            assert np.shares_memory(p.data, data) and np.shares_memory(p.grad, grad)
            assert _address(p.data) - _address(data) == 8 * offset
            assert _address(p.grad) - _address(grad) == 8 * offset
        assert np.array_equal(data[offset:offset + p.data.size], p.data.reshape(-1))
        offset += p.data.size
    store["p0"].grad[...] = 1.0
    store["p6"].grad[...] = 2.0
    assert grad.sum() == 12 * 1.0 + 30 * 2.0
    store.zero_grad()
    assert not store.grad.any() and not store["p0"].grad.any()


def test_arena_growth_keeps_values_and_grads():
    rng = make_rng(131)
    store = ParamStore()
    values = {}
    for i in range(40):
        values[f"t{i}"] = rng.normal(size=(i % 5 + 1, 3))
        p = store.create(f"t{i}", values[f"t{i}"])
        p.grad[...] = i
    for i, (name, p) in enumerate(store.items()):
        assert p.data.tobytes() == values[name].tobytes()
        assert np.all(p.grad == i)
        assert np.shares_memory(p.data, store.data)
    assert store.data.tobytes() == np.concatenate([v.reshape(-1) for v in values.values()]).tobytes()


def test_arena_adam_matches_per_tensor_adam_bytes():
    rng = make_rng(137)
    store = _arena_store(rng)
    reference = {name: p.data.copy() for name, p in store.items()}
    moments = {name: (np.zeros_like(w), np.zeros_like(w)) for name, w in reference.items()}
    lr, b1, b2 = 3e-3, 0.9, 0.999
    opt = Adam(lr=lr)
    for t in range(1, 6):
        grads = {name: rng.normal(size=w.shape) for name, w in reference.items()}
        for name, g in grads.items():
            store[name].grad[...] = g
            m, v = moments[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            reference[name] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        opt.step(store)
        for name, p in store.items():
            assert p.data.tobytes() == reference[name].tobytes(), (t, name)
            assert not p.grad.any()


def test_sgd_updates_the_whole_arena():
    rng = make_rng(139)
    store = _arena_store(rng)
    before = store.data.copy()
    step = rng.normal(size=before.shape)
    store.grad[...] = step
    SGD(lr=0.5).step(store)
    assert store.data.tobytes() == (before - 0.5 * step).tobytes()
    assert not store.grad.any()


def test_adam_rejects_a_store_of_another_size():
    rng = make_rng(149)
    opt = Adam(lr=0.1)
    opt.step(_arena_store(rng))
    other = ParamStore()
    other.create("w", np.ones(3))
    with pytest.raises(ValueError, match="3"):
        opt.step(other)
