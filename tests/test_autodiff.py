import ast
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rallycast import autodiff as ad
from rallycast.autodiff import LOG_SIGMA_RANGE, RHO_CAP, NumericHealthError, Tensor, backward, grad_of

from gradient_reference import gradient_check, weighted_sum

N_CASES = 20
OP_TOL = 1e-6


def _rand(rng, *shape):
    return rng.normal(0.0, 1.0, size=shape)


def _away_from_kinks(x, margin=0.05, shift=0.2):
    return np.where(np.abs(x) < margin, x + shift, x)


def _weighted_sum(t, rng):
    return weighted_sum(t, rng.normal(0.0, 1.0, size=t.shape))


def _check(fn, arrays, eps=1e-5):
    err = gradient_check(fn, arrays, eps)
    assert err < OP_TOL, f"gradient error {err:.3e}"


def _degenerate_nll():
    """gaussian_nll at rho = 1, where 1 - rho^2 is 0: the row is NaN."""
    return ad.gaussian_nll(Tensor([[0.0, 0.0, 0.0, 0.0, 1.0]]), np.zeros((1, 2)))


def _infinite_ce():
    """cross_entropy of an infinite true-type probability: the row is -inf."""
    return ad.cross_entropy(Tensor([[math.inf, 0.5]]), [0])


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_softmax_equal_logits_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ad.softmax(Tensor(rng.normal(size=(5, 7))))
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)


def test_relu_definition():
    assert np.array_equal(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    out = ad.linear(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_rank_cap():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_numeric_health_trips():
    with pytest.raises(NumericHealthError):
        _degenerate_nll()
    with pytest.raises(NumericHealthError):
        _infinite_ce()


def test_fused_primitives_trip_on_overflow():
    huge = Tensor(np.array([[1e200, -1e200, 1e200, -1e200], [1.0, 2.0, 3.0, 4.0]]))
    with ad.no_tape(), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericHealthError, match="layer_norm"):  # the variance overflows; every row would read 0
            ad.layer_norm(huge, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        with pytest.raises(NumericHealthError, match="attention"):
            ad.attention(huge, huge, huge, np.zeros((2, 2), dtype=bool), 2)
        with pytest.raises(NumericHealthError, match="linear"):
            ad.linear(huge, Tensor(np.full((4, 1), 1e200)), Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# backward basics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor([[1.0, -2.0], [0.5, 3.0]])
    backward(ad.tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_square_sum():
    x = Tensor([1.0, 2.0])
    backward(weighted_sum(ad.add(x, x), x.data))  # (x + x) * x, with the second factor held
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(ad.add(x, x))


def test_unused_parameter_gets_zero_gradient():
    x = Tensor([1.0, 2.0])
    unused = Tensor([5.0])
    backward(ad.tsum(x))
    assert np.array_equal(grad_of(unused), np.zeros(1))


def test_tape_orders_parents_before_children():
    x = Tensor([1.0, 2.0])
    y = ad.add(x, x)
    z = ad.tsum(ad.add(y, x))
    nodes = ad.graph_nodes(z)
    pos = {id(n): i for i, n in enumerate(nodes)}
    assert len(pos) == len(nodes)  # each node recorded once
    for node in nodes:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_tensor_has_no_arithmetic_operators():
    """A graph is built from the named primitives only; an operator or an index on a tensor raises TypeError."""
    operators = (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
        "__getitem__",
    )
    assert [name for name in operators if hasattr(Tensor, name)] == []
    x = Tensor([1.0, 2.0])
    for apply in (lambda: x + x, lambda: 1.0 - x, lambda: 2.0 * x, lambda: x / 2.0, lambda: -x, lambda: x[0]):
        with pytest.raises(TypeError):
            apply()


def test_shared_subgraph_accumulates():
    x = Tensor([3.0])
    y = ad.add(weighted_sum(ad.add(x, x), x.data), ad.tsum(x))  # (x + x) * 3 + x -> grad 2 * 3 + 1
    backward(y)
    assert np.allclose(x.grad, [7.0])


# ---------------------------------------------------------------------------
# per-primitive gradient checks, 20 random shapes/seeds each
# ---------------------------------------------------------------------------

def _shapes(rng):
    choices = [(3,), (4, 2), (2, 3, 2), (1, 5), (6,)]
    return choices[int(rng.integers(len(choices)))]


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_add(case):
    rng = np.random.default_rng(100 + case)
    shape = _shapes(rng)
    a = _rand(rng, *shape)
    b_shape = shape if rng.random() < 0.6 else shape[-1:]  # exercise broadcasting
    b = _rand(rng, *b_shape)
    w = rng.normal(size=shape)
    _check(lambda ts: weighted_sum(ad.add(ts[0], ts[1]), w), [a, b])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_matmul_transpose_scale(case):
    """linear without a bias, also against a weight transposed in NumPy (a strided view), and scale."""
    rng = np.random.default_rng(200 + case)
    m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
    a, b = _rand(rng, m, k), _rand(rng, k, n)
    w = rng.normal(size=(m, n))
    bt = rng.normal(size=(n, k))
    _check(lambda ts: weighted_sum(ad.linear(ts[0], ts[1]), w), [a, b])
    _check(lambda ts: weighted_sum(ad.linear(ts[0], Tensor(bt.T)), w), [a])
    _check(lambda ts: ad.tsum(ad.scale(ts[0], 1.7)), [a])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_batched_matmul_transpose(case):
    rng = np.random.default_rng(250 + case)
    bsz, m, k, n = (int(rng.integers(1, 4)) for _ in range(4))
    a, b2 = _rand(rng, bsz, m, k), _rand(rng, k, n)
    w = rng.normal(size=(bsz, m, n))
    _check(lambda ts: weighted_sum(ad.linear(ts[0], ts[1]), w), [a, b2])  # shared rank-2 weight


def test_batched_matmul_rows_equal_unbatched_products():
    rng = np.random.default_rng(3)
    a, w = _rand(rng, 5, 7, 16), _rand(rng, 16, 16)
    batched = ad.linear(Tensor(a), Tensor(w)).data
    for row in range(5):
        assert np.array_equal(batched[row], ad.linear(Tensor(a[row]), Tensor(w)).data)


@settings(max_examples=150)
@given(
    width=st.sampled_from([5, 10, 16, 64]),
    inner=st.sampled_from([2, 16, 48, 64]),
    n=st.integers(1, 300),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=64, inner=64, n=65, share=1.0, seed=0)  # the whole product, one row past a 64-row block
@example(width=5, inner=2, n=300, share=0.0, seed=1)  # one row alone
@example(width=16, inner=48, n=128, share=0.5, seed=2)
def test_products_give_each_row_the_same_bits_wherever_it_sits(width, inner, n, share, seed):
    """Any subset of rows, in any order, gets the bits of the same rows of the full product.

    A key/value cache rests on this: a row fed alone in a decoding step must
    round as it does inside the full forward.
    """
    rng = np.random.default_rng(seed)
    x, w, b = Tensor(rng.normal(size=(n, inner))), Tensor(rng.normal(size=(inner, width))), Tensor(rng.normal(size=width))
    rows = rng.permutation(n)[: max(1, round(share * n))]
    part = Tensor(x.data[rows])
    assert np.array_equal(ad.linear(part, w, b).data, ad.linear(x, w, b).data[rows])
    assert np.array_equal(ad.linear(part, w).data, ad.linear(x, w).data[rows])
    if len(rows) % 2 == 0:  # a rank-3 batch of the same rows
        batch = Tensor(part.data.reshape(2, -1, inner))
        assert np.array_equal(ad.linear(batch, w, b).data.reshape(-1, width), ad.linear(x, w, b).data[rows])


# the only forward code that may multiply: each rounds a row the same wherever the row sits
ROW_PRODUCTS = {"_row_product", "_row_by_row"}


def _forward_products(tree):
    """(function, line) of each @, np.matmul or np.dot outside the row products and backward closures."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                if child.name not in ROW_PRODUCTS and not (fn and child.name == "bwd"):
                    visit(child, child.name)
                continue
            if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)) or (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr in ("matmul", "dot")
            ):
                found.append((fn, child.lineno))
            visit(child, fn)

    visit(tree, None)
    return found


def test_forward_code_multiplies_only_through_the_row_products():
    """The key/value cache rests on every forward product giving a row the same bits wherever it sits."""
    tree = ast.parse(inspect.getsource(ad))
    assert ROW_PRODUCTS <= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert _forward_products(tree) == []
    assert _forward_products(ast.parse("def f(a, b):\n    return np.dot(a, b) + a @ b\n")) == [("f", 2), ("f", 2)]


def test_matmul_rejects_mismatched_batches():
    with pytest.raises(ValueError):
        ad.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(ValueError):
        ad.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 2))))
    with pytest.raises(ValueError):
        ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_gate(case):
    rng = np.random.default_rng(300 + case)
    shape = _shapes(rng)
    z, a, b = _rand(rng, *shape), _rand(rng, *shape), _rand(rng, *shape)
    w = rng.normal(size=shape)
    _check(lambda ts: weighted_sum(ad.gate(ts[0], ts[1], ts[2]), w), [z, a, b])
    # a saturated z: at 40 the gate is exactly 1 and passes a alone, at -40 it is 4e-18
    z = np.where(rng.random(shape) < 0.5, 40.0, -40.0)
    z.flat[:2] = [40.0, -40.0]
    assert np.array_equal(ad.gate(Tensor(z), Tensor(a), Tensor(b)).data[z > 0], a[z > 0])
    _check(lambda ts: weighted_sum(ad.gate(ts[0], ts[1], ts[2]), w), [z, a, b])


# log-sigma half a unit inside and outside either clip bound, and rho's raw column from moderate to saturated:
# tanh(+-3.5) is +-0.998, and tanh(+-40) rounds to +-1, where rho is +-RHO_CAP and has no gradient
LOG_SIGMA_AT_BOUNDS = [LOG_SIGMA_RANGE - 0.5, LOG_SIGMA_RANGE + 0.5, 0.5 - LOG_SIGMA_RANGE, -0.5 - LOG_SIGMA_RANGE]
RAW_RHO_NEAR_CAP = [3.5, -3.5, 40.0, -40.0]


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_landing_params(case):
    rng = np.random.default_rng(1500 + case)
    lead = (int(rng.integers(4, 7)),) if case % 2 == 0 else (2, int(rng.integers(2, 4)))
    w = rng.uniform(0.5, 1.5, size=lead + (5,)) * rng.choice([-1.0, 1.0], size=lead + (5,))  # no weight near 0

    def weighted(ts):
        return weighted_sum(ad.landing_params(ts[0]), w)

    raw = _rand(rng, *lead, 5)
    raw[..., 4] = rng.uniform(-1.0, 1.0, size=lead)  # 1 - tanh^2 >= 0.42, so no rho gradient drowns in rounding
    _check(weighted, [raw])
    raw[..., 2:4] = np.resize(rng.permutation(LOG_SIGMA_AT_BOUNDS), lead + (2,))
    _check(weighted, [raw])
    raw = _rand(rng, *lead, 5)
    raw[..., 4] = np.resize(rng.permutation(RAW_RHO_NEAR_CAP), lead)
    saturated = np.abs(raw[..., 4]) == 40.0
    rho = ad.landing_params(Tensor(raw)).data[..., 4]
    assert np.array_equal(rho[saturated], RHO_CAP * np.sign(raw[..., 4][saturated]))
    _check(weighted, [raw])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_cross_entropy(case):
    rng = np.random.default_rng(1300 + case)
    n, v = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    targets = rng.integers(0, v, size=n)
    w = rng.normal(size=n)

    def weighted(ts):
        return weighted_sum(ad.cross_entropy(ts[0], targets), w)

    probs = rng.dirichlet(np.ones(v), size=n)
    _check(weighted, [probs])
    # true-type probabilities below PROB_FLOOR, which get no gradient, and a little above it; a step of 1e-15 keeps
    # each on its side of the floor
    below = rng.random(n) < 0.5
    probs[np.arange(n), targets] = np.where(below, rng.uniform(1e-14, 5e-13, n), rng.uniform(1e-11, 1e-10, n))
    assert (probs[np.arange(n), targets] < ad.PROB_FLOOR).tolist() == below.tolist()
    _check(weighted, [probs], eps=1e-15)


# rho just inside +-RHO_CAP: the squares of 1 - 2**-39 and of it +- 2**-51 round to nothing but the term 2**-78, so
# the finite differences in rho see 1 - rho^2 without the rounding error that RHO_CAP's own square carries
RHO_NEAR_CAP = 1.0 - 2.0**-39
RHO_EPS = 2.0**-51


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_gaussian_nll(case):
    rng = np.random.default_rng(1400 + case)
    n = int(rng.integers(1, 6))
    w = rng.normal(size=n)

    def weighted(xy, before=(), after=()):
        """The weighted NLL of the params whose leaf columns sit between the held columns before and after."""

        def f(ts):
            params = ad.concat([*map(Tensor, before), ts[0], *map(Tensor, after)], axis=1)
            return weighted_sum(ad.gaussian_nll(params, xy), w)

        return f

    mu, log_sigma = rng.normal(size=(n, 2)), rng.normal(0.0, 0.5, size=(n, 2))
    rho, xy = rng.uniform(0.2, 0.9, size=n) * rng.choice([-1.0, 1.0], size=n), rng.normal(size=(n, 2))
    _check(weighted(xy), [np.column_stack([mu, log_sigma, rho])])
    # either end of landing_params' clip; at +LOG_SIGMA_RANGE a row is about 600 nats, so a rho gradient near 0
    # would drown in its rounding, hence |rho| >= 0.2
    for bound in (-LOG_SIGMA_RANGE, LOG_SIGMA_RANGE):
        _check(weighted(xy), [np.column_stack([mu, np.full((n, 2), bound), rho])])

    # rho near +-RHO_CAP, with zx and zy of the signs that keep zx - rho zy and zy - rho zx from cancelling
    near_cap = np.where(rng.random(n) < 0.5, RHO_NEAR_CAP, -RHO_NEAR_CAP)
    assert (np.abs(near_cap) < RHO_CAP).all() and (1.0 - np.abs(near_cap) < 2e-12).all()
    z = rng.uniform(0.5, 2.0, size=(n, 2)) * np.where(rng.random(n) < 0.5, 1.0, -1.0)[:, None]
    z[:, 1] *= -np.sign(near_cap)
    xy = mu + z * np.exp(log_sigma)
    _check(weighted(xy, before=[mu, log_sigma]), [near_cap[:, None]], eps=RHO_EPS)
    _check(weighted(xy, after=[near_cap[:, None]]), [np.column_stack([mu, log_sigma])])


def test_gaussian_nll_refuses_a_correlation_of_one():
    """There is no clamp on 1 - rho^2: landing_params keeps |rho| within RHO_CAP, and a rho of +-1 fails the check."""
    for rho in (1.0, -1.0):
        params = np.zeros((2, 5))
        params[:, 4] = [0.5, rho]
        args = Tensor(params), np.full((2, 2), 0.2)
        with pytest.raises(NumericHealthError, match="^gaussian_nll produced non-finite values$"):
            ad.gaussian_nll(*args)
        with ad.checked_by_step():
            assert np.isfinite(ad.gaussian_nll(*args).data).tolist() == [True, False]


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_relu(case):
    rng = np.random.default_rng(400 + case)
    x = _away_from_kinks(_rand(rng, 4, 3))
    _check(lambda ts: _weighted_sum(ad.relu(ts[0]), np.random.default_rng(case)), [x])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_softmax(case):
    rng = np.random.default_rng(500 + case)
    x = _rand(rng, 3, 4)
    w = rng.normal(size=(3, 4))
    _check(lambda ts: weighted_sum(ad.softmax(ts[0]), w), [x])
    # rank 3, with saturated rows: one logit 60 above the rest of its row
    x3 = _rand(rng, 2, 3, 4)
    x3[0, 1, int(rng.integers(4))] += 60.0
    x3[1, :, 0] -= 55.0
    w3 = rng.normal(size=x3.shape)
    _check(lambda ts: weighted_sum(ad.softmax(ts[0]), w3), [x3])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_reductions(case):
    rng = np.random.default_rng(600 + case)
    x = _rand(rng, 3, 4)
    _check(lambda ts: weighted_sum(ad.tsum(ts[0]), 1.3), [x])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_concat_slice(case):
    rng = np.random.default_rng(700 + case)
    a, b = _rand(rng, 3, 2), _rand(rng, 3, 4)
    w = rng.normal(size=(3, 6))
    _check(lambda ts: weighted_sum(ad.concat([ts[0], ts[1]], axis=1), w), [a, b])
    _check(lambda ts: _weighted_sum(ad.tslice(ts[0], np.s_[1:3, :2]), np.random.default_rng(case)), [b])
    _check(lambda ts: _weighted_sum(ad.tslice(ts[0], 2), np.random.default_rng(case)), [b])
    rows = rng.integers(0, 3, size=5)  # repeated rows accumulate
    _check(lambda ts: _weighted_sum(ad.tslice(ts[0], rows), np.random.default_rng(case)), [b])
    _check(lambda ts: _weighted_sum(ad.tslice(ts[0], np.s_[rows.tolist(), 1:]), np.random.default_rng(case)), [b])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_embedding_masked_fill(case):
    rng = np.random.default_rng(800 + case)
    table = _rand(rng, 6, 3)
    ids = rng.integers(0, 6, size=5)
    _check(lambda ts: _weighted_sum(ad.embedding_lookup(ts[0], ids), np.random.default_rng(case)), [table])
    batch_ids = rng.integers(0, 6, size=(3, 4))  # repeated ids accumulate
    _check(lambda ts: _weighted_sum(ad.embedding_lookup(ts[0], batch_ids), np.random.default_rng(case)), [table])

    mask = rng.random((3, 4)) < 0.3  # masked in NumPy: those entries get no gradient
    keep = np.where(mask, 0.0, 1.0)[:, :, None] * np.random.default_rng(case).normal(0.0, 1.0, size=(3, 4, 3))
    _check(lambda ts: weighted_sum(ad.embedding_lookup(ts[0], batch_ids), keep), [table])


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_layer_norm(case):
    rng = np.random.default_rng(900 + case)
    x = _rand(rng, 3, 5)
    gain = _rand(rng, 5)
    bias = _rand(rng, 5)
    w = rng.normal(size=(3, 5))
    _check(lambda ts: weighted_sum(ad.layer_norm(ts[0], ts[1], ts[2]), w), [x, gain, bias])
    # rank 3 with rows of different spreads, and a one-position sequence
    for lead in ((2, 4), (1, 1)):
        x3 = _rand(rng, *lead, 5) * np.array([1.0, 30.0, 0.1, 1.0])[: lead[1], None]
        w3 = rng.normal(size=x3.shape)
        _check(lambda ts: weighted_sum(ad.layer_norm(ts[0], ts[1], ts[2]), w3), [x3, gain, bias])


# the head count of cases 0-4, 5-9, ...: 1 and 2 heads over 4 columns, then 4 and 8 heads over 8
ATTENTION_HEADS = (1, 2, 1, 2, 4, 8)


def _attention_inputs(rng, case):
    """q, k, v, blocked and n_heads for one case, cycling through the shapes and masks the model meets.

    Even cases are rank 2, odd cases rank 3; the kinds are a causal mask, a
    one-position sequence, cached keys longer than the queries, key columns
    no query may see, and rows whose scores saturate the softmax.
    """
    kind = case % 5
    lead = () if case % 2 == 0 else (2,)
    n_heads = ATTENTION_HEADS[case // 5]
    d = 4 if n_heads <= 2 else 8
    n, m = {1: (1, 1), 2: (3, 7)}.get(kind, (4, 4))
    q, k, v = _rand(rng, *lead, n, d), _rand(rng, *lead, m, d), _rand(rng, *lead, m, d)
    blocked = np.broadcast_to(~np.tril(np.ones((n, m), dtype=bool), m - n), lead + (n, m)).copy()
    if kind == 3:
        blocked[..., :, 1] = True  # no query sees key 1
        blocked[..., 2, 2] = True  # and query 2 sees key 0 alone
    if kind == 4:
        # key j's columns sum to about 3j, so the scores of a row differ by far more than 50
        q = np.full(lead + (n, d), 40.0) + 0.1 * q
        k = 3.0 * np.arange(m)[:, None] + 0.1 * k
    return q, k, v, blocked, n_heads


@pytest.mark.parametrize("case", range(5 * len(ATTENTION_HEADS)))
def test_grad_attention(case):
    rng = np.random.default_rng(1100 + case)
    q, k, v, blocked, n_heads = _attention_inputs(rng, case)
    w = rng.normal(size=q.shape)
    if case % 5 == 4:
        dh = q.shape[-1] // n_heads
        scores = q[..., :dh] @ np.swapaxes(k[..., :dh], -1, -2) / np.sqrt(dh)
        top2 = np.sort(np.where(blocked, -np.inf, scores), axis=-1)[..., -2:]
        assert (top2[..., 1] - top2[..., 0] > 50.0).all()
    _check(lambda ts: weighted_sum(ad.attention(ts[0], ts[1], ts[2], blocked, n_heads), w), [q, k, v])
    if q.shape == k.shape and case % 5 != 4:  # self-attention: one tensor feeds q, k and v, so its gradients add up
        _check(lambda ts: weighted_sum(ad.attention(ts[0], ts[0], ts[0], blocked, n_heads), w), [q])


def test_attention_refuses_a_query_that_sees_no_key():
    """Such a row's softmax would spread it over the zero padding keys, so it would read the key count.

    With every value 1.0, five keys read 0.625 in each column and eight keys 1.0.
    """
    ones, batch = Tensor(np.ones((5, 4))), Tensor(np.ones((2, 5, 4)))
    blocked = np.zeros((5, 5), dtype=bool)
    blocked[3] = True
    for q, k, mask in (
        (ones, ones, blocked),
        (batch, batch, np.stack([np.zeros_like(blocked), blocked])),
        (ones, Tensor(np.ones((0, 4))), np.zeros((5, 0), dtype=bool)),  # no keys at all
    ):
        with ad.no_tape(), pytest.raises(ValueError, match="without a key"):
            ad.attention(q, k, k, mask, 2)
    assert np.array_equal(ad.attention(ones, ones, ones, ~np.eye(5, dtype=bool), 2).data, ones.data)  # one key each


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_linear(case):
    rng = np.random.default_rng(1200 + case)
    lead = (3,) if case % 2 == 0 else (2, 3)
    x, wt, b = _rand(rng, *lead, 4), _rand(rng, 4, 5), _rand(rng, 5)
    w = rng.normal(size=lead + (5,))
    _check(lambda ts: weighted_sum(ad.linear(ts[0], ts[1], ts[2]), w), [x, wt, b])


def test_fused_primitives_evaluate_the_composite_expressions_bit_for_bit():
    rng = np.random.default_rng(5)
    x, w, b = rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    assert np.array_equal(ad.linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.array_equal(ad.softmax(Tensor(x)).data, e / e.sum(axis=-1, keepdims=True))
    probs, targets = e[0] / e[0].sum(axis=-1, keepdims=True), np.array([3, 0, 1, 1, 2])
    probs[2, 1] = 0.0
    assert np.array_equal(ad.cross_entropy(Tensor(probs), targets).data, -np.log(np.maximum(probs[range(5), targets], 1e-12)))
    mu, ls, rho, xy = x[0, :, :2], x[0, :, 2:], np.tanh(x[1, :, 0]), x[1, :, 1:3]
    zx, zy = (xy[:, 0] - mu[:, 0]) / np.exp(ls[:, 0]), (xy[:, 1] - mu[:, 1]) / np.exp(ls[:, 1])
    r = 1.0 - rho * rho
    nll = ((math.log(2.0 * math.pi) + ls[:, 0]) + ls[:, 1]) + np.log(r) * 0.5
    nll = nll + ((zx * zx + zy * zy) - ((rho * 2.0) * zx) * zy) / (r * 2.0)
    assert np.array_equal(ad.gaussian_nll(Tensor(np.column_stack([mu, ls, rho])), xy).data, nll)
    z, a, b = x[0], x[1], rng.normal(size=(5, 4))
    s = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    assert np.array_equal(ad.gate(Tensor(z), Tensor(a), Tensor(b)).data, s * a + (1.0 - s) * b)
    raw = rng.normal(size=(2, 5, 5))
    raw[..., 2:4] *= 300.0  # some past +-LOG_SIGMA_RANGE
    assert (np.abs(raw[..., 2:4]) > LOG_SIGMA_RANGE).any() and (np.abs(raw[..., 2:4]) < LOG_SIGMA_RANGE).any()
    clipped = np.clip(raw[..., 2:4], -LOG_SIGMA_RANGE, LOG_SIGMA_RANGE)
    want = np.concatenate([raw[..., :2], clipped, np.tanh(raw[..., 4:]) * RHO_CAP], axis=-1)
    assert np.array_equal(ad.landing_params(Tensor(raw)).data, want)


def test_fused_primitives_reject_mismatched_shapes():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="linear"):
        ad.linear(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match="linear"):
        ad.linear(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ValueError, match="mask shape"):
        ad.attention(x, x, x, np.zeros((2, 3, 4), dtype=bool), 2)
    with pytest.raises(ValueError, match="heads"):
        ad.attention(x, x, x, np.zeros((2, 3, 3), dtype=bool), 3)
    with pytest.raises(ValueError, match="attention shape"):
        ad.attention(x, Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 3, 4))), np.zeros((2, 3, 3), dtype=bool), 2)
    with pytest.raises(ValueError, match="gain/bias"):
        ad.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


@pytest.mark.parametrize("case", range(N_CASES))
def test_grad_dropout_fixed_mask(case):
    rng = np.random.default_rng(1000 + case)
    x = _rand(rng, 4, 3)
    uniforms = np.random.default_rng(42 + case).random(x.shape)

    def fn(ts):
        # the same uniforms -> identical mask on every call
        return _weighted_sum(ad.dropout(ts[0], 0.3, uniforms), np.random.default_rng(case))

    _check(fn, [x])


# ---------------------------------------------------------------------------
# dropout semantics
# ---------------------------------------------------------------------------

def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert ad.dropout(x, 0.5, None) is x


def test_dropout_deterministic_under_seed():
    x = Tensor(np.ones((8, 8)))
    a = ad.dropout(x, 0.4, np.random.default_rng(9).random(x.shape)).data
    b = ad.dropout(x, 0.4, np.random.default_rng(9).random(x.shape)).data
    assert np.array_equal(a, b)
    c = ad.dropout(x, 0.4, np.random.default_rng(10).random(x.shape)).data
    assert not np.array_equal(a, c)


def test_dropout_inverted_scaling():
    x = Tensor(np.ones((1000,)))
    out = ad.dropout(x, 0.25, np.random.default_rng(1).random(x.shape)).data
    kept = out[out > 0]
    assert np.allclose(kept, 1.0 / 0.75)


def test_dropout_rate_bounds():
    with pytest.raises(ValueError):
        ad.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0).random(1))


def test_dropout_rejects_uniforms_of_another_shape():
    # (4, 1) uniforms would broadcast over a (4, 3) tensor, giving every row one mask value
    x = Tensor(np.ones((4, 3)))
    for shape in ((4, 1), (3,), (1, 4, 3)):
        with pytest.raises(ValueError, match="does not match"):
            ad.dropout(x, 0.5, np.random.default_rng(0).random(shape))


# ---------------------------------------------------------------------------
# no_tape
# ---------------------------------------------------------------------------

def test_no_tape_still_checks_every_op():
    with ad.no_tape():
        with pytest.raises(NumericHealthError, match="gaussian_nll"):
            _degenerate_nll()
        with pytest.raises(NumericHealthError, match="cross_entropy"):
            _infinite_ce()


def test_no_tape_records_no_parents():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with ad.no_tape():
        y = ad.softmax(ad.linear(x, x))
        z = weighted_sum(y, y.data)
    assert y._parents == () and y._bwd is None
    assert z._parents == () and z._bwd is None
    assert len(ad.graph_nodes(z)) == 1
    taped = weighted_sum(x, x.data)
    assert taped._parents and taped._bwd is not None
    assert np.array_equal(ad.softmax(ad.linear(x, x)).data, y.data)


def test_no_tape_restores_taping_after_the_body_raises():
    x = Tensor([1.0, 2.0])
    with pytest.raises(NumericHealthError):
        with ad.no_tape():
            _degenerate_nll()
    y = ad.add(x, x)
    assert y._parents == (x, x)


def test_no_tape_nests():
    x = Tensor([1.0, 2.0])
    with ad.no_tape():
        with ad.no_tape():
            inner = ad.add(x, x)
        after_inner = ad.add(x, x)
    outside = ad.add(x, x)
    assert inner._parents == () and after_inner._parents == ()
    assert outside._parents == (x, x)


# ---------------------------------------------------------------------------
# checked_by_step and replay_step
# ---------------------------------------------------------------------------

def _attention_mask(rng, n, m):
    blocked = rng.random((n, m)) < 0.5
    blocked[np.arange(n), rng.integers(0, m, size=n)] = False  # every query sees a key
    return blocked


# each primitive: (input shapes, the op over those input tensors)
STEP_PRIMITIVES = {
    "add": ([(3, 4), (4,)], lambda a, b: ad.add(a, b)),
    "scale": ([(3, 4)], lambda a: ad.scale(a, 0.5)),
    "relu": ([(3, 4)], lambda a: ad.relu(a)),
    "tsum": ([(3, 4)], lambda a: ad.tsum(a)),
    "concat": ([(3, 4), (2, 4)], lambda a, b: ad.concat([a, b], axis=0)),
    "slice": ([(3, 4)], lambda a: ad.tslice(a, np.s_[1:, :2])),
    "fancy_slice": ([(3, 4)], lambda a: ad.tslice(a, np.array([2, 2, 0]))),
    "embedding_lookup": ([(5, 4)], lambda t: ad.embedding_lookup(t, np.array([[0, 3], [3, 1]]))),
    "softmax": ([(3, 4)], lambda a: ad.softmax(a)),
    "layer_norm": ([(3, 4), (4,), (4,)], lambda a, g, b: ad.layer_norm(a, g, b)),
    "attention": (
        [(2, 3, 4), (2, 5, 4), (2, 5, 4)],
        lambda q, k, v: ad.attention(q, k, v, _attention_mask(np.random.default_rng(0), 3, 5)[None].repeat(2, 0), 2),
    ),
    "linear": ([(3, 4), (4, 2), (2,)], lambda x, w, b: ad.linear(x, w, b)),
    "dropout": ([(3, 4)], lambda a: ad.dropout(a, 0.5, np.random.default_rng(1).random((3, 4)))),
    "gate": ([(3, 4), (3, 4), (3, 4)], lambda z, a, b: ad.gate(z, a, b)),
    "landing_params": ([(3, 5)], lambda raw: ad.landing_params(raw)),
    "cross_entropy": ([(3, 4)], lambda p: ad.cross_entropy(p, [2, 0, 3])),
    "gaussian_nll": ([(3, 5)], lambda params: ad.gaussian_nll(params, np.full((3, 2), 0.3))),
}


@pytest.mark.parametrize("name", sorted(STEP_PRIMITIVES))
def test_a_non_finite_input_entry_either_replays_the_step_or_reaches_the_output(name):
    """Inside checked_by_step() no output is checked, so no op may turn a non-finite input into a finite output unnoticed.

    Every entry of every input, in turn, holds +inf, -inf or NaN.
    """
    shapes, op = STEP_PRIMITIVES[name]
    rng = np.random.default_rng(0)
    base = [rng.normal(size=shape) for shape in shapes]
    if name == "cross_entropy":
        base[0] = np.abs(base[0]) + 0.1
    if name == "gaussian_nll":  # inside |rho| < 1, where every row is finite
        base[0][:, 4] = np.tanh(base[0][:, 4])
    for which, value in itertools.product(range(len(base)), (math.inf, -math.inf, math.nan)):
        for entry in range(base[which].size):
            arrays = [a.copy() for a in base]
            arrays[which].flat[entry] = value
            with ad.checked_by_step(), np.errstate(all="ignore"):
                try:
                    out = op(*map(Tensor, arrays))
                except NumericHealthError:
                    continue  # replay_step would run the step again with the per-op checks
            assert not np.isfinite(out.data).all(), (which, entry, value)


def test_checked_by_step_skips_output_checks_only_inside_and_nests():
    with ad.checked_by_step():
        with ad.checked_by_step():
            assert math.isnan(_degenerate_nll().data[0])
        assert math.isnan(_degenerate_nll().data[0])
        with ad.no_tape():
            assert math.isnan(_degenerate_nll().data[0])
    with pytest.raises(NumericHealthError, match="^gaussian_nll produced non-finite values$"):
        _degenerate_nll()


def test_checked_by_step_restores_the_checks_after_the_body_raises():
    with pytest.raises(NumericHealthError, match="gate got a non-finite input"):
        with ad.checked_by_step():
            ad.gate(Tensor([math.inf]), Tensor([1.0]), Tensor([0.0]))
    # a saturated leaf passes the output check, as before
    assert ad.gate(Tensor([math.inf]), Tensor([1.0]), Tensor([0.0])).data[0] == 1.0
    with pytest.raises(NumericHealthError, match="^gaussian_nll produced non-finite values$"):
        _degenerate_nll()


def test_replay_step_names_the_op_that_first_produced_a_non_finite_value():
    x = Tensor([[1e200, 1.0], [2.0, 3.0]])
    runs = []

    def step():
        runs.append(1)
        return ad.gate(ad.scale(x, 1e200), x, x)  # scale overflows, gate would hide it

    with np.errstate(over="ignore"), pytest.raises(NumericHealthError, match="^scale produced non-finite values$"):
        ad.replay_step(step, lambda out: (out,))
    assert len(runs) == 2
    with pytest.raises(NumericHealthError, match="^gaussian_nll produced non-finite values$"):  # an output check fires too
        ad.replay_step(_degenerate_nll, lambda out: (out,))


def test_replay_step_returns_the_per_op_run_when_only_the_step_checks_fire():
    """A saturated leaf trips the input check of gate, which the per-op checks let pass: the replay's value stands."""
    runs = []

    def step():
        runs.append(1)
        return ad.gate(Tensor([math.inf, -1.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))

    out = ad.replay_step(step, lambda out: (out,))
    assert len(runs) == 2
    assert np.array_equal(out.data, ad.gate(Tensor([math.inf, -1.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0])).data)
    healthy = ad.replay_step(lambda: ad.cross_entropy(Tensor([[0.25, 0.75]]), [1]), lambda out: (out,))
    assert healthy.data[0] == -math.log(0.75)
