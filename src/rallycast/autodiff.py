"""Dense float64 tensors with taped reverse-mode differentiation.

Small by design: rank <= 3, numpy storage, one backward closure per
primitive. A graph is built from the named primitives only (`add`,
`scale`, `tslice`, ...): Tensor defines no arithmetic operators and no
indexing, so `a + b` or `a[0]` on tensors raises TypeError, and a Python
scalar enters as a `scale` factor or an explicit `Tensor` leaf. `backward`
returns `graph_nodes(loss)`, the nodes it visited, parents first. Layer
norm, softmax, multi-head attention, the affine map x @ w (+ b), the
model's context gate and landing Gaussian, and the training loss's
cross-entropy and Gaussian NLL are single primitives with hand-derived
backwards, so a forward pays the per-op overhead once for each. Every
primitive checks its output for NaN/Inf and raises NumericHealthError on
violation, so a diverging computation fails at the op that produced the bad
values instead of at the loss. Inside `no_tape()` the same primitives run
with the same checks but record no graph, which is how inference avoids
keeping every intermediate alive.

No primitive writes into an input's data: each builds its output in a
fresh array. So `tslice` with a basic key returns a view of its input's
data, not a copy, and the view stays valid as long as nothing outside the
engine writes into the input; an optimizer updates the parameters in place
only after the backward pass.

A training or sampling step pays for that diagnosis only when it fails:
`replay_step` runs the step inside `checked_by_step()`, where no primitive
checks its output, checks the step's outputs once, and on any fault runs
the same step again with every per-op check on. So when a non-finite value
appears in a step, the error names the op that first produced it, as a
per-op check would, and the CLI exits 1 with it. Inside the mode a primitive still checks each input
through which a non-finite value could vanish before the step's outputs
(see `_check_input`), and `layer_norm` and `attention` keep their inline
checks.

Every forward product gives a row the same bits wherever the row sits, in
a batch or alone, which lets a decoder cache every earlier position's keys
and values. A BLAS kernel rounds a row by its place in the kernel's row
groups, and numpy sends a one-row product to a matrix-vector kernel. So
`linear`, the one product with a shared weight, pads rows to whole
ROW_GROUPs, and `attention` computes each query row alone, over keys padded
to whole groups, with a softmax denominator summed in key order. Only
`_row_product` and `_row_by_row` multiply in a forward; backward products
carry no such rule.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

MAX_RANK = 3
NEG_MASK_VALUE = -1e30  # finite stand-in for -inf in attention masks
ROW_GROUP = 8  # rows and attention keys are padded to whole groups of this many
BLOCK_ROWS = 64  # rows per BLAS call: OpenBLAS threads a larger product, which ran slower on 2 cores
LAYER_NORM_EPS = 1e-5  # added to each row's variance
PROB_FLOOR = 1e-12  # cross-entropy clamp; quantized probabilities can be exactly zero
LOG_2PI = math.log(2.0 * math.pi)
# landing_params keeps sigma strictly positive and |rho| strictly below 1 even when the raw head
# saturates exp/tanh in float64, so gaussian_nll and a sampler need no clamp of their own
LOG_SIGMA_RANGE = 300.0
RHO_CAP = 1.0 - 1e-12

T = TypeVar("T")


class NumericHealthError(RuntimeError):
    """A primitive produced NaN or Inf."""


class Tensor:
    """Node in the computation graph: float64 data, row-major, rank <= 3. Tensor(data) is a leaf; _make builds the rest."""

    __slots__ = ("data", "grad", "_parents", "_bwd")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_RANK:
            raise ValueError(f"rank {arr.ndim} exceeds the rank-{MAX_RANK} cap")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._bwd: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, leaf={self._bwd is None})"


class _TapeState(threading.local):
    recording = True
    by_step = False  # inside checked_by_step(): no primitive checks its output


_tape_state = _TapeState()


@contextmanager
def no_tape() -> Iterator[None]:
    """Build tensors without recording parents or backward closures.

    Every primitive still checks its output and raises NumericHealthError;
    only differentiation through the tensors made inside is lost. Nests, and
    restores the previous mode when the body exits or raises.
    """
    saved = _tape_state.recording
    _tape_state.recording = False
    try:
        yield
    finally:
        _tape_state.recording = saved


def is_recording() -> bool:
    """Whether primitives record the tape here; False inside no_tape()."""
    return _tape_state.recording


@contextmanager
def checked_by_step() -> Iterator[None]:
    """Run primitives without their output checks, for a caller that checks a step's outputs once.

    Inside, a primitive checks only the inputs through which a non-finite
    value could vanish before the step's outputs, and layer_norm and
    attention keep their inline checks; a check that fails raises
    NumericHealthError. So a step whose checks pass and whose outputs are
    finite held no non-finite value. Nests, also with no_tape(), and
    restores the previous mode when the body exits or raises.
    """
    saved = _tape_state.by_step
    _tape_state.by_step = True
    try:
        yield
    finally:
        _tape_state.by_step = saved


def replay_step(step: Callable[[], T], outputs: Callable[[T], Iterable[Tensor]]) -> T:
    """step(), run inside checked_by_step() with outputs(step()) checked once.

    On a fault, a check that raised or a non-finite output, step runs again
    outside, with every per-op check on, and what that run returns or raises
    is the result. So step must give the same values when run twice.
    """
    try:
        with checked_by_step():
            result = step()
        if all(np.isfinite(t.data).all() for t in outputs(result)):
            return result
    except NumericHealthError:
        pass
    return step()


def _check_input(data: np.ndarray, op: str) -> None:
    """Inside checked_by_step(), refuse a non-finite input of an op whose output could hide it.

    relu and softmax map an infinite input to a finite output, as gate does
    its z and landing_params its log-sigma and rho columns; tslice,
    embedding_lookup and cross_entropy may leave the entry out, and
    attention's mask may cover a score made from it. Elsewhere a non-finite
    input gives a non-finite output, which the step's output check finds.
    """
    if _tape_state.by_step and not np.isfinite(data).all():
        raise NumericHealthError(f"{op} got a non-finite input")


def _make(data: np.ndarray, parents: tuple, bwd: Callable, op: str) -> Tensor:
    state = _tape_state
    if not state.by_step and not np.isfinite(data).all():
        raise NumericHealthError(f"{op} produced non-finite values")
    data = np.asarray(data, dtype=np.float64)  # a sum is a numpy scalar
    if data.ndim > MAX_RANK:
        raise ValueError(f"rank {data.ndim} exceeds the rank-{MAX_RANK} cap")
    t = object.__new__(Tensor)  # Tensor.__init__ builds a leaf
    t.data, t.grad = data, None
    t._parents, t._bwd = (parents, bwd) if state.recording else ((), None)
    return t


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        if g.ndim and g.shape == t.shape:
            t.grad = g + 0.0  # a fresh array; + 0.0 turns -0.0 into +0.0, as zeros + g does
            return
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the axes numpy broadcast during the forward op."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every node reachable from root, each once, parents before children."""
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            nodes.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return nodes


def backward(loss: Tensor) -> list[Tensor]:
    """Accumulate d(loss)/d(node) into .grad for every node reachable from loss; returns graph_nodes(loss)."""
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = graph_nodes(loss)
    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(nodes):
        if node._bwd is not None:
            node._bwd(node.grad)
    return nodes


def grad_of(param: Tensor) -> np.ndarray:
    """Gradient of the last backward pass; zeros if the parameter was unused."""
    return param.grad if param.grad is not None else np.zeros_like(param.data)


def whole_groups(n: int) -> int:
    """n rounded up to whole ROW_GROUPs, at least one."""
    return max(-(-n // ROW_GROUP), 1) * ROW_GROUP


def _row_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for a 2-D w, each row of x rounded the same in any product that holds it.

    The rows of x, flattened and zero-padded to whole ROW_GROUPs, go to BLAS
    as a stack of BLOCK_ROWS-row products, then one product of the rest.
    """
    rows = x.reshape(-1, x.shape[-1])
    n, k = rows.shape
    if n % ROW_GROUP:
        padded = np.zeros((whole_groups(n), k))
        padded[:n] = rows
        rows = padded
    full = len(rows) - len(rows) % BLOCK_ROWS
    if not full:
        out = rows @ w
    else:
        out = np.empty((len(rows), w.shape[1]))
        np.matmul(rows[:full].reshape(-1, BLOCK_ROWS, k), w, out=out[:full].reshape(-1, BLOCK_ROWS, w.shape[1]))
        np.matmul(rows[full:], w, out=out[full:])
    return out[:n].reshape(x.shape[:-1] + w.shape[1:])


def _row_by_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as one vector-matrix product per row of a, so no row's rounding depends on another."""
    return (a[..., :, None, :] @ b[..., None, :, :])[..., 0, :]


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), bwd, "add")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def bwd(g):
        _accumulate(a, g * c)

    return _make(out_data, (a,), bwd, "scale")


def relu(a: Tensor) -> Tensor:
    _check_input(a.data, "relu")
    out_data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accumulate(a, g * (out_data > 0))

    return _make(out_data, (a,), bwd, "relu")


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry, as a rank-0 tensor."""
    out_data = a.data.sum()

    def bwd(g):
        _accumulate(a, np.full(a.shape, g))

    return _make(out_data, (a,), bwd, "sum")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _make(out_data, tuple(parts), bwd, "concat")


def tslice(a: Tensor, key) -> Tensor:
    """a[key]: a view of a's data for a basic key, a copy for an index array."""
    _check_input(a.data, "slice")
    out_data = np.asarray(a.data[key])  # a scalar entry becomes a rank-0 array

    def bwd(g):
        if any(isinstance(k, (np.ndarray, list)) for k in (key if isinstance(key, tuple) else (key,))):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)  # an index array may repeat a row, whose gradients add
            _accumulate(a, full)
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return _make(out_data, (a,), bwd, "slice")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ValueError("embedding_lookup expects a 1-D or 2-D id array")
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")
    _check_input(table.data, "embedding_lookup")
    out_data = table.data[ids]

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accumulate(table, full)

    return _make(out_data, (table,), bwd, "embedding_lookup")


def _softmax_data(x: np.ndarray) -> np.ndarray:
    # shift by the rowwise max, which softmax is invariant to; the denominator adds the terms in order,
    # so trailing zero terms (blocked attention keys) leave it as it was
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / np.add.accumulate(e, axis=-1)[..., -1:]


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the logits of softmax output y, given the output's gradient g."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    _check_input(a.data, "softmax")
    out_data = _softmax_data(a.data)

    def bwd(g):
        _accumulate(a, _softmax_grad(out_data, g))

    return _make(out_data, (a,), bwd, "softmax")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The backward is the closed form of Ba et al. (2016), "Layer Normalization".
    """
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError("layer_norm gain/bias must match the last axis")
    inv_d = 1.0 / d
    centered = a.data - a.data.sum(axis=-1, keepdims=True) * inv_d
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    if not np.isfinite(var).all():  # an overflowed variance would normalize every row to 0
        raise NumericHealthError("layer_norm produced a non-finite variance")
    std = np.sqrt(var + LAYER_NORM_EPS)
    normed = centered / std
    out_data = normed * gain.data
    out_data += bias.data

    def bwd(g):
        g_normed = g * gain.data
        mean_g = g_normed.sum(axis=-1, keepdims=True) * inv_d
        mean_gn = (g_normed * normed).sum(axis=-1, keepdims=True) * inv_d
        _accumulate(a, (g_normed - mean_g - normed * mean_gn) / std)
        _accumulate(gain, _unbroadcast(g * normed, gain.shape))
        _accumulate(bias, _unbroadcast(g, bias.shape))

    return _make(out_data, (a, gain, bias), bwd, "layer_norm")


def attention(q: Tensor, k: Tensor, v: Tensor, blocked: np.ndarray, n_heads: int) -> Tensor:
    """Masked multi-head scaled dot-product attention (Vaswani et al., 2017), all heads in one op.

    q is (..., n, d) and k, v are (..., m, d); head h reads columns
    h*d/n_heads .. (h+1)*d/n_heads of each. blocked is the (..., n, m) bool
    array of the keys each query may not see: their scores become
    NEG_MASK_VALUE before the row softmax, and every query must see at least
    one key. The output is the heads' weighted sums of v side by side,
    (..., n, d).
    """
    d = q.shape[-1]
    if q.ndim not in (2, 3) or k.shape != v.shape or k.shape[:-2] + k.shape[-1:] != q.shape[:-2] + (d,):
        raise ValueError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if n_heads < 1 or d % n_heads:
        raise ValueError(f"{d} columns do not split into {n_heads} heads")
    blocked = np.asarray(blocked, dtype=bool)
    if blocked.shape != q.shape[:-1] + k.shape[-2:-1]:
        raise ValueError(f"mask shape {blocked.shape} does not match scores shape {q.shape[:-1] + k.shape[-2:-1]}")
    if blocked.all(axis=-1).any():  # its softmax would spread the row over the padding keys
        raise ValueError("attention mask leaves a query row without a key")
    dh = d // n_heads
    c = float(1.0 / np.sqrt(dh))
    n, m, lead = q.shape[-2], k.shape[-2], k.shape[:-2]
    width = whole_groups(m)  # zero keys fill the last group, and their scores are blocked

    def split(x, rows):  # (..., rows, d) -> (..., heads, rows, dh)
        return np.swapaxes(x.reshape(lead + (rows, n_heads, dh)), -2, -3)

    def merge(x):  # (..., heads, rows, dh) -> (..., rows, d)
        return np.swapaxes(x, -2, -3).reshape(lead + (x.shape[-2], d))

    qh = np.ascontiguousarray(split(q.data, n))
    kh_t, vh = np.swapaxes(split(k.data, m), -1, -2), split(v.data, m)
    if m < width:
        padded_k, padded_v = np.zeros(lead + (n_heads, dh, width)), np.zeros(lead + (n_heads, width, dh))
        padded_k[..., :m], padded_v[..., :m, :] = kh_t, vh
        kh_t, vh = padded_k, padded_v
    else:  # a KVCache's keys are already so; values are copied, as a strided head block can round otherwise
        kh_t, vh = np.ascontiguousarray(kh_t), np.ascontiguousarray(vh)
    blocked = blocked[..., None, :, :]
    scores = _row_by_row(qh, kh_t) * c
    _check_input(scores, "attention")  # a non-finite q or k entry makes a score non-finite, which the mask could hide
    np.copyto(scores[..., :m], NEG_MASK_VALUE, where=blocked)
    scores[..., m:] = NEG_MASK_VALUE
    if not np.isfinite(scores).all():
        raise NumericHealthError("attention produced non-finite scores")
    probs = _softmax_data(scores)
    out_data = merge(_row_by_row(probs, vh))
    kh_t, vh, probs = kh_t[..., :m], vh[..., :m, :], probs[..., :m]

    def bwd(g):
        gh = split(g, n)
        d_scores = _softmax_grad(probs, gh @ np.swapaxes(vh, -1, -2))
        d_scores = np.where(blocked, 0.0, d_scores) * c
        _accumulate(q, merge(d_scores @ np.swapaxes(kh_t, -1, -2)))
        _accumulate(k, merge(np.swapaxes(d_scores, -1, -2) @ qh))
        _accumulate(v, merge(np.swapaxes(probs, -1, -2) @ gh))

    return _make(out_data, (q, k, v), bwd, "attention")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b for a rank-2 or rank-3 x, a rank-2 weight w and a bias b over w's columns; x @ w without b."""
    if x.ndim not in (2, 3) or w.ndim != 2 or x.shape[-1] != w.shape[0] or (b is not None and b.shape != w.shape[1:]):
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape}" + ("" if b is None else f" + {b.shape}"))
    out_data = _row_product(x.data, w.data)
    if b is not None:
        out_data += b.data

    def bwd(g):
        _accumulate(x, g @ w.data.T)
        g2d = g.reshape(-1, g.shape[-1])  # every row of a rank-3 x is one more row of the one weight product
        _accumulate(w, x.data.reshape(-1, x.shape[-1]).T @ g2d)
        if b is not None:
            _accumulate(b, g2d.sum(axis=0))

    return _make(out_data, (x, w) if b is None else (x, w, b), bwd, "linear")


def dropout(a: Tensor, rate: float, uniforms: np.ndarray | None) -> Tensor:
    """Inverted dropout of the entries whose uniform is below rate; uniforms=None means eval mode (identity)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if uniforms is None or rate == 0.0:
        return a
    if uniforms.shape != a.shape:
        raise ValueError(f"dropout uniforms shape {uniforms.shape} does not match tensor shape {a.shape}")
    factor = (uniforms >= rate) / (1.0 - rate)
    out_data = a.data * factor

    def bwd(g):
        _accumulate(a, g * factor)

    return _make(out_data, (a,), bwd, "dropout")


def gate(z: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """s * a + (1 - s) * b with s = sigmoid(z), for z, a and b of one shape.

    ShuttleNet's position-aware fusion (Wang et al., 2022) in one op: z is
    the gate's pre-activation, a and b the two contexts it mixes.
    """
    if not z.shape == a.shape == b.shape:
        raise ValueError(f"gate shapes {z.shape}, {a.shape}, {b.shape} differ")
    _check_input(z.data, "gate")  # a saturated z hides an infinity
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|) <= 1, so no exp overflows
    e = np.exp(-np.abs(z.data))
    s = np.maximum(e, z.data >= 0) / (1.0 + e)
    one_minus = 1.0 - s
    out_data = s * a.data + one_minus * b.data

    def bwd(g):
        _accumulate(z, (g * a.data - g * b.data) * s * one_minus)
        _accumulate(a, g * s)
        _accumulate(b, g * one_minus)

    return _make(out_data, (z, a, b), bwd, "gate")


def landing_columns(landing: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the (..., 2) mu, (..., 2) log-sigma and (...,) rho of (..., 5) landing rows."""
    return landing[..., 0:2], landing[..., 2:4], landing[..., 4]


def landing_params(raw: Tensor) -> Tensor:
    """The (..., 5) landing Gaussian of a raw (..., 5) head, in landing_columns' order.

    mu is the raw columns as they are, log-sigma the raw columns clipped to
    +-LOG_SIGMA_RANGE, and rho = tanh(raw) * RHO_CAP. A clipped entry gets
    no gradient.
    """
    if raw.shape[-1:] != (5,):
        raise ValueError(f"landing_params needs 5 columns, got shape {raw.shape}")
    _check_input(raw.data, "landing_params")  # the clip and tanh hide an infinity
    mu, log_sigma, rho_raw = landing_columns(raw.data)
    inside = (log_sigma > -LOG_SIGMA_RANGE) & (log_sigma < LOG_SIGMA_RANGE)
    t = np.tanh(rho_raw)
    out_data = np.concatenate([mu, np.clip(log_sigma, -LOG_SIGMA_RANGE, LOG_SIGMA_RANGE), (t * RHO_CAP)[..., None]], axis=-1)

    def bwd(g):
        d_mu, d_ls, d_rho = landing_columns(g)
        _accumulate(raw, np.concatenate([d_mu, d_ls * inside, (d_rho * RHO_CAP * (1.0 - t * t))[..., None]], axis=-1))

    return _make(out_data, (raw,), bwd, "landing_params")


def cross_entropy(probs: Tensor, targets) -> Tensor:
    """-log(max(p, PROB_FLOOR)) per row of the (N, V) probs, p the row's target probability; at the floor, no gradient."""
    targets = np.asarray(targets, dtype=np.int64)
    if probs.ndim != 2 or targets.shape != probs.shape[:1]:
        raise ValueError(f"cross_entropy shape mismatch: probs {probs.shape}, targets {targets.shape}")
    _check_input(probs.data, "cross_entropy")  # only the target column is read
    rows = np.arange(len(targets))
    p = probs.data[rows, targets]
    floored = np.maximum(p, PROB_FLOOR)
    out_data = -np.log(floored)

    def bwd(g):
        full = np.zeros_like(probs.data)
        full[rows, targets] = -g / floored * (p > PROB_FLOOR)
        _accumulate(probs, full)

    return _make(out_data, (probs,), bwd, "cross_entropy")


def gaussian_nll(params: Tensor, xy: np.ndarray) -> Tensor:
    """Negative log-likelihood of each constant point of the (N, 2) xy under its row's bivariate Gaussian.

    params is (N, 5), packed as landing_params packs it (see
    landing_columns). With z = (xy - mu) / sigma and r = 1 - rho^2, a row is
    log 2pi + ls_x + ls_y + log(r) / 2 + (zx^2 + zy^2 - 2 rho zx zy) / (2 r).
    A |rho| >= 1 gives a non-finite row, as does any non-finite input
    entry, so no input needs a check.
    """
    xy = np.asarray(xy, dtype=np.float64)
    if xy.shape[1:] != (2,) or params.shape != (len(xy), 5):
        raise ValueError(f"gaussian_nll params {params.shape} do not fit xy {xy.shape}")
    mu, ls, r = landing_columns(params.data)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite row is a health error
        sx, sy = np.exp(ls[:, 0]), np.exp(ls[:, 1])
        zx, zy = (xy[:, 0] - mu[:, 0]) / sx, (xy[:, 1] - mu[:, 1]) / sy
        one_m_rho2 = 1.0 - r * r
        quad = zx * zx + zy * zy - r * 2.0 * zx * zy
        out_data = LOG_2PI + ls[:, 0] + ls[:, 1] + np.log(one_m_rho2) * 0.5 + quad / (one_m_rho2 * 2.0)

    def bwd(g):
        d_zx, d_zy = (zx - r * zy) / one_m_rho2, (zy - r * zx) / one_m_rho2  # d row / d zx and / d zy
        d_rho = g * (r * quad / one_m_rho2 - r - zx * zy) / one_m_rho2
        columns = [-g * d_zx / sx, -g * d_zy / sy, g * (1.0 - zx * d_zx), g * (1.0 - zy * d_zy), d_rho]
        _accumulate(params, np.stack(columns, axis=1))

    return _make(out_data, (params,), bwd, "gaussian_nll")
