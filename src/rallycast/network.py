"""The stroke-forecasting network.

Dual-channel stroke embeddings feed a causal transformer encoder that runs
once over two copies of each history, stacked along the batch axis: one copy
attends over the whole rally (rally context), the other only over strokes
hit by the query position's player (player context). A position-aware
sigmoid gate fuses the two contexts, and two heads emit a shot-type
distribution and a bivariate Gaussian over the normalized landing point.

Embedding modes:
  modified  shot channel = type embedding + player-id embedding,
            area channel = landing projection + player-location projection,
            no nonlinearity on the area channel.
  baseline  player-id embedding added to both channels, no player-location
            term, ReLU on the landing projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .court import CourtSpec, Player, Rally, ShotType, ShotTypeVocab, Stroke, normalize_coord
from .dataset import TAU, ParseError
from .seeding import TAG_INIT, rng_from_key

UNKNOWN_PLAYER = 0  # reserved row of the player embedding table

CHECKPOINT_MAGIC = b"RCKPT1\n"

AREA_PARAM_COUNT = 5  # mu_x, mu_y, log_sigma_x, log_sigma_y, rho_raw


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 16
    n_heads: int = 2
    n_layers: int = 1
    ffn_dim: int | None = None  # defaults to 4 * embed_dim
    dropout_rate: float = 0.2
    vocab_size: int = 10
    n_players: int = 2  # real players; the table has one extra unknown row
    embedding_mode: str = "modified"
    tau: int = TAU

    def __post_init__(self) -> None:
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.embedding_mode not in ("baseline", "modified"):
            raise ValueError(f"unknown embedding_mode: {self.embedding_mode!r}")
        if self.vocab_size < 1 or self.n_players < 1 or self.n_layers < 1 or self.tau < 1:
            raise ValueError("vocab_size, n_players, n_layers, and tau must be positive")

    @property
    def ffn_width(self) -> int:
        return self.ffn_dim if self.ffn_dim is not None else 4 * self.embed_dim


class ModelParams:
    """Named learnable arrays; iteration order is fixed by construction order."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "ModelParams":
        return ModelParams({k: Tensor(v.data.copy()) for k, v in self.tensors.items()})


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, v = config.embed_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "type_emb": (v, d),
        "area_w": (2, d),
        "area_b": (d,),
        "player_emb": (config.n_players + 1, d),
        "loc_w": (2, d),
        "loc_b": (d,),
    }
    for i in range(config.n_layers):
        p = f"enc{i}_"
        shapes.update(
            {
                # no q/k/v biases: a key bias cancels inside the row softmax
                # (its gradient is structurally zero), and the value bias is
                # redundant with the output bias
                p + "wq": (d, d),
                p + "wk": (d, d),
                p + "wv": (d, d),
                p + "wo": (d, d), p + "bo": (d,),
                p + "ln1_g": (d,), p + "ln1_b": (d,),
                p + "ffn_w1": (d, config.ffn_width), p + "ffn_b1": (config.ffn_width,),
                p + "ffn_w2": (config.ffn_width, d), p + "ffn_b2": (d,),
                p + "ln2_g": (d,), p + "ln2_b": (d,),
            }
        )
    shapes.update(
        {
            "gate_w": (3 * d, d),
            "gate_b": (d,),
            "type_head_w": (d, v),
            "type_head_b": (v,),
            "area_head_w": (d, AREA_PARAM_COUNT),
            "area_head_b": (AREA_PARAM_COUNT,),
        }
    )
    return shapes


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    rng = rng_from_key(seed, TAG_INIT)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(("ln1_g", "ln2_g")):
            data = np.ones(shape)
        elif name.endswith("_b") or name.endswith(("bo", "b1", "b2")):
            data = np.zeros(shape)
        elif name in ("type_emb", "player_emb"):
            data = rng.normal(0.0, 0.1, size=shape)
        else:
            fan_in = shape[0] if len(shape) > 1 else shape[0]
            data = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        tensors[name] = Tensor(data)
    return ModelParams(tensors)


def build_player_index(rallies: Sequence[Rally]) -> dict[str, int]:
    """Dataset-global player ids; row 0 stays reserved for unseen players."""
    names = sorted({name for r in rallies for name in (r.player_a, r.player_b)})
    return {name: i + 1 for i, name in enumerate(names)}


def sinusoidal_encoding(n: int, d: int, start: int = 0) -> np.ndarray:
    """Encodings of positions start .. n-1, shape (n - start, d)."""
    pos = np.arange(start, n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    enc = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return enc


@dataclass(frozen=True)
class StrokeInputs:
    """The network's inputs for equal-length histories, as arrays.

    Every array has the leading shape (..., n): (n,) for one history, or
    (B, n) for a batch of B histories of n strokes each.
    """

    type_ids: np.ndarray  # (..., n) int64
    player_ids: np.ndarray  # (..., n) int64 rows of the player table
    hit_by_a: np.ndarray  # (..., n) bool; the player context groups equal values
    landings: np.ndarray  # (..., n, 2) normalized landing points
    locations: np.ndarray  # (..., n, 2) normalized hitter locations

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.type_ids, self.player_ids, self.hit_by_a, self.landings, self.locations)

    @staticmethod
    def stack(histories: Sequence["StrokeInputs"]) -> "StrokeInputs":
        """Batch equal-length (n,) histories into one (B, n) input."""
        return StrokeInputs(*(np.stack(arrays) for arrays in zip(*(h._arrays() for h in histories))))

    def padded(self, width: int) -> "StrokeInputs":
        """The (B, n) histories in zeroed (B, width) arrays, so a caller can write later strokes in place."""
        out = StrokeInputs(*(np.zeros(a.shape[:1] + (width,) + a.shape[2:], a.dtype) for a in self._arrays()))
        n = self.type_ids.shape[1]
        for buf, a in zip(out._arrays(), self._arrays()):
            buf[:, :n] = a
        return out

    def positions(self, start: int, stop: int) -> "StrokeInputs":
        """The strokes at positions start .. stop-1 of (B, n) histories, as contiguous arrays."""
        return StrokeInputs(*(np.ascontiguousarray(a[:, start:stop]) for a in self._arrays()))

    def rows(self, keep: Sequence[int]) -> "StrokeInputs":
        """The histories at the given batch rows, in that order."""
        idx = np.asarray(keep, dtype=np.int64)
        return StrokeInputs(*(a[idx] for a in self._arrays()))


def stroke_inputs(strokes: Sequence[Stroke], player_ids: Sequence[int], court: CourtSpec) -> StrokeInputs:
    """Arrays of one stroke sequence; player_ids gives each stroke's row of the player table."""
    if not strokes:
        raise ValueError("a history needs at least one stroke")
    n = len(strokes)
    ids = np.asarray(player_ids, dtype=np.int64)
    if ids.shape != (n,):
        raise ValueError("player_ids must align with strokes")
    return StrokeInputs(
        type_ids=np.array([s.shot_type for s in strokes], dtype=np.int64),
        player_ids=ids,
        hit_by_a=np.array([s.player is Player.A for s in strokes], dtype=bool),
        landings=np.array([normalize_coord(s.landing, court) for s in strokes]),
        locations=np.array([normalize_coord(s.player_location, court) for s in strokes]),
    )


# BLAS may round a row of a matrix product differently depending on where
# the row falls in the product's row blocking: OpenBLAS's SkylakeX kernels
# round the rows of whole 4-row groups one way and leftover rows another,
# and numpy sends a one-row product to a matrix-vector kernel. So the cache
# keeps only whole blocks of CACHE_BLOCK positions, a multiple of such
# groups, and each cached step recomputes every position after the last
# whole block, at least two: each product then blocks its rows as the full
# forward does, so every row is rounded the same.
CACHE_BLOCK = 8


class KVCache:
    """Keys and values of the first `length` positions of B histories, per encoder layer.

    Forecaster.forward(inputs, cache=cache) extends it; see there. It carries
    no autodiff tape, so it serves inference only.
    """

    def __init__(self, batch: int, config: ModelConfig):
        self.hitters = np.zeros((batch, 0), dtype=bool)  # (B, length) hit_by_a of the cached positions
        # kv[layer] = [keys, values], each (2B, length, d): the B rally-context rows, then the B player-context rows
        empty = np.zeros((2 * batch, 0, config.embed_dim))
        self.kv = [[empty, empty] for _ in range(config.n_layers)]

    @property
    def length(self) -> int:
        return self.hitters.shape[1]

    def keep_rows(self, keep: Sequence[int]) -> None:
        """Keep only the histories at the given batch rows, in that order."""
        idx = np.asarray(keep, dtype=np.int64)
        both = np.concatenate([idx, idx + len(self.hitters)])
        self.hitters = self.hitters[idx]
        self.kv = [[a[both] for a in layer] for layer in self.kv]

    def commit(self, hitters: np.ndarray, kv: list[list[np.ndarray]]) -> None:
        """Keep the whole blocks of a step's positions; hitters and kv cover every position it attended over.

        The last position is never kept, so the next step feeds at least two.
        """
        keep = CACHE_BLOCK * ((hitters.shape[1] - 1) // CACHE_BLOCK)
        self.hitters = hitters[:, :keep]
        self.kv = [[a[:, :keep] for a in layer] for layer in kv]


def embed_strokes(
    inputs: StrokeInputs, params: ModelParams, config: ModelConfig, pe: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """Per-stroke shot and area channels, positional encoding included; shape (..., n, d).

    pe holds the (n, d) sinusoidal encodings of the strokes' positions in
    their histories; by default the strokes sit at positions 0 .. n-1.
    """
    if inputs.player_ids.max() > config.n_players or inputs.player_ids.min() < 0:
        raise ValueError("player id outside the embedding table")
    if inputs.type_ids.max() >= config.vocab_size or inputs.type_ids.min() < 0:
        raise ValueError("shot type id outside the vocabulary")

    type_e = ad.embedding_lookup(params["type_emb"], inputs.type_ids)
    player_e = ad.embedding_lookup(params["player_emb"], inputs.player_ids)
    area_proj = ad.linear(Tensor(inputs.landings), params["area_w"], params["area_b"])

    if config.embedding_mode == "modified":
        loc_proj = ad.linear(Tensor(inputs.locations), params["loc_w"], params["loc_b"])
        shot_channel = ad.add(type_e, player_e)
        area_channel = ad.add(area_proj, loc_proj)
    else:
        shot_channel = ad.add(type_e, player_e)
        area_channel = ad.add(ad.relu(area_proj), player_e)

    pe = Tensor(sinusoidal_encoding(inputs.type_ids.shape[-1], config.embed_dim) if pe is None else pe)
    return ad.add(shot_channel, pe), ad.add(area_channel, pe)


def _attention(
    x: Tensor,
    allowed: np.ndarray,
    params: ModelParams,
    layer: int,
    config: ModelConfig,
    kv: list[np.ndarray] | None = None,
) -> Tensor:
    """Masked multi-head self-attention of x's positions.

    kv, when given, holds the [keys, values] of cached positions before x's:
    they are prepended to x's own keys and values, and kv is replaced by the
    result, so allowed has one column per cached and new position.
    """
    p = f"enc{layer}_"
    q = ad.matmul(x, params[p + "wq"])
    k = ad.matmul(x, params[p + "wk"])
    v = ad.matmul(x, params[p + "wv"])
    if kv is not None:
        k = ad.concat([Tensor(kv[0]), k], axis=-2)
        v = ad.concat([Tensor(kv[1]), v], axis=-2)
        kv[:] = [k.data, v.data]
    merged = ad.attention(q, k, v, ~allowed, config.n_heads)
    return ad.linear(merged, params[p + "wo"], params[p + "bo"])


def _encoder_stack(
    x: Tensor,
    allowed: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    uniforms: np.ndarray | None,
    kv: list[list[np.ndarray]] | None = None,
) -> Tensor:
    """The encoder layers over x; uniforms[2i] and uniforms[2i + 1] drive layer i's two dropouts."""
    for i in range(config.n_layers):
        p = f"enc{i}_"
        att = _attention(x, allowed, params, i, config, None if kv is None else kv[i])
        att = ad.dropout(att, config.dropout_rate, None if uniforms is None else uniforms[2 * i])
        x = ad.layer_norm(ad.add(x, att), params[p + "ln1_g"], params[p + "ln1_b"])
        hidden = ad.relu(ad.linear(x, params[p + "ffn_w1"], params[p + "ffn_b1"]))
        ff = ad.linear(hidden, params[p + "ffn_w2"], params[p + "ffn_b2"])
        ff = ad.dropout(ff, config.dropout_rate, None if uniforms is None else uniforms[2 * i + 1])
        x = ad.layer_norm(ad.add(x, ff), params[p + "ln2_g"], params[p + "ln2_b"])
    return x


def encode_contexts(
    x: Tensor,
    hitters: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
    cache: KVCache | None = None,
) -> tuple[Tensor, Tensor]:
    """Causal rally context and player-restricted context for each position.

    x is (..., n, d). hitters is the (..., n) bool array of who hits each
    position, True for player A (StrokeInputs.hit_by_a). One encoder pass
    runs over x's B histories twice, stacked: under the causal mask, then
    the causal same-hitter mask, so a length-1 sequence yields identical
    contexts. rng draws the dropout masks as two separate passes would.
    With a cache, x holds the (B, n, d) positions after the cached ones;
    they also attend over the cached positions, and the cache then keeps
    every whole block of positions.
    """
    if hitters.shape != x.shape[:-1]:
        raise ValueError("hitters must align with the sequence")
    single = x.ndim == 2
    if single:  # a one-row batch
        x, hitters = x[None], hitters[None]
    every = hitters if cache is None else np.concatenate([cache.hitters, hitters], axis=-1)
    n_new, n = hitters.shape[-1], every.shape[-1]
    same = hitters[..., :, None] == every[..., None, :]
    causal = np.broadcast_to(np.tril(np.ones((n_new, n), dtype=bool), n - n_new), same.shape)
    # (2, 2 * n_layers, B, n, d) uniforms -> (2 * n_layers, 2B, n, d), rally rows first
    uniforms = None if rng is None else np.concatenate(rng.random((2, 2 * config.n_layers) + x.shape), axis=1)
    kv = None if cache is None else [list(layer) for layer in cache.kv]  # a step that raises leaves the cache as it was
    out = _encoder_stack(ad.concat([x, x], axis=0), np.concatenate([causal, causal & same]), params, config, uniforms, kv)
    if cache is not None:
        cache.commit(every, kv)
    b = len(hitters)
    return (out[0], out[1]) if single else (out[:b], out[b:])


def fuse_contexts(rally_ctx: Tensor, player_ctx: Tensor, pos_enc: Tensor, params: ModelParams) -> Tensor:
    """Position-aware gate: fused = g * rally + (1 - g) * player."""
    gate_in = ad.concat([rally_ctx, player_ctx, pos_enc], axis=-1)
    g = ad.sigmoid(ad.linear(gate_in, params["gate_w"], params["gate_b"]))
    one_minus = ad.sub(Tensor(np.ones(g.shape)), g)
    return ad.add(ad.mul(g, rally_ctx), ad.mul(one_minus, player_ctx))


# keep sigma strictly positive and |rho| strictly below 1 even when the raw
# head outputs saturate exp/tanh in float64
LOG_SIGMA_RANGE = 300.0
RHO_CAP = 1.0 - 1e-12


def prediction_heads(fused: Tensor, params: ModelParams) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Per-position (type_probs, mu, log_sigma, rho) for a (..., n, d) fused tensor."""
    logits = ad.linear(fused, params["type_head_w"], params["type_head_b"])
    probs = ad.softmax(logits, axis=-1)
    area = ad.linear(fused, params["area_head_w"], params["area_head_b"])
    mu = area[..., 0:2]
    log_sigma = ad.clip(area[..., 2:4], -LOG_SIGMA_RANGE, LOG_SIGMA_RANGE)
    rho = ad.scale(ad.tanh(area[..., 4]), RHO_CAP)
    return probs, mu, log_sigma, rho


@dataclass
class Forecaster:
    """A trained (or freshly initialized) model plus everything needed to run it."""

    params: ModelParams
    config: ModelConfig
    court: CourtSpec
    vocab: ShotTypeVocab
    player_index: dict[str, int] = field(default_factory=dict)

    def player_id(self, name: str) -> int:
        return self.player_index.get(name, UNKNOWN_PLAYER)

    def stroke_player_ids(self, rally_names: tuple[str, str], players: Sequence[Player]) -> list[int]:
        a, b = rally_names
        return [self.player_id(a if p is Player.A else b) for p in players]

    def stroke_inputs(self, strokes: Sequence[Stroke], rally_names: tuple[str, str]) -> StrokeInputs:
        """Inputs of one history whose A and B sides are the named players."""
        ids = self.stroke_player_ids(rally_names, [s.player for s in strokes])
        return stroke_inputs(strokes, ids, self.court)

    def forward(
        self,
        inputs: StrokeInputs,
        training: bool = False,
        rng: np.random.Generator | None = None,
        cache: KVCache | None = None,
    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Next-stroke head outputs at every position: (..., n, V), (..., n, 2), (..., n, 2), (..., n).

        One definition serves one history (training, teacher forcing) and a
        (B, n) batch (lockstep sampling); every row of a batch gets the same
        values it would get alone.

        With a cache (inference only, inside autodiff.no_tape()), inputs holds
        the strokes of B histories from position cache.length on, and the
        outputs are those of these positions, bit-identical to the full
        forward's. The cache then holds the keys and values of every whole
        block of CACHE_BLOCK positions; the caller feeds the rest again.
        """
        start = 0
        if cache is not None:
            if training or ad.is_recording():
                raise RuntimeError("a cached forward is for inference inside autodiff.no_tape()")
            if inputs.type_ids.ndim != 2 or len(inputs.type_ids) != len(cache.hitters):
                raise ValueError("a cached forward takes (B, n) inputs for the cache's B histories")
            start = cache.length
        pe = sinusoidal_encoding(start + inputs.type_ids.shape[-1], self.config.embed_dim, start)
        shot_ch, area_ch = embed_strokes(inputs, self.params, self.config, pe)
        x = ad.scale(ad.add(shot_ch, area_ch), 0.5)
        drop_rng = rng if training else None
        rally_ctx, player_ctx = encode_contexts(x, inputs.hit_by_a, self.params, self.config, drop_rng, cache)
        fused = fuse_contexts(rally_ctx, player_ctx, Tensor(np.broadcast_to(pe, x.shape)), self.params)
        return prediction_heads(fused, self.params)

    def forward_positions(
        self,
        strokes: Sequence[Stroke],
        rally_names: tuple[str, str],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Next-stroke head outputs at every position of the given history."""
        return self.forward(self.stroke_inputs(strokes, rally_names), training=training, rng=rng)

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self)

    @classmethod
    def load(cls, path: str | Path) -> "Forecaster":
        return load_checkpoint(path)


def forward_teacher_forced(
    model: Forecaster,
    rally: Rally,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Head outputs for strokes tau+1 .. |rally|, conditioned on truth.

    Row i predicts stroke tau+1+i from the strokes before it. The shapes are
    (m, V), (m, 2), (m, 2) and (m,) for m = |rally| - tau targets.
    """
    tau = model.config.tau
    if len(rally) < tau + 1:
        raise ValueError(f"rally {rally.rally_id} has {len(rally)} strokes, needs at least {tau + 1}")
    history = rally.strokes[:-1]
    probs, mu, log_sigma, rho = model.forward_positions(
        history, (rally.player_a, rally.player_b), training=training, rng=rng
    )
    # position p (0-based) predicts round p + 2, so round tau + 1 is row tau - 1
    return probs[tau - 1 :], mu[tau - 1 :], log_sigma[tau - 1 :], rho[tau - 1 :]


# ---------------------------------------------------------------------------
# checkpoint container: magic, u64 header length, JSON header, raw float64
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, model: Forecaster) -> None:
    names = model.params.names()
    header = {
        "config": asdict(model.config),
        "court": asdict(model.court),
        "vocab": [[e.type_id, e.name, e.is_serve] for e in model.vocab.entries],
        "player_index": model.player_index,
        "arrays": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Forecaster:
    """Read a checkpoint, checking every length in it against the file.

    A file without the magic, a truncated file, a header that does not
    parse or holds a value its config, court or vocabulary rejects, a header
    that does not describe the file's arrays, and bytes after the last array
    raise ParseError naming the file and what is wrong.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ParseError(f"{path}: not a checkpoint file (no {CHECKPOINT_MAGIC.strip().decode()} magic)")
    off = len(CHECKPOINT_MAGIC)
    if len(raw) < off + 8:
        raise ParseError(f"{path}: truncated before the header length")
    hlen = int.from_bytes(raw[off : off + 8], "little")
    off += 8
    if hlen > len(raw) - off:
        raise ParseError(f"{path}: header length {hlen} exceeds the {len(raw) - off} bytes after it")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
        config = ModelConfig(**header["config"])
        court = CourtSpec(**header["court"])
        vocab = ShotTypeVocab(tuple(ShotType(int(i), n, bool(s)) for i, n, s in header["vocab"]))
        player_index = {k: int(v) for k, v in header["player_index"].items()}
        arrays = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers both decode errors
        raise ParseError(f"{path}: unreadable checkpoint header: {exc}") from exc
    off += hlen
    if arrays != list(param_shapes(config).items()):
        raise ParseError(f"{path}: header arrays do not match the parameter shapes of its model config")
    tensors: dict[str, Tensor] = {}
    for name, shape in arrays:
        nbytes = 8 * int(np.prod(shape))
        if nbytes > len(raw) - off:
            raise ParseError(
                f"{path}: array {name!r} {shape} needs {nbytes} bytes at offset {off}, only {len(raw) - off} remain"
            )
        tensors[name] = Tensor(np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(shape).copy())
        off += nbytes
    if off != len(raw):
        raise ParseError(f"{path}: {len(raw) - off} trailing bytes after the last array {arrays[-1][0]!r}")
    return Forecaster(
        params=ModelParams(tensors),
        config=config,
        court=court,
        vocab=vocab,
        player_index=player_index,
    )
