"""The stroke-forecasting network.

Dual-channel stroke embeddings feed a causal transformer encoder that runs
once over two copies of each history, stacked along the batch axis: one copy
attends over the whole rally (rally context), the other only over strokes
hit by the query position's player (player context). A position-aware
sigmoid gate (autodiff.gate) fuses the two contexts, and two heads emit a
shot-type distribution and a bivariate Gaussian over the normalized landing
point, packed by autodiff.landing_params.

Embedding modes:
  modified  shot channel = type embedding + player-id embedding,
            area channel = landing projection + player-location projection,
            no nonlinearity on the area channel.
  baseline  player-id embedding added to both channels, no player-location
            term, ReLU on the landing projection.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .court import CourtSpec, ParseError, Rally, ShotType, ShotTypeVocab, write_file
from .dataset import TAU
from .seeding import TAG_INIT, rng_from_key

UNKNOWN_PLAYER = 0  # reserved row of the player embedding table

CHECKPOINT_MAGIC = b"RCKPT1\n"

AREA_PARAM_COUNT = 5  # the raw landing head: mu_x, mu_y, log_sigma_x, log_sigma_y, rho before its tanh


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

    def __post_init__(self) -> None:
        for name in ("embed_dim", "n_heads", "n_layers", "ffn_dim", "vocab_size", "n_players"):
            value = getattr(self, name)
            # a float or bool would pass the checks below
            if type(value) is not int and not (name == "ffn_dim" and value is None):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.embedding_mode not in ("baseline", "modified"):
            raise ValueError(f"unknown embedding_mode: {self.embedding_mode!r}")

    @property
    def ffn_width(self) -> int:
        return self.ffn_dim if self.ffn_dim is not None else 4 * self.embed_dim


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


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """The learnable arrays by name, in param_shapes order."""
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
            fan_in = shape[0]
            data = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        tensors[name] = Tensor(data)
    return tensors


def build_player_index(rallies: Sequence[Rally]) -> dict[str, int]:
    """Dataset-global player ids; row 0 stays reserved for unseen players."""
    names = sorted({name for r in rallies for name in (r.player_a, r.player_b)})
    return {name: i + 1 for i, name in enumerate(names)}


@functools.lru_cache(maxsize=1024)
def sinusoidal_encoding(n: int, d: int, start: int = 0) -> np.ndarray:
    """Encodings of positions start .. n-1, shape (n - start, d); one read-only table per (n, d, start)."""
    pos = np.arange(start, n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    enc = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    enc.flags.writeable = False
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


class KVCache:
    """Keys and values of the first `length` positions of B histories, per encoder layer.

    Forecaster.forward(inputs, cache=cache) extends it by the positions it
    feeds; see there. The buffers are written in place and grow by whole
    autodiff.ROW_GROUPs. A step attends over every buffered position: the
    cached ones, its own, and the zero ones after them, which it blocks as
    the full forward blocks its padded keys. It carries no autodiff tape, so
    it serves inference only.

    Layer i's buffers are layers[i] = (keys, values), of shapes (B, 2, d,
    width) and (B, 2, width, d). Axis 1 holds each history's two encoder
    rows: its rally context, then its player context (see encode_contexts).
    The keys are stored transposed, so head h's rows h*d/n_heads ..
    (h+1)*d/n_heads of them are the block autodiff.attention multiplies, and
    it copies no cached key. take_rows(rows) gathers copies of histories,
    so several rows can continue one history's buffers apart. The histories
    stay in their batch order, so a caller that orders them by falling
    horizon drops the finished ones from the tail with keep_rows, which
    slices and copies nothing.
    """

    def __init__(self, batch: int, config: ModelConfig):
        self.length = 0
        self.hitters = np.zeros((batch, 0), dtype=bool)  # hit_by_a of each buffered position
        d = config.embed_dim
        self.layers = [(np.zeros((batch, 2, d, 0)), np.zeros((batch, 2, 0, d))) for _ in range(config.n_layers)]

    def feed(self, hitters: np.ndarray) -> np.ndarray:
        """Buffer the (B, n) hit_by_a of the n positions after length, and return every buffered one.

        Every buffer grows with zeros to whole ROW_GROUPs first. length does
        not move: a position past it is read only where it is blocked, so a
        step that raises leaves the cache as valid as before.
        """
        stop = self.length + hitters.shape[1]
        width = ad.whole_groups(stop)
        if width > self.hitters.shape[1]:
            self.hitters = _grown(self.hitters, -1, width)
            self.layers = [(_grown(keys, -1, width), _grown(values, -2, width)) for keys, values in self.layers]
        self.hitters[:, self.length : stop] = hitters
        return self.hitters

    def take_rows(self, rows: np.ndarray) -> None:
        """Hold fresh copies of the histories at the given rows, in that order; a row may repeat."""
        self.hitters = self.hitters[rows]
        self.layers = [(keys[rows], values[rows]) for keys, values in self.layers]

    def keep_rows(self, n: int) -> None:
        """Keep only the first n histories."""
        self.hitters = self.hitters[:n]
        self.layers = [(keys[:n], values[:n]) for keys, values in self.layers]


def _grown(buffer: np.ndarray, axis: int, width: int) -> np.ndarray:
    """A contiguous copy of buffer with zeros after it along axis, up to width positions."""
    shape, index = list(buffer.shape), [slice(None)] * buffer.ndim
    shape[axis], index[axis] = width, slice(0, buffer.shape[axis])
    grown = np.zeros(shape, dtype=buffer.dtype)
    grown[tuple(index)] = buffer
    return grown


def embed_strokes(
    inputs: StrokeInputs, params: dict[str, Tensor], config: ModelConfig, pe: np.ndarray
) -> tuple[Tensor, Tensor]:
    """Per-stroke shot and area channels, positional encoding included; shape (..., n, d).

    pe holds the (n, d) sinusoidal encodings of the strokes' positions in
    their histories.
    """
    type_e = ad.embedding_lookup(params["type_emb"], inputs.type_ids)
    player_e = ad.embedding_lookup(params["player_emb"], inputs.player_ids)
    area_proj = ad.linear(Tensor(inputs.landings), params["area_w"], params["area_b"])

    shot_channel = ad.add(type_e, player_e)
    if config.embedding_mode == "modified":
        loc_proj = ad.linear(Tensor(inputs.locations), params["loc_w"], params["loc_b"])
        area_channel = ad.add(area_proj, loc_proj)
    else:
        area_channel = ad.add(ad.relu(area_proj), player_e)

    pe = Tensor(pe)
    return ad.add(shot_channel, pe), ad.add(area_channel, pe)


def _attention(
    x: Tensor,
    allowed: np.ndarray,
    params: dict[str, Tensor],
    layer: int,
    config: ModelConfig,
    cache: KVCache | None = None,
) -> Tensor:
    """Masked multi-head self-attention of x's positions.

    With a cache, x's keys and values go into its buffers after the cached
    positions', and x attends over the whole buffers, so allowed has one
    column per buffered position.
    """
    p = f"enc{layer}_"
    q = ad.linear(x, params[p + "wq"])
    k = ad.linear(x, params[p + "wk"])
    v = ad.linear(x, params[p + "wv"])
    if cache is not None:
        # (2B, d, width) and (2B, width, d) views: the buffers are contiguous, keep_rows slicing whole histories off
        keys, values = (a.reshape((-1,) + a.shape[2:]) for a in cache.layers[layer])
        new = slice(cache.length, cache.length + x.shape[-2])
        keys[..., new], values[:, new] = np.swapaxes(k.data, -1, -2), v.data
        k, v = Tensor(np.swapaxes(keys, -1, -2)), Tensor(values)
    merged = ad.attention(q, k, v, ~allowed, config.n_heads)
    return ad.linear(merged, params[p + "wo"], params[p + "bo"])


def _encoder_stack(
    x: Tensor,
    allowed: np.ndarray,
    params: dict[str, Tensor],
    config: ModelConfig,
    uniforms: np.ndarray | None,
    cache: KVCache | None = None,
) -> Tensor:
    """The encoder layers over x; uniforms[2i] and uniforms[2i + 1] drive layer i's two dropouts."""
    for i in range(config.n_layers):
        p = f"enc{i}_"
        att = _attention(x, allowed, params, i, config, cache)
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
    params: dict[str, Tensor],
    config: ModelConfig,
    rng: np.random.Generator | None = None,
    cache: KVCache | None = None,
    first: int = 0,
) -> tuple[Tensor, Tensor]:
    """Causal rally context and player-restricted context for each position from first on.

    x is (..., n, d). hitters is the (..., n) bool array of who hits each
    position, True for player A (StrokeInputs.hit_by_a). One encoder pass
    runs over 2B rows, two per history: row 2i under the causal mask, row
    2i + 1 under the causal same-hitter mask, so a length-1 sequence yields
    identical contexts. rng draws the dropout masks as two separate passes
    would.
    With a cache, x holds the (B, n, d) positions after the cached ones;
    they also attend over the cached positions, and the cache then holds
    them too. Every position is encoded, since later ones attend over it,
    but the contexts returned are those of x's positions first .. n-1.
    """
    if hitters.shape != x.shape[:-1]:
        raise ValueError("hitters must align with the sequence")
    single = x.ndim == 2
    if single:  # a one-row batch
        x, hitters = ad.tslice(x, None), hitters[None]
    start, n_new = (0 if cache is None else cache.length), hitters.shape[-1]
    every = hitters if cache is None else cache.feed(hitters)
    same = hitters[..., :, None] == every[..., None, :]
    causal = np.broadcast_to(np.tril(np.ones((n_new, every.shape[-1]), dtype=bool), start), same.shape)
    allowed = np.concatenate([causal, causal & same])
    # (2, 2 * n_layers, B, n, d) uniforms -> (2 * n_layers, 2B, n, d), rally rows first
    uniforms = None if rng is None else np.concatenate(rng.random((2, 2 * config.n_layers) + x.shape), axis=1)
    # the rows go in as an argument, not a name, so that the encoder frees them after its first layer
    b = len(hitters)
    if b == 1:  # rows 0 and 1 are paired already
        out = _encoder_stack(ad.concat([x, x], axis=0), allowed, params, config, uniforms, cache)
    else:  # history i to rows 2i and 2i + 1, so that KVCache.keep_rows keeps the first histories as a prefix
        pairs = np.arange(2 * b).reshape(2, b).T.ravel()
        uniforms = None if uniforms is None else uniforms[:, pairs]
        out = _encoder_stack(
            ad.tslice(ad.concat([x, x], axis=0), pairs), allowed[pairs], params, config, uniforms, cache
        )
    if cache is not None:
        cache.length = start + n_new
    rally_rows, player_rows = (0, 1) if single else (slice(0, None, 2), slice(1, None, 2))
    return ad.tslice(out, (rally_rows, slice(first, None))), ad.tslice(out, (player_rows, slice(first, None)))


def fuse_contexts(rally_ctx: Tensor, player_ctx: Tensor, pos_enc: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Position-aware gate: fused = g * rally + (1 - g) * player, g the sigmoid of an affine map of all three."""
    gate_in = ad.concat([rally_ctx, player_ctx, pos_enc], axis=-1)
    return ad.gate(ad.linear(gate_in, params["gate_w"], params["gate_b"]), rally_ctx, player_ctx)


def prediction_heads(fused: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Per-position (type_probs, landing) for a (..., n, d) fused tensor: (..., n, V) and (..., n, 5).

    landing is the bivariate Gaussian packed as autodiff.landing_params packs it.
    """
    probs = ad.softmax(ad.linear(fused, params["type_head_w"], params["type_head_b"]))
    return probs, ad.landing_params(ad.linear(fused, params["area_head_w"], params["area_head_b"]))


@dataclass
class Forecaster:
    """A trained (or freshly initialized) model plus everything needed to run it."""

    params: dict[str, Tensor]
    config: ModelConfig
    court: CourtSpec
    vocab: ShotTypeVocab
    player_index: dict[str, int] = field(default_factory=dict)

    def player_id(self, name: str) -> int:
        return self.player_index.get(name, UNKNOWN_PLAYER)

    def rally_inputs(self, rally: Rally, n: int) -> StrokeInputs:
        """(n,) inputs of the rally's first n strokes, read from its columns."""
        if not 1 <= n <= len(rally):
            raise ValueError(f"rally {rally.rally_id} has {len(rally)} strokes, cannot take the first {n}")
        hit_by_a = rally.hit_by_a[:n]
        return StrokeInputs(
            type_ids=rally.type_ids[:n],
            player_ids=np.where(hit_by_a, self.player_id(rally.player_a), self.player_id(rally.player_b)),
            hit_by_a=hit_by_a,
            landings=self.court.normalize(rally.landings[:n]),
            locations=self.court.normalize(rally.locations[:n]),
        )

    def forward(
        self,
        inputs: StrokeInputs,
        rng: np.random.Generator | None = None,
        cache: KVCache | None = None,
        first: int = 0,
    ) -> tuple[Tensor, Tensor]:
        """Next-stroke (type_probs, landing) at positions first .. n-1: (..., m, V) and (..., m, 5).

        One definition serves one history (training, teacher forcing) and a
        (B, n) batch (lockstep sampling); every row of a batch gets the same
        values it would get alone. Dropout runs if and only if rng is given.

        With a cache (inference only: no rng, inside autodiff.no_tape()), inputs holds
        the strokes of B histories from position cache.length on, and the
        outputs are those of these positions, bit-identical to the full
        forward's, since every product rounds a row the same wherever it
        sits. The cache then holds the keys and values of every position fed,
        so a decoder feeds each new stroke once.

        first counts from the first position inputs holds, and m = n - first.
        The encoder runs over every position, since later ones attend over
        earlier ones, but the gate and the heads run only on positions first
        on, so a caller pays only for the rows it reads. The rows returned
        are bit-identical to rows first .. n-1 of the outputs with first = 0:
        the gate, the heads and their softmax treat each row alone.
        """
        n = inputs.type_ids.shape[-1]
        if not 0 <= first < n:
            raise ValueError(f"first must be in 0 .. {n - 1} for {n} positions, got {first}")
        start = 0
        if cache is not None:
            if rng is not None or ad.is_recording():
                raise RuntimeError("a cached forward is for inference, without an rng, inside autodiff.no_tape()")
            if inputs.type_ids.ndim != 2 or len(inputs.type_ids) != len(cache.hitters):
                raise ValueError("a cached forward takes (B, n) inputs for the cache's B histories")
            start = cache.length
        pe = sinusoidal_encoding(start + n, self.config.embed_dim, start)
        shot_ch, area_ch = embed_strokes(inputs, self.params, self.config, pe)
        x = ad.scale(ad.add(shot_ch, area_ch), 0.5)
        rally_ctx, player_ctx = encode_contexts(x, inputs.hit_by_a, self.params, self.config, rng, cache, first)
        fused = fuse_contexts(rally_ctx, player_ctx, Tensor(np.broadcast_to(pe[first:], rally_ctx.shape)), self.params)
        return prediction_heads(fused, self.params)

    def forward_positions(
        self,
        rally: Rally,
        n: int,
        rng: np.random.Generator | None = None,
        first: int = 0,
    ) -> tuple[Tensor, Tensor]:
        """Next-stroke (type_probs, landing) at positions first .. n-1 of the rally's first n strokes."""
        return self.forward(self.rally_inputs(rally, n), rng=rng, first=first)


def forward_teacher_forced(
    model: Forecaster,
    rally: Rally,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """(type_probs, landing) for strokes TAU+1 .. |rally|, conditioned on truth; dropout runs when rng is given.

    Row i predicts stroke TAU+1+i from the strokes before it. The shapes are
    (m, V) and (m, 5) for m = |rally| - TAU targets.
    """
    if len(rally) < TAU + 1:
        raise ValueError(f"rally {rally.rally_id} has {len(rally)} strokes, needs at least {TAU + 1}")
    # position p (0-based) predicts round p + 2, so round TAU + 1 is position TAU - 1
    return model.forward_positions(rally, len(rally) - 1, rng=rng, first=TAU - 1)


# ---------------------------------------------------------------------------
# checkpoint container: magic, u64 header length, JSON header, raw float64
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, model: Forecaster) -> None:
    names = list(model.params)
    header = {
        "config": asdict(model.config),
        "court": {"width_m": model.court.width_m, "length_m": model.court.length_m},
        "vocab": [[e.type_id, e.name, e.is_serve] for e in model.vocab.entries],
        "player_index": model.player_index,
        "arrays": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    arrays = [np.ascontiguousarray(model.params[n].data, dtype="<f8").tobytes() for n in names]
    write_file(path, [CHECKPOINT_MAGIC, len(blob).to_bytes(8, "little"), blob, *arrays])


# A checkpoint header's court: its size, and the normalization by its center that earlier headers also
# carried. Each key loads only at its value here, as tau loads only at TAU.
COURT_HEADER = {"width_m": CourtSpec.width_m, "length_m": CourtSpec.length_m}
COURT_HEADER.update(zip(("mean_x", "mean_y", "std_x", "std_y"), CourtSpec().center * 2))


def _config_and_court(path: str | Path, header: dict) -> tuple[ModelConfig, CourtSpec]:
    """The model config and court of a checkpoint header; a tau or COURT_HEADER value not fixed there raises ParseError."""
    config_fields, court_fields = dict(header["config"]), dict(header["court"])
    found = {"tau": config_fields.pop("tau", TAU)}
    found.update((key, court_fields.pop(key)) for key in COURT_HEADER if key in court_fields)
    config, court = ModelConfig(**config_fields), CourtSpec(**court_fields)  # a key left over is unknown
    fixed = {"tau": TAU, **COURT_HEADER}
    for key, value in found.items():
        if value != fixed[key]:
            raise ParseError(path, f"header {key} is {value!r}, but {key} is fixed at {fixed[key]!r}")
    return config, court


def load_checkpoint(path: str | Path) -> Forecaster:
    """Read a checkpoint, checking every length in it against the file.

    A file without the magic, a truncated file, a header that does not
    parse or holds a value its config, court or vocabulary rejects, a
    vocabulary or player index that does not fit the config's embedding
    tables, a header that does not describe the file's arrays, an array
    holding NaN or an infinity, and bytes after the last array raise
    ParseError naming the file and what is wrong; a missing file raises
    FileNotFoundError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint file not found: {path}")
    raw = path.read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ParseError(path, f"not a checkpoint file (no {CHECKPOINT_MAGIC.strip().decode()} magic)")
    off = len(CHECKPOINT_MAGIC)
    if len(raw) < off + 8:
        raise ParseError(path, "truncated before the header length")
    hlen = int.from_bytes(raw[off : off + 8], "little")
    off += 8
    if hlen > len(raw) - off:
        raise ParseError(path, f"header length {hlen} exceeds the {len(raw) - off} bytes after it")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
        config, court = _config_and_court(path, header)
        vocab_rows, player_index = header["vocab"], header["player_index"]
        not_str = [n for _, n, _ in vocab_rows if not isinstance(n, str)]
        if not_str:
            raise ParseError(path, f"header vocab name {not_str[0]!r} is not a string")
        for row, (i, _, s) in enumerate(vocab_rows):  # int(1.9) would load as type 1, bool("no") as a service type
            if type(i) is not int or type(s) is not bool:
                raise ParseError(path, f"header vocab[{row}] {vocab_rows[row]!r} needs an int id and a true/false flag")
        vocab = ShotTypeVocab(tuple(ShotType(i, n, s) for i, n, s in vocab_rows))
        arrays = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        for i, (_, shape) in enumerate(arrays):
            if any(type(n) is not int for n in shape):  # (10.0, 16) == (10, 16) would pass the shape check below
                raise ParseError(path, f"header arrays[{i}].shape {list(shape)} holds a size that is not an int")
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers both decode errors
        raise ParseError(path, f"unreadable checkpoint header: {exc}") from exc
    if vocab.size != config.vocab_size:
        raise ParseError(path, f"header vocab has {vocab.size} types, but config vocab_size is {config.vocab_size}")
    in_table = range(1, config.n_players + 1)  # row 0 of the player table is for unseen players
    if not isinstance(player_index, dict) or not all(type(i) is int and i in in_table for i in player_index.values()):
        raise ParseError(
            path, f"header player_index must map names to ids in 1..{config.n_players}, got {player_index!r:.80}"
        )
    off += hlen
    if arrays != list(param_shapes(config).items()):
        raise ParseError(path, "header arrays do not match the parameter shapes of its model config")
    tensors: dict[str, Tensor] = {}
    for name, shape in arrays:
        nbytes = 8 * int(np.prod(shape))
        if nbytes > len(raw) - off:
            raise ParseError(
                path, f"array {name!r} {shape} needs {nbytes} bytes at offset {off}, only {len(raw) - off} remain"
            )
        tensors[name] = Tensor(np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(shape).copy())
        if not np.isfinite(tensors[name].data).all():
            raise ParseError(path, f"array {name!r} holds a non-finite value")
        off += nbytes
    if off != len(raw):
        raise ParseError(path, f"{len(raw) - off} trailing bytes after the last array {arrays[-1][0]!r}")
    return Forecaster(
        params=tensors,
        config=config,
        court=court,
        vocab=vocab,
        player_index=player_index,
    )
