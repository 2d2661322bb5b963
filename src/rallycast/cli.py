"""Command-line entry point: synth, validate, train, predict, score, analyze.

Settings resolve in three layers: the defaults in SETTINGS, then a flat
`key = value` config file (--config), then explicit flags. Unknown config
keys are rejected.

An exception's type sets the exit code: ParseError (a damaged input file,
named first in its text), NumericHealthError and TrainingDivergedError exit
1; UsageError (a refused setting, flag or config file) and OSError exit 2;
any other exception is a bug and keeps its traceback. validate also exits 1
when it finds violations, counting each row the dataset's parse rejected as one.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from . import __version__
from .analysis import (
    landing_zone_distribution,
    mean_probability,
    predicted_type_vote,
    round_trend,
    shot_distribution,
)
from .autodiff import NumericHealthError
from .court import CourtSpec, ParseError, ShotTypeVocab, boolean, check_output, load_vocab, validate_rally, write_csv
from .dataset import (
    FilterPolicy,
    SynthConfig,
    TAU,
    filter_training,
    parse_dataset,
    split,
    synthesize_dataset,
    write_dataset,
)
from .network import ModelConfig, load_checkpoint, save_checkpoint
from .scoring import (
    EXPECTED_SAMPLE_SETS,
    check_rally_ids_unique,
    check_sampling,
    export_predictions,
    generate_sample_sets,
    import_predictions,
    score_sample_sets,
)
from .training import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


@contextmanager
def value_errors_as(error: type[Exception], *args) -> Iterator[None]:
    """Raise a ValueError from the body as error(*args, its message): a refused setting, or a damaged file's content."""
    try:
        yield
    except ValueError as exc:
        raise error(*args, str(exc)) from exc


def int_or_none(raw: str) -> int | None:
    return None if raw.strip().lower() == "none" else int(raw)


class Choice(tuple):
    """Parser for one of a fixed set of names; the flag lists them as choices."""

    def __call__(self, raw: str) -> str:
        if raw not in self:
            raise ValueError(f"expected one of {', '.join(self)}, found {raw!r}")
        return raw


class Setting(NamedTuple):
    """How a setting's config value and flag parse, its default, and its flag's help."""

    parse: Callable[[str], object]
    default: object
    help: str | None = None


# Each setting is declared here once; a default that a library config
# declares is read from that config.
SETTINGS = {
    "seed": Setting(int, TrainConfig.seed),
    "n_rallies": Setting(int, 32),
    "mean_length": Setting(float, SynthConfig.mean_length),
    "vocab": Setting(str, None, "vocabulary CSV (type_id,name,is_serve)"),
    "embed_dim": Setting(int, ModelConfig.embed_dim),
    "n_heads": Setting(int, ModelConfig.n_heads),
    "n_layers": Setting(int, ModelConfig.n_layers),
    "ffn_dim": Setting(int_or_none, ModelConfig.ffn_dim),
    "dropout": Setting(float, ModelConfig.dropout_rate),
    "embedding_mode": Setting(Choice(("baseline", "modified")), ModelConfig.embedding_mode),
    "epochs": Setting(int, TrainConfig.epochs),
    "batch_size": Setting(int, TrainConfig.batch_size),
    "learning_rate": Setting(float, TrainConfig.learning_rate),
    "clip_norm": Setting(float, TrainConfig.clip_norm),
    "eval_every": Setting(int, TrainConfig.eval_every),
    "eval_samples": Setting(int, TrainConfig.eval_samples),
    "train_fraction": Setting(float, 0.8),
    "split_by_match": Setting(boolean, False),
    "max_rally_length": Setting(int_or_none, FilterPolicy.max_rally_length),
    "max_match_total_rounds": Setting(int_or_none, FilterPolicy.max_match_total_rounds),
    "min_rally_length": Setting(int, FilterPolicy.min_rally_length),
    "samples": Setting(int, EXPECTED_SAMPLE_SETS),
    "horizon": Setting(int, 20, "strokes per rally in open-ended mode"),
    "mirror": Setting(Choice(("none", "odd", "even")), "none", "mirror this round parity on ingest"),
}


def load_config_file(path: str) -> dict:
    """Parse a flat `key = value` config file; '#' starts a comment."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    out = {}
    for lineno, encoded in enumerate(p.read_bytes().splitlines(), start=1):
        try:
            raw = encoded.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{p}:{lineno}: byte 0x{encoded[exc.start]:02x} is not UTF-8") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{p}:{lineno}: expected 'key = value', found {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise UsageError(f"{p}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = SETTINGS[key].parse(value)
        except ValueError as exc:
            raise UsageError(f"{p}:{lineno}: bad value for {key}: {exc}") from exc
    return out


class Settings:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""

    def __init__(self, args: argparse.Namespace):
        self.values = {key: setting.default for key, setting in SETTINGS.items()}
        if getattr(args, "config", None):
            self.values.update(load_config_file(args.config))
        # a setting's flag is in args only when given, so a flag may set None
        self.values.update((key, value) for key, value in vars(args).items() if key in SETTINGS)

    def __getitem__(self, key: str):
        return self.values[key]

    def config(self, cls: type, **derived):
        """cls of the settings its fields name (dropout_rate's is dropout) and of derived; a refusal is a UsageError."""
        keys = {f.name: {"dropout_rate": "dropout"}.get(f.name, f.name) for f in fields(cls) if f.name not in derived}
        with value_errors_as(UsageError):
            return cls(**{name: self[key] for name, key in keys.items() if key in SETTINGS}, **derived)


def _resolve_vocab(settings: Settings) -> ShotTypeVocab:
    path = settings["vocab"]
    if path is None:
        return ShotTypeVocab.default()
    return load_vocab(path)


def _require(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name, None)
    if not value:
        raise UsageError(f"--{name.replace('_', '-')} is required for this command")
    return value


def _load_rallies(path: str, vocab: ShotTypeVocab, court: CourtSpec, mirror: str):
    """The dataset's rallies and rejected rows; a note names the reject report that parse_dataset wrote."""
    rallies, _, rejects = parse_dataset(path, vocab, court, mirror=mirror)
    if rejects:
        path = Path(path)
        print(f"note: {len(rejects)} rows rejected, see {path.with_name(path.name + '.rejects.csv')}")
    return rallies, rejects


def _outputs(out_dir: Path, names: Sequence[str]) -> list[Path]:
    """The named files in out_dir, checked now as write_file will check them, unless out_dir is still to be made."""
    paths = [out_dir / name for name in names]
    for path in paths if out_dir.exists() else []:
        check_output(path)
    return paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    settings = Settings(args)
    vocab = _resolve_vocab(settings)
    out = Path(_require(args, "out"))
    rallies = synthesize_dataset(settings.config(SynthConfig, vocab=vocab))
    write_dataset(rallies, vocab, out)
    print(f"wrote {sum(len(r) for r in rallies)} strokes in {len(rallies)} rallies to {out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    settings = Settings(args)
    vocab = _resolve_vocab(settings)
    court = CourtSpec()
    rallies, rejects = _load_rallies(_require(args, "data"), vocab, court, settings["mirror"])
    n_violations = len(rejects)  # each row the parse refused breaks a row or round rule
    for rally in rallies:
        for v in validate_rally(rally, vocab, strict_serve=args.strict_serve):
            n_violations += 1
            print(f"{rally.match_id}/{rally.rally_id} stroke {v.stroke_index}: {v.rule}: {v.detail}")
    print(f"{len(rallies)} rallies checked, {n_violations} violations")
    return EXIT_OK if n_violations == 0 else EXIT_RUNTIME


def cmd_train(args: argparse.Namespace) -> int:
    settings = Settings(args)
    vocab = _resolve_vocab(settings)
    model_config = settings.config(ModelConfig, vocab_size=vocab.size)
    train_config = settings.config(TrainConfig)
    policy = settings.config(FilterPolicy)

    court = CourtSpec()
    out_dir = Path(_require(args, "out_dir"))
    names = ("model.ckpt", "report.csv", "train_split.csv", "val_split.csv")
    checkpoint, report_csv, train_csv, val_csv = _outputs(out_dir, names)
    rallies, _ = _load_rallies(_require(args, "data"), vocab, court, settings["mirror"])
    kept, dropped = filter_training(rallies, policy)
    if dropped:
        print(f"filter dropped {len(dropped)} of {len(rallies)} rallies")
    if not kept:
        raise UsageError("no rallies left after filtering")
    with value_errors_as(UsageError):  # the train fraction
        train_set, val_set = split(kept, settings["train_fraction"], settings["seed"], settings["split_by_match"])
    out_dir.mkdir(parents=True, exist_ok=True)

    def progress(stats, val_score):
        val = f" val {val_score:.6f}" if val_score is not None else ""
        print(f"epoch {stats.epoch} shot {stats.shot_loss:.6f} area {stats.area_loss:.6f} total {stats.total_loss:.6f}{val}")

    model, report = train(train_set, val_set, model_config, train_config, court, vocab, progress=progress)

    save_checkpoint(checkpoint, model)
    report.write_csv(report_csv)
    write_dataset(train_set, vocab, train_csv)
    write_dataset(val_set, vocab, val_csv)
    print(f"best epoch {report.best_epoch}, wall clock {report.wall_clock_s:.1f}s, checkpoint {checkpoint}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    settings = Settings(args)
    open_ended = bool(getattr(args, "open_ended", False))
    horizon = settings["horizon"] if open_ended else None
    n_samples = settings["samples"]
    with value_errors_as(UsageError):
        check_sampling(n_samples, settings["seed"], horizon)
    model = load_checkpoint(_require(args, "checkpoint"))
    data = _require(args, "data")
    rallies, _ = _load_rallies(data, model.vocab, model.court, settings["mirror"])
    out = Path(_require(args, "out"))
    need = TAU if open_ended else TAU + 1  # the prefix, and in scoring mode one stroke to predict
    short = [r.rally_id for r in rallies if len(r) < need]
    if short:
        raise ParseError(data, f"rallies too short to predict (need {need} strokes): {short[:5]}")
    with value_errors_as(ParseError, data):
        check_rally_ids_unique(rallies)

    sets = generate_sample_sets(model, rallies, n_samples, settings["seed"], horizon=horizon)
    export_predictions(rallies, sets, model.vocab, out)
    n_rows = sum(len(suffix) for one in sets for suffix in one)
    print(f"wrote {n_rows} prediction rows ({n_samples} sample sets) to {out}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    settings = Settings(args)
    vocab = _resolve_vocab(settings)
    court = CourtSpec()
    truth, predictions = _require(args, "truth"), _require(args, "predictions")
    truths, _ = _load_rallies(truth, vocab, court, settings["mirror"])
    with value_errors_as(ParseError, truth):
        check_rally_ids_unique(truths)
    scorable = [r for r in truths if len(r) >= TAU + 1]
    if not scorable:
        raise ParseError(truth, f"no rally has the {TAU + 1} strokes that scoring needs")
    pred = import_predictions(predictions, vocab)
    if pred.n_samples != EXPECTED_SAMPLE_SETS:
        raise ParseError(predictions, f"expected {EXPECTED_SAMPLE_SETS} sample sets, found {pred.n_samples}")
    with value_errors_as(ParseError, predictions):  # the rallies, samples and rounds the file covers, and finite losses
        report = score_sample_sets(pred.sample_sets(scorable), scorable, protocol="min_of_sets")
    for line in report.lines():
        print(line)
    if args.out:
        report.write_csv(args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    """Check outputs, read input, build every table, then make --out-dir and write, so a refusal writes nothing."""
    settings = Settings(args)
    vocab = _resolve_vocab(settings)
    court = CourtSpec()
    kind = args.kind
    out_dir = Path(args.out_dir or ".")

    dataset_kinds = {
        "shot-by-round": "ball_round",
        "shot-by-player": "player",
        "shot-by-zone": "landing_zone",
        "shot-by-location": "player_location_zone",
    }
    # writers holds the function that writes each of the paths, in order
    if kind in dataset_kinds:
        data, grouping = _require(args, "data"), dataset_kinds[kind]
        paths = _outputs(out_dir, [f"analysis_shot_distribution_{grouping}.csv"])
        rallies, _ = _load_rallies(data, vocab, court, settings["mirror"])
        writers = [shot_distribution(rallies, grouping, vocab, court).write_csv]
    elif kind in ("vote", "zones", "trend"):
        pred_path = getattr(args, "predictions", None)
        if not pred_path:
            raise UsageError(f"--kind {kind} needs --predictions")
        paths = _outputs(out_dir, {
            "vote": ["analysis_vote_per_stroke.csv", "analysis_vote_distribution.csv"],
            "zones": ["analysis_zone_histogram_landing_zone.csv"],
            "trend": ["analysis_round_trend_ball_round.csv", "analysis_mean_probability_all.csv"],
        }[kind])
        pred = import_predictions(pred_path, vocab)
        with value_errors_as(ParseError, pred_path):  # a file without strokes
            if kind == "vote":
                winners, table = predicted_type_vote(pred, vocab)
                header = "rally_id,ball_round,final_type,votes"
                per_stroke = [f"{wv.rally_id},{wv.ball_round},{wv.type_name},{wv.votes}" for wv in winners]
                writers = [lambda path: write_csv(path, header, per_stroke), table.write_csv]
            elif kind == "zones":
                writers = [landing_zone_distribution(pred, court).write_csv]
            else:
                means = [f"{name},{value!r}" for name, value in mean_probability(pred, vocab).items()]
                writers = [round_trend(pred, vocab).write_csv, lambda path: write_csv(path, "type,mean_probability", means)]
    else:
        raise UsageError(f"unknown --kind {kind!r}")

    out_dir.mkdir(parents=True, exist_ok=True)
    for path, write in zip(paths, writers):
        write(path)
        print(f"wrote {path}")
    return EXIT_OK


def add_setting_flags(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    """One flag per setting key, parsed as its config value is; absent unless given."""
    for key in keys:
        setting = SETTINGS[key]
        flag = "--n" if key == "n_rallies" else "--" + key.replace("_", "-")
        kwargs = {"dest": key, "default": argparse.SUPPRESS, "help": setting.help}
        if setting.parse is boolean:
            kwargs.update(action="store_const", const=True)
        elif isinstance(setting.parse, Choice):
            kwargs.update(choices=setting.parse)
        else:
            kwargs.update(type=setting.parse)
        p.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rallycast", description="Rally stroke forecasting toolkit")
    parser.add_argument("--version", action="version", version=f"rallycast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, keys: tuple[str, ...]) -> argparse.ArgumentParser:
        """A subcommand with --config and the flags of the settings it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key = value config file")
        add_setting_flags(p, keys)
        p.set_defaults(handler=handler)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset CSV", ("seed", "vocab", "n_rallies", "mean_length"))
    p.add_argument("--out", required=True)

    p = command("validate", cmd_validate, "count a dataset's rejected rows and its rallies' alternation breaks",
                ("vocab", "mirror"))
    p.add_argument("--data", required=True)
    p.add_argument("--strict-serve", action="store_true", help="also check that only the opening stroke is a service")

    p = command("train", cmd_train, "filter, split, and train a forecaster", (
        "seed", "vocab", "mirror", "embed_dim", "n_heads", "n_layers", "ffn_dim", "dropout", "embedding_mode",
        "epochs", "batch_size", "learning_rate", "clip_norm", "eval_every", "eval_samples",
        "train_fraction", "split_by_match", "max_rally_length", "max_match_total_rounds", "min_rally_length",
    ))
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = command("predict", cmd_predict, "sample suffix sets for every rally in a dataset",
                ("seed", "mirror", "samples", "horizon"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--open-ended", dest="open_ended", action="store_true",
                   help="generate a fixed horizon instead of matching ground-truth lengths")

    p = command("score", cmd_score, "score a prediction file against ground truth", ("vocab", "mirror"))
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out")

    p = command("analyze", cmd_analyze, "emit analysis tables from datasets or predictions", ("vocab", "mirror"))
    p.add_argument("--kind", required=True)
    p.add_argument("--data")
    p.add_argument("--predictions")
    p.add_argument("--out-dir", dest="out_dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, NumericHealthError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
