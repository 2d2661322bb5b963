import json
import re
import subprocess
import sys

import pytest

from rallycast.network import CHECKPOINT_MAGIC

from conftest import FIXTURES

CORPUS32 = FIXTURES / "corpus32.csv"
HAND_SCORED = FIXTURES / "hand_scored"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rallycast", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_version():
    out = run_cli("--version")
    assert out.returncode == 0
    assert "rallycast" in out.stdout


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        out = run_cli("synth", "--n", 20, "--seed", 7, "--out", path)
        assert out.returncode == 0, out.stderr
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run_cli("synth", "--n", 20, "--seed", 8, "--out", c)
    assert c.read_bytes() != a.read_bytes()


def test_synth_output_validates_cleanly(tmp_path):
    path = tmp_path / "d.csv"
    assert run_cli("synth", "--n", 15, "--seed", 3, "--out", path).returncode == 0
    out = run_cli("validate", "--data", path, "--strict-serve")
    assert out.returncode == 0, out.stdout
    assert "0 violations" in out.stdout


def test_missing_vocab_file_exits_2(tmp_path):
    out = run_cli("synth", "--n", 5, "--out", tmp_path / "x.csv", "--vocab", tmp_path / "missing_vocab.csv")
    assert out.returncode == 2
    assert "missing_vocab.csv" in out.stderr


@pytest.mark.parametrize("kept_rows", [4, None])  # None keeps the whole file, past the text reader's first chunk
def test_dataset_with_a_byte_that_is_not_utf8_exits_1_naming_its_line(tmp_path, kept_rows):
    lines = CORPUS32.read_bytes().splitlines(keepends=True)[: None if kept_rows is None else 1 + kept_rows]
    row = lines[-1].split(b",")
    row[4] = b"\xff\xfe"
    data = tmp_path / "damaged.csv"
    data.write_bytes(b"".join(lines) + b",".join(row))
    out = run_cli("validate", "--data", data)
    assert out.returncode == 1, out.stderr
    assert f"{data}: line {len(lines) + 1}: byte 0xff is not UTF-8" in out.stderr
    assert "Traceback" not in out.stderr


def test_vocabulary_with_a_non_integer_type_id_exits_1_naming_its_line_and_field(tmp_path):
    vocab = tmp_path / "vocab.csv"
    vocab.write_text("type_id,name,is_serve\n0,long service,true\nx,net shot,false\n", encoding="utf-8")
    out = run_cli("validate", "--data", CORPUS32, "--vocab", vocab)
    assert out.returncode == 1, out.stderr
    assert f"{vocab}: line 3: type_id 'x' is not an integer" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text, message", [
    # a missing column reached the CLI as a bare KeyError and exited 2
    ("type_id,name\n0,long service\n1,net shot\n", "line 1: missing column is_serve; the header must be type_id,name,is_serve"),
    # a short row read its missing cell as None and died with an AttributeError traceback
    ("type_id,name,is_serve\n0,long service\n1,net shot,false\n", "line 2: expected 3 cells"),
], ids=["missing_column", "short_row"])
def test_vocabulary_with_a_missing_column_or_cell_exits_1_naming_it(tmp_path, text, message):
    vocab = tmp_path / "vocab.csv"
    vocab.write_text(text, encoding="utf-8")
    out = run_cli("validate", "--data", CORPUS32, "--vocab", vocab)
    assert out.returncode == 1, out.stderr
    assert f"{vocab}: {message}" in out.stderr
    assert "Traceback" not in out.stderr


def test_prediction_file_with_a_byte_that_is_not_utf8_exits_1_naming_its_line(tmp_path):
    lines = (HAND_SCORED / "predictions.csv").read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b",", b"\xff,", 1)  # in the rally id of line 6
    damaged = tmp_path / "damaged.csv"
    damaged.write_bytes(b"".join(lines))
    out = run_cli("score", "--predictions", damaged, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stderr
    assert f"{damaged}: line 6: byte 0xff is not UTF-8" in out.stderr
    assert "Traceback" not in out.stderr and "Score" not in out.stdout


@pytest.mark.parametrize("command, flag", [
    (["predict", "--checkpoint", "m.ckpt", "--data", "d.csv", "--out", "p.csv"], ["--vocab", "/nonexistent/vocab.csv"]),
    (["validate", "--data", "d.csv"], ["--seed", "1"]),
    (["score", "--predictions", "p.csv", "--truth", "t.csv"], ["--seed", "1"]),
    (["analyze", "--kind", "vote", "--predictions", "p.csv"], ["--seed", "1"]),
    (["synth", "--out", "s.csv"], ["--mirror", "odd"]),
])
def test_a_flag_the_subcommand_never_reads_is_a_usage_error(command, flag):
    out = run_cli(*command, *flag)
    assert out.returncode == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in out.stderr


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("optimizer = sgd\n", encoding="utf-8")
    out = run_cli("synth", "--n", 5, "--out", tmp_path / "x.csv", "--config", cfg)
    assert out.returncode == 2
    assert "optimizer" in out.stderr


@pytest.mark.parametrize("line, message", [
    ("mirror = sideways", "bad value for mirror: expected one of none, odd, even"),
    ("embedding_mode = both", "bad value for embedding_mode: expected one of baseline, modified"),
])
def test_a_config_value_outside_its_choices_exits_2_naming_its_line(tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n", encoding="utf-8")
    out = run_cli("synth", "--n", 5, "--out", tmp_path / "x.csv", "--config", cfg)
    assert out.returncode == 2
    assert f"{cfg}:2: {message}" in out.stderr
    assert not (tmp_path / "x.csv").exists()


# each subcommand's flags: (option strings, dest, choices, nargs); nargs 0 is a switch
HELP = (("-h", "--help"), "help", None, 0)
CONFIG = (("--config",), "config", None, None)
SEED = (("--seed",), "seed", None, None)
VOCAB = (("--vocab",), "vocab", None, None)
MIRROR = (("--mirror",), "mirror", ("none", "odd", "even"), None)
COMMAND_FLAGS = {
    "synth": [
        SEED,
        VOCAB,
        (("--n",), "n_rallies", None, None),
        (("--mean-length",), "mean_length", None, None),
        (("--out",), "out", None, None),
    ],
    "validate": [
        VOCAB,
        MIRROR,
        (("--data",), "data", None, None),
        (("--strict-serve",), "strict_serve", None, 0),
    ],
    "train": [
        SEED,
        VOCAB,
        MIRROR,
        (("--data",), "data", None, None),
        (("--out-dir",), "out_dir", None, None),
        (("--embed-dim",), "embed_dim", None, None),
        (("--n-heads",), "n_heads", None, None),
        (("--n-layers",), "n_layers", None, None),
        (("--ffn-dim",), "ffn_dim", None, None),
        (("--dropout",), "dropout", None, None),
        (("--embedding-mode",), "embedding_mode", ("baseline", "modified"), None),
        (("--epochs",), "epochs", None, None),
        (("--batch-size",), "batch_size", None, None),
        (("--learning-rate",), "learning_rate", None, None),
        (("--clip-norm",), "clip_norm", None, None),
        (("--eval-every",), "eval_every", None, None),
        (("--eval-samples",), "eval_samples", None, None),
        (("--train-fraction",), "train_fraction", None, None),
        (("--split-by-match",), "split_by_match", None, 0),
        (("--max-rally-length",), "max_rally_length", None, None),
        (("--max-match-total-rounds",), "max_match_total_rounds", None, None),
        (("--min-rally-length",), "min_rally_length", None, None),
    ],
    "predict": [
        SEED,
        MIRROR,
        (("--checkpoint",), "checkpoint", None, None),
        (("--data",), "data", None, None),
        (("--out",), "out", None, None),
        (("--samples",), "samples", None, None),
        (("--horizon",), "horizon", None, None),
        (("--open-ended",), "open_ended", None, 0),
    ],
    "score": [
        VOCAB,
        MIRROR,
        (("--predictions",), "predictions", None, None),
        (("--truth",), "truth", None, None),
        (("--out",), "out", None, None),
    ],
    "analyze": [
        VOCAB,
        MIRROR,
        (("--kind",), "kind", None, None),
        (("--data",), "data", None, None),
        (("--predictions",), "predictions", None, None),
        (("--out-dir",), "out_dir", None, None),
    ],
}


def test_each_subcommand_keeps_its_flags_dests_and_choices():
    from rallycast.cli import build_parser

    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert list(commands) == list(COMMAND_FLAGS)
    for name, sub in commands.items():
        flags = sorted(
            (tuple(a.option_strings), a.dest, None if a.choices is None else tuple(a.choices), a.nargs)
            for a in sub._actions
        )
        assert flags == sorted([HELP, CONFIG, *COMMAND_FLAGS[name]]), name


def test_settings_defaults_are_unchanged():
    from rallycast.cli import Settings, build_parser

    args = build_parser().parse_args(["train", "--data", "d.csv", "--out-dir", "run"])
    assert Settings(args).values == {
        "seed": 0, "n_rallies": 32, "mean_length": 7.0, "vocab": None,
        "embed_dim": 16, "n_heads": 2, "n_layers": 1, "ffn_dim": None, "dropout": 0.2,
        "embedding_mode": "modified", "epochs": 300, "batch_size": 16, "learning_rate": 1e-4,
        "clip_norm": 5.0, "eval_every": 0, "eval_samples": 100, "train_fraction": 0.8,
        "split_by_match": False, "max_rally_length": 35, "max_match_total_rounds": 300,
        "min_rally_length": 5, "samples": 6, "horizon": 20, "mirror": "none",
    }


@pytest.mark.parametrize("key", ["ffn_dim", "max_rally_length", "max_match_total_rounds"])
def test_optional_int_flags_accept_none_as_their_config_keys_do(tmp_path, key):
    from rallycast.cli import Settings, build_parser, load_config_file

    cfg = tmp_path / "none.cfg"
    cfg.write_text(f"{key} = none\n", encoding="utf-8")
    assert load_config_file(str(cfg)) == {key: None}
    flag = "--" + key.replace("_", "-")
    args = build_parser().parse_args(["train", "--data", "d.csv", "--out-dir", "run", flag, "none"])
    assert Settings(args)[key] is None


def test_train_on_300_synthesized_rallies_needs_no_match_rounds_limit(tmp_path):
    data = tmp_path / "s.csv"
    assert run_cli("synth", "--n", 300, "--seed", 1, "--out", data).returncode == 0
    # the 300-round default drops every rally of a 300-rally synthesized match
    limited = run_cli("train", "--data", data, "--out-dir", tmp_path / "a", "--epochs", 1, "--embed-dim", 4)
    assert limited.returncode == 2
    assert "no rallies left after filtering" in limited.stderr
    unlimited = run_cli(
        "train", "--data", data, "--out-dir", tmp_path / "b", "--epochs", 1, "--embed-dim", 4,
        "--max-match-total-rounds", "none",
    )
    assert unlimited.returncode == 0, unlimited.stderr
    assert (tmp_path / "b" / "model.ckpt").exists()


def test_flags_override_the_config_file_which_overrides_defaults(tmp_path):
    from rallycast.network import Forecaster, ModelConfig

    cfg = tmp_path / "run.cfg"
    cfg.write_text("embed_dim = 8\ndropout = 0.1\nepochs = 1\n", encoding="utf-8")
    result = run_cli(
        "train", "--data", CORPUS32, "--out-dir", tmp_path / "run", "--config", cfg, "--embed-dim", 4,
    )
    assert result.returncode == 0, result.stderr
    config = Forecaster.load(tmp_path / "run" / "model.ckpt").config
    assert config.embed_dim == 4  # the flag beats the config file
    assert config.dropout_rate == 0.1  # the config file beats the default
    assert config.n_heads == ModelConfig.n_heads  # set by neither
    assert len((tmp_path / "run" / "report.csv").read_text().splitlines()) == 2  # epochs = 1 from the file


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny CLI training run shared by the dependent tests."""
    out_dir = tmp_path_factory.mktemp("run")
    result = run_cli(
        "train", "--data", CORPUS32, "--out-dir", out_dir,
        "--embed-dim", 4, "--epochs", 2, "--batch-size", 8,
        "--eval-every", 1, "--eval-samples", 6, "--train-fraction", 0.75, "--seed", 5,
    )
    assert result.returncode == 0, result.stderr
    return out_dir


def test_train_outputs_exist_and_are_deterministic(trained, tmp_path):
    assert (trained / "model.ckpt").exists()
    assert (trained / "report.csv").exists()
    assert (trained / "val_split.csv").exists()
    rerun = tmp_path / "rerun"
    result = run_cli(
        "train", "--data", CORPUS32, "--out-dir", rerun,
        "--embed-dim", 4, "--epochs", 2, "--batch-size", 8,
        "--eval-every", 1, "--eval-samples", 6, "--train-fraction", 0.75, "--seed", 5,
    )
    assert result.returncode == 0, result.stderr
    for name in ("model.ckpt", "report.csv", "train_split.csv", "val_split.csv"):
        assert (rerun / name).read_bytes() == (trained / name).read_bytes()


def test_embedding_mode_flag_changes_only_that_config_field(tmp_path):
    from rallycast.network import Forecaster

    dirs = {}
    for mode in ("baseline", "modified"):
        dirs[mode] = tmp_path / mode
        result = run_cli(
            "train", "--data", CORPUS32, "--out-dir", dirs[mode],
            "--embed-dim", 4, "--epochs", 1, "--batch-size", 16, "--seed", 5,
            "--embedding-mode", mode,
        )
        assert result.returncode == 0, result.stderr
    base = Forecaster.load(dirs["baseline"] / "model.ckpt")
    mod = Forecaster.load(dirs["modified"] / "model.ckpt")
    diff = {
        k for k in base.config.__dict__
        if getattr(base.config, k) != getattr(mod.config, k)
    }
    assert diff == {"embedding_mode"}


def test_predict_rows_serve_mask_and_determinism(trained, tmp_path, vocab):
    from rallycast.dataset import parse_dataset

    val = trained / "val_split.csv"
    rallies, _, _ = parse_dataset(val, vocab, write_rejects=False)
    expected_rows = 6 * sum(len(r) - 4 for r in rallies)

    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for path in (p1, p2):
        result = run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", val, "--out", path, "--seed", 5)
        assert result.returncode == 0, result.stderr
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().splitlines()
    assert len(lines) - 1 == expected_rows
    header = lines[0].split(",")
    serve_cols = [i for i, h in enumerate(header) if h in ("prob_long_service", "prob_short_service")]
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[2]) >= 5  # only generated rounds present
        for col in serve_cols:
            assert cells[col] == "0.000000"


def _edit_header(edit):
    """Damage that rewrites the checkpoint's JSON header with edit(header), keeping its length field true."""

    def damage(raw):
        start = len(CHECKPOINT_MAGIC) + 8
        end = start + int.from_bytes(raw[len(CHECKPOINT_MAGIC) : start], "little")
        header = json.loads(raw[start:end])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + raw[end:]

    return damage


def _first_player_index_not_an_int(header):
    first = next(iter(header["player_index"]))
    header["player_index"][first] = "one"


# damage: (damaged bytes from the checkpoint's bytes, what the error names)
CHECKPOINT_DAMAGE = {
    "truncated": (lambda raw: raw[:-5], "array 'area_head_b'"),
    "trailing": (lambda raw: raw + b"extra", "5 trailing bytes"),
    "no_magic": (lambda raw: CORPUS32.read_bytes(), "not a checkpoint file"),  # a file without the magic
    # header values the model config, court or vocabulary rejects; each exited 2 without the file name
    "n_heads_not_dividing": (
        _edit_header(lambda h: h["config"].update(n_heads=3)), "embed_dim must be divisible by n_heads",
    ),
    "court_std_zero": (_edit_header(lambda h: h["court"].update(std_x=0.0)), "normalization stds must be positive"),
    "vocab_ids_gapped": (
        _edit_header(lambda h: h["vocab"][1].__setitem__(0, 5)), "type_ids must be contiguous",
    ),
    "player_index_not_an_int": (_edit_header(_first_player_index_not_an_int), "invalid literal for int()"),
}


@pytest.mark.parametrize("damage", list(CHECKPOINT_DAMAGE))
def test_predict_with_a_damaged_checkpoint_exits_1(trained, tmp_path, damage):
    corrupt, message = CHECKPOINT_DAMAGE[damage]
    damaged = tmp_path / "damaged.ckpt"
    damaged.write_bytes(corrupt((trained / "model.ckpt").read_bytes()))
    out = run_cli(
        "predict", "--checkpoint", damaged, "--data", trained / "val_split.csv", "--out", tmp_path / "p.csv",
    )
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    assert f"{damaged}: " in out.stderr
    assert message in out.stderr
    assert not (tmp_path / "p.csv").exists()


def test_predict_open_ended_horizon(trained, tmp_path, vocab):
    from rallycast.dataset import parse_dataset

    out = tmp_path / "open.csv"
    result = run_cli(
        "predict", "--checkpoint", trained / "model.ckpt", "--data", trained / "val_split.csv",
        "--out", out, "--open-ended", "--horizon", 7, "--samples", 2, "--seed", 3,
    )
    assert result.returncode == 0, result.stderr
    rallies, _, _ = parse_dataset(trained / "val_split.csv", vocab, write_rejects=False)
    lines = out.read_text().splitlines()
    assert len(lines) - 1 == 2 * 7 * len(rallies)
    rounds = {int(l.split(",")[2]) for l in lines[1:]}
    assert max(rounds) == 11  # prefix of 4 plus horizon 7


def test_analyze_trend_emits_mean_probability_table(trained, tmp_path):
    pred = tmp_path / "p.csv"
    run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", trained / "val_split.csv", "--out", pred, "--seed", 2)
    out = run_cli("analyze", "--kind", "trend", "--predictions", pred, "--out-dir", tmp_path)
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "analysis_mean_probability_all.csv").read_text().splitlines()
    assert lines[0] == "type,mean_probability"
    total = sum(float(l.split(",")[1]) for l in lines[1:])
    assert abs(total - 1.0) < 1e-9


def test_score_hand_fixture(tmp_path):
    out = run_cli("score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 0, out.stderr
    assert "Score = 1.539721" in out.stdout
    expected = (HAND_SCORED / "expected_output.txt").read_text()
    for line in expected.splitlines():
        assert line in out.stdout


def test_score_perfect_fixture():
    out = run_cli("score", "--predictions", HAND_SCORED / "predictions_perfect.csv", "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 0
    assert "Score = 0.000000" in out.stdout


def test_score_rejects_five_sample_file(tmp_path):
    five = tmp_path / "five.csv"
    lines = (HAND_SCORED / "predictions.csv").read_text().splitlines()
    kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[1] != "6"]
    five.write_text("\n".join(kept) + "\n", encoding="utf-8")
    out = run_cli("score", "--predictions", five, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 2
    assert "expected 6 sample sets" in out.stderr


# damage: (column of the first data row, sample 1 round 5, to overwrite, with what, what the error names)
PREDICTION_DAMAGE = {
    # -0.2 moved onto the true type would lower the score from 1.539721 to 1.371485
    "negative_probability": ({"prob_net_shot": "-0.200000", "prob_smash": "0.700000"}, "prob_net_shot = -0.200000"),
    "nan_landing": ({"landing_x": "nan"}, "landing (nan, 9.000000) is not finite"),
}


@pytest.mark.parametrize("damage", list(PREDICTION_DAMAGE))
def test_damaged_prediction_row_is_rejected_with_its_line(tmp_path, vocab, damage):
    from rallycast.dataset import ParseError
    from rallycast.scoring import import_predictions

    cells, message = PREDICTION_DAMAGE[damage]
    lines = (HAND_SCORED / "predictions.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    for name, value in cells.items():
        row[header.index(name)] = value
    damaged = tmp_path / "damaged.csv"
    damaged.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n", encoding="utf-8")

    with pytest.raises(ParseError, match=f"line 2: {re.escape(message)}"):
        import_predictions(damaged, vocab)
    out = run_cli("score", "--predictions", damaged, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stdout
    assert f"line 2: {message}" in out.stderr
    assert "Traceback" not in out.stderr
    assert "Score" not in out.stdout


# damage: (edit of the data lines, what the error names)
PREDICTION_FILE_DAMAGE = {
    # the first data row twice; this scored as "predictions cover rounds [5, 5, 6]" and exited 2
    "duplicate_row": (lambda rows: rows[:1] + rows, "line 3: rally h0001 sample 1 round 5 repeats line 2"),
    # sample 6 renumbered 7, still six sets; this read as 7 sample sets and exited 2
    "sample_id_gap": (
        lambda rows: [r.replace("h0001,6,", "h0001,7,") for r in rows],
        "line 12: sample id 7 skips sample id 6",
    ),
    "sample_id_far_gap": (
        lambda rows: [r.replace("h0001,6,", "h0001,1000000000000,") for r in rows],
        "line 12: sample id 1000000000000 skips sample id 6",
    ),
    "sample_id_zero": (lambda rows: [r.replace("h0001,1,", "h0001,0,") for r in rows], "line 2: sample id 0 is below 1"),
    # beyond int64, where an array of sample ids cannot hold it
    "sample_id_overflow": (
        lambda rows: [r.replace("h0001,6,", "h0001,100000000000000000000,") for r in rows],
        "line 12: sample id 100000000000000000000 skips sample id 6",
    ),
    "ball_round_overflow": (
        lambda rows: [r.replace("h0001,3,6,", "h0001,3,100000000000000000000,") for r in rows],
        "line 7: ball round 100000000000000000000 does not fit in 64 bits",
    ),
}


@pytest.mark.parametrize("damage", list(PREDICTION_FILE_DAMAGE))
def test_damaged_prediction_file_is_rejected_with_its_line(tmp_path, vocab, damage):
    from rallycast.dataset import ParseError
    from rallycast.scoring import import_predictions

    edit, message = PREDICTION_FILE_DAMAGE[damage]
    lines = (HAND_SCORED / "predictions.csv").read_text().splitlines()
    damaged = tmp_path / "damaged.csv"
    damaged.write_text("\n".join([lines[0], *edit(lines[1:])]) + "\n", encoding="utf-8")

    with pytest.raises(ParseError, match=re.escape(message)):
        import_predictions(damaged, vocab)
    out = run_cli("score", "--predictions", damaged, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stdout
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    assert "Score" not in out.stdout


def test_damaged_row_past_the_first_parse_block_names_its_line(tmp_path, vocab):
    """Blank lines in the first block and just before the damaged row still count."""
    from rallycast.dataset import ParseError
    from rallycast.scoring import PARSE_BLOCK_LINES, import_predictions

    lines = (HAND_SCORED / "predictions.csv").read_text().splitlines()
    rows = [row.replace("h0001,", f"r{i:05d},") for i in range(PARSE_BLOCK_LINES // 12 + 2) for row in lines[1:]]
    text = [lines[0], rows[0], "", "  ", *rows[1:PARSE_BLOCK_LINES], "", ""]
    damaged_line = len(text) + 1
    bad = rows[PARSE_BLOCK_LINES].split(",")
    bad[7] = "-0.200000"
    text += [",".join(bad), *rows[PARSE_BLOCK_LINES + 1 :]]
    assert PARSE_BLOCK_LINES + 1 < damaged_line <= 2 * PARSE_BLOCK_LINES
    damaged = tmp_path / "damaged.csv"
    damaged.write_text("\n".join(text) + "\n", encoding="utf-8")

    with pytest.raises(ParseError, match=f"^line {damaged_line}: prob_net_shot = -0.200000 is not in \\[0, 1\\]$"):
        import_predictions(damaged, vocab)


def test_score_deterministic_report(tmp_path):
    reports = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        out = run_cli("score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", HAND_SCORED / "truth.csv", "--out", path)
        assert out.returncode == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_analyze_shot_by_round(tmp_path):
    out = run_cli("analyze", "--kind", "shot-by-round", "--data", CORPUS32, "--out-dir", tmp_path)
    assert out.returncode == 0, out.stderr
    table = (tmp_path / "analysis_shot_distribution_ball_round.csv").read_text().splitlines()
    round1 = [l for l in table[1:] if l.startswith("1,")]
    assert round1
    assert all(("service" in l) for l in round1)


def test_analyze_zones_has_ten_rows(trained, tmp_path):
    pred = tmp_path / "p.csv"
    run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", trained / "val_split.csv", "--out", pred, "--seed", 1)
    out = run_cli("analyze", "--kind", "zones", "--predictions", pred, "--out-dir", tmp_path)
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "analysis_zone_histogram_landing_zone.csv").read_text().splitlines()
    assert len(lines) == 11  # header + zones 1..10


def test_analyze_vote_requires_predictions(tmp_path):
    out = run_cli("analyze", "--kind", "vote", "--out-dir", tmp_path)
    assert out.returncode == 2
    assert "--predictions" in out.stderr


def test_predict_then_score_matches_trainer_eval(trained, tmp_path, vocab):
    """The file route reproduces the trainer's logged best validation score."""
    from rallycast.dataset import parse_dataset
    from rallycast.scoring import import_predictions, score_sample_sets

    report_lines = (trained / "report.csv").read_text().splitlines()[1:]
    val_scores = [float(l.split(",")[4]) for l in report_lines if l.split(",")[4]]
    best_logged = min(val_scores)

    pred = tmp_path / "preds.csv"
    result = run_cli(
        "predict", "--checkpoint", trained / "model.ckpt", "--data", trained / "val_split.csv",
        "--out", pred, "--samples", 6, "--seed", 5,
    )
    assert result.returncode == 0, result.stderr

    rallies, _, _ = parse_dataset(trained / "val_split.csv", vocab, write_rejects=False)
    imported = import_predictions(pred, vocab)
    file_route = score_sample_sets(imported.sample_sets(rallies), rallies, protocol="best_of_k")
    assert abs(file_route.score - best_logged) < 1e-9
