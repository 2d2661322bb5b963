import json
import os
import re
import struct
import subprocess
import sys

import pytest

from rallycast.dataset import TAU, write_dataset
from rallycast.network import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint

from conftest import FIXTURES, make_rally, tiny_model

CORPUS32 = FIXTURES / "corpus32.csv"
HAND_SCORED = FIXTURES / "hand_scored"


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rallycast", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
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


def test_synth_reproduces_the_bundled_corpus32_fixture(tmp_path):
    """README states the command that made fixtures/corpus32.csv; it pins the synthesizer's random stream."""
    out = run_cli("synth", "--n", 32, "--mean-length", 7, "--seed", 20230709, "--out", tmp_path / "c.csv")
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "c.csv").read_bytes() == CORPUS32.read_bytes()


def test_synth_output_validates_cleanly(tmp_path):
    path = tmp_path / "d.csv"
    assert run_cli("synth", "--n", 15, "--seed", 3, "--out", path).returncode == 0
    out = run_cli("validate", "--data", path, "--strict-serve")
    assert out.returncode == 0, out.stdout
    assert "0 violations" in out.stdout


# damage to the second line of corpus32's first rally (its round 2): (edit of the line, rows the parse rejects)
ROW_DAMAGE = {
    "row_removed": (lambda row: None, 5),  # the gap rejects the rally's other 5 rows
    "nan_coordinate": (lambda row: row.replace(",2.847937887944315,", ",nan,"), 6),
    "unknown_type": (lambda row: row.replace(",net shot,", ",banana,"), 6),
    "player_c": (lambda row: row.replace(",B,", ",C,"), 6),
}


@pytest.mark.parametrize("damage", list(ROW_DAMAGE))
def test_validate_counts_the_rows_the_parse_rejects_and_exits_1(tmp_path, damage):
    edit, rejected = ROW_DAMAGE[damage]
    lines = CORPUS32.read_text(encoding="utf-8").splitlines()
    assert lines[2].startswith("alice--bruno,r0000,2,B,net shot,2.847937887944315,")
    lines[2] = edit(lines[2])
    data = tmp_path / "damaged.csv"
    data.write_text("\n".join(line for line in lines if line is not None) + "\n", encoding="utf-8")
    out = run_cli("validate", "--data", data)
    assert out.returncode == 1, out.stderr
    report = data.with_name("damaged.csv.rejects.csv")
    assert report.exists()
    assert out.stdout == f"note: {rejected} rows rejected, see {report}\n31 rallies checked, {rejected} violations\n"


@pytest.mark.parametrize("command", [
    lambda tmp: ["synth", "--n", 5, "--out", tmp / "x.csv"],
    # train accepted it and wrote a checkpoint that predict then failed on in the sampler
    lambda tmp: ["train", "--data", CORPUS32, "--out-dir", tmp / "run", "--epochs", 1, "--embed-dim", 4],
], ids=["synth", "train"])
def test_a_vocabulary_without_a_rally_type_exits_1_naming_it_and_writes_no_file(tmp_path, command):
    """synth exited 2 with the vocabulary's bare message, naming no file."""
    vocab = tmp_path / "serves.csv"
    vocab.write_text("type_id,name,is_serve\n0,long service,1\n1,short service,1\n", encoding="utf-8")
    out = run_cli(*command(tmp_path), "--vocab", vocab)
    assert out.returncode == 1, out.stderr
    assert f"error: {vocab}: vocabulary needs at least one rally (non-service) type" in out.stderr
    assert "Traceback" not in out.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["serves.csv"]


def test_missing_vocab_file_exits_2(tmp_path):
    out = run_cli("synth", "--n", 5, "--out", tmp_path / "x.csv", "--vocab", tmp_path / "missing_vocab.csv")
    assert out.returncode == 2
    assert "missing_vocab.csv" in out.stderr


# (command line with the missing file, what the error calls that file)
MISSING_FILE = {
    "validate_data": (lambda missing, tmp: ["validate", "--data", missing], "dataset"),
    "train_data": (lambda missing, tmp: ["train", "--data", missing, "--out-dir", tmp / "run"], "dataset"),
    "checkpoint": (
        lambda missing, tmp: ["predict", "--checkpoint", missing, "--data", CORPUS32, "--out", tmp / "p.csv"],
        "checkpoint",
    ),
    "predict_data": (
        lambda missing, tmp: ["predict", "--checkpoint", tmp / "m.ckpt", "--data", missing, "--out", tmp / "p.csv"],
        "dataset",
    ),
    "score_truth": (
        lambda missing, tmp: ["score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", missing], "dataset",
    ),
    "analyze_data": (
        lambda missing, tmp: ["analyze", "--kind", "shot-by-round", "--data", missing, "--out-dir", tmp], "dataset",
    ),
    "vocabulary": (lambda missing, tmp: ["validate", "--data", CORPUS32, "--vocab", missing], "vocabulary"),
    "score_predictions": (
        lambda missing, tmp: ["score", "--predictions", missing, "--truth", HAND_SCORED / "truth.csv"], "prediction",
    ),
    "analyze_predictions": (
        lambda missing, tmp: ["analyze", "--kind", "vote", "--predictions", missing, "--out-dir", tmp], "prediction",
    ),
}


@pytest.mark.parametrize("case", list(MISSING_FILE))
def test_a_missing_input_file_exits_2_naming_its_kind_and_path(tmp_path, vocab, case):
    command, kind = MISSING_FILE[case]
    save_checkpoint(tmp_path / "m.ckpt", tiny_model([make_rally([0, 2, 3, 4, 5])], vocab))
    missing = tmp_path / "missing.csv"
    out = run_cli(*command(missing, tmp_path))
    assert out.returncode == 2, out.stderr
    assert f"error: {kind} file not found: {missing}" in out.stderr
    assert "Traceback" not in out.stderr


# a command line that reads the given path as an input, given a directory for its outputs
INPUT_COMMANDS = {
    "validate": lambda path, tmp: ["validate", "--data", path],
    "score": lambda path, tmp: ["score", "--predictions", path, "--truth", HAND_SCORED / "truth.csv"],
    "predict": lambda path, tmp: ["predict", "--checkpoint", path, "--data", CORPUS32, "--out", tmp / "p.csv"],
}


@pytest.mark.parametrize("command", list(INPUT_COMMANDS))
def test_an_input_path_that_is_a_directory_exits_2_naming_it(tmp_path, command):
    """An OSError other than FileNotFoundError left a traceback (IsADirectoryError) and exit 1."""
    folder = tmp_path / "folder"
    folder.mkdir()
    out = run_cli(*INPUT_COMMANDS[command](folder, tmp_path))
    assert out.returncode == 2, out.stderr
    assert str(folder) in out.stderr and "Traceback" not in out.stderr


# a command line that writes the given path
OUTPUT_COMMANDS = {
    "synth": lambda path: ["synth", "--n", 4, "--out", path],
    "score": lambda path: [
        "score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", HAND_SCORED / "truth.csv", "--out", path
    ],
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
@pytest.mark.parametrize("make", ["directory", "fifo"])
def test_an_output_path_that_is_not_a_regular_file_exits_2_and_is_left_as_it_was(tmp_path, command, make):
    """synth --out <directory> left an IsADirectoryError traceback; a rename would have replaced a FIFO."""
    path = tmp_path / "out.csv"
    if make == "directory":
        path.mkdir()
    else:
        os.mkfifo(path)
    out = run_cli(*OUTPUT_COMMANDS[command](path), timeout=60)  # a write that opened the FIFO would wait for a reader
    assert out.returncode == 2, out.stderr
    assert f"error: output path exists and is not a regular file: {path}" in out.stderr
    assert "Traceback" not in out.stderr
    assert path.is_dir() if make == "directory" else path.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("command, blocked", [
    (lambda tmp: ["train", "--data", CORPUS32, "--out-dir", tmp / "run", "--epochs", 1, "--embed-dim", 4], "report.csv"),
    (
        lambda tmp: ["analyze", "--kind", "vote", "--predictions", HAND_SCORED / "predictions.csv", "--out-dir", tmp / "run"],
        "analysis_vote_distribution.csv",
    ),
], ids=["train", "analyze"])
def test_a_command_refuses_an_output_path_before_its_work(tmp_path, command, blocked):
    """train trained and wrote model.ckpt, and analyze wrote its first table, before each exited 2."""
    (tmp_path / "run" / blocked).mkdir(parents=True)
    out = run_cli(*command(tmp_path))
    assert out.returncode == 2, out.stderr
    assert f"error: output path exists and is not a regular file: {tmp_path / 'run' / blocked}" in out.stderr
    assert out.stdout == ""
    assert [p.name for p in (tmp_path / "run").iterdir()] == [blocked]


def test_score_refuses_its_output_path_before_it_scores(tmp_path):
    """score printed the whole report, then exited 2 at the write."""
    missing = tmp_path / "missing"
    out = run_cli(*OUTPUT_COMMANDS["score"](missing / "s.csv"))
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: output directory not found: {missing}\n"
    assert out.stdout == ""


def test_predict_refuses_its_output_path_before_it_reads_the_checkpoint(tmp_path):
    """predict read the checkpoint and the data, and sampled every set, before it refused --out."""
    missing = tmp_path / "missing"
    out = run_cli("predict", "--checkpoint", tmp_path / "none.ckpt", "--data", CORPUS32, "--out", missing / "p.csv")
    assert out.returncode == 2, out.stderr
    assert out.stderr == f"error: output directory not found: {missing}\n"


@pytest.mark.skipif(not os.path.islink("/dev/stdout"), reason="needs /dev/stdout as a symlink")
def test_out_dev_stdout_is_refused_and_left_a_symlink():
    """A write renames over its path, so --out /dev/stdout would replace the symlink: it is refused instead."""
    link = os.readlink("/dev/stdout")
    out = run_cli("synth", "--n", 4, "--out", "/dev/stdout")  # stdout is a pipe here
    assert out.returncode == 2, out.stderr
    assert "error: output path exists and is not a regular file: /dev/stdout" in out.stderr
    assert out.stdout == "" and os.readlink("/dev/stdout") == link


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


def test_dataset_byte_that_is_not_utf8_past_the_first_parse_block_exits_1_naming_its_line(tmp_path, vocab):
    from rallycast.court import PARSE_BLOCK_LINES
    from rallycast.dataset import SynthConfig, synthesize_dataset, write_dataset

    data = tmp_path / "damaged.csv"
    write_dataset(synthesize_dataset(SynthConfig(n_rallies=700, seed=3, vocab=vocab)), vocab, data)
    lines = data.read_bytes().splitlines(keepends=True)
    bad = PARSE_BLOCK_LINES + 40
    assert len(lines) > bad
    lines[bad - 1] = lines[bad - 1].replace(b",", b"\xff,", 1)
    data.write_bytes(b"".join(lines))
    out = run_cli("validate", "--data", data)
    assert out.returncode == 1, out.stderr
    assert f"{data}: line {bad}: byte 0xff is not UTF-8" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text, message", [
    # a missing column reached the CLI as a bare KeyError and exited 2
    (
        "type_id,name\n0,long service\n1,net shot\n",
        "line 1: vocabulary header does not match 'type_id,name,is_serve': 'type_id,name'",
    ),
    # a short row read its missing cell as None and died with an AttributeError traceback
    ("type_id,name,is_serve\n0,long service\n1,net shot,false\n", "line 2: expected 3 columns, found 2"),
    # these three exited 2 with the vocabulary's bare message, naming no file
    ("type_id,name,is_serve\n0,long service,true\n2,net shot,false\n", "type_ids must be contiguous 0..V-1 in order"),
    ("type_id,name,is_serve\n0,long service,true\n1,Smash,false\n2,smash,false\n", "shot type names must be unique"),
    ("type_id,name,is_serve\n0,net shot,false\n1,smash,false\n", "vocabulary needs at least one service type"),
], ids=["missing_column", "short_row", "type_id_gap", "name_repeated_in_another_case", "no_service_type"])
def test_vocabulary_with_a_missing_column_or_cell_exits_1_naming_it(tmp_path, text, message):
    vocab = tmp_path / "vocab.csv"
    vocab.write_text(text, encoding="utf-8")
    out = run_cli("validate", "--data", CORPUS32, "--vocab", vocab)
    assert out.returncode == 1, out.stderr
    assert f"{vocab}: {message}" in out.stderr
    assert "Traceback" not in out.stderr


def _vocabulary_csv(vocab):
    return "type_id,name,is_serve\n" + "".join(f"{e.type_id},{e.name},{str(e.is_serve).lower()}\n" for e in vocab.entries)


# damage: (edit of the default vocabulary file's bytes, what the error names after the file)
VOCABULARY_DAMAGE = {
    # a CSV writer quotes such a name; it was read whole, and synth wrote a dataset that validate refused
    "name_with_a_comma": (
        lambda text: text.replace(b"7,drop,false", b'7,"drop, slice",false'), "line 9: expected 3 columns, found 4",
    ),
    # an extra cell was dropped without a word, and "maybe" read as false
    "extra_cell": (lambda text: text.replace(b"4,drive,false", b"4,drive,false,x"), "line 6: expected 3 columns, found 4"),
    "is_serve_maybe": (lambda text: text.replace(b"3,smash,false", b"3,smash,maybe"), "line 5: not a boolean: 'maybe'"),
    "type_id_not_an_integer": (
        lambda text: text.replace(b"2,net shot", b"x,net shot"), "line 4: invalid literal for int() with base 10: 'x'",
    ),
    "type_id_beyond_int64": (
        lambda text: text.replace(b"9,lob", str(2**64 + 9).encode() + b",lob"),
        f"line 11: type_id {2**64 + 9} does not fit in 64 bits",
    ),
    "byte_not_utf8": (lambda text: text.replace(b"6,clear", b"6,cl\xffear"), "line 8: byte 0xff is not UTF-8"),
    # a mark is skipped only before the header
    "byte_order_mark_inside": (
        lambda text: text.replace(b"5,defensive", b"\xef\xbb\xbf5,defensive"),
        "line 7: invalid literal for int() with base 10: '\\ufeff5'",
    ),
    "byte_order_mark_twice": (
        lambda text: b"\xef\xbb\xbf\xef\xbb\xbf" + text,
        "line 1: vocabulary header does not match 'type_id,name,is_serve': '\\ufefftype_id,name,is_serve'",
    ),
    "header_reordered": (
        lambda text: text.replace(b"type_id,name,", b"name,type_id,"),
        "line 1: vocabulary header does not match 'type_id,name,is_serve': 'name,type_id,is_serve'",
    ),
}


@pytest.mark.parametrize("command", ["validate", "synth"])
@pytest.mark.parametrize("damage", list(VOCABULARY_DAMAGE))
def test_a_damaged_vocabulary_exits_1_naming_its_file_and_line(tmp_path, vocab, damage, command):
    edit, message = VOCABULARY_DAMAGE[damage]
    path, out_file = tmp_path / "vocab.csv", tmp_path / "synth.csv"
    text = _vocabulary_csv(vocab).encode("utf-8")
    assert edit(text) != text
    path.write_bytes(edit(text))
    if command == "validate":  # a copy, so that a vocabulary read wrongly leaves no reject report in the fixtures
        data = tmp_path / "corpus32.csv"
        data.write_bytes(CORPUS32.read_bytes())
        out = run_cli("validate", "--data", data, "--vocab", path)
    else:
        out = run_cli("synth", "--n", 5, "--vocab", path, "--out", out_file)
    assert out.returncode == 1, out.stderr
    assert f"error: {path}: {message}" in out.stderr
    assert "Traceback" not in out.stderr
    assert not out_file.exists()


# (the file's text, the command line that reads it from `path`)
BYTE_ORDER_MARK_CASES = {
    "dataset": (lambda vocab: CORPUS32.read_text(encoding="utf-8"), lambda path: ["validate", "--data", path]),
    "predictions": (
        lambda vocab: (HAND_SCORED / "predictions.csv").read_text(encoding="utf-8"),
        lambda path: ["score", "--predictions", path, "--truth", HAND_SCORED / "truth.csv"],
    ),
    "vocabulary": (_vocabulary_csv, lambda path: ["validate", "--data", CORPUS32, "--vocab", path]),
}


@pytest.mark.parametrize("case", list(BYTE_ORDER_MARK_CASES))
def test_a_file_with_a_utf8_byte_order_mark_reads_as_without_it(tmp_path, vocab, case):
    """Spreadsheet tools often start a UTF-8 file with EF BB BF; the header check refused it."""
    text, command = BYTE_ORDER_MARK_CASES[case]
    path = tmp_path / "input.csv"
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + text(vocab).encode("utf-8"))
        runs.append(run_cli(*command(path)))
    plain, marked = runs
    assert plain.returncode == 0, plain.stderr
    assert (marked.returncode, marked.stdout, marked.stderr) == (plain.returncode, plain.stdout, plain.stderr)


def test_prediction_file_with_a_byte_that_is_not_utf8_exits_1_naming_its_line(tmp_path):
    lines = (HAND_SCORED / "predictions.csv").read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b",", b"\xff,", 1)  # in the rally id of line 6
    damaged = tmp_path / "damaged.csv"
    damaged.write_bytes(b"".join(lines))
    out = run_cli("score", "--predictions", damaged, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stderr
    assert f"{damaged}: line 6: byte 0xff is not UTF-8" in out.stderr
    assert "Traceback" not in out.stderr and "Score" not in out.stdout


@pytest.mark.parametrize("command", [
    ["score", "--truth", HAND_SCORED / "truth.csv", "--out"],
    ["analyze", "--kind", "vote", "--out-dir"],
])
def test_a_prediction_file_with_the_wrong_header_exits_1_naming_the_file(tmp_path, vocab, command):
    """This exited 2 with "prediction header does not match the vocabulary", naming no file."""
    from rallycast.scoring import prediction_header

    damaged = tmp_path / "damaged.csv"
    damaged.write_text("rally_id,sample_id\nh0001,1\n", encoding="utf-8")
    out = run_cli(*command, tmp_path / "out", "--predictions", damaged)
    assert out.returncode == 1, out.stderr
    expected = prediction_header(vocab)
    assert f"{damaged}: line 1: prediction header does not match {expected!r}: 'rally_id,sample_id'" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", [lambda tmp: ["validate"], lambda tmp: ["train", "--out-dir", tmp / "run"]], ids=["validate", "train"],
)
def test_a_dataset_with_the_wrong_header_exits_1_naming_its_line(tmp_path, command):
    """The message was "unexpected header in <path>: ...", naming no line."""
    from rallycast.dataset import CSV_HEADER

    damaged = tmp_path / "damaged.csv"
    lines = CORPUS32.read_text(encoding="utf-8").splitlines()
    damaged.write_text("\n".join(["match_id,rally_id,round", *lines[1:]]) + "\n", encoding="utf-8")
    out = run_cli(*command(tmp_path), "--data", damaged)
    assert out.returncode == 1, out.stderr
    assert f"{damaged}: line 1: dataset header does not match {CSV_HEADER!r}: 'match_id,rally_id,round'" in out.stderr
    assert "Traceback" not in out.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["damaged.csv"]


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


@pytest.mark.parametrize("flags, message", [
    # trained a whole epoch, then exited 2 with "k must be at least 1"
    (["--eval-every", 1, "--eval-samples", 0], "eval_samples must be at least 1, got 0"),
    # these two silently turned evaluation or clipping off
    (["--eval-every", -1], "eval_every must be nonnegative, got -1"),
    (["--clip-norm", -1.0], "clip_norm must be nonnegative, got -1.0"),
    (["--n-heads", 0], "n_heads must be at least 1, got 0"),  # a ZeroDivisionError traceback
    # "cannot reshape array of size 0" after a numpy RuntimeWarning
    (["--embed-dim", 0], "embed_dim must be at least 1, got 0"),
    (["--ffn-dim", 0], "ffn_dim must be at least 1, got 0"),
    (["--ffn-dim", -3], "ffn_dim must be at least 1, got -3"),  # "negative dimensions are not allowed"
    (["--n-heads", -2], "n_heads must be at least 1, got -2"),  # refused only at the first forward
    # these four made the output directory first
    (["--train-fraction", 1.5], "train_fraction must be in (0, 1)"),
    (["--train-fraction", 0], "train_fraction must be in (0, 1)"),
    (["--min-rally-length", 2], "min_rally_length must be at least 5"),
    (["--max-rally-length", -1], "max_rally_length must be at least min_rally_length 5, got -1"),  # dropped every rally
    (["--max-match-total-rounds", 4], "max_match_total_rounds must be at least min_rally_length 5, got 4"),
    # trained with clipping silently off: no norm exceeds nan
    (["--clip-norm", "nan"], "clip_norm must be finite, got nan"),
    (["--clip-norm", "inf"], "clip_norm must be finite, got inf"),
    # trained, then exited 1 with "embedding_lookup produced non-finite values"
    (["--learning-rate", "nan"], "learning_rate must be finite, got nan"),
    (["--learning-rate", "inf"], "learning_rate must be finite, got inf"),
])
def test_a_training_setting_out_of_range_exits_2_before_training(tmp_path, flags, message):
    out = run_cli("train", "--data", CORPUS32, "--out-dir", tmp_path / "run", "--embed-dim", 4, "--epochs", 1, *flags)
    assert out.returncode == 2, out.stderr
    assert f"error: {message}" in out.stderr
    assert "epoch" not in out.stdout
    assert not (tmp_path / "run").exists()  # refused before the output directory is made


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_mean_length_that_is_not_finite_exits_2_and_writes_no_file(tmp_path, value):
    # numpy refused it mid-synthesis: "p <= 0, p > 1 or p contains NaNs"
    out = run_cli("synth", "--n", 5, "--mean-length", value, "--out", tmp_path / "x.csv")
    assert out.returncode == 2, out.stderr
    assert f"error: mean_length must be finite and at least 5, got {value}" in out.stderr
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


def test_every_config_field_is_a_setting_or_derived_from_the_data():
    """A field that no setting reaches is a value nothing sets: give it a SETTINGS key or delete it."""
    from dataclasses import fields

    from rallycast.cli import SETTINGS
    from rallycast.dataset import FilterPolicy, SynthConfig
    from rallycast.network import ModelConfig
    from rallycast.training import TrainConfig

    derived = {"vocab_size", "n_players"}  # train() sets these from the vocabulary and the training set
    setting_of = {"dropout_rate": "dropout"}
    for config in (ModelConfig, TrainConfig, FilterPolicy, SynthConfig):
        for f in fields(config):
            assert f.name in derived or setting_of.get(f.name, f.name) in SETTINGS, f"{config.__name__}.{f.name}"


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
    from rallycast.network import ModelConfig

    cfg = tmp_path / "run.cfg"
    cfg.write_text("embed_dim = 8\ndropout = 0.1\nepochs = 1\n", encoding="utf-8")
    result = run_cli(
        "train", "--data", CORPUS32, "--out-dir", tmp_path / "run", "--config", cfg, "--embed-dim", 4,
    )
    assert result.returncode == 0, result.stderr
    config = load_checkpoint(tmp_path / "run" / "model.ckpt").config
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
    dirs = {}
    for mode in ("baseline", "modified"):
        dirs[mode] = tmp_path / mode
        result = run_cli(
            "train", "--data", CORPUS32, "--out-dir", dirs[mode],
            "--embed-dim", 4, "--epochs", 1, "--batch-size", 16, "--seed", 5,
            "--embedding-mode", mode,
        )
        assert result.returncode == 0, result.stderr
    base = load_checkpoint(dirs["baseline"] / "model.ckpt")
    mod = load_checkpoint(dirs["modified"] / "model.ckpt")
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


def _first_player_index_is(value):
    def edit(header):
        header["player_index"][next(iter(header["player_index"]))] = value

    return edit


def _earlier_header_format(raw, tau=TAU):
    """The checkpoint with tau and the court normalization back in its header, as earlier versions wrote it."""
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(raw[len(CHECKPOINT_MAGIC) : start], "little")
    header = json.loads(raw[start:end])
    header["config"]["tau"] = tau
    half_width, half_length = header["court"]["width_m"] / 2, header["court"]["length_m"] / 2
    header["court"].update(mean_x=half_width, mean_y=half_length, std_x=half_width, std_y=half_length)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + raw[end:]


# damage: (damaged bytes from the checkpoint's bytes, what the error names)
CHECKPOINT_DAMAGE = {
    "truncated": (lambda raw: raw[:-5], "array 'area_head_b'"),
    "trailing": (lambda raw: raw + b"extra", "5 trailing bytes"),
    "no_magic": (lambda raw: CORPUS32.read_bytes(), "not a checkpoint file"),  # a file without the magic
    # header values the model config, court or vocabulary rejects; each exited 2 without the file name
    "n_heads_not_dividing": (
        _edit_header(lambda h: h["config"].update(n_heads=3)), "embed_dim must be divisible by n_heads",
    ),
    # a ZeroDivisionError traceback
    "n_heads_zero": (_edit_header(lambda h: h["config"].update(n_heads=0)), "n_heads must be at least 1, got 0"),
    # a normalization earlier headers carried, now fixed at the court's center
    "court_std_zero": (_edit_header(lambda h: h["court"].update(std_x=0.0)), "header std_x is 0.0, but std_x is fixed at 3.05"),
    # json reads NaN; the court loaded, and predict failed later naming neither the file nor the field
    "court_width_nan": (
        _edit_header(lambda h: h["court"].update(width_m=float("nan"))), "header width_m is nan, but width_m is fixed at 6.1",
    ),
    # the court is fixed: a header with another size loaded it, and every landing normalized by it
    "court_width_6": (
        _edit_header(lambda h: h["court"].update(width_m=6.0)), "header width_m is 6.0, but width_m is fixed at 6.1",
    ),
    "court_key_unknown": (
        _edit_header(lambda h: h["court"].update(depth_m=1.0)), "got an unexpected keyword argument 'depth_m'",
    ),
    # it loaded, and predict failed with "linear produced non-finite values", naming no file
    "array_nan": (lambda raw: raw[:-8] + struct.pack("<d", float("nan")), "array 'area_head_b' holds a non-finite value"),
    "vocab_ids_gapped": (
        _edit_header(lambda h: h["vocab"][1].__setitem__(0, 5)), "type_ids must be contiguous",
    ),
    "player_index_not_an_int": (_edit_header(_first_player_index_is("one")), "player_index must map names to ids in 1.."),
    # a vocab longer than the type table: predict wrote 16 header columns over rows of 15 cells
    "vocab_one_type_more": (
        _edit_header(lambda h: h["vocab"].append([10, "extra", False])),
        "header vocab has 11 types, but config vocab_size is 10",
    ),
    # exited 2 with "player id outside the embedding table", naming no file
    "player_id_past_the_table": (_edit_header(_first_player_index_is(99)), "player_index must map names to ids in 1.."),
    "player_id_zero": (_edit_header(_first_player_index_is(0)), "player_index must map names to ids in 1.."),
    # these two were AttributeError tracebacks
    "player_index_a_list": (
        _edit_header(lambda h: h.update(player_index=[])), "player_index must map names to ids in 1..",
    ),
    "vocab_name_not_a_string": (
        _edit_header(lambda h: h["vocab"][2].__setitem__(1, 5)), "header vocab name 5 is not a string",
    ),
    # int(1.9) loaded as type id 1, and bool("no") made net shot a service type that the sampler masked out
    "vocab_id_float": (
        _edit_header(lambda h: h["vocab"][1].__setitem__(0, 1.9)),
        "header vocab[1] [1.9, 'short service', True] needs an int id and a true/false flag",
    ),
    "vocab_serve_flag_a_string": (
        _edit_header(lambda h: h["vocab"][2].__setitem__(2, "no")),
        "header vocab[2] [2, 'net shot', 'no'] needs an int id and a true/false flag",
    ),
    # the run's own sizes as a float or bool passed the config's checks; a float ended in a TypeError traceback
    "embed_dim_float": (_edit_header(lambda h: h["config"].update(embed_dim=4.0)), "embed_dim must be an int, got 4.0"),
    "n_heads_float": (_edit_header(lambda h: h["config"].update(n_heads=2.0)), "n_heads must be an int, got 2.0"),
    "n_layers_bool": (_edit_header(lambda h: h["config"].update(n_layers=True)), "n_layers must be an int, got True"),
    # (10.0, 4.0) == (10, 4), so the shape passed the check against the config's parameter shapes
    "array_shape_float": (
        _edit_header(lambda h: h["arrays"][0].update(shape=[10.0, 4.0])),
        "header arrays[0].shape [10.0, 4.0] holds a size that is not an int",
    ),
    # it loaded, and predict failed in the sampler with "vocabulary has no rally types", naming no file
    "vocab_services_only": (
        _edit_header(lambda h: [row.__setitem__(2, True) for row in h["vocab"]]),
        "vocabulary needs at least one rally (non-service) type",
    ),
    # an earlier header's tau other than the fixed one; it loaded and predicted rounds that score rejected
    "tau_5": (lambda raw: _earlier_header_format(raw, tau=5), "header tau is 5, but tau is fixed at 4"),
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


def test_a_checkpoint_in_the_earlier_header_format_loads_and_predicts_the_same_bytes(trained, tmp_path):
    current = trained / "model.ckpt"
    earlier = tmp_path / "earlier.ckpt"
    earlier.write_bytes(_earlier_header_format(current.read_bytes()))
    want, got = load_checkpoint(current), load_checkpoint(earlier)
    assert (got.config, got.court, got.vocab, got.player_index) == (want.config, want.court, want.vocab, want.player_index)
    for name in want.params:
        assert got.params[name].data.tobytes() == want.params[name].data.tobytes()
    outputs = []
    for checkpoint in (current, earlier):
        out = tmp_path / f"{checkpoint.stem}.csv"
        result = run_cli("predict", "--checkpoint", checkpoint, "--data", trained / "val_split.csv", "--out", out, "--seed", 3)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["synth", "train", "predict"])
def test_a_negative_seed_exits_2_naming_the_setting(tmp_path, vocab, command):
    """Each printed numpy's "expected non-negative integer", and train left its --out-dir behind."""
    rally = make_rally([0, 2, 3, 4, 5])
    checkpoint = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint, tiny_model([rally], vocab))
    data = tmp_path / "d.csv"
    write_dataset([rally], vocab, data)
    out_path = tmp_path / "out"
    args = {
        "synth": ["synth", "--n", 5, "--out", out_path],
        "train": ["train", "--data", CORPUS32, "--out-dir", out_path, "--epochs", 1, "--embed-dim", 4],
        "predict": ["predict", "--checkpoint", checkpoint, "--data", data, "--out", out_path],
    }[command]
    out = run_cli(*args, "--seed", -1)
    assert out.returncode == 2, out.stderr
    assert "error: seed must be nonnegative, got -1" in out.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("flags, message", [
    (["--samples", 0], "need at least one sample set, got 0"),  # it exited 0 and wrote a file that held only the header
    (["--open-ended", "--horizon", 0], "horizon must be at least 1"),
], ids=["no_sample_sets", "horizon_0"])
def test_predict_refuses_a_sampling_setting_and_writes_no_file(trained, tmp_path, flags, message):
    pred = tmp_path / "p.csv"
    out = run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", trained / "val_split.csv", "--out", pred,
                  *flags)
    assert out.returncode == 2, out.stderr
    assert f"error: {message}" in out.stderr
    assert not pred.exists()


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


# entry point: (the short rally's strokes, the purpose and need its refusal names)
SHORT_RALLY_REFUSALS = {
    "train": (TAU, "train on", TAU + 1),
    "train-validation": (TAU, "evaluate", TAU + 1),
    "sample": (TAU, "predict", TAU + 1),
    "sample-horizon-3": (TAU - 1, "predict", TAU),
    "predict": (TAU, "predict", TAU + 1),
    "predict-open-ended": (TAU - 1, "predict", TAU),
    "score": (TAU, "score", TAU + 1),
    "score_sample_sets": (TAU, "score", TAU + 1),
}


@pytest.mark.parametrize("entry", list(SHORT_RALLY_REFUSALS))
def test_every_short_rally_refusal_is_the_one_rule(trained, tmp_path, vocab, entry):
    """train, the sampler, predict, score and the metric refuse a short rally in dataset.require_strokes' one wording.

    predict --open-ended exited 2 (usage) on a ValueError from the sampler, and each library entry point had its own
    wording. score dropped the truth's short rally and scored the rest, and the metric scored it as an empty suffix.
    """
    from rallycast.dataset import parse_dataset
    from rallycast.scoring import generate_sample_sets, score_sample_sets
    from rallycast.training import TrainConfig, train

    n_strokes, purpose, need = SHORT_RALLY_REFUSALS[entry]
    rallies, _, _ = parse_dataset(trained / "val_split.csv", vocab, write_rejects=False)
    rallies.append(make_rally([0] + [2] * (n_strokes - 1), rally_id="short"))
    message = f"rallies too short to {purpose} (need {need} strokes): ['short']"
    if entry == "score":  # predictions of every rally the truth can score
        truth, pred, report = tmp_path / "truth.csv", tmp_path / "p.csv", tmp_path / "score.csv"
        write_dataset(rallies, vocab, truth)
        made = run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", trained / "val_split.csv", "--out", pred)
        assert made.returncode == 0, made.stderr
        out = run_cli("score", "--predictions", pred, "--truth", truth, "--out", report)
        assert out.returncode == 1, out.stdout
        assert out.stderr == f"error: {truth}: {message}\n"
        assert out.stdout == "" and not report.exists()
        return
    if entry.startswith("predict"):
        data, pred = tmp_path / "data.csv", tmp_path / "p.csv"
        write_dataset(rallies, vocab, data)
        mode = ["--open-ended"] if entry == "predict-open-ended" else []
        out = run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", data, "--out", pred, *mode)
        assert out.returncode == 1, out.stderr
        assert out.stderr == f"error: {data}: {message}\n"
        assert not pred.exists()
        return
    model = load_checkpoint(trained / "model.ckpt")
    config = TrainConfig(epochs=1, eval_every=1, eval_samples=2)
    run = {
        "train": lambda: train(rallies, [], model.config, config, vocab=vocab),
        "train-validation": lambda: train(rallies[:-1], rallies[-1:], model.config, config, vocab=vocab),
        "sample": lambda: generate_sample_sets(model, rallies, 2, seed=1),
        "sample-horizon-3": lambda: generate_sample_sets(model, rallies, 2, seed=1, horizon=3),
        "score_sample_sets": lambda: score_sample_sets(  # each set predicts no stroke of the short rally
            [one + [[]] for one in generate_sample_sets(model, rallies[:-1], 2, seed=1)], rallies
        ),
    }[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


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


def test_score_refuses_predicted_rallies_that_the_truth_lacks(tmp_path, vocab):
    """With predictions over 10 rallies and a truth file of 6 of them, score printed a note and scored the 6 alone."""
    import numpy as np

    from rallycast.dataset import SynthConfig, synthesize_dataset
    from rallycast.scoring import SampleSets, export_predictions

    rallies = synthesize_dataset(SynthConfig(n_rallies=10, seed=3, vocab=vocab))
    truth = tmp_path / "truth.csv"
    write_dataset(rallies[:6], vocab, truth)
    outs = {}
    for n in (10, 6):  # the same six sets, each predicting every stroke's type and landing 0.25 m off in x and y
        rounds = np.concatenate([r.rounds[TAU:] for r in rallies[:n]])
        landings = np.concatenate([r.landings[TAU:] for r in rallies[:n]]) + 0.25
        probs = np.eye(vocab.size)[np.concatenate([r.type_ids[TAU:] for r in rallies[:n]])]
        lengths = np.array([[len(r) - TAU for r in rallies[:n]]] * 6)
        sets = SampleSets(lengths, np.tile(rounds, 6), np.tile(landings, (6, 1)), np.tile(probs, (6, 1)))
        predictions = tmp_path / f"p{n}.csv"
        export_predictions(rallies[:n], sets, vocab, predictions)
        outs[n] = run_cli("score", "--predictions", predictions, "--truth", truth, "--out", tmp_path / f"s{n}.csv")
    assert outs[6].returncode == 0, outs[6].stderr
    assert outs[6].stdout.splitlines()[0].startswith("l_1 = ")
    extra = [r.rally_id for r in rallies[6:]]
    assert outs[10].returncode == 1
    assert outs[10].stdout == ""
    assert outs[10].stderr == f"error: {tmp_path / 'p10.csv'}: prediction file holds rallies the truth does not score: {extra}\n"
    assert not (tmp_path / "s10.csv").exists()


def test_score_refuses_a_loss_sum_that_overflows(tmp_path, vocab):
    """Three finite landings 1e308 m off overflowed a rally's loss sum: score printed l_2 = inf, or a
    RuntimeWarning traceback under -W error::RuntimeWarning."""
    import numpy as np

    from rallycast.scoring import SampleSets, export_predictions

    rally = make_rally([0, 2, 3, 4, 2, 3, 4], rally_id="r1")
    truth, predictions = tmp_path / "truth.csv", tmp_path / "p.csv"
    write_dataset([rally], vocab, truth)
    landings = np.tile(rally.landings[TAU:], (6, 1))
    landings[3:6, 0] = 1e308  # the three strokes of sample set 2
    probs = np.eye(vocab.size)[np.tile(rally.type_ids[TAU:], 6)]
    export_predictions([rally], SampleSets(np.full((6, 1), 3), np.tile(rally.rounds[TAU:], 6), landings, probs), vocab, predictions)
    out = run_cli("score", "--predictions", predictions, "--truth", truth, "--out", tmp_path / "s.csv")
    assert out.returncode == 1, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: {predictions}: sample set 2, rally r1: loss sum is not finite")
    assert not (tmp_path / "s.csv").exists()


def test_score_rejects_five_sample_file(tmp_path):
    five = tmp_path / "five.csv"
    lines = (HAND_SCORED / "predictions.csv").read_text().splitlines()
    kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[1] != "6"]
    five.write_text("\n".join(kept) + "\n", encoding="utf-8")
    out = run_cli("score", "--predictions", five, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stderr  # it exited 2, naming no file
    assert f"error: {five}: expected 6 sample sets, found 5" in out.stderr


# damage: (column of the first data row, sample 1 round 5, to overwrite, with what, what the error names)
PREDICTION_DAMAGE = {
    # -0.2 moved onto the true type would lower the score from 1.539721 to 1.371485
    "negative_probability": ({"prob_net_shot": "-0.200000", "prob_smash": "0.700000"}, "prob_net_shot = -0.200000"),
    "nan_landing": ({"landing_x": "nan"}, "landing (nan, 9.000000) is not finite"),
    "probabilities_off_one": ({"prob_smash": "0.500002"}, "probabilities sum to 1.00000200"),
    # the message began "line 2:" and named no file
    "sample_id_not_an_integer": ({"sample_id": "x"}, "invalid literal for int() with base 10: 'x'"),
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

    with pytest.raises(ParseError, match=f"^{re.escape(str(damaged))}: line 2: {re.escape(message)}"):
        import_predictions(damaged, vocab)
    out = run_cli("score", "--predictions", damaged, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stdout
    assert f"error: {damaged}: line 2: {message}" in out.stderr
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
        "line 12: sample id 100000000000000000000 does not fit in 64 bits",
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

    with pytest.raises(ParseError, match=f"^{re.escape(f'{damaged}: {message}')}"):
        import_predictions(damaged, vocab)
    out = run_cli("score", "--predictions", damaged, "--truth", HAND_SCORED / "truth.csv")
    assert out.returncode == 1, out.stdout
    assert f"error: {damaged}: {message}" in out.stderr
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

    with pytest.raises(
        ParseError, match=f"^{re.escape(str(damaged))}: line {damaged_line}: prob_net_shot = -0.200000 is not in \\[0, 1\\]$"
    ):
        import_predictions(damaged, vocab)


def _with_a_rally_copied_into_another_match(source, rally_id, out, drop_last=False):
    """source's rows, then rally_id's rows again under match id "copy" (without its last row if drop_last)."""
    lines = source.read_text().splitlines()
    copied = [line.split(",", 1)[1] for line in lines[1:] if line.split(",")[1] == rally_id]
    out.write_text("\n".join(lines + [f"copy,{row}" for row in copied[: len(copied) - drop_last]]) + "\n", encoding="utf-8")
    return lines[[line.split(",")[1] for line in lines].index(rally_id)].split(",")[0]


@pytest.mark.parametrize("drop_last", [False, True])
def test_score_refuses_a_rally_id_that_two_matches_share(tmp_path, drop_last):
    """This scored one prediction block against both truths (Score = 1.539721), or, with the copy one stroke
    shorter, failed on the rounds the predictions cover."""
    truth = tmp_path / "truth.csv"
    match_id = _with_a_rally_copied_into_another_match(HAND_SCORED / "truth.csv", "h0001", truth, drop_last)
    out = run_cli("score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", truth)
    assert out.returncode == 1, out.stdout  # it exited 2, naming no file
    assert f"error: {truth}: rally id h0001 is used by match {match_id} and by match copy" in out.stderr
    assert "Score" not in out.stdout


def test_predict_refuses_a_rally_id_that_two_matches_share_before_it_samples(trained, tmp_path, monkeypatch):
    from rallycast import cli

    data = tmp_path / "data.csv"
    rally_id = (trained / "val_split.csv").read_text().splitlines()[1].split(",")[1]
    match_id = _with_a_rally_copied_into_another_match(trained / "val_split.csv", rally_id, data)
    message = f"error: {data}: rally id {rally_id} is used by match {match_id} and by match copy"
    out = run_cli("predict", "--checkpoint", trained / "model.ckpt", "--data", data, "--out", tmp_path / "p.csv")
    assert out.returncode == 1, out.stdout  # it exited 2, naming no file
    assert message in out.stderr
    assert not (tmp_path / "p.csv").exists()

    monkeypatch.setattr(cli, "generate_sample_sets", lambda *args, **kwargs: pytest.fail("sampled before the check"))
    argv = ["predict", "--checkpoint", str(trained / "model.ckpt"), "--data", str(data), "--out", str(tmp_path / "p.csv")]
    assert cli.main(argv) == 1


@pytest.mark.parametrize("damage, message", [
    ("row_missing", "rally h0001: predictions cover rounds [5], expected [5, 6]"),
    ("sample_missing", "rally h0002 lacks sample 6"),
], ids=["row_missing", "sample_missing"])
def test_a_prediction_file_that_does_not_cover_the_truth_exits_1_naming_it(tmp_path, damage, message):
    """Each exited 2 with a message that named no file."""
    truth, predictions = tmp_path / "truth.csv", tmp_path / "predictions.csv"
    for source, path in ((HAND_SCORED / "truth.csv", truth), (HAND_SCORED / "predictions.csv", predictions)):
        lines = source.read_text(encoding="utf-8").splitlines()  # h0001, then a copy of it named h0002
        path.write_text("\n".join(lines + [line.replace("h0001", "h0002") for line in lines[1:]]) + "\n", encoding="utf-8")
    dropped = {"row_missing": "h0001,3,6,", "sample_missing": "h0002,6,"}[damage]
    lines = predictions.read_text(encoding="utf-8").splitlines()
    predictions.write_text("\n".join(line for line in lines if not line.startswith(dropped)) + "\n", encoding="utf-8")
    out = run_cli("score", "--predictions", predictions, "--truth", truth, "--out", tmp_path / "score.csv")
    assert out.returncode == 1, out.stderr
    assert f"error: {predictions}: {message}" in out.stderr
    assert "Traceback" not in out.stderr and "Score" not in out.stdout
    assert not (tmp_path / "score.csv").exists()


def test_a_truth_file_without_a_rally_to_score_exits_1_naming_it(tmp_path):
    """It exited 2 with "no predicted strokes to score", naming no file."""
    truth = tmp_path / "truth.csv"
    lines = (HAND_SCORED / "truth.csv").read_text(encoding="utf-8").splitlines()
    truth.write_text("\n".join(lines[: 1 + TAU]) + "\n", encoding="utf-8")  # the rally's first TAU strokes
    out = run_cli("score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", truth)
    assert out.returncode == 1, out.stderr
    assert out.stderr == f"error: {truth}: rallies too short to score (need {TAU + 1} strokes): ['h0001']\n"


def test_a_truth_file_without_rallies_exits_1_naming_it(tmp_path):
    """Without a refusal of its own, a header-only truth blamed the prediction file for holding rallies."""
    truth = tmp_path / "truth.csv"
    truth.write_text((HAND_SCORED / "truth.csv").read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    out = run_cli("score", "--predictions", HAND_SCORED / "predictions.csv", "--truth", truth)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith(f"error: {truth}: ")
    assert "predictions.csv" not in out.stderr and out.stdout == ""


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


@pytest.mark.parametrize("kind", ["zones", "trend"])
def test_analyze_a_prediction_file_without_rows_exits_1_naming_it(tmp_path, vocab, kind):
    """trend printed numpy's "need at least one array to stack"; then both exited 2, naming no file."""
    from rallycast.scoring import prediction_header

    empty = tmp_path / "empty.csv"
    empty.write_text(prediction_header(vocab) + "\n", encoding="utf-8")
    out = run_cli("analyze", "--kind", kind, "--predictions", empty, "--out-dir", tmp_path)
    assert out.returncode == 1, out.stderr
    assert f"error: {empty}: prediction file has no strokes" in out.stderr
    assert "Traceback" not in out.stderr


def test_analyze_vote_requires_predictions(tmp_path):
    out = run_cli("analyze", "--kind", "vote", "--out-dir", tmp_path / "t")
    assert out.returncode == 2
    assert "--predictions" in out.stderr
    assert not (tmp_path / "t").exists()  # it made the directory first


@pytest.mark.parametrize("flags, message", [
    (["--kind", "bogus"], "unknown --kind 'bogus'"),
    (["--kind", "shot-by-round"], "--data is required for this command"),
    (["--kind", "trend", "--predictions", HAND_SCORED / "missing.csv"], "prediction file not found"),
])
def test_a_refused_analyze_makes_no_output_directory(tmp_path, flags, message):
    out = run_cli("analyze", *flags, "--out-dir", tmp_path / "t")
    assert out.returncode == 2, out.stderr
    assert f"error: {message}" in out.stderr
    assert not (tmp_path / "t").exists()


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
