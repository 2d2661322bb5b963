"""Seeded damage to each input kind, run through cli.main in process: the exit-code rule holds.

Every command that reads the damaged input runs on it. No exception escapes
main. A damaged dataset, prediction file, vocabulary or checkpoint exits 0,
or 1 with an `error:` line naming a file (validate's violation count, which
prints none, is a result); only a damaged config file exits 2. validate
exits 0 on a damaged dataset only if its parse rejects no row and no rally
breaks a rule. A run that
fails leaves no output file. The property-test profile in conftest.py is
derandomized, so every run draws the same damage.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rallycast import cli
from rallycast.court import ShotTypeVocab, validate_rally
from rallycast.dataset import SynthConfig, parse_dataset, synthesize_dataset, write_dataset
from rallycast.network import CHECKPOINT_MAGIC, save_checkpoint
from rallycast.scoring import export_predictions, generate_sample_sets

from conftest import tiny_model

FILES = {
    "dataset": "data.csv",
    "predictions": "predictions.csv",
    "vocabulary": "vocab.csv",
    "checkpoint": "model.ckpt",
    "config": "run.cfg",
}
# the settings that no command line below sets by a flag, so the config file's value is read
CONFIG = "seed = 3\nmirror = none\nn_heads = 2\ndropout = 0.1\nbatch_size = 4\ntrain_fraction = 0.5\nsamples = 2\nn_rallies = 3\n"
CELLS = ["", "x", "0", "-1", "7", "1.5", "nan", "-inf", "1e308", "9223372036854775808", "A", "B", "smash", "true", "'"]
# a config value stays small: a large epoch count or model width is a valid setting that only takes long
SETTING_VALUES = ["", "x", "0", "-1", "1", "2", "7", "0.5", "nan", "inf", "none", "true", "odd", "baseline"]
HEADER_VALUES = ["", "x", 0, -1, 7, 1.5, 1e308, 2**63, None, True, [], {}]
BYTES = [0xFF, 0x00, ord(","), ord("\n"), ord("\r"), ord("="), ord("#"), ord("9"), ord(" ")]


def command_lines(p: dict[str, Path], out: Path) -> dict[str, list[list]]:
    """For each input kind, the command lines that read it, writing under out."""
    train = ["train", "--data", p["dataset"], "--out-dir", out / "run", "--epochs", 1, "--embed-dim", 4]
    predict = ["predict", "--checkpoint", p["checkpoint"], "--data", p["dataset"], "--out", out / "p.csv"]
    score = ["score", "--predictions", p["predictions"], "--truth", p["dataset"], "--out", out / "score.csv"]
    synth = ["synth", "--out", out / "synth.csv"]
    validate = ["validate", "--data", p["dataset"]]
    shots = ["analyze", "--kind", "shot-by-player", "--data", p["dataset"], "--out-dir", out]
    analyses = [["analyze", "--kind", kind, "--predictions", p["predictions"], "--out-dir", out] for kind in ("vote", "zones", "trend")]
    vocab = ["--vocab", p["vocabulary"]]
    return {
        "dataset": [validate, train, predict, score, shots],
        "predictions": [score, *analyses],
        "vocabulary": [line + vocab for line in (synth, validate, train, score, shots, analyses[0])],
        "checkpoint": [predict],
        "config": [line + ["--config", p["config"]] for line in (synth, validate, train, predict, score, shots, analyses[2])],
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A directory of one undamaged file of each input kind: 6 rallies, and a checkpoint and 6 sample sets for them."""
    folder = tmp_path_factory.mktemp("inputs")
    vocab = ShotTypeVocab.default()
    write_dataset(synthesize_dataset(SynthConfig(n_rallies=6, seed=1, vocab=vocab)), vocab, folder / FILES["dataset"])
    rallies, _, _ = parse_dataset(folder / FILES["dataset"], vocab)
    model = tiny_model(rallies, vocab)
    save_checkpoint(folder / FILES["checkpoint"], model)
    export_predictions(rallies, generate_sample_sets(model, rallies, 6, 0), vocab, folder / FILES["predictions"])
    rows = "".join(f"{e.type_id},{e.name},{str(e.is_serve).lower()}\n" for e in vocab.entries)
    (folder / FILES["vocabulary"]).write_text("type_id,name,is_serve\n" + rows, encoding="utf-8")
    (folder / FILES["config"]).write_text(CONFIG, encoding="utf-8")
    return folder


def _damage_text(draw, raw: bytes, config: bool) -> bytes:
    """raw with one cell, line, header or byte damaged.

    A CSV file's header is its line 0; a config file has no header line, and
    its header damage is to a key, the first of a line's two cells.
    """
    lines = raw.split(b"\n")[:-1]  # each file ends its last line
    sep, values, first = (b"=", SETTING_VALUES, 0) if config else (b",", CELLS, 1)
    how = draw(st.sampled_from(["cell", "line", "header", "byte"]))
    if how in ("cell", "header"):
        i = 0 if how == "header" and not config else draw(st.integers(first, len(lines) - 1))
        cells = lines[i].split(sep)
        j = 0 if how == "header" and config else draw(st.integers(0, len(cells) - 1))
        cells[j] = draw(st.sampled_from(values)).encode() + (b" " if config and j == 0 else b"")
        lines[i] = sep.join(cells)
    elif how == "line":
        i = draw(st.integers(first, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i - 1], lines[i] = lines[i], lines[i - 1]
    else:
        return _damage_bytes(draw, raw, 0, len(raw))
    return b"".join(line + b"\n" for line in lines)


def _damage_bytes(draw, raw: bytes, start: int, stop: int) -> bytes:
    """raw with one byte in [start, stop) replaced, or one byte inserted or removed there."""
    at = draw(st.integers(start, stop - 1))
    byte = bytes([draw(st.sampled_from(BYTES))])
    edit = draw(st.sampled_from(["replace", "insert", "remove"]))
    return raw[:at] + (b"" if edit == "remove" else byte) + raw[at + (edit != "insert") :]


def _leaves(node, path=()):
    """The key paths of every scalar, list entry and dict entry below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _leaves(child, path + (key,))


def _damage_checkpoint_header(draw, raw: bytes) -> bytes:
    """raw with one value of its JSON header replaced or removed, one key renamed, or one header byte damaged."""
    start = len(CHECKPOINT_MAGIC) + 8
    stop = start + int.from_bytes(raw[len(CHECKPOINT_MAGIC) : start], "little")
    how = draw(st.sampled_from(["cell", "line", "header", "byte"]))
    if how == "byte":  # the length field still counts the header's bytes
        return _damage_bytes(draw, raw, start, stop)
    header = json.loads(raw[start:stop])
    *parents, key = draw(st.sampled_from(list(_leaves(header))))
    parent = header
    for step in parents:
        parent = parent[step]
    if how == "cell":
        parent[key] = draw(st.sampled_from(HEADER_VALUES))
    elif how == "line" or isinstance(parent, list):
        del parent[key]
    else:
        parent[draw(st.sampled_from(["", "x", "name", "vocab"]))] = parent.pop(key)
    blob = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + raw[stop:]


def _run(argv: list) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main([str(arg) for arg in argv])
    return code, stderr.getvalue()


# a file that still loads after damage can disagree with another input, and the error names the
# file that the failing check reads: a truth rally cut short no longer matches the rounds that
# the prediction file covers, and a vocabulary whose type was renamed, in its own file or in a
# checkpoint's header, refuses a dataset or prediction file that names the old type
BLAMED = {
    "dataset": ("dataset", "predictions"),
    "predictions": ("predictions",),
    "vocabulary": ("vocabulary", "dataset", "predictions"),
    "checkpoint": ("checkpoint", "dataset"),
    "config": (),
}


@pytest.mark.parametrize("kind", list(FILES))
@settings(max_examples=40)
@given(data=st.data())
def test_damage_to_an_input_exits_by_the_rule(inputs, kind, data):
    raw = (inputs / FILES[kind]).read_bytes()
    if kind == "checkpoint":
        damaged = _damage_checkpoint_header(data.draw, raw)
    else:
        damaged = _damage_text(data.draw, raw, config=kind == "config")
    work = Path(tempfile.mkdtemp(dir=inputs.parent))
    try:
        paths = {name: work / file for name, file in FILES.items()}
        for name, path in paths.items():
            path.write_bytes(damaged if name == kind else (inputs / FILES[name]).read_bytes())
        out = work / "out"
        for argv in command_lines(paths, out)[kind]:
            out.mkdir()
            code, stderr = _run(argv)
            if kind == "config":
                assert code in (0, 2), (argv, stderr)
            else:
                assert code in (0, 1), (argv, stderr)
                if code == 1 and not (argv[0] == "validate" and stderr == ""):
                    assert stderr.startswith(tuple(f"error: {paths[name]}: " for name in BLAMED[kind])), (argv, stderr)
                if code == 0 and argv[0] == "validate" and kind == "dataset":
                    rallies, _, rejects = parse_dataset(paths["dataset"], write_rejects=False)
                    vocab = ShotTypeVocab.default()
                    assert rejects == [] and not any(validate_rally(r, vocab) for r in rallies), argv
            if code != 0:
                assert [p for p in out.rglob("*") if p.is_file()] == [], argv
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work)
