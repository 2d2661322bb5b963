import re
import subprocess
import sys

import pytest

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


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("optimizer = sgd\n", encoding="utf-8")
    out = run_cli("synth", "--n", 5, "--out", tmp_path / "x.csv", "--config", cfg)
    assert out.returncode == 2
    assert "optimizer" in out.stderr


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


# damage: (damaged bytes from the checkpoint's bytes, what the error names)
CHECKPOINT_DAMAGE = {
    "truncated": (lambda raw: raw[:-5], "array 'area_head_b'"),
    "trailing": (lambda raw: raw + b"extra", "5 trailing bytes"),
    "no_magic": (lambda raw: CORPUS32.read_bytes(), "not a checkpoint file"),  # a file without the magic
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
