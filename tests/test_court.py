import ast
import dataclasses
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rallycast import court as court_module
from rallycast.autodiff import Tensor
from rallycast.court import (
    CourtSpec,
    ParseError,
    Player,
    Rally,
    ShotType,
    ShotTypeVocab,
    Stroke,
    Violation,
    ZONE_OUT,
    coord_to_zones,
    validate_rally,
    write_csv,
    write_file,
)

from analysis_reference import reference_coord_to_zone
from conftest import make_rally
from network_reference import denormalize_coord, normalize_coord

REQUIRED_TYPE_NAMES = ["long service", "short service", "net shot", "smash", "drive", "defensive shot"]


def test_default_vocab_contents(vocab):
    assert [e.type_id for e in vocab.entries] == list(range(vocab.size))
    for name in REQUIRED_TYPE_NAMES:
        vocab.id_of(name)
    serves = [e.name for e in vocab.entries if e.is_serve]
    assert sorted(serves) == ["long service", "short service"]
    assert vocab.size == 10


def test_vocab_lookup_case_insensitive(vocab):
    assert vocab.id_of("SMASH") == vocab.id_of("smash")
    with pytest.raises(KeyError):
        vocab.id_of("banana")


def test_vocab_rejects_bad_ids_and_duplicate_names():
    with pytest.raises(ValueError):
        ShotTypeVocab((ShotType(0, "a", True), ShotType(2, "b", False)))
    with pytest.raises(ValueError):
        ShotTypeVocab((ShotType(0, "a", True), ShotType(1, "A", False)))


def test_validate_rally_accepts_valid(vocab):
    rally = make_rally([vocab.id_of("short service"), 3, 4])
    assert validate_rally(rally, vocab, strict_serve=True) == []


def test_validate_rally_flags_broken_alternation(vocab):
    rally = make_rally([0, 3, 4])
    bad = Stroke(2, Player.A, 3, (2.0, 8.0), (3.0, 3.0))
    rally = type(rally)(
        rally_id=rally.rally_id,
        match_id=rally.match_id,
        player_a=rally.player_a,
        player_b=rally.player_b,
        strokes=(rally.strokes[0], bad, rally.strokes[2]),
    )
    violations = validate_rally(rally, vocab)
    assert len(violations) == 1
    assert violations[0].stroke_index == 2
    assert violations[0].rule == "alternation"
    shifted = (rally.strokes[0], bad, dataclasses.replace(rally.strokes[2], player=Player.B))
    assert validate_rally(Rally("r", "m", "a", "b", shifted), vocab) == [
        Violation(2, "alternation", "expected player B, found A"),
        Violation(3, "alternation", "expected player A, found B"),
    ]


def test_validate_rally_strict_serve_after_open(vocab):
    rally = make_rally([vocab.id_of("short service"), 3, vocab.id_of("long service")])
    violations = validate_rally(rally, vocab, strict_serve=True)
    assert [(v.stroke_index, v.rule) for v in violations] == [(3, "serve_after_open")]
    assert validate_rally(rally, vocab, strict_serve=False) == []
    assert validate_rally(make_rally([3, 4]), vocab, strict_serve=True) == [
        Violation(1, "serve_first", "rally opens with non-service type 'smash'"),
    ]




def test_alternation_property(vocab):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        pattern = [Player.A if rng.random() < 0.5 else Player.B for _ in range(n)]
        strokes = tuple(
            Stroke(k + 1, p, 3 if k else 0, (2.0, 8.0), (3.0, 3.0)) for k, p in enumerate(pattern)
        )
        rally = make_rally([0])
        rally = type(rally)("r", "m", "a", "b", strokes)
        ok = all(p is (Player.A if k % 2 == 0 else Player.B) for k, p in enumerate(pattern))
        has_alt_violation = any(v.rule == "alternation" for v in validate_rally(rally, vocab))
        assert has_alt_violation == (not ok)


# ---------------------------------------------------------------------------
# zones
# ---------------------------------------------------------------------------

def test_zone_center_is_five(court):
    center = (court.width_m / 2, 3 * court.length_m / 4)
    assert coord_to_zones(center, court, Player.B)[0] == 5
    assert coord_to_zones((court.width_m / 2, court.length_m / 4), court, Player.A)[0] == 5


def test_zone_out_of_bounds(court):
    assert coord_to_zones((3.0, court.length_m + 1.0), court, Player.B)[0] == ZONE_OUT
    assert coord_to_zones((3.0, 1.0), court, Player.B)[0] == ZONE_OUT  # other half
    assert coord_to_zones((-0.1, 10.0), court, Player.B)[0] == ZONE_OUT


def _centroids(court, side):
    """Enumerate the 9 cell centroids from the declared grid boundaries."""
    w, l = court.width_m, court.length_m
    half = l / 2
    points = []
    for row in range(3):
        depth = l / 12 + row * (l / 6)
        for col in range(3):
            left = w / 6 + col * (w / 3)
            if side is Player.B:
                points.append((w - left, half + depth))
            else:
                points.append((left, half - depth))
    return points


@pytest.mark.parametrize("side", [Player.A, Player.B])
def test_zone_centroids_enumerate_one_to_nine(court, side):
    for i, p in enumerate(_centroids(court, side)):
        assert coord_to_zones(p, court, side)[0] == i + 1


def test_zone_boundary_ties_go_to_lower_id(court):
    w, l = court.width_m, court.length_m
    half = l / 2
    x, y = w - w / 3, half + l / 6
    assert (w - x, y - half) == (w / 3, l / 6)  # receiver-left exactly w/3, depth exactly l/6
    assert coord_to_zones((x, y), court, Player.B)[0] == 1  # row 0, col 0
    assert coord_to_zones((math.nextafter(x, 0.0), y), court, Player.B)[0] == 2  # just past the column boundary
    assert coord_to_zones((x, math.nextafter(y, l)), court, Player.B)[0] == 4  # just past the row boundary
    # net line and baseline belong to the half
    assert coord_to_zones((3.0, half), court, Player.B)[0] == 2
    assert coord_to_zones((3.0, l), court, Player.B)[0] == 8


def test_zone_partition_property(court):
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, court.width_m, size=10_000)
    ys = rng.uniform(court.length_m / 2, court.length_m, size=10_000)
    zones = np.array([coord_to_zones((x, y), court, Player.B)[0] for x, y in zip(xs, ys)])
    assert zones.min() >= 1 and zones.max() <= 9


@given(
    st.floats(-2.0, 8.0, allow_nan=False),
    st.floats(-2.0, 16.0, allow_nan=False),
    st.sampled_from([Player.A, Player.B]),
)
def test_zones_partition_the_court(x, y, side):
    """Zones 1..9 are exactly the receiver's half, each point in the cell its id names."""
    court = CourtSpec()
    w, l = court.width_m, court.length_m
    half = l / 2
    zone = coord_to_zones((x, y), court, side)[0]
    in_half = 0.0 <= x <= w and (half <= y <= l if side is Player.B else 0.0 <= y <= half)
    assert 1 <= zone <= 10
    assert (zone != ZONE_OUT) == in_half
    if in_half:
        depth, left = (y - half, w - x) if side is Player.B else (half - y, x)
        row, col = divmod(zone - 1, 3)
        # a cell holds its far edges; a point on a grid line takes the lower id
        for value, index, edges in ((depth, row, (0.0, l / 6, l / 3, half)), (left, col, (0.0, w / 3, 2 * w / 3, w))):
            assert (value > edges[index] or index == 0) and value <= edges[index + 1]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_reference_points(court):
    cx, cy = court.width_m / 2, court.length_m / 2
    assert court.normalize(np.array([cx, cy])).tolist() == [0.0, 0.0]
    nx, ny = court.normalize(np.array([court.width_m, cy])).tolist()
    assert math.isclose(nx, 1.0, abs_tol=1e-15) and ny == 0.0


def test_normalize_round_trip(court):
    rng = np.random.default_rng(3)
    p = np.column_stack([rng.uniform(-5, 15, 200), rng.uniform(-5, 25, 200)])
    assert np.abs(court.denormalize(court.normalize(p)) - p).max() < 1e-12


@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=8))
def test_array_normalization_equals_the_per_point_reference(points):
    court = CourtSpec()
    arr = np.array(points)
    assert court.normalize(arr).tolist() == [list(normalize_coord(p, court)) for p in points]
    assert court.denormalize(arr).tolist() == [list(denormalize_coord(p, court)) for p in points]


def test_vocab_file_round_trip(tmp_path, vocab):
    from rallycast.court import load_vocab

    path = tmp_path / "vocab.csv"
    rows = [f"{e.type_id},{e.name},{'true' if e.is_serve else 'false'}" for e in vocab.entries]
    path.write_text("\n".join(["type_id,name,is_serve", *rows]) + "\n", encoding="utf-8")
    assert load_vocab(path) == vocab
    with pytest.raises(FileNotFoundError):
        load_vocab(tmp_path / "missing.csv")


def test_vocabulary_serve_flags_read_as_the_settings_read_booleans(tmp_path):
    """is_serve takes the CLI's true/false words; "on" used to read as false."""
    from rallycast.court import load_vocab

    words = ["1", "TRUE", "yes", " on", "0", "False", "no", "off "]
    path = tmp_path / "vocab.csv"
    path.write_text("type_id,name,is_serve\n" + "".join(f"{i},t{i},{w}\n" for i, w in enumerate(words)), encoding="utf-8")
    assert [e.is_serve for e in load_vocab(path).entries] == [True] * 4 + [False] * 4


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"])
def test_a_byte_that_is_not_utf8_is_named_by_the_line_the_reader_splits(tmp_path, vocab, ending):
    """Lines end at "\\n", "\\r\\n" or a lone "\\r"; counting only "\\n" named line 1 of a "\\r" file."""
    from rallycast.court import load_vocab

    rows = ["type_id,name,is_serve"] + [f"{e.type_id},{e.name},{'true' if e.is_serve else 'false'}" for e in vocab.entries]
    endings = ["\r\n", "\r", "\n"] * len(rows) if ending == "mixed" else [ending] * len(rows)
    raw = "".join(row + end for row, end in zip(rows, endings)).encode("utf-8")
    path = tmp_path / "vocab.csv"
    path.write_bytes(raw.replace(f"{rows[4]}".encode(), f"{rows[4][:-1]}\xff{rows[4][-1]}".encode("latin-1"), 1))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 5: byte 0xff is not UTF-8$"):
        load_vocab(path)


def _zone_lines(court):
    """Every row and column boundary of both half-courts, and the lines just either side of each."""
    w, l = court.width_m, court.length_m
    half = l / 2
    xs = [0.0, w / 3, 2 * w / 3, w, w - w / 3, w - 2 * w / 3]
    ys = [0.0, half, l, half + l / 6, half + l / 3, half - l / 6, half - l / 3]
    return [n for v in xs + ys for n in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


@given(
    st.lists(st.tuples(st.floats(-2.0, 16.0), st.floats(-2.0, 16.0)), max_size=30),
    st.lists(st.tuples(st.integers(0, 38), st.integers(0, 38)), max_size=30),
    st.sampled_from([Player.A, Player.B]),
)
def test_array_zones_equal_the_per_point_reference(free, on_lines, side):
    """Random points and points on exact row and column boundaries, ties included."""
    court = CourtSpec()
    lines = _zone_lines(court)
    assert len(lines) == 39
    points = free + [(lines[i], lines[j]) for i, j in on_lines]
    want = [reference_coord_to_zone(p, court, side) for p in points]
    assert coord_to_zones(np.array(points).reshape(-1, 2), court, side).tolist() == want
    assert [coord_to_zones(p, court, side)[0] for p in points] == want


# ---------------------------------------------------------------------------
# writing files: whole or not at all
# ---------------------------------------------------------------------------

def _chunks_then_stop(*chunks):
    yield from chunks
    raise KeyboardInterrupt  # a stop that is not an Exception, as a signal's is


@pytest.mark.parametrize("old", [b"old bytes\n", None])
def test_a_write_stopped_mid_chunks_leaves_the_old_file_or_none_and_no_file_beside_it(tmp_path, old):
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(KeyboardInterrupt):
        write_file(path, _chunks_then_stop(b"new ", b"bytes"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["out.csv"])
    if old is not None:
        assert path.read_bytes() == old


def test_write_csv_ends_every_line_and_replaces_the_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(court_module, "PARSE_BLOCK_LINES", 2)  # the header and lines span several chunks
    path = tmp_path / "out.csv"
    path.write_text("a much longer old file\n" * 10, encoding="utf-8")
    write_csv(path, "h", (f"é{i}" for i in range(4)))
    assert path.read_bytes() == "h\né0\né1\né2\né3\n".encode("utf-8")
    write_csv(path, "h", [])
    assert path.read_bytes() == b"h\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_a_new_output_has_the_mode_that_write_text_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "by_write_text").write_text("x", encoding="utf-8")
        write_file(tmp_path / "by_write_file", [b"x"])
    finally:
        os.umask(previous)
    modes = [os.stat(tmp_path / name).st_mode for name in ("by_write_text", "by_write_file")]
    assert modes[0] == modes[1] == 0o100666 & ~umask


def test_a_symlink_at_the_output_path_is_replaced_not_written_through(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"target\n")
    link.symlink_to(target)
    write_file(link, [b"new\n"])
    assert not link.is_symlink() and link.read_bytes() == b"new\n"
    assert target.read_bytes() == b"target\n"


@pytest.mark.parametrize("make", ["directory", "fifo", "symlink_to_fifo"])
def test_an_output_path_that_is_not_a_regular_file_is_refused_before_anything_is_written(tmp_path, make):
    fifo, path = tmp_path / "fifo", tmp_path / "out.csv"
    if make == "directory":
        path.mkdir()
    else:
        os.mkfifo(fifo)
        if make == "fifo":
            fifo.rename(path)
        else:
            path.symlink_to(fifo)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(FileExistsError, match=f"output path exists and is not a regular file: {re.escape(str(path))}"):
        write_file(path, [b"x"])
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert path.is_dir() if make == "directory" else path.is_fifo()


def test_an_output_in_a_missing_directory_is_refused_naming_the_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match=f"output directory not found: {re.escape(str(tmp_path / 'no'))}$"):
        write_file(tmp_path / "no" / "out.csv", [b"x"])


# ---------------------------------------------------------------------------
# who may see a rally as Stroke objects
# ---------------------------------------------------------------------------

def test_only_court_knows_the_stroke_view():
    """Past court.py, the library reads a rally's columns: no other module imports Stroke or reads .strokes."""
    package = Path(court_module.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "court.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "Stroke" for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports Stroke")
            elif isinstance(node, ast.Attribute) and node.attr in ("Stroke", "strokes"):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert found == []


CSV_READER_PARTS = ("line_blocks",)


def test_only_court_reads_csv_lines():
    """Every CSV input is read through court.read_csv: no module imports csv, and no other one names the reader's parts."""
    package = Path(court_module.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} imports csv" for alias in node.names if alias.name == "csv"]
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} imports csv"] if node.module == "csv" else []
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if path.name != "court.py":
                found += [f"{path.name}:{node.lineno} names {name}" for name in names if name in CSV_READER_PARTS]
    assert found == []


# each CSV format's reader: (module, function)
CSV_FORMAT_READERS = (("court.py", "load_vocab"), ("dataset.py", "parse_dataset"), ("scoring.py", "import_predictions"))


@pytest.mark.parametrize("module, function", CSV_FORMAT_READERS)
def test_every_csv_format_is_read_by_read_csv(module, function):
    """Vocabularies, datasets and prediction files share one reader, so one header, cell and UTF-8 rule."""
    tree = ast.parse((Path(court_module.__file__).parent / module).read_text(encoding="utf-8"))
    reader = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
    calls = [node.func for node in ast.walk(reader) if isinstance(node, ast.Call)]
    assert any(isinstance(func, ast.Name) and func.id == "read_csv" for func in calls)


def _writes_a_file(call: ast.Call) -> bool:
    """A call of write_text or write_bytes, or of open with a mode holding w, a or x."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    modes = call.args[position : position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax") for m in modes)


def test_only_court_writes_files():
    """Every output is written through court.write_file, so whole or not at all: no other module opens a file to write."""
    package = Path(court_module.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "court.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert found == []


# public names that only the tests call; oracles live on the test side instead (tests/*_reference.py)
TEST_ONLY_SURFACE: set[str] = set()


def _package_module(module: str | None, level: int) -> str | None:
    """The package module that `from <module> import ...` reads: "" for the package itself, None outside it."""
    if level:
        return module or ""
    head, _, rest = (module or "").partition(".")
    return rest if head == "rallycast" else None


def _names_reached(tree: ast.Module, own: str | None) -> set[tuple[str, str]]:
    """(module, name) for each module-level name of the package that the source tree reaches.

    A tree reaches a name of module M where it imports the name from M, where
    it reads `<alias of M>.name`, or, when the tree is M itself (own), where it
    names it.
    """
    aliases, reached = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _package_module(node.module, node.level)) is not None:
            for alias in node.names:
                if source:
                    reached.add((source, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and own:
            reached.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            reached.add((aliases[node.value.id], node.attr))
    return reached


def test_every_public_name_of_the_library_has_a_caller_outside_the_tests():
    """Each public function, class and method of src/ is named in src/ or in perfbench/.

    A module-level function or class of module M counts as used where M
    itself names it, where another module imports it from M, or where one
    reads it as `<alias of M>.name`; a name that only matches, such as
    `np.exp` or a logger called `log`, is no use of `autodiff.exp` or
    `autodiff.log`. A method counts as used where any identifier names it:
    a variable, an attribute or an import. One that only tests use is
    surface to delete.
    """
    package = Path(court_module.__file__).parent
    modules = sorted(package.glob("*.py"))
    callers = modules + sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
    reached, identifiers = set(), set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached |= _names_reached(tree, path.stem if path.parent == package else None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                identifiers.update(alias.name for alias in node.names)
    found = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            unused = [] if (path.stem, node.name) in reached else [node]
            if isinstance(node, ast.ClassDef):
                unused += [m for m in node.body if isinstance(m, ast.FunctionDef) and m.name not in identifiers]
            for defined in unused:
                if not defined.name.startswith("_") and defined.name not in TEST_ONLY_SURFACE:
                    found.append(f"{path.name}:{defined.lineno} {defined.name}")
    assert found == []


def test_the_public_name_guard_counts_only_uses_of_the_defining_module():
    lookalikes = "import logging\nimport numpy as np\nlog = logging.getLogger()\nnp.exp(np.log(2.0))\n"
    assert _names_reached(ast.parse(lookalikes), None) == set()
    uses = "from . import autodiff as ad\nfrom rallycast.court import write_csv\nad.exp(ad)\nexp(1)\n"
    assert _names_reached(ast.parse(uses), None) == {("autodiff", "exp"), ("court", "write_csv")}
    assert ("scoring", "exp") in _names_reached(ast.parse(uses), "scoring")


def test_the_package_root_binds_only_its_version():
    """Every caller imports a name from the module that defines it, so the root holds no second route to it."""
    tree = ast.parse((Path(court_module.__file__).parent / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    assert bound == {"__version__"}


def test_the_court_has_one_size():
    """The court's size is two class constants, not fields that a caller or a checkpoint could set."""
    assert dataclasses.fields(CourtSpec) == ()
    assert (CourtSpec.width_m, CourtSpec.length_m) == (6.1, 13.4)
    with pytest.raises(TypeError):
        CourtSpec(width_m=6.0)


def test_a_tensor_built_by_hand_is_a_leaf():
    """Only autodiff._make records parents and a backward closure; Tensor(data) takes nothing else."""
    x = np.ones(3)
    with pytest.raises(TypeError):
        Tensor(x, (), None)
    leaf = Tensor(x)
    assert (leaf._parents, leaf._bwd) == ((), None)


def test_no_module_of_the_library_asserts():
    """python -O strips assert statements, so a check the library needs must raise instead."""
    package = Path(court_module.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_parse_error_words_a_path_prefix():
    """Damaged content is ParseError(path, message, line), whose __init__ alone builds the "<path>: " text.

    So no other f-string starts with a formatted value and then ": ". The
    config file's "<path>:<line>: " errors are settings, and do not match.
    """
    package = Path(court_module.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for cls in tree.body if getattr(cls, "name", None) == "ParseError" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and id(node) not in exempt and len(node.values) > 1:
                first, then = node.values[:2]
                if isinstance(first, ast.FormattedValue) and str(getattr(then, "value", "")).startswith(": "):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_parse_error_names_the_file_and_the_line_if_known():
    assert str(ParseError(Path("d/x.csv"), "bad cell", 7)) == "d/x.csv: line 7: bad cell"
    assert str(ParseError("d/x.csv", "no magic")) == "d/x.csv: no magic"


def test_main_maps_five_exception_types_to_exit_codes():
    """An exception's type sets the exit code; main catches no ValueError, KeyError or bare RuntimeError."""
    tree = ast.parse((Path(court_module.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    codes = {}
    for handler in (node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)):
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        returned = next(node.value.id for node in handler.body if isinstance(node, ast.Return))
        codes.update((ast.unparse(name) if name else "bare except", returned) for name in names)
    assert codes == {
        "UsageError": "EXIT_USAGE",
        "OSError": "EXIT_USAGE",
        "ParseError": "EXIT_RUNTIME",
        "NumericHealthError": "EXIT_RUNTIME",
        "TrainingDivergedError": "EXIT_RUNTIME",
    }
