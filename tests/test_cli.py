import contextlib
import functools
import io
import tempfile
import time
from pathlib import Path

import pytest
from helpers import BAD_HOM_FILES, NON_DIGIT_INDICES
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgraph import parse_length, read_graph, read_truth, spanning_tree, write_graph
from mlsgraph.cli import main
from mlsgraph.fungroup import WordError, format_word, parse_word, read_hom
from mlsgraph.graphs import read_graph_comments


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


THETA_TEXT = """graph theta
vertex 0
vertex 1
edge 0 0 1 1
edge 1 0 1 2
edge 2 0 1 3
"""


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text(THETA_TEXT)
    return str(path)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--seed", "1", "--vertices", "5",
                     "--extra", "3", "--out", str(out))
    assert code == 0
    first = out.read_text()
    run(capsys, "gen", "--seed", "1", "--vertices", "5", "--extra", "3",
        "--out", str(out))
    assert out.read_text() == first
    code, stdout, _ = run(capsys, "core", str(out))
    assert code == 0


def test_gen_zero_vertices_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--seed", "1", "--vertices", "0", "--out", "x.txt"])
    assert exit_info.value.code == 2


def test_reconstruct_negative_sweep_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["reconstruct", "g1.txt", "g2.txt", "hom.txt", "--sweep", "-1"])
    assert exit_info.value.code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "core", "/nonexistent/file.txt")
    assert code == 2
    assert "error" in err


def test_directory_argument_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "core", str(tmp_path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "core", str(bad))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph g\nvertex 0\nedge 0 0 5 1\n")
    code, _, err = run(capsys, "core", str(bad))
    assert code == 2


@pytest.mark.parametrize("length", ["1e5000", "1e10000000", "1e-4300"])
def test_long_length_literal_is_usage_error(tmp_path, capsys, length):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"graph g\nvertex 0\nedge 0 0 0 {length}\n")
    message = (f"error: line 3: length literal {length!r} has more than 4300 digits "
               f"in its numerator or denominator\n")
    assert run(capsys, "core", str(bad)) == (2, "", message)
    hom = tmp_path / "hom.txt"
    hom.write_text("hom phi\ngen g1 = g1\ninverse\ngen g1 = g1\n")
    assert run(capsys, "reconstruct", str(bad), str(bad), str(hom)) == (2, "", message)


@pytest.mark.parametrize("line, kind", [("edge 2 0 1 3 /2", "edge"), ("vertex 1 7", "vertex")])
def test_extra_field_is_usage_error(tmp_path, capsys, line, kind):
    bad = tmp_path / "bad.txt"
    bad.write_text(THETA_TEXT + line + "\n")
    code, out, err = run(capsys, "core", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: line 7: malformed {kind!r} line\n"


@pytest.mark.parametrize("header", ["graph two words", "graph a b # c"])
def test_extra_graph_name_field_is_usage_error(tmp_path, capsys, header):
    bad = tmp_path / "bad.txt"
    bad.write_text(THETA_TEXT.replace("graph theta", header))
    code, out, err = run(capsys, "core", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 1: malformed 'graph' line\n"


def test_graph_name_survives_disguise_and_core(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(THETA_TEXT.replace("graph theta", "graph my-theta_2"))
    g2, hom = tmp_path / "g2.txt", tmp_path / "hom.txt"
    assert run(capsys, "disguise", str(src), "--seed", "3", "--out-graph", str(g2),
               "--out-hom", str(hom))[0] == 0
    assert g2.read_text().startswith("graph my-theta_2-d3\n")
    code, out, _ = run(capsys, "core", str(g2))
    assert code == 0 and out.startswith("graph my-theta_2-d3-core\n")


def test_core_output(theta_file, capsys):
    code, out, _ = run(capsys, "core", theta_file)
    assert code == 0
    assert "graph theta-core" in out
    assert "# segment 0 1 1" in out
    assert "# segment 0 1 3" in out


def test_spectrum_output(theta_file, capsys):
    code, out, _ = run(capsys, "spectrum", theta_file, "--max-len", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "g1\t3" in lines
    assert "g2\t4" in lines
    assert len(lines) == 4


HUGE = "99999999999999999999"


@pytest.mark.parametrize("text, code", [
    ("graph tree\nvertex 0\nvertex 1\nedge 0 0 1 1\n", 0),  # rank 0: no words
    ("graph circle\nvertex 0\nedge 0 0 0 1\n", 2),  # rank 1: 2 * 10^20 words
    (THETA_TEXT, 2),
])
def test_spectrum_huge_max_len_ends_at_once(tmp_path, capsys, text, code):
    path = tmp_path / "g.txt"
    path.write_text(text)
    t0 = time.perf_counter()
    got, out, err = run(capsys, "spectrum", str(path), "--max-len", HUGE)
    assert time.perf_counter() - t0 < 1
    assert (got, out) == (code, "")
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err
    else:
        assert err == ""


def test_spectrum_max_len_zero_is_one_usage_error(theta_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["spectrum", theta_file, "--max-len", "0"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        "mlsgraph: error: --max-len must be at least 1"]


def test_check_iso_on_a_tree_rejects_empty_core(tmp_path, theta_file, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("graph tree\nvertex 0\nvertex 1\nedge 0 0 1 1\n")
    for argv in ((str(tree), theta_file), (theta_file, str(tree))):
        assert run(capsys, "check-iso", *argv) == (1, "verdict REJECT empty-core\n", "")


def test_spectrum_respects_the_budget(theta_file, capsys, monkeypatch):
    # Rank 2 up to length 3: 4 + 12 + 36 = 52 reduced words.
    code, table, _ = run(capsys, "spectrum", theta_file, "--max-len", "3")
    assert code == 0 and len(table.splitlines()) > 4
    monkeypatch.setenv("MLS_BUDGET", "51")
    code, out, err = run(capsys, "spectrum", theta_file, "--max-len", "3")
    assert (code, out) == (2, "") and "budget of 51 words" in err
    monkeypatch.setenv("MLS_BUDGET", "52")
    assert run(capsys, "spectrum", theta_file, "--max-len", "3") == (0, table, "")


@pytest.mark.parametrize("value", ["abc", "1e3", "\u0665\u0660", "-5", "+5", "5_0", " 5"])
def test_spectrum_refuses_a_malformed_budget(theta_file, capsys, monkeypatch, value):
    """`int` reads some of these and refuses the others; only ASCII digits
    are a budget, and anything else is an error, not the default."""
    monkeypatch.setenv("MLS_BUDGET", value)
    assert run(capsys, "spectrum", theta_file, "--max-len", "1") == (
        2, "", f"error: MLS_BUDGET must be a count in ASCII digits, not {value!r}\n")


def test_spectrum_budget_unset_empty_and_zero(theta_file, capsys, monkeypatch):
    monkeypatch.delenv("MLS_BUDGET", raising=False)
    code, table, _ = run(capsys, "spectrum", theta_file, "--max-len", "1")
    assert code == 0 and table
    monkeypatch.setenv("MLS_BUDGET", "")
    assert run(capsys, "spectrum", theta_file, "--max-len", "1") == (0, table, "")
    monkeypatch.setenv("MLS_BUDGET", "0")
    code, out, err = run(capsys, "spectrum", theta_file, "--max-len", "1")
    assert (code, out) == (2, "") and "budget of 0 words" in err


def test_reduce_output(theta_file, capsys):
    code, out, _ = run(capsys, "reduce", theta_file, "--path", "e1 e1^-1 e2")
    assert code == 0
    assert out.splitlines()[0] == "e2"


def test_reduce_closed_loop_prints_cyclic(theta_file, capsys):
    code, out, _ = run(capsys, "reduce", theta_file, "--path", "e0 e0^-1 e1 e2^-1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "e1 e2^-1"
    assert lines[1].startswith("cyclic ")
    assert lines[2].startswith("conjugator ")


def test_disguise_reconstruct_accept(theta_file, tmp_path, capsys):
    g2 = tmp_path / "g2.txt"
    hom = tmp_path / "phi.txt"
    code, _, _ = run(capsys, "disguise", theta_file, "--seed", "3",
                     "--out-graph", str(g2), "--out-hom", str(hom))
    assert code == 0
    assert "# truth tau" in g2.read_text()
    code, out, _ = run(capsys, "reconstruct", theta_file, str(g2), str(hom))
    assert code == 0
    assert out.splitlines()[-1] == "verdict ACCEPT"


def test_reconstruct_bad_generator_name_is_usage_error(theta_file, tmp_path, capsys):
    g2 = tmp_path / "g2.txt"
    hom = tmp_path / "phi.txt"
    run(capsys, "disguise", theta_file, "--seed", "3",
        "--out-graph", str(g2), "--out-hom", str(hom))
    lines = hom.read_text().splitlines()
    lines[1] = "gen gx = g1"
    hom.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "reconstruct", theta_file, str(g2), str(hom))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: bad generator name 'gx'\n"


@pytest.mark.parametrize("text, message", BAD_HOM_FILES)
def test_reconstruct_bad_hom_header_is_usage_error(theta_file, tmp_path, capsys, text,
                                                   message):
    hom = tmp_path / "phi.txt"
    hom.write_text(text)
    code, out, err = run(capsys, "reconstruct", theta_file, theta_file, str(hom))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind, text, message", NON_DIGIT_INDICES)
def test_ids_int_would_read_are_usage_errors(theta_file, tmp_path, capsys, kind, text,
                                             message):
    path = tmp_path / "in.txt"
    path.write_text(f"hom phi\ngen g1 = {text}\ngen g2 = g2\n" if kind == "word" else text,
                    encoding="utf-8")
    argv = {"word": ["reconstruct", theta_file, theta_file, str(path)],
            "path": ["reduce", theta_file, "--path", text],
            "hom": ["reconstruct", theta_file, theta_file, str(path)],
            "graph": ["core", str(path)]}[kind]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_disguise_of_tree_rejected(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("graph t\nvertex 0\nvertex 1\nedge 0 0 1 1\n")
    code, _, err = run(capsys, "disguise", str(tree), "--seed", "1",
                       "--out-graph", str(tmp_path / "a.txt"),
                       "--out-hom", str(tmp_path / "b.txt"))
    assert code == 1
    assert "core is empty" in err


def test_reconstruct_perturbed_rejects(theta_file, tmp_path, capsys):
    g2 = tmp_path / "g2.txt"
    hom = tmp_path / "phi.txt"
    run(capsys, "disguise", theta_file, "--seed", "3",
        "--out-graph", str(g2), "--out-hom", str(hom))
    # Perturb one core edge length in the emitted file.
    from mlsgraph import compute_core, read_graph
    parsed = read_graph(g2.read_text())
    target = min(compute_core(parsed).core.edge_ids)
    lines = []
    for line in g2.read_text().splitlines():
        fields = line.split()
        if fields[:2] == ["edge", str(target)]:
            fields[4] = fields[4] + "/7" if "/" not in fields[4] else fields[4]
            if fields[4].count("/") == 1 and not fields[4].endswith("/7"):
                num, den = fields[4].split("/")
                fields[4] = f"{int(num) * 7 + int(den)}/{int(den) * 7}"
            line = " ".join(fields)
        lines.append(line)
    g2.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "reconstruct", theta_file, str(g2), str(hom))
    assert code == 1
    assert out.startswith("verdict REJECT")


def test_check_iso(theta_file, tmp_path, capsys):
    other = tmp_path / "relabeled.txt"
    other.write_text("""graph t2
vertex 3
vertex 5
edge 0 3 5 2
edge 4 5 3 1
edge 9 3 5 3
""")
    code, out, _ = run(capsys, "check-iso", theta_file, str(other))
    assert code == 0
    assert out.splitlines()[-1] == "verdict ACCEPT"

    dumb = tmp_path / "dumb.txt"
    dumb.write_text("""graph d
vertex 0
vertex 1
edge 0 0 0 2
edge 1 1 1 3
edge 2 0 1 1
""")
    code, out, _ = run(capsys, "check-iso", theta_file, str(dumb))
    assert code == 1
    assert "verdict REJECT not-isometric" in out


def test_reconstruct_output_deterministic(theta_file, tmp_path, capsys):
    g2 = tmp_path / "g2.txt"
    hom = tmp_path / "phi.txt"
    run(capsys, "disguise", theta_file, "--seed", "5",
        "--out-graph", str(g2), "--out-hom", str(hom))
    _, first, _ = run(capsys, "reconstruct", theta_file, str(g2), str(hom))
    _, second, _ = run(capsys, "reconstruct", theta_file, str(g2), str(hom))
    assert first == second


# -- exit-code contract under malformed input -------------------------------

@functools.cache
def _pair_files() -> tuple[bytes, bytes, bytes]:
    """Graph, disguise and hom file of a small `gen` / `disguise` pair."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in ("g1.txt", "g2.txt", "hom.txt")]
        assert main(["gen", "--seed", "3", "--vertices", "4", "--extra", "3",
                     "--out", paths[0]]) == 0
        assert main(["disguise", paths[0], "--seed", "5",
                     "--out-graph", paths[1], "--out-hom", paths[2]]) == 0
        return tuple(Path(p).read_bytes() for p in paths)


FUZZ_TOKENS = st.sampled_from([
    b"", b"0", b"1", b"-1", b"7", b"99", b"1/0", b"0/3", b"-2/3", b"1.5", b"abc",
    b"g1", b"g0", b"g9", b"gx", b"g1^-1", b"^-1", b"=", b"-", b"#", b"graph",
    b"vertex", b"edge", b"hom", b"gen", b"inverse", b"\xff\xfe"])


@st.composite
def mutated_pair(draw, count=3):
    """The pair's first `count` files after one to three edits: a line
    deleted, duplicated or swapped with the next, a token replaced, bytes
    inserted, or a cut."""
    files = list(_pair_files()[:count])
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, count - 1))
        lines = files[k].split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "insert", "cut"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == "token":
            tokens = lines[i].split(b" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(FUZZ_TOKENS)
            lines[i] = b" ".join(tokens)
        text = b"\n".join(lines)
        if op == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.binary(min_size=1, max_size=4)) + text[at:]
        elif op == "cut":
            text = text[:draw(st.integers(0, len(text)))]
        files[k] = text
    return files


def _write_and_run(tmp, command, files, *options):
    """`main([command, *file names, *options])` on the given file bytes: the
    exit code and stdout, after checking the exit-code contract."""
    paths = [str(Path(tmp) / f"g{k}.txt") for k in range(len(files))]
    for path, data in zip(paths, files):
        Path(path).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *paths, *options])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
    return code, out.getvalue()


@given(mutated_pair())
@settings(max_examples=100, deadline=None)
def test_reconstruct_exit_code_contract_fuzz(files):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _write_and_run(tmp, "reconstruct", files)
    if code != 2:
        assert out.splitlines()[-1].startswith("verdict ")


@given(mutated_pair(count=1))
@settings(max_examples=100, deadline=None)
def test_core_exit_code_contract_fuzz(files):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _write_and_run(tmp, "core", files)
    assert code != 1
    if code == 0:
        segments = read_graph_comments(out, "segment")
        assert sum(parse_length(fields[2]) for fields in segments) == \
            read_graph(out).total_length()


@given(mutated_pair(count=2))
@settings(max_examples=100, deadline=None)
def test_check_iso_exit_code_contract_fuzz(files):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _write_and_run(tmp, "check-iso", files)
    if code != 2:
        verdict = out.splitlines()[-1]
        assert verdict.startswith("verdict ACCEPT" if code == 0 else "verdict REJECT")


@given(mutated_pair(count=1))
@settings(max_examples=100, deadline=None)
def test_spectrum_exit_code_contract_fuzz(files):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _write_and_run(tmp, "spectrum", files)
    assert code != 1
    if code == 0:
        for line in out.splitlines():
            _, length = line.split("\t")
            assert parse_length(length) > 0


# Path tokens on the pair's graph: steps of its edges, either way, an edge
# it lacks, and tokens the path syntax refuses.
PATH_TOKENS = st.sampled_from([
    *(f"e{k}{inv}" for k in range(6) for inv in ("", "^-1")), "e99", "e99^-1", "e", "e-1",
    "e+1", "e1^-2", "^-1", "g1", "x", "-"])


@st.composite
def path_literals(draw):
    """A walk of one to eight steps on the pair's graph, which may backtrack
    or close, or a list of path tokens."""
    if draw(st.booleans()):
        return " ".join(draw(st.lists(PATH_TOKENS, max_size=8)))
    g = read_graph(_pair_files()[0].decode())
    at, steps = draw(st.sampled_from(sorted(g.vertex_ids))), []
    for _ in range(draw(st.integers(1, 8))):
        steps.append(draw(st.sampled_from(g.out_steps(at))))
        at = g.step_head(steps[-1])
    return " ".join(map(str, steps))


@given(mutated_pair(count=1), path_literals())
@settings(max_examples=100, deadline=None)
def test_reduce_exit_code_contract_fuzz(files, literal):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _write_and_run(tmp, "reduce", files, f"--path={literal}")
    assert code != 1
    if code == 0:
        assert len(out.splitlines()) in (1, 3)


@given(mutated_pair(count=1))
@settings(max_examples=100, deadline=None)
def test_disguise_exit_code_contract_fuzz(files):
    with tempfile.TemporaryDirectory() as tmp:
        src, out_graph, out_hom = (Path(tmp) / name for name in ("g1.txt", "g2.txt", "hom.txt"))
        src.write_bytes(files[0])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["disguise", str(src), "--seed", "7", "--out-graph", str(out_graph),
                         "--out-hom", str(out_hom)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error:")
        if code == 0:
            text = out_graph.read_text(encoding="utf-8")
            g1, g2 = read_graph(files[0].decode()), read_graph(text)
            read_truth(text)
            read_hom(out_hom.read_text(encoding="utf-8"), spanning_tree(g1), spanning_tree(g2))


# Values for `gen`'s integer options: small integers, and tokens that `int`
# refuses or reads as a small value (a sign, `_`, non-ASCII digits).
GEN_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "abc", "1.5", "3e1", "0x3", "-", "--", "+3", "1_0", " 4",
                     "٣", "٣٠", "２", "²", "4\x00"]))


@given(st.integers(-2, 9), st.fixed_dictionaries(
    {"--vertices": GEN_VALUES},
    optional={"--extra": GEN_VALUES, "--length-bound": GEN_VALUES}),
    st.sampled_from(["file", "directory", "missing parent", "stdout"]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_gen_exit_code_contract_fuzz(seed, options, out, joined):
    """`gen` on mutated arguments: exit 0, 1 or 2 (argparse's own refusals
    exit 2 through `SystemExit`), no traceback, one `error:` line on exit 2,
    and on exit 0 a graph file that reads back."""
    with tempfile.TemporaryDirectory() as tmp:
        target = {"file": Path(tmp) / "g.txt", "directory": Path(tmp),
                  "missing parent": Path(tmp) / "missing" / "g.txt", "stdout": None}[out]
        argv = ["gen", "--seed", str(seed)]
        for name, value in options.items():
            argv += [f"{name}={value}"] if joined else [name, value]
        if target is not None:
            argv.append(f"--out={target}")
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
        if code == 0:
            text = stdout.getvalue() if target is None else target.read_text(encoding="utf-8")
            assert write_graph(read_graph(text)) == text


WORD_TOKENS = st.one_of(
    st.builds("g{}{}".format, st.integers(0, 12), st.sampled_from(["", "^-1", "^-2", "^1"])),
    st.text(st.sampled_from(list("g0123456789^- ") + ["٣", "２", "²"]),
            max_size=8))


@given(st.lists(WORD_TOKENS, max_size=10).map(" ".join))
@settings(max_examples=300, deadline=None)
def test_parse_word_fuzz(text):
    """`parse_word` returns a freely reduced word that `format_word` writes
    back to itself, or raises `WordError`."""
    try:
        w = parse_word(text)
    except WordError:
        return
    assert 0 not in w
    assert all(a != -b for a, b in zip(w, w[1:]))
    assert parse_word(format_word(w)) == w if w else format_word(w) == "-"


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "1", "--vertices", "2", "--out=--"],
    ["gen", "--seed", "1", "--vertices=--"],
    ["disguise", "g.txt", "--seed=--", "--out-graph", "a", "--out-hom", "b"],
    ["spectrum", "g.txt", "--max-len=--"],
    ["reduce", "g.txt", "--path=--"],
    ["reconstruct", "a", "b", "c", "--sweep=--"],
])
def test_double_dash_option_value_is_usage_error(capsys, argv):
    """argparse reads `--opt=--` as an empty list, past the option's type."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "mlsgraph: error: '--' is not an option value"
