import json
import logging
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowcheck import Coloring, SimplicialComplex, chromatic, cli

RUN = [sys.executable, "-m", "rainbowcheck"]

TETRA_INSTANCE = {
    "name": "tetra",
    "facets": [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
    "classes": [["a"], ["b"], ["c", "d"]],
}


def run_cli(*args, **kwargs):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, **kwargs)


@pytest.fixture
def tetra(tmp_path):
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(TETRA_INSTANCE))
    return str(path)


def test_check_meshulam_passes(tetra):
    result = run_cli("check", tetra, "--theorem", "meshulam", "--field", "q")
    assert result.returncode == 0
    assert "abc" in result.stdout and "abd" in result.stdout
    assert "HOLD" in result.stdout


def test_check_meshulam_fail_exit_code(tmp_path):
    path = tmp_path / "cycle4.json"
    path.write_text(
        json.dumps(
            {
                "facets": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
                "classes": [["a", "c"], ["b", "d"]],
            }
        )
    )
    result = run_cli("check", str(path), "--theorem", "meshulam", "--field", "q")
    assert result.returncode == 1
    assert "S=[0]" in result.stdout.replace('"S": [0]', "S=[0]")
    assert "rainbow witnesses (4)" in result.stdout


def test_check_sphere_on_a_ball_proxy_fails_without_traceback(tmp_path):
    # The homology_sphere detail holds a BettiVector, which json.dumps alone cannot encode.
    path = tmp_path / "sp.json"
    assert run_cli("sperner", "--dim", "2", "--depth", "2", "--out", str(path)).returncode == 0
    result = run_cli("check", str(path), "--theorem", "sphere", "--field", "2")
    assert result.returncode == 1
    assert "homology_sphere: proxy-fail" in result.stdout
    assert "Traceback" not in result.stderr


def test_empty_class_warning_goes_through_logging(tmp_path, caplog):
    path = tmp_path / "empty_class.json"
    path.write_text(json.dumps({"facets": [["a", "b"]], "classes": [["a", "b"], []]}))
    with caplog.at_level(logging.WARNING, logger="rainbowcheck"):
        assert cli.main(["info", str(path)]) == 0
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert records == [("rainbowcheck", "WARNING", "warning: class 1 is empty")]
    # With no handler configured, logging's last resort writes the line to stderr.
    assert run_cli("info", str(path)).stderr == "warning: class 1 is empty\n"


def test_check_writes_json_report(tetra, tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "check", tetra, "--theorem", "meshulam", "--field", "q", "--field", "2",
        "--json", str(out),
    )
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["overall_hold"] is True
    assert report["fields"] == ["Q", "GF(2)"]
    assert all(r["all_hold"] for r in report["reports"])
    assert all(r["rainbow_witnesses"] for r in report["reports"])


def test_check_theorem_surface(tetra):
    result = run_cli("check", tetra, "--theorem", "surface", "--field", "q")
    assert result.returncode == 0


def test_betti_torus(tmp_path):
    gen = run_cli("gen", "torus7", "--out", str(tmp_path / "torus7.json"))
    assert gen.returncode == 0
    result = run_cli("betti", str(tmp_path / "torus7.json"), "--field", "q")
    assert result.returncode == 0
    assert "b[-1]=0 b[0]=0 b[1]=2 b[2]=1" in result.stdout


def test_gen_pipeline_is_deterministic(tmp_path):
    a = run_cli("gen", "rp2_6")
    b = run_cli("gen", "rp2_6")
    assert a.stdout == b.stdout and a.returncode == 0


def test_info(tetra):
    result = run_cli("info", tetra)
    assert result.returncode == 0
    assert "dim: 2" in result.stdout
    assert "euler characteristic: 2" in result.stdout


def test_sd_command(tetra, tmp_path):
    out = tmp_path / "sd.json"
    assert run_cli("sd", tetra, "--out", str(out)).returncode == 0
    data = json.loads(out.read_text())
    assert len(data["facets"]) == 24
    info = run_cli("info", str(out))
    assert "euler characteristic: 2" in info.stdout


def test_sd_negative_times_is_input_error(tetra, tmp_path):
    out = tmp_path / "sd.json"
    result = run_cli("sd", tetra, "--times", "-1", "--out", str(out))
    assert result.returncode == 2
    assert "error: --times must be a non-negative integer" in result.stderr
    assert not out.exists()


def test_sd_over_the_facet_limit_is_input_error(tetra, tmp_path):
    out = tmp_path / "sd.json"
    result = run_cli("sd", tetra, "--times", "50", "--out", str(out), timeout=30)
    assert result.returncode == 2
    assert "error: sd --times 50 may make more than the limit of 7750000 faces" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".json", ".txt"])
def test_input_over_the_facet_limit_is_input_error(tmp_path, monkeypatch, capsys, suffix):
    facets = TETRA_INSTANCE["facets"]
    path = tmp_path / f"tetra{suffix}"
    if suffix == ".json":
        path.write_text(json.dumps({"facets": facets}))
    else:
        path.write_text("".join(" ".join(f) + "\n" for f in facets))
    # 4 facets of 3 vertices: the bound is 4 * (2^3 - 1) = 28 faces.
    monkeypatch.setattr(cli, "MAX_FACES", 28)
    assert cli.main(["info", str(path)]) == 0
    monkeypatch.setattr(cli, "MAX_FACES", 27)
    monkeypatch.setattr(cli, "SimplicialComplex", None)  # refused before it is built
    assert cli.main(["info", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: the facets may span more than the limit of 27 faces\n"


def test_one_large_facet_is_refused_at_once(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"facets": [[f"v{i}" for i in range(40)]]}))
    result = run_cli("info", str(path), timeout=10)
    assert result.returncode == 2
    assert result.stderr == f"error: {path}: the facets may span more than the limit of 7750000 faces\n"


def test_every_sd_output_can_be_read_back(tetra, tmp_path, monkeypatch, capsys):
    out = tmp_path / "sd.json"
    # 24 facets of 3 vertices: the bound is 24 * (2^3 - 1) = 168 faces.
    monkeypatch.setattr(cli, "MAX_FACES", 167)
    assert cli.main(["sd", tetra, "--out", str(out)]) == 2
    assert not out.exists()
    monkeypatch.setattr(cli, "MAX_FACES", 168)
    assert cli.main(["sd", tetra, "--out", str(out)]) == 0
    assert cli.main(["info", str(out)]) == 0
    assert "euler characteristic: 2" in capsys.readouterr().out


def test_check_meshulam_builds_each_chromatic_subcomplex_once(tetra, monkeypatch, capsys):
    calls, build = [], chromatic.chromatic_subcomplex
    monkeypatch.setattr(chromatic, "chromatic_subcomplex", lambda *a: calls.append(a) or build(*a))
    fields = [arg for F in ("2", "3", "5", "q") for arg in ("--field", F)]
    assert cli.main(["check", tetra, "--theorem", "meshulam", *fields]) == 0
    assert capsys.readouterr().out.count("theorem meshulam over ") == 4
    assert len(calls) == 2**3 - 1


@pytest.mark.parametrize(
    "facets", [[["a", "b"], ["a|b", "c"]], [["a", "b"], ["a|b"]]]
)
def test_sd_barycenter_label_collision_is_input_error(tmp_path, facets):
    path, out = tmp_path / "collide.json", tmp_path / "sd.json"
    path.write_text(json.dumps({"facets": facets}))
    result = run_cli("sd", str(path), "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("error: vertex 'a|b' and the barycenter of ('a', 'b')")
    assert not out.exists()


def test_sd_twice_through_files_equals_sd_times_two(tetra, tmp_path):
    once, twice, direct = (tmp_path / name for name in ("once.json", "twice.json", "direct.json"))
    assert run_cli("sd", tetra, "--out", str(once)).returncode == 0
    assert run_cli("sd", str(once), "--out", str(twice)).returncode == 0
    assert run_cli("sd", tetra, "--times", "2", "--out", str(direct)).returncode == 0
    assert twice.read_bytes() == direct.read_bytes()


def test_relbetti(tmp_path):
    (tmp_path / "disk.json").write_text(json.dumps({"facets": [["a", "b", "c"]]}))
    (tmp_path / "rim.json").write_text(
        json.dumps({"facets": [["a", "b"], ["a", "c"], ["b", "c"]]})
    )
    result = run_cli(
        "relbetti", str(tmp_path / "disk.json"), "--sub", str(tmp_path / "rim.json"),
        "--field", "q",
    )
    assert result.returncode == 0
    assert "b[2]=1" in result.stdout


def test_rainbow(tetra):
    result = run_cli("rainbow", tetra)
    assert result.returncode == 0
    assert "rainbow simplices: 2" in result.stdout


def test_audit_duality(tetra):
    result = run_cli("audit-duality", tetra, "--field", "q")
    assert result.returncode == 0
    assert "pass" in result.stdout


def test_audit_duality_non_sphere_is_input_error(tmp_path):
    path = tmp_path / "torus.json"
    run_cli("gen", "torus7", "--out", str(path))
    data = json.loads(path.read_text())
    data["classes"] = [["0", "1"], ["2", "3"], ["4", "5", "6"]]
    path.write_text(json.dumps(data))
    result = run_cli("audit-duality", str(path), "--field", "q")
    assert result.returncode == 2
    assert "homology" in result.stderr


def test_sperner_command(tmp_path):
    out = tmp_path / "sperner.json"
    result = run_cli("sperner", "--dim", "2", "--depth", "1", "--out", str(out))
    assert result.returncode == 0
    assert "1 rainbow simplices" in result.stdout
    data = json.loads(out.read_text())
    assert "classes" in data and len(data["classes"]) == 3


def test_missing_coloring_is_input_error(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"facets": [["a", "b", "c"]]}))
    result = run_cli("check", str(path), "--theorem", "meshulam", "--field", "q")
    assert result.returncode == 2
    assert "classes" in result.stderr


def test_bad_coloring_is_input_error(tmp_path):
    bad = dict(TETRA_INSTANCE)
    bad["classes"] = [["a"], ["b"], ["c"]]  # vertex d uncolored
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    result = run_cli("check", str(path), "--theorem", "meshulam", "--field", "q")
    assert result.returncode == 2
    assert "'d'" in result.stderr


def test_duplicate_vertex_in_facet_is_parse_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"facets": [["a", "a", "b"]]}))
    result = run_cli("info", str(path))
    assert result.returncode == 2


def test_duplicate_vertex_in_class_is_parse_error(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"facets": [["a", "b"], ["b", "c"]], "classes": [["a", "a"], ["b"], ["c"]]}))
    result = run_cli("info", str(path))
    assert result.returncode == 2
    assert result.stderr == f"error: {path}: duplicate vertex inside class ['a', 'a']\n"


def test_txt_import(tmp_path):
    path = tmp_path / "facets.txt"
    path.write_text("# tetra boundary\na b c\na b d\na c d\nb c d\n")
    result = run_cli("info", str(path))
    assert result.returncode == 0
    assert "dim: 2" in result.stdout


def test_unknown_file_is_error():
    assert run_cli("info", "/nonexistent/file.json").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ["info", "{dir}"],
        ["gen", "torus7", "--out", "{dir}"],
        ["check", "{tetra}", "--theorem", "meshulam", "--field", "2", "--json", "{dir}"],
    ],
    ids=["info", "gen-out", "check-json"],
)
def test_os_error_is_input_error(args, tetra, tmp_path):
    # a directory where a file is read or written raises an OSError other
    # than FileNotFoundError; it exits 2, not 1 ("a hypothesis fails")
    result = run_cli(*(a.format(dir=tmp_path, tetra=tetra) for a in args))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_bad_field_is_error(tetra):
    result = run_cli("betti", tetra, "--field", "x")
    assert result.returncode == 2


def _reference_instance_text(K, coloring, name):
    # The instance as a dict through json.dumps, plus a newline.
    data = {"facets": [[str(v) for v in f] for f in sorted(K.facets)]}
    if name:
        data["name"] = name
    if coloring is not None:
        data["classes"] = [sorted(str(v) for v in c) for c in coloring.classes]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters, non-ASCII text and '|'.
_STR_LABELS = st.text(
    st.sampled_from(["a", "b", "B", '"', "\\", "\n", "\x00", "\x1f", "é", "雪", "😀", "|"]),
    min_size=1,
    max_size=3,
)


@st.composite
def _instances(draw):
    """(facets, classes or None): int labels (10 and above beside smaller
    ones) or str labels; classes partition the vertices, some maybe empty."""
    labels = draw(st.sampled_from([st.integers(0, 30), _STR_LABELS]))
    facets = draw(st.lists(st.lists(labels, min_size=1, max_size=4, unique=True), max_size=8))
    if not draw(st.booleans()):
        return facets, None
    vertices = sorted({v for f in facets for v in f})
    classes = [[] for _ in range(draw(st.integers(1, 4)))]
    for v in vertices:
        classes[draw(st.integers(0, len(classes) - 1))].append(v)
    return facets, classes


@settings(max_examples=300, deadline=None)
@given(instance=_instances(), name=st.none() | st.text(max_size=4))
@example(instance=([], None), name=None)  # the empty complex
@example(instance=([], [[]]), name="")
@example(instance=([["a"]], None), name=None)  # a single vertex
@example(instance=([[7]], [[7], []]), name="one vertex")
@example(instance=([[2, 3], [10, 11], [2, 10]], [[2, 10], [3, 11]]), name="2 < 10")
def test_instance_text_is_json_dump_bytes(instance, name):
    facets, classes = instance
    K = SimplicialComplex(facets)
    coloring = None if classes is None else Coloring(classes)
    text = "".join(cli._instance_text(K, coloring, name))
    assert text == _reference_instance_text(K, coloring, name)


@pytest.mark.parametrize("name", ["torus7", "cycle(12)"])
def test_gen_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, name):
    out = tmp_path / "gen.json"
    assert run_cli("gen", name, "--out", str(out)).returncode == 0
    printed = run_cli("gen", name)
    assert printed.returncode == 0
    assert printed.stdout.encode() == out.read_bytes()
    data = json.loads(printed.stdout)
    assert printed.stdout == json.dumps(data, indent=2, sort_keys=True) + "\n"
    # Facets keep the int labels' order: in cycle(12), (2, 3) comes before (10, 11).
    assert data["facets"] == [[str(v) for v in f] for f in sorted(cli.generate(name).complex.facets)]


def test_deeply_nested_json_is_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"facets": [[' + "[" * 5000 + "]" * 5000 + "]]}")
    result = run_cli("info", str(path))
    assert result.returncode == 2
    assert result.stderr == f"error: {path}: JSON nested too deeply\n"
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "instance, named",
    [
        ({"facets": [["a", ["b"]]]}, "facet ['a', ['b']]"),
        ({"facets": [["a", {"b": 1}]]}, "facet ['a', {'b': 1}]"),
        ({"facets": [["a", None]]}, "facet ['a', None]"),
        ({"facets": [["c", True]]}, "facet ['c', True]"),
        ({"facets": [[0, False]]}, "facet [0, False]"),
        ({"facets": [["a", "b"]], "classes": [["a"], [None, "b"]]}, "class [None, 'b']"),
        ({"facets": [["a", "b"]], "classes": [["a"], [["b"]]]}, "class [['b']]"),
    ],
    ids=["array", "object", "null", "true", "false", "class-null", "class-array"],
)
def test_label_that_is_not_a_string_or_number_is_input_error(tmp_path, capsys, instance, named):
    path, out = tmp_path / "bad.json", tmp_path / "sd.json"
    path.write_text(json.dumps(instance))
    assert cli.main(["sd", str(path), "--times", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {named} has a label that is not a string or a number\n"
    assert not out.exists()


def test_string_and_number_labels_are_read_as_their_str(tmp_path, capsys):
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps({"facets": [[1, 2.5, "x"]], "classes": [[1], [2.5], ["x"]]}))
    assert cli.main(["sd", str(path), "--times", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"facets": [["1", "2.5", "x"]]}
