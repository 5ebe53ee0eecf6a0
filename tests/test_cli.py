import json

import pytest

from clarfries import cli, jsonio, plane, sourcesink
from clarfries.cli import main
from clarfries.digraph import Digraph
from fixtures import BOWTIE_ARCS, BOWTIE_NAMES, benzenoid, BENZENE_CENTERS, NAPHTHALENE_CENTERS


@pytest.fixture
def bowtie_file(tmp_path):
    inst = {
        "nodes": list(BOWTIE_NAMES),
        "arcs": [[u, v] for u, v in BOWTIE_ARCS],
        "w_o": {n: 1 for n in BOWTIE_NAMES},
        "w_i": {n: 1 for n in BOWTIE_NAMES},
    }
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps(inst))
    return str(path)


@pytest.fixture
def benzene_file(tmp_path):
    data = benzenoid(BENZENE_CENTERS)
    data["w1"] = {"f0": 5}
    data["w2"] = {"f0": 3}
    path = tmp_path / "benzene.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_digraph(capsys, bowtie_file):
    code, out = run(capsys, "solve-digraph", bowtie_file)
    assert code == 0
    assert out["value"] == 4
    assert sorted(out["Y_o"] + out["Y_i"]) == ["a2", "a3", "b1", "b2"]
    assert out["cover_cost"] == 4
    assert all(out["checks"].values())
    assert set(out["potential"]) == set(BOWTIE_NAMES)


def test_solve_digraph_fractional_weights(capsys, tmp_path):
    inst = {
        "nodes": ["u", "v"],
        "arcs": [["u", "v"]],
        "w_o": {"u": "1/2", "v": 0.25},
        "w_i": {"u": 1, "v": "3/2"},
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(inst))
    code, out = run(capsys, "solve-digraph", str(path))
    assert code == 0
    assert out["value"] == 2  # u as source, v as sink: 1/2 + 3/2
    assert out["checks"]["minmax_equal"]


def test_sink_stable(capsys, bowtie_file):
    code, out = run(capsys, "sink-stable", bowtie_file)
    assert code == 0
    assert out["value"] == 2
    assert sorted(out["Y"]) == ["a3", "b1"]
    assert out["circuits"]
    for circuit in out["circuits"]:
        assert circuit["multiplicity"] >= 1
        assert circuit["original_arcs"] >= 1
    assert out["certificate"]["checks"]["pair_verified"]


def test_sink_stable_within(capsys, bowtie_file):
    code, out = run(capsys, "sink-stable", "--within", "a3,b1", bowtie_file)
    assert code == 0
    assert out["value"] == 2
    assert set(out["Y"]) <= {"a3", "b1"}


def test_resonant_within(capsys, bowtie_file):
    code, out = run(capsys, "resonant", "--within", "a1,b1,x", bowtie_file)
    assert code == 0
    assert out["value"] == 2
    assert set(out["Y_o"] + out["Y_i"]) <= {"a1", "b1", "x"}
    assert out["cover_cost"] == 2


def test_clar_and_fries(capsys, benzene_file):
    code, out = run(capsys, "clar", benzene_file)
    assert code == 0
    assert out["value"] == 1
    assert out["clar_set"] == ["f0"]
    assert len(out["matching"]) == 3

    code, out = run(capsys, "fries", benzene_file)
    assert code == 0
    assert out["value"] == 1
    assert out["fries_set"] == ["f0"]


def test_clar_fries_weighted(capsys, benzene_file):
    code, out = run(capsys, "clar-fries", benzene_file)
    assert code == 0
    assert out["value"] == 5
    assert out["cw_faces"] == ["f0"]
    assert out["certificate"]["checks"]["minmax_equal"]


def test_verify_file_and_random(capsys, bowtie_file):
    code, out = run(capsys, "verify", bowtie_file)
    assert code == 0
    assert out == {"agree": True, "solver": 4, "oracle": 4}

    code, out = run(capsys, "verify", "--random", "8", "--seed", "3")
    assert code == 0
    assert out["agree"] is True
    assert out["instances"] == 8


def test_verify_plane_file(capsys, benzene_file):
    code, out = run(capsys, "verify", benzene_file)
    assert code == 0
    assert out["agree"] is True
    assert out["solver"] == 5 == out["oracle"]


def test_budget_flags_give_input_error_exit(capsys, bowtie_file):
    code, out = run(capsys, "verify", "--budget-arcs", "6", bowtie_file)
    assert code == 1
    assert "error" in out


@pytest.mark.parametrize("arcs", ["1", "2", "3"])
def test_verify_random_fits_small_arc_budgets(capsys, arcs):
    code, out = run(capsys, "verify", "--random", "5", "--seed", "4", "--budget-arcs", arcs)
    assert code == 0
    assert out == {"agree": True, "instances": 5, "seed": 4}


@pytest.mark.parametrize(
    "args",
    [["--random", "-3"], ["--random", "5", "--budget-arcs", "0"],
     ["--random", "5", "--budget-arcs", "-2"]],
    ids=["negative-count", "zero-arc-budget", "negative-arc-budget"],
)
def test_verify_random_rejects_bad_arguments(capsys, args):
    code, out = run(capsys, "verify", *args)
    assert code == 1
    assert list(out) == ["error"]


def test_error_exits(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run(capsys, "solve-digraph", str(bad))
    assert code == 1 and "error" in out

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "nodes": ["u", "v"], "arcs": [["u", "v"]],
        "w_o": {"zz": 1}, "w_i": {},
    }))
    code, out = run(capsys, "solve-digraph", str(unknown))
    assert code == 1 and "unknown node" in out["error"]

    code, out = run(capsys, "solve-digraph", str(tmp_path / "missing.json"))
    assert code == 1 and "error" in out

    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({
        "nodes": ["u", "v"], "arcs": [["u", "v"]],
        "w_o": {"u": -1}, "w_i": {},
    }))
    code, out = run(capsys, "solve-digraph", str(negative))
    assert code == 1


def test_pretty_output(capsys, bowtie_file):
    code = main(["solve-digraph", "--pretty", bowtie_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") > 3
    assert json.loads(out)["value"] == 4


@pytest.mark.parametrize("raw", ["NaN", "Infinity"])
def test_non_finite_digraph_weight_is_input_error(capsys, tmp_path, raw):
    path = tmp_path / "nonfinite.json"
    path.write_text(
        '{"nodes": ["u", "v"], "arcs": [["u", "v"]], "w_o": {"u": %s}, "w_i": {}}' % raw
    )
    code, out = run(capsys, "solve-digraph", str(path))
    assert code == 1
    assert "w_o[u]" in out["error"]


@pytest.mark.parametrize(
    "raw", ['"abc"', '"1/0"', "NaN", "Infinity"], ids=["abc", "1/0", "NaN", "Infinity"]
)
def test_malformed_face_weight_is_input_error(capsys, tmp_path, raw):
    data = benzenoid(BENZENE_CENTERS)
    data["w1"] = {"f0": "WEIGHT"}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data).replace('"WEIGHT"', raw))
    code, out = run(capsys, "clar-fries", str(path))
    assert code == 1
    assert "w1[f0]" in out["error"]


def _count_calls(monkeypatch, modules, name, calls):
    """Count calls of ``name`` wherever one of ``modules`` reaches it."""
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("command", ["clar", "fries", "clar-fries"])
def test_plane_request_finds_one_matching_and_one_dual(capsys, monkeypatch, tmp_path, command):
    calls = {"perfect_matching": 0, "planar_dual": 0}
    for name in calls:
        _count_calls(monkeypatch, [plane], name, calls)
    path = tmp_path / "naphthalene.json"
    path.write_text(json.dumps(benzenoid(NAPHTHALENE_CENTERS)))
    code, _out = run(capsys, command, str(path))
    assert code == 0
    assert calls == {"perfect_matching": 1, "planar_dual": 1}


def _digraph_input(**changes):
    data = {"nodes": ["a", "b"], "arcs": [["a", "b"]]}
    data.update(changes)
    return data


def _benzene_input(**changes):
    data = benzenoid(BENZENE_CENTERS)
    data.update(changes)
    return data


def _benzene_with_boundary_edge(edge):
    data = benzenoid(BENZENE_CENTERS)
    data["faces"][0]["boundary"][0][0] = edge
    return data


@pytest.mark.parametrize(
    "command, data",
    [
        ("solve-digraph", _digraph_input(nodes=5)),
        ("solve-digraph", _digraph_input(arcs=7)),
        ("solve-digraph", _digraph_input(arcs=[[["a"], "b"]])),
        ("clar", _benzene_input(S=3)),
        ("clar", _benzene_input(edges=[[["s0"], "t0"]])),
        ("clar", _benzene_with_boundary_edge("x")),
    ],
    ids=["nodes-int", "arcs-int", "arc-endpoint-list", "S-int",
         "edge-endpoint-list", "boundary-edge-str"],
)
def test_malformed_shape_is_input_error(capsys, tmp_path, command, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert list(out) == ["error"]


@pytest.mark.parametrize(
    "command", ["solve-digraph", "resonant", "sink-stable", "clar-fries"]
)
def test_request_checks_each_certificate_once(
    capsys, monkeypatch, bowtie_file, benzene_file, command
):
    calls = {"certificate_checks": 0, "Digraph": 0}
    _count_calls(monkeypatch, [sourcesink, jsonio], "certificate_checks", calls)
    build = Digraph.__init__

    def counted_build(self, *args, **kwargs):
        calls["Digraph"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(Digraph, "__init__", counted_build)
    path = benzene_file if command == "clar-fries" else bowtie_file
    code, _out = run(capsys, command, path)
    assert code == 0
    assert calls["certificate_checks"] == 1
    if command == "solve-digraph":
        # the input digraph only: the doubled graph and the auxiliary
        # network are derived from it without re-validation
        assert calls["Digraph"] == 1


def test_parser_reused_with_fresh_parser_output(capsys, monkeypatch, bowtie_file):
    requests = [
        ["sink-stable", "--within", "a3,b1", bowtie_file],
        ["sink-stable", bowtie_file],
        ["solve-digraph", "--pretty", bowtie_file],
        ["solve-digraph", bowtie_file],
    ]

    def respond(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    fresh = []
    for argv in requests:
        cli._shared_parser.cache_clear()
        fresh.append(respond(argv))

    calls = {"build_parser": 0}
    _count_calls(monkeypatch, [cli], "build_parser", calls)
    cli._shared_parser.cache_clear()
    assert [respond(argv) for argv in requests] == fresh
    assert calls["build_parser"] == 1
