import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clarfries import cli, jsonio, plane, sourcesink
from clarfries.cli import main
from clarfries.digraph import Digraph
from clarfries.errors import InputError
from clarfries.mincost import CirculationInstance
from clarfries.sourcesink import CircularCover, WeightPair
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
def bowtie_half_weight_file(tmp_path):
    inst = {
        "nodes": list(BOWTIE_NAMES),
        "arcs": [[u, v] for u, v in BOWTIE_ARCS],
        "w_o": {"a1": "1/2"},
        "w": {"a1": "1/2"},
    }
    path = tmp_path / "bowtie_half.json"
    path.write_text(json.dumps(inst))
    return str(path)


@pytest.fixture
def benzene_half_weight_file(tmp_path):
    data = benzenoid(BENZENE_CENTERS)
    data["w2"] = {"f0": "1/2"}
    path = tmp_path / "benzene_half.json"
    path.write_text(json.dumps(data))
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


def test_sink_stable_rejects_fractional_weights(capsys, bowtie_half_weight_file):
    code, out = run(capsys, "sink-stable", bowtie_half_weight_file)
    assert code == 1
    assert out == {"error": "sink-stable weights must be integers"}


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


@pytest.mark.parametrize("command", ["sink-stable", "resonant"])
def test_unknown_within_name_is_an_input_error(capsys, bowtie_file, command):
    code, out = run(capsys, command, "--within", "a1, zz,b1", bowtie_file)
    assert code == 1
    assert out == {"error": "--within references unknown node 'zz'"}


@pytest.mark.parametrize("command", ["sink-stable", "resonant"])
@pytest.mark.parametrize("within", ["", " "], ids=["empty", "blank"])
def test_empty_within_is_an_input_error(capsys, bowtie_file, command, within):
    # an empty pool is not "every node": it is rejected, naming the option
    code, out = run(capsys, command, "--within", within, bowtie_file)
    assert code == 1
    assert list(out) == ["error"] and "--within" in out["error"]


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


def test_verify_unweighted_plane_file_uses_fries_weights(capsys, tmp_path):
    data = benzenoid(NAPHTHALENE_CENTERS)  # empty w1 and w2 maps
    path = tmp_path / "naphthalene.json"
    path.write_text(json.dumps(data))
    code, fries = run(capsys, "fries", str(path))
    assert code == 0
    for drop in ((), ("w1", "w2")):  # empty maps, then no maps
        for key in drop:
            del data[key]
        path.write_text(json.dumps(data))
        code, out = run(capsys, "verify", str(path))
        assert code == 0
        assert out == {"agree": True, "solver": fries["value"], "oracle": fries["value"]}
        assert out["solver"] != 0


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


@pytest.mark.parametrize(
    "raw", [b'{"nodes": ["\xff"], "arcs": []}', b"[" * 100000, b"1" * 5000],
    ids=["non-utf8", "deeply-nested", "huge-int"],
)
def test_unreadable_json_is_input_error(capsys, tmp_path, raw):
    path = tmp_path / "unreadable.json"
    path.write_bytes(raw)
    for command in ("solve-digraph", "clar"):
        code, out = run(capsys, command, str(path))
        assert code == 1
        assert list(out) == ["error"]


@pytest.mark.parametrize(
    "name, w_o",
    [
        ("a", {"a": "1" * 1_000_000}),
        ("a", {"a": [0] * 200_000}),
        ("a", {"x" * 500_000: 1}),
        ("x" * 500_000, {"x" * 500_000: "bad"}),
    ],
    ids=["million-digit-string", "long-list", "long-unknown-name", "long-known-name"],
)
def test_error_message_cuts_a_huge_value_short(capsys, tmp_path, name, w_o):
    path = tmp_path / "huge_value.json"
    path.write_text(json.dumps({"nodes": [name, "b"], "arcs": [[name, "b"]], "w_o": w_o}))
    code = main(["solve-digraph", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out) < 1000 and len(captured.err) < 1000
    assert list(json.loads(captured.out)) == ["error"]


def test_fresh_cli_import_loads_no_dataclasses():
    # every module a fresh process imports is paid on each CLI call
    code = (
        "import sys; before = set(sys.modules); import clarfries.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
def test_answer_over_the_digit_limit_is_input_error(capsys, tmp_path, pretty):
    # the value 2 * (10**4300 - 1) has 4301 digits
    path = tmp_path / "big_answer.json"
    path.write_text(json.dumps({
        "nodes": ["a", "b"], "arcs": [["a", "b"]],
        "w_o": {"a": "9" * 4300}, "w_i": {"b": "9" * 4300},
    }))
    code, out = run(capsys, "solve-digraph", *pretty, str(path))
    assert code == 1
    assert list(out) == ["error"]
    assert "4300-digit" in out["error"]


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
def test_rational_answer_over_the_digit_limit_is_input_error(capsys, tmp_path, pretty):
    # the value 1/(b + 1) + 1/(b + 3) has a denominator of about 6000 digits
    b = 10**3000
    path = tmp_path / "big_rational_answer.json"
    path.write_text(json.dumps({
        "nodes": ["a", "b", "c"], "arcs": [["a", "b"], ["c", "b"]],
        "w_o": {"a": f"1/{b + 1}", "c": f"1/{b + 3}"},
    }))
    code, out = run(capsys, "solve-digraph", *pretty, str(path))
    assert code == 1
    assert list(out) == ["error"]
    assert "4300-digit" in out["error"]


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


def _spy(monkeypatch, name, seen, pick):
    """Wrap ``jsonio.name`` or ``plane.name`` wherever jsonio, plane or cli
    reaches it, appending ``pick(args, result)`` of each call to ``seen``."""
    owner = jsonio if hasattr(jsonio, name) else plane
    original = getattr(owner, name)

    def spy(*args):
        result = original(*args)
        seen.append(pick(args, result))
        return result

    for module in (jsonio, plane, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)


def test_a_request_reads_its_weight_maps_against_its_own_name_index(
    capsys, monkeypatch, bowtie_file, benzene_file
):
    """Every weight map of a request gets the ``{name: position}`` dict that
    the request's reader built, the very object, not a rebuilt copy."""
    indexes, built, graphs = [], [], []
    _spy(monkeypatch, "node_weights_from_json", indexes, lambda args, _r: args[1])
    _spy(monkeypatch, "digraph_from_json", built, lambda _a, result: result[2])
    _spy(monkeypatch, "parse_validate", graphs, lambda _a, result: result)

    assert run(capsys, "solve-digraph", bowtie_file)[0] == 0
    (index,) = built
    assert len(indexes) == 2 and indexes[0] is index and indexes[1] is index
    assert index == {name: v for v, name in enumerate(BOWTIE_NAMES)}

    built.clear()
    indexes.clear()
    assert run(capsys, "resonant", bowtie_file, "--within", "a1,b1")[0] == 0
    assert len(built) == 1 and indexes == [built[0]] and indexes[0] is built[0]

    indexes.clear()
    assert run(capsys, "clar-fries", benzene_file)[0] == 0
    (g,) = graphs
    assert len(indexes) == 2 and indexes[0] is indexes[1]
    assert indexes[0] == {name: f for f, name in enumerate(g.face_names)}
    assert type(indexes[0]) is dict


@pytest.mark.parametrize("command", ["clar", "fries", "clar-fries"])
def test_plane_request_finds_one_matching_and_one_dual(capsys, monkeypatch, tmp_path, command):
    calls = {"perfect_matching": 0, "planar_dual": 0, "orient_by_matching": 0}
    for name in calls:
        _count_calls(monkeypatch, [plane], name, calls)
    path = tmp_path / "naphthalene.json"
    path.write_text(json.dumps(benzenoid(NAPHTHALENE_CENTERS)))
    code, _out = run(capsys, command, str(path))
    assert code == 0
    assert calls == {"perfect_matching": 1, "planar_dual": 1, "orient_by_matching": 0}


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


def _benzene_with_face_id(face_id, outer=None):
    """Benzene whose inner face is named ``face_id``; with ``outer``, the
    outer face is named ``"1"`` and ``outer`` names the outer face."""
    data = benzenoid(BENZENE_CENTERS)
    data["faces"][0]["id"] = face_id
    if outer is not None:
        data["faces"][1]["id"] = "1"
        data["outer"] = outer
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
        ("solve-digraph", {"nodes": [1, 2], "arcs": [[1, 2]]}),
        ("solve-digraph", {"nodes": [None, True], "arcs": [["None", "True"]]}),
        ("clar-fries", _benzene_with_face_id(None)),
        ("clar-fries", _benzene_with_face_id(0)),
        ("clar-fries", _benzene_with_face_id(True)),
        ("clar-fries", _benzene_with_face_id([1])),
        ("clar-fries", _benzene_with_face_id("f0", outer=1)),
    ],
    ids=["nodes-int", "arcs-int", "arc-endpoint-list", "S-int",
         "edge-endpoint-list", "boundary-edge-str", "node-names-int",
         "node-names-null-bool", "face-id-null", "face-id-int", "face-id-bool",
         "face-id-list", "outer-int"],
)
def test_malformed_shape_is_input_error(capsys, tmp_path, command, data):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert list(out) == ["error"]


@pytest.mark.parametrize(
    "command, data",
    [
        ("solve-digraph", _digraph_input(w_o=None)),
        ("clar-fries", _benzene_input(w1=None)),
    ],
    ids=["w_o", "w1"],
)
def test_null_weight_map_reads_as_absent(capsys, tmp_path, command, data):
    path = tmp_path / "null.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, command, str(path))
    assert code == 0
    assert out["value"] == 0


def test_unknown_face_weight_names_the_face(capsys, tmp_path):
    path = tmp_path / "unknown_face.json"
    path.write_text(json.dumps(_benzene_input(w1={"zz": 1})))
    code, out = run(capsys, "clar-fries", str(path))
    assert code == 1
    assert "unknown face 'zz'" in out["error"]


_BIG = 10**160


@pytest.mark.parametrize(
    "command, data, value",
    [
        ("solve-digraph", _digraph_input(w_o={"a": "1" + "0" * 309}), 10**309),
        ("clar-fries", _benzene_input(w2={"f0": 10**309}), 10**309),
        # every weight is below 1; the lcm of their denominators is not
        (
            "solve-digraph",
            {
                "nodes": ["a", "b", "c"],
                "arcs": [["a", "b"], ["b", "c"]],
                "w_o": {"a": f"1/{_BIG + 1}", "b": f"1/{_BIG + 3}", "c": f"1/{_BIG + 7}"},
            },
            Fraction(1, _BIG + 1) + Fraction(1, _BIG + 7),
        ),
    ],
    ids=["arc-1e309", "benzene-1e309", "path-1e-160-denominators"],
)
def test_weights_beyond_the_float_range_solve_exactly(capsys, tmp_path, command, data, value):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, command, str(path))
    assert code == 0
    cert = out.get("certificate", out)
    expected = jsonio.render_value(value)
    assert out["value"] == cert["value"] == cert["cover_cost"] == expected
    assert all(cert["checks"].values())


@pytest.mark.parametrize(
    "p, q",
    [
        (0, 1), (0, 12), (5, 1), (6, 3), (12, 12), (7, 2), (14, 4), (9, 12),
        (-3, 6), (_BIG + 2, 2), (1, _BIG + 1), (3 * 10**4400, 3),
    ],
    ids=[
        "0/1", "0/12", "5/1", "6/3", "12/12", "7/2", "14/4", "9/12",
        "-3/6", "big/2", "1/big", "whole-4401-digits",
    ],
)
def test_integer_renderer_matches_the_fraction_renderer(p, q):
    """A cover entry ``z`` in units of ``1/scale`` renders as the exact
    value ``z/scale`` would: an int when whole, else ``"p/q"`` in lowest
    terms."""
    rendered = jsonio.render_ratio(p, q)
    assert rendered == jsonio.render_value(Fraction(p, q))
    assert type(rendered) is type(jsonio.render_value(Fraction(p, q)))


@pytest.mark.parametrize(
    "p, q",
    [(10**4300, 3), (1, 10**4300 + 1), (10**4300 + 1, 10**4300)],
    ids=["numerator", "denominator", "both"],
)
def test_integer_renderer_keeps_the_digit_limit(p, q):
    for render in (lambda: jsonio.render_ratio(p, q), lambda: jsonio.render_value(Fraction(p, q))):
        with pytest.raises(InputError) as raised:
            render()
        assert str(raised.value) == jsonio.ANSWER_TOO_LONG


def test_failed_self_check_exits_internal(capsys, monkeypatch, bowtie_file):
    original = sourcesink.certificate_checks
    monkeypatch.setattr(
        sourcesink,
        "certificate_checks",
        lambda cert: {**original(cert), "minmax_equal": False},
    )
    code, out = run(capsys, "solve-digraph", bowtie_file)
    assert code == 2
    assert out["kind"] == "internal"
    assert "minmax_equal" in out["error"]


@pytest.mark.parametrize(
    "module, name, command, fixture",
    [
        (sourcesink, "max_source_sink", "solve-digraph", "bowtie_file"),
        (plane, "clar_number", "clar", "benzene_file"),
    ],
)
def test_running_out_of_memory_is_an_error_object(
    capsys, monkeypatch, request, module, name, command, fixture
):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(module, name, exhausted)
    code = main([command, request.getfixturevalue(fixture)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ['{"error":"out of memory"}']
    assert captured.err == "error: out of memory\n"


def test_imperfect_final_matching_exits_internal(capsys, monkeypatch, benzene_file):
    monkeypatch.setattr(
        plane, "potential_drops", lambda d, p: (1,) + (0,) * (d.arc_count - 1)
    )
    code, out = run(capsys, "clar-fries", benzene_file)
    assert code == 2
    assert out["kind"] == "internal"
    assert "perfect matching" in out["error"]


@pytest.mark.parametrize("command", ["clar", "fries", "clar-fries"])
def test_plane_file_holding_a_json_string_is_input_error(capsys, tmp_path, command):
    # the file decodes to a str, which is not read as JSON a second time,
    # even when it holds a valid graph
    path = tmp_path / "string.json"
    for text in ('"{"', json.dumps(json.dumps(benzenoid(BENZENE_CENTERS)))):
        path.write_text(text)
        code = main([command, str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(lines) == 1
        assert list(json.loads(lines[0])) == ["error"]


def _one_of_each_request(capsys, monkeypatch, tmp_path, bowtie_file,
                         bowtie_half_weight_file, benzene_file) -> list:
    """Exit codes of one request of each kind through ``main``: every
    command, both digraph weight forms, both ``verify`` file kinds and
    ``--random``, an input error and, last, an internal error."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["a"], "arcs": [["a", "b"]]}')
    argvs = [
        ["solve-digraph", bowtie_file],
        ["solve-digraph", bowtie_half_weight_file],
        ["resonant", bowtie_file],
        ["sink-stable", bowtie_file],
        ["clar", benzene_file],
        ["fries", benzene_file],
        ["clar-fries", benzene_file],
        ["verify", benzene_file],
        ["verify", bowtie_file],
        ["verify", "--random", "3"],
        ["solve-digraph", str(bad)],
    ]
    codes = [main(argv) for argv in argvs]
    monkeypatch.setattr(
        plane, "potential_drops", lambda d, p: (1,) + (0,) * (d.arc_count - 1)
    )
    codes.append(main(["clar-fries", benzene_file]))
    monkeypatch.undo()
    capsys.readouterr()
    return codes


def test_a_request_leaves_no_cyclic_garbage(
    capsys, monkeypatch, tmp_path, bowtie_file, bowtie_half_weight_file, benzene_file
):
    """``main`` pauses the cyclic collector, which is safe only while a
    request builds no reference cycles: reference counting then frees it
    all.  A warm-up pass fills the caches first (the shared parser, lazy
    imports), whose objects stay alive."""
    files = (tmp_path, bowtie_file, bowtie_half_weight_file, benzene_file)
    expected = [0] * 10 + [1, 2]
    assert _one_of_each_request(capsys, monkeypatch, *files) == expected
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert _one_of_each_request(capsys, monkeypatch, *files) == expected
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_setting(capsys, monkeypatch, tmp_path, bowtie_file,
                                             enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["solve-digraph", bowtie_file]) == 0
        assert gc.isenabled() is enabled
        assert main(["solve-digraph", str(tmp_path / "missing.json")]) == 1
        assert gc.isenabled() is enabled
        original = sourcesink.certificate_checks
        monkeypatch.setattr(
            sourcesink,
            "certificate_checks",
            lambda cert: {**original(cert), "minmax_equal": False},
        )
        assert main(["solve-digraph", bowtie_file]) == 2
        assert gc.isenabled() is enabled

        seen = []

        def crash(path):
            seen.append(gc.isenabled())
            raise RuntimeError("crash")

        monkeypatch.setattr(cli, "_load", crash)
        with pytest.raises(RuntimeError):
            main(["solve-digraph", bowtie_file])
        assert gc.isenabled() is enabled
        assert seen == [False]
    finally:
        (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()


def _count_constructions(monkeypatch, cls, method, calls):
    """Count calls of ``cls.method`` under the class name."""
    original = getattr(cls, method)
    calls[cls.__name__] = 0

    def counted(self, *args, **kwargs):
        calls[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)


@pytest.mark.parametrize(
    "command, input_file",
    [
        ("solve-digraph", "bowtie_file"),
        ("resonant", "bowtie_file"),
        ("sink-stable", "bowtie_file"),
        ("clar-fries", "benzene_file"),
        ("solve-digraph", "bowtie_half_weight_file"),
        ("resonant", "bowtie_half_weight_file"),
        ("clar-fries", "benzene_half_weight_file"),
    ],
    ids=["solve-digraph", "resonant", "sink-stable", "clar-fries",
         "solve-digraph-pq", "resonant-pq", "clar-fries-pq"],
)
def test_request_checks_each_certificate_once(
    capsys, monkeypatch, request, command, input_file
):
    calls = {"certificate_checks": 0, "_check_weight_vector": 0}
    _count_calls(monkeypatch, [sourcesink, jsonio], "certificate_checks", calls)
    _count_calls(monkeypatch, [sourcesink], "_check_weight_vector", calls)
    for cls, method in [
        (Digraph, "__init__"),
        (CirculationInstance, "__init__"),
        (WeightPair, "__init__"),
        (CircularCover, "__init__"),
    ]:
        _count_constructions(monkeypatch, cls, method, calls)
    code, out = run(capsys, command, request.getfixturevalue(input_file))
    assert code == 0
    if "half" in input_file:
        assert out["value"] == "1/2"
    assert calls["certificate_checks"] == 1
    # the auxiliary network goes to the solver unwrapped
    assert calls["CirculationInstance"] == 0
    # the solver's weights, rendered from the certificate; the auxiliary
    # network clears their denominators without a scaled copy
    assert calls["WeightPair"] == 1
    assert calls["_check_weight_vector"] == 2
    # the cover is read off the certified flows without the constructor's
    # checks
    assert calls["CircularCover"] == 0
    if command == "solve-digraph":
        # the input digraph only: the doubled graph is derived from it
        # without re-validation, and the auxiliary network builds none
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


_GOLDEN_CHECKS = (
    '"checks":{"pair_disjoint":true,"potential_small_dropping":true,'
    '"pair_verified":true,"cover_out":true,"cover_in":true,"cover_circulation":true,'
)
_GOLDEN = {
    "solve-digraph-pq": (
        '{"value":"1/2","Y_o":["a1"],"Y_i":[],'
        '"potential":{"a1":1,"a2":0,"a3":0,"x":0,"b1":0,"b2":0,"b3":0},'
        '"cover":{"z_o":[[["a1","x"],"1/2"]],"z_i":[[["x","a1"],"1/2"]]},'
        '"cover_cost":"1/2",' + _GOLDEN_CHECKS + '"minmax_equal":true}}'
    ),
    "resonant-pq": (
        '{"value":"1/2","Y_o":["a1"],"Y_i":[],'
        '"potential":{"a1":1,"a2":0,"a3":0,"x":0,"b1":0,"b2":0,"b3":0},'
        '"cover":{"z_o":[[["a1","x"],"1/2"]],"z_i":[[["x","a1"],"1/2"]]},'
        '"cover_cost":"1/2",' + _GOLDEN_CHECKS + '"minmax_equal":true},'
        '"resonant_set":["a1"]}'
    ),
    "clar-fries-pq": (
        '{"value":"1/2","matching":[["s0","t2"],["s1","t0"],["s2","t1"]],'
        '"cw_faces":[],"acw_faces":["f0"],'
        '"certificate":{"value":"1/2","Y_o":["f0"],"Y_i":[],'
        '"potential":{"f0":1,"f1":0},'
        '"cover":{"z_o":[[["f0","f1"],"1/2"]],"z_i":[[["f1","f0"],"1/2"]]},'
        '"cover_cost":"1/2",' + _GOLDEN_CHECKS + '"minmax_equal":true}}}'
    ),
    "sink-stable": (
        '{"value":2,"Y":["a3","b1"],"circuits":['
        '{"nodes":["x","a1","a2","a3"],"multiplicity":1,"original_arcs":1},'
        '{"nodes":["x","b3","b2","b1"],"multiplicity":1,"original_arcs":1}],'
        '"certificate":{"value":2,"Y_o":[],"Y_i":["a3","b1"],'
        '"potential":{"a1":2,"a2":2,"a3":1,"x":1,"b1":0,"b2":1,"b3":1},'
        '"cover":{"z_o":[],"z_i":[[["x","a1"],1],[["b1","x"],1],[["a1","a2"],1],'
        '[["a2","a3"],1],[["a3","x"],1],[["b2","b1"],1],[["b3","b2"],1],[["x","b3"],1]]},'
        '"cover_cost":2,' + _GOLDEN_CHECKS + '"cover_integral":true,"minmax_equal":true}}}'
    ),
}


@pytest.mark.parametrize(
    "case, command, input_file",
    [
        ("solve-digraph-pq", "solve-digraph", "bowtie_half_weight_file"),
        ("resonant-pq", "resonant", "bowtie_half_weight_file"),
        ("clar-fries-pq", "clar-fries", "benzene_half_weight_file"),
        ("sink-stable", "sink-stable", "bowtie_file"),
    ],
    ids=["solve-digraph-pq", "resonant-pq", "clar-fries-pq", "sink-stable"],
)
def test_golden_stdout(capsys, request, case, command, input_file):
    # the whole compact answer, "p/q" cover entries included, byte for byte
    assert main([command, request.getfixturevalue(input_file)]) == 0
    assert capsys.readouterr().out == _GOLDEN[case] + "\n"
