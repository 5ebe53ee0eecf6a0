"""Fresh-process checks of the ``clarfries`` command line.

Each run starts ``python -m clarfries.cli`` in a new interpreter whose
``PYTHONPATH`` is the directory that holds the imported ``clarfries``, and
checks the CLI's contract: exit 0 or 1, stdout one JSON object, on one
line unless ``--pretty``, only the key ``"error"`` on exit 1, and no
``Traceback`` or ``Exception ignored`` on stderr; with stdout a closed
pipe, exit 1 and one ``error:`` line on stderr.  A row of ``ROWS`` is one
run: its command line, input, exit code and what it must answer."""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import clarfries
from clarfries.oracle import acyclic_instance
from fixtures import BOWTIE_ARCS, BOWTIE_NAMES, HALL_VIOLATION, benzenoid, torus_grid

SRC = str(Path(clarfries.__file__).resolve().parents[1])
PROBE = str(Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py")
# stdout block-buffered, as a user's is, so a closed pipe leaves a buffer to flush at exit
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": SRC}


def fresh(argv, cwd, stdout=subprocess.PIPE):
    """``python *argv`` in a new interpreter that imports this ``clarfries``."""
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=ENV, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=20)


def run(cwd, data, *argv, code=0, pipe=False):
    """Write ``data`` (bytes as they are, a callable's result, else JSON) to
    ``in.json`` in ``cwd``, run the CLI on ``argv`` there, stdout a closed
    pipe if ``pipe``, check it, and return the process and its answer."""
    if data is not None:
        data = data() if callable(data) else data
        (cwd / "in.json").write_bytes(data if type(data) is bytes else json.dumps(data).encode())
    if pipe:
        read, closed = os.pipe()
        os.close(read)
    done = fresh(["-m", "clarfries.cli", *argv], cwd, closed if pipe else subprocess.PIPE)
    if pipe:
        os.close(closed)
    assert done.returncode in (0, 1) and done.returncode == code, done
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr, done.stderr
    if pipe:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        return done, None
    out = json.loads(done.stdout)
    assert type(out) is dict and done.stdout.endswith("\n")
    assert "--pretty" in argv or done.stdout.count("\n") == 1
    assert code == 0 or list(out) == ["error"], out
    return done, out


def proved(out, value):
    """``out`` answers ``value`` and its certificate proves it, every check true."""
    c = out.get("certificate", out)
    return all(c["checks"].values()) and out["value"] == c["value"] == c["cover_cost"] == value


def weighted_19x24():
    data = benzenoid([(q, r) for q in range(19) for r in range(24)])
    rng = random.Random(1924)
    inner = [f["id"] for f in data["faces"] if f["id"] != data["outer"]]
    return {**data, "w1": {f: rng.randint(0, 5) for f in inner},
            "w2": {f: rng.randint(0, 5) for f in inner}}


def row(name, argv, data=None, code=1, check=None, pipe=False):
    return pytest.param(argv.split(), data, code, check, pipe, id=name)


PATH = {"nodes": ["a", "b", "c"], "arcs": [["a", "b"], ["b", "c"]]}
ONE_ARC = {"nodes": ["a", "b"], "arcs": [["a", "b"]]}
BENZENE = benzenoid([(0, 0)])
ACENE_1500 = functools.cache(lambda: benzenoid([(0, r) for r in range(1500)]))
TINY, BIG = 10**160, 10**3000
ROWS = [
    row("zero-arc-budget", "verify --random 5 --budget-arcs 0"),
    row("verify-neither-file-nor-random", "verify"),
    row("verify-both-file-and-random", "verify in.json --random 3", ONE_ARC),
    row("command-line-does-not-parse", "verify --random abc"),
    row("acene-1500-clar", "clar in.json", ACENE_1500, 0, lambda done, out: out["value"] == 1),
    row("torus-with-isolated-nodes", "clar in.json", lambda: torus_grid(4, 4, 2)),
    row("hall-violation-named", "clar in.json", HALL_VIOLATION, 1, lambda done, out: all(
        p in out["error"] for p in ("S-nodes ['b1', 'b2', 'b3']", "T-neighbours ['y1', 'y2']"))),
    row("plane-file-holds-a-json-string", "clar in.json", "{"),
    row("plane-file-holds-benzene-as-a-string", "clar in.json", json.dumps(BENZENE)),
    row("non-utf8-input", "solve-digraph in.json", b'{"nodes": ["\xff"], "arcs": []}'),
    row("benzene-pq-face-weight", "clar-fries in.json", {**BENZENE, "w2": {"f0": "1/2"}}, 0,
        lambda done, out: proved(out, "1/2")),
    row("integer-node-names", "solve-digraph in.json", {"nodes": [1, 2], "arcs": [[1, 2]]}),
    row("denominators-past-the-float-range", "solve-digraph in.json",
        {**PATH, "w_o": {"a": f"1/{TINY + 1}", "b": f"1/{TINY + 3}", "c": f"1/{TINY + 7}"}}, 0,
        lambda done, out: proved(out, str(Fraction(1, TINY + 1) + Fraction(1, TINY + 7)))),
    row("5000-digit-integer-literal", "solve-digraph in.json", b"1" * 5000 + b"\n"),
    row("answer-over-4300-digits", "solve-digraph in.json",
        {**ONE_ARC, "w_o": {"a": "9" * 4300}, "w_i": {"b": "9" * 4300}}),
    row("pq-answer-over-4300-digits", "solve-digraph in.json",
        {"nodes": ["a", "b", "c"], "arcs": [["a", "b"], ["c", "b"]],
         "w_o": {"a": f"1/{BIG + 1}", "c": f"1/{BIG + 3}"}}),
    row("weight-exponent-over-4300", "solve-digraph in.json",
        {**ONE_ARC, "w_o": {"a": "1e-999999999"}}),
    row("million-digit-weight-cut-short", "solve-digraph in.json",
        lambda: {**ONE_ARC, "w_o": {"a": "1" * 10**6}}, 1,
        lambda done, out: len(done.stdout) < 1000),
    row("face-id-not-a-string", "clar in.json",
        {**BENZENE, "faces": [{**BENZENE["faces"][0], "id": None}, *BENZENE["faces"][1:]]}),
    row("sink-stable-every-weight-zero", "sink-stable in.json",
        {"nodes": ["a", "b", "c"], "arcs": [["a", "b"], ["b", "c"], ["c", "a"]],
         "w": {"a": 0, "b": 0, "c": 0}}, 0, lambda done, out: proved(out, 0)),
    row("resonant-bowtie-within-a1-b1-x", "resonant in.json --within a1,b1,x",
        {"nodes": list(BOWTIE_NAMES), "arcs": [list(arc) for arc in BOWTIE_ARCS]}, 0,
        lambda done, out: out["resonant_set"] == sorted(out["Y_o"] + out["Y_i"])
        and all(out["checks"].values())),
    row("weighted-19x24-parallelogram", "clar-fries in.json", weighted_19x24, 0,
        lambda done, out: proved(out, 127)),
    row("unknown-node-in-w_o", "solve-digraph in.json", {**PATH, "w_o": {"zz": 1}}, 1,
        lambda done, out: done.stdout == '{"error":"w_o references unknown node \'zz\'"}\n'),
    row("unknown-node-in-within", "resonant in.json --within a,zz", PATH, 1,
        lambda done, out: done.stdout == '{"error":"--within references unknown node \'zz\'"}\n'),
    row("unknown-face-in-w1", "clar-fries in.json", {**BENZENE, "w1": {"ghost": 1}}, 1,
        lambda done, out: done.stdout == '{"error":"w1 references unknown face \'ghost\'"}\n'),
    row("closed-pipe-acene-1500-clar", "clar in.json", ACENE_1500, pipe=True),
    row("closed-pipe-missing-file", "clar missing.json", pipe=True),
]


@pytest.mark.parametrize("argv, data, code, check, pipe", ROWS)
def test_console(tmp_path, argv, data, code, check, pipe):
    done, out = run(tmp_path, data, *argv, code=code, pipe=pipe)
    assert check is None or check(done, out), out


@pytest.fixture(scope="module", autouse=True)
def probe():
    """The scale probe, a text report and not the CLI's JSON, started with the
    module's first test so that its 3 s run on a core the rows leave idle."""
    with subprocess.Popen([sys.executable, PROBE, "2000", "--acyclic"], env=ENV, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        yield proc
        proc.kill()


def test_scale_probe_solves_the_acyclic_2000_node_instance(probe):
    out, err = probe.communicate(timeout=120)
    assert probe.returncode == 0 and "Traceback" not in err, err
    assert "value            3115" in out.splitlines(), out


def test_acyclic_2000_and_its_reversal_answer_alike(tmp_path):
    # reversing every arc and swapping w_o with w_i keeps the value
    d, w = acyclic_instance(2000, 10000)
    names = [f"v{i}" for i in range(d.node_count)]
    for arcs, w_o, w_i in ((zip(d.tails, d.heads), w.source_weight, w.sink_weight),
                           (zip(d.heads, d.tails), w.sink_weight, w.source_weight)):
        data = {"nodes": names, "arcs": [[names[u], names[v]] for u, v in arcs],
                "w_o": dict(zip(names, w_o)), "w_i": dict(zip(names, w_i))}
        assert proved(run(tmp_path, data, "solve-digraph", "in.json")[1], 3115)


def test_one_weight_written_three_ways_answers_alike(tmp_path):
    answers = {run(tmp_path, {**PATH, "w_o": {"a": w}, "w_i": {"c": w}}, "solve-digraph",
                   "in.json")[0].stdout for w in ("6/4", "3/2", 1.5)}
    assert len(answers) == 1


def test_within_and_the_same_w_map_answer_sink_stable_alike(tmp_path):
    within = run(tmp_path, PATH, "sink-stable", "in.json", "--within", "a,c")[0].stdout
    w_map = run(tmp_path, {**PATH, "w": {"a": 1, "c": 1}}, "sink-stable", "in.json")[0].stdout
    assert within == w_map


def test_pq_weights_and_the_same_weights_x4_answer_alike(tmp_path):
    nodes = {"nodes": list("abcd"), "arcs": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "c"]]}
    pq, x4 = (run(tmp_path, {**nodes, "w_o": w_o, "w_i": w_i}, "solve-digraph", "in.json")[1]
              for w_o, w_i in (({"a": "1/2", "c": "1/4"}, {"d": "3/4", "b": "5/2"}),
                               ({"a": 2, "c": 1}, {"d": 3, "b": 10})))
    assert proved(pq, "7/2") and proved(x4, 14)
    assert all(pq[key] == x4[key] for key in ("Y_o", "Y_i", "potential"))
    for key in ("z_o", "z_i"):
        a, b = pq["cover"][key], x4["cover"][key]
        assert [arc for arc, _ in a] == [arc for arc, _ in b], key
        assert all(4 * Fraction(z) == y for (_, z), (_, y) in zip(a, b)), key


def test_fresh_cli_import_loads_no_dataclasses(tmp_path):
    # every module a fresh process imports is paid on each CLI call
    code = ("import sys; before = set(sys.modules); import clarfries.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = fresh(["-c", code], tmp_path)
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr
