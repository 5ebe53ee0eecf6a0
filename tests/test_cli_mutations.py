"""Mutated instances never escape the CLI's contract.

Each example takes a valid digraph or plane instance, applies a few random
mutations anywhere in its JSON tree (drop, duplicate or retype a key or a
list entry, or swap in an odd edge index or weight) and runs a solver
subcommand on it.  The run must exit 0, or exit 1 printing exactly
``{"error": ...}``; a traceback or any other exit fails the example.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from clarfries.cli import main
from fixtures import BOWTIE_ARCS, BOWTIE_NAMES, NAPHTHALENE_CENTERS, benzenoid

DIGRAPH = {
    "nodes": list(BOWTIE_NAMES),
    "arcs": [[u, v] for u, v in BOWTIE_ARCS],
    "w_o": {"a1": 1, "x": "1/2", "b2": 2},
    "w_i": {"a2": 0.25, "b1": 3},
    "w": {"a3": 1, "b3": 2},
}
PLANE = dict(benzenoid(NAPHTHALENE_CENTERS), w1={"f0": 2, "f1": "1/3"}, w2={"f2": 1})
COMMANDS = {
    "digraph": ("solve-digraph", "resonant", "sink-stable"),
    "plane": ("clar", "fries", "clar-fries"),
}

# stand-ins for a retyped value, an odd edge index or an odd weight
ODD_VALUES = (
    None, True, False, 0, 1, -1, 2, 7, 10**30, 1.5, -0.5, float("nan"),
    float("inf"), "", "x", "+", "-", "a1", "s0", "f0", "1/0", "-1/2", "abc",
    [], [0], [0, "+"], ["a1", "x"], {}, {"id": "f0"},
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, as the path of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(data, draw):
    paths = list(_paths(data))[1:]
    if not paths:
        return
    path = draw(st.sampled_from(paths))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = draw(st.sampled_from(("drop", "duplicate", "retype")))
    if kind == "drop":
        del parent[key]
    elif kind == "duplicate":
        copy = json.loads(json.dumps(parent[key]))
        if isinstance(parent, list):
            parent.insert(key, copy)
        else:
            parent[draw(st.sampled_from(("S", "T", "id", f"{key}2", "f0", "a1")))] = copy
    else:
        parent[key] = json.loads(json.dumps(draw(st.sampled_from(ODD_VALUES))))


@st.composite
def mutated_requests(draw):
    family = draw(st.sampled_from(sorted(COMMANDS)))
    data = json.loads(json.dumps(DIGRAPH if family == "digraph" else PLANE))
    for _ in range(draw(st.integers(1, 3))):
        _mutate(data, draw)
    return draw(st.sampled_from(COMMANDS[family])), data


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(mutated_requests())
def test_mutated_instance_exits_cleanly(request):
    command, data = request
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, path])
    finally:
        os.unlink(path)
    payload = json.loads(out.getvalue())
    assert code in (0, 1)
    if code == 1:
        assert list(payload) == ["error"]
