"""The exit-code contract as a fuzzed invariant.

Whatever the instance file and the flags hold, ``main`` returns 0, 1, 2 or 3
and never raises.  Each example starts from a small valid instance (one per
space kind), drops keys or substitutes hostile values at a few places of the
payload, writes it as JSON (``NaN`` and ``Infinity`` included) and runs one
command with a few possibly bad flags.  ``generate`` is fuzzed over its output
path only, so no example asks for a large instance.
"""

import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bestprox.cli import main

BASES = {
    "euclidean": {
        "metric": {"kind": "euclidean"},
        "A": [[0.0, 0.0], [0.0, 0.25], [0.0, 1.0]],
        "B": [[1.0, 0.0], [1.0, 0.25], [1.0, 1.0]],
        "T": [0, 0, 1],
        "tolerances": {"eps_prox": 1e-9, "tol": 1e-9},
        "alpha": 0.5,
    },
    "matrix": {
        "metric": {
            "kind": "explicit-matrix",
            "matrix": [[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 2.0, 1.0], [1.0, 2.0, 0.0, 1.0], [2.0, 1.0, 1.0, 0.0]],
        },
        "A": [0, 1],
        "B": [2, 3],
        "T": [0, 1],
        "tolerances": {"eps_prox": 0.0, "tol": 1e-9},
        "alpha": 0.5,
    },
}

# Places a mutation may hit: a key path into the payload.
PATHS = [
    ("metric",),
    ("metric", "kind"),
    ("metric", "matrix"),
    ("metric", "matrix", 0),
    ("metric", "matrix", 0, 1),
    ("metric", "matrix", 1, 0),
    ("A",),
    ("A", 0),
    ("A", 1, 0),
    ("B",),
    ("B", 0),
    ("B", 1, 1),
    ("T",),
    ("T", 0),
    ("tolerances",),
    ("tolerances", "tol"),
    ("tolerances", "eps_prox"),
    ("alpha",),
]

HOSTILE = [
    None,
    True,
    False,
    "1",
    "x",
    math.nan,
    math.inf,
    -math.inf,
    10**400,
    -(10**400),
    2**70,
    1e308,
    1e-300,
    -1,
    0,
    [],
    {},
    [[0.0, 0.0], [1.0]],
    [[0, 1], [1]],
    [["0", "0"], ["1", "1"]],
]

FLAGS = st.sampled_from(["--tol", "--eps-prox", "--start-index", "--method", "--wide"])
FLAG_VALUES = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "2", "1e400", "1" + "0" * 400, "abc", "", "both", "direct"])

mutation = st.tuples(st.sampled_from(PATHS), st.one_of(st.just("drop"), st.sampled_from(HOSTILE).map(lambda v: ("set", v))))


def apply(payload, path, action) -> None:
    """Drop the key or index at ``path``, or set it; a path that no longer exists is skipped."""
    node = payload
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(node, list) and isinstance(key, int) and key < len(node) or isinstance(node, dict) and key in node:
        if action == "drop":
            del node[key]
        else:
            node[key] = action[1]


@settings(max_examples=250, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    base=st.sampled_from(sorted(BASES)),
    mutations=st.lists(mutation, max_size=3),
    command=st.sampled_from(["certify", "solve", "oracle"]),
    flags=st.lists(st.tuples(FLAGS, FLAG_VALUES), max_size=2),
    json_format=st.booleans(),
)
def test_main_keeps_the_exit_code_contract(base, mutations, command, flags, json_format):
    payload = json.loads(json.dumps(BASES[base]))
    for path, action in mutations:
        apply(payload, path, action)
    options = ["--format", "json"] if json_format else []
    for flag, value in flags:
        options += [flag] if flag == "--wide" else [flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert main([command, path, *options]) in (0, 1, 2, 3), (payload, options)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(target=st.sampled_from(["dir", "missing", "file"]), flags=st.lists(FLAG_VALUES.map(lambda v: ["--gap", v]), max_size=1))
def test_generate_keeps_the_exit_code_contract(target, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = {"dir": tmp, "missing": os.path.join(tmp, "no", "such", "x.json"), "file": os.path.join(tmp, "x.json")}
        argv = ["generate", out[target], *(f for pair in flags for f in pair)]
        assert main(argv) in (0, 1, 2, 3), argv
