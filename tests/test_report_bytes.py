"""CLI reports compared byte for byte with golden files.

``tests/golden/<instance>-<command>.<ext>`` holds the stdout of
``bestprox <command> inst.json --format <format>`` for ``certify``, ``solve``
and ``oracle`` on two generated instances (one per space kind) and on the
``boundary_instance`` and ``nonunique_instance`` fixtures, plus ``certify``
and ``solve`` on ``halving_instance`` (a missing partner, so only a partial
alpha is measured) and ``certify --wide`` on the boundary and non-unique
fixtures (``<instance>-certify-wide.<ext>``).  Every case is kept in both
formats: ``.json`` for ``--format json`` and ``.txt`` for the text report,
which prints the check details as a checklist.  Each command runs in a
temporary directory with the relative path ``inst.json``, so the
``instance`` field of the report is stable.

The text report is rendered from the JSON payload alone, so rendering the
parsed JSON report must give the text report byte for byte, on every golden
case and on the paths the goldens miss: a failed iteration with its partial
indices, a trace long enough to elide steps, and ``generate``.

A refactor that must not change reports keeps this test green.  A change that
alters a report on purpose rewrites the affected golden file and says which
fields moved and why.
"""

import json
from pathlib import Path

import pytest

from bestprox import EUCLIDEAN, EXPLICIT_MATRIX, GeneratorConfig, generate_instance, save_instance
from bestprox.cli import main
from bestprox.report import render_text

GOLDEN = Path(__file__).parent / "golden"

GENERATED = {
    "euclidean": GeneratorConfig(
        seed=21, space_kind=EUCLIDEAN, a_size=40, alpha_target=0.7, decoy_count=3
    ),
    "matrix": GeneratorConfig(
        seed=22, space_kind=EXPLICIT_MATRIX, a_size=10, alpha_target=0.6, decoy_count=2
    ),
    "long": GeneratorConfig(seed=2, space_kind=EUCLIDEAN, a_size=120, alpha_target=0.9),
}

def report_bytes(name, argv, fmt, request, tmp_path, monkeypatch, capsys) -> bytes:
    if name in GENERATED:
        inst = generate_instance(GENERATED[name])
    else:
        inst = request.getfixturevalue(f"{name}_instance")
    monkeypatch.chdir(tmp_path)
    save_instance(inst, "inst.json")
    main([argv[0], "inst.json", "--format", fmt, *argv[1:]])
    return capsys.readouterr().out.encode()


COMMANDS = pytest.mark.parametrize("command", ["certify", "solve", "oracle"])
NAMES = pytest.mark.parametrize("name", ["euclidean", "matrix", "boundary", "nonunique"])
PARTNER_PATHS = pytest.mark.parametrize(
    "name, argv",
    [
        ("halving", ["certify"]),
        ("halving", ["solve"]),
        ("boundary", ["certify", "--wide"]),
        ("nonunique", ["certify", "--wide"]),
    ],
)


def golden_name(name, argv) -> str:
    return "-".join([name, argv[0], *(a.lstrip("-") for a in argv[1:])])


@COMMANDS
@NAMES
def test_json_report_bytes(name, command, request, tmp_path, monkeypatch, capsys):
    report = report_bytes(name, [command], "json", request, tmp_path, monkeypatch, capsys)
    assert report == (GOLDEN / f"{name}-{command}.json").read_bytes()


@COMMANDS
@NAMES
def test_text_report_bytes(name, command, request, tmp_path, monkeypatch, capsys):
    report = report_bytes(name, [command], "text", request, tmp_path, monkeypatch, capsys)
    assert report == (GOLDEN / f"{name}-{command}.txt").read_bytes()


@PARTNER_PATHS
def test_json_report_bytes_partner_paths(name, argv, request, tmp_path, monkeypatch, capsys):
    report = report_bytes(name, argv, "json", request, tmp_path, monkeypatch, capsys)
    assert report == (GOLDEN / f"{golden_name(name, argv)}.json").read_bytes()


@PARTNER_PATHS
def test_text_report_bytes_partner_paths(name, argv, request, tmp_path, monkeypatch, capsys):
    report = report_bytes(name, argv, "text", request, tmp_path, monkeypatch, capsys)
    assert report == (GOLDEN / f"{golden_name(name, argv)}.txt").read_bytes()


def assert_text_renders_json(name, argv, request, tmp_path, monkeypatch, capsys) -> str:
    json_report = report_bytes(name, argv, "json", request, tmp_path, monkeypatch, capsys)
    text = report_bytes(name, argv, "text", request, tmp_path, monkeypatch, capsys).decode()
    assert render_text(json.loads(json_report)) + "\n" == text
    return text


@COMMANDS
@NAMES
def test_text_report_renders_the_json_report(name, command, request, tmp_path, monkeypatch, capsys):
    assert_text_renders_json(name, [command], request, tmp_path, monkeypatch, capsys)


@PARTNER_PATHS
def test_text_report_renders_the_json_report_partner_paths(name, argv, request, tmp_path, monkeypatch, capsys):
    assert_text_renders_json(name, argv, request, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize(
    "name, argv, shown",
    [
        ("halving", ["solve", "--method", "direct", "--start-index", "2"], "partial iterate indices: [2, 1]"),
        ("long", ["solve", "--method", "induced"], "steps elided"),
        ("matrix", ["generate", "--kind", "explicit-matrix", "--seed", "3"], "wrote inst.json"),
    ],
)
def test_text_report_renders_the_json_report_other_paths(name, argv, shown, request, tmp_path, monkeypatch, capsys):
    assert shown in assert_text_renders_json(name, argv, request, tmp_path, monkeypatch, capsys)
