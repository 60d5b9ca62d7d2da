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

A refactor that must not change reports keeps this test green.  A change that
alters a report on purpose rewrites the affected golden file and says which
fields moved and why.
"""

from pathlib import Path

import pytest

from bestprox import EUCLIDEAN, EXPLICIT_MATRIX, GeneratorConfig, generate_instance, save_instance
from bestprox.cli import main

GOLDEN = Path(__file__).parent / "golden"

GENERATED = {
    "euclidean": GeneratorConfig(
        seed=21, space_kind=EUCLIDEAN, a_size=40, alpha_target=0.7, decoy_count=3
    ),
    "matrix": GeneratorConfig(
        seed=22, space_kind=EXPLICIT_MATRIX, a_size=10, alpha_target=0.6, decoy_count=2
    ),
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
