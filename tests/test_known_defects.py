"""Exit-0 wrong answers that rounding causes, pinned until they are mended.

Each test asserts the correct answer and is expected to fail today with an
AssertionError; a crash does not count as that failure.  Both instances are
the ones of ROADMAP item 2, where the mend (one filtered predicate, decided
exactly inside the kernel's error band) is set out.  Its change removes the
markers.
"""

import json

import numpy as np
import pytest

from bestprox import euclidean_metric, make_instance, save_instance
from bestprox.cli import main

known_defect = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")


def run_json(tmp_path, capsys, command, inst):
    path = str(tmp_path / "inst.json")
    save_instance(inst, path)
    code = main([command, path, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def verdict_instance():
    """S of this 5-point instance maps x1, x2 to y1, y2 and y1, y2, z to z.
    The rounded ratio d(y1, y2) / d(x1, x2) is 0.9999999999999999, but in
    exact arithmetic d(y1, y2)^2 - d(x1, x2)^2 = +2.05e-17 > 0, so S is not a
    contraction."""
    x1 = (-0.29480286772504316, 0.7580172252956596, 0.7614026858076461)
    x2 = (-0.06506326725030487, -0.8526244952267079, 0.48311147699251733)
    y1 = (6.7448380216274675, 7.163223881456899, 7.0654634410305075)
    y2 = (6.974577622102207, 5.552582160934532, 6.7871722322153785)
    z = tuple(((np.array(y1) + np.array(y2)) / 2).tolist())
    a = [(*p, 0.0) for p in (x1, x2, y1, y2, z)]
    b = [(*p, 1.0) for p in (x1, x2, y1, y2, z)]
    return make_instance(euclidean_metric(), a, b, [2, 3, 4, 4, 4], eps_prox=0.0)


def tied_partners_instance():
    """Both points of A lie exactly at distance sqrt((5m)^2 + 1) from B[0],
    as (3m)^2 + (4m)^2 = (5m)^2; the kernel rounds the squares near 9e16
    and puts the two distances 6e-8 apart.  So B[0] has two proximal
    partners, and both points of A are best proximity points."""
    m = 100000003
    a = [(3.0 * m, 4.0 * m, 0.0), (5.0 * m, 0.0, 0.0)]
    return make_instance(euclidean_metric(), a, [(0.0, 0.0, 1.0)], [0, 0])


@known_defect
def test_a_ratio_above_one_in_exact_arithmetic_is_no_contraction(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, "certify", verdict_instance())
    assert code == 2, doc["alpha_hat"]


@known_defect
@pytest.mark.parametrize("command", ["certify", "solve"])
def test_two_exactly_tied_partners_fail_the_hypothesis(tmp_path, capsys, command):
    code, doc = run_json(tmp_path, capsys, command, tied_partners_instance())
    assert code == 2, doc["a0"]


@known_defect
def test_the_oracle_names_both_exact_minimizers(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, "oracle", tied_partners_instance())
    assert (code, doc["argmin_indices"]) == (0, [0, 1])
