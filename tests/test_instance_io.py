import json

import numpy as np
import pytest

from bestprox import (
    GeneratorConfig,
    InstanceFormatError,
    dumps_instance,
    generate_instance,
    load_instance,
    parse_instance,
    save_instance,
)

GEOMETRIC_TEXT = """
{
  "metric": {"kind": "euclidean"},
  "A": [[0, 0], [0, 0.25], [0, 1]],
  "B": [[1, 0], [1, 0.25], [1, 1]],
  "T": [0, 0, 1]
}
"""


NAN, INF = float("nan"), float("inf")  # what JSON NaN and Infinity decode to
MATRIX = {"A": [0], "B": [1], "T": [0]}


def test_load_normalizes_and_defaults(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(GEOMETRIC_TEXT)
    inst = load_instance(path)
    assert inst.pair.a[1].tolist() == [0.0, 0.25]  # ints coerced to floats
    assert inst.eps_prox == 1e-9  # euclidean default
    assert inst.tol == 1e-9
    assert inst.alpha_declared is None


def test_matrix_instances_default_to_exact_eps():
    inst = parse_instance(
        {
            "metric": {"kind": "explicit-matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
            "A": [0],
            "B": [1],
            "T": [0],
        }
    )
    assert inst.eps_prox == 0.0


def test_round_trip_is_canonical(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(GEOMETRIC_TEXT)
    inst = load_instance(path)

    out = tmp_path / "saved.json"
    save_instance(inst, out)
    first = out.read_bytes()

    save_instance(load_instance(out), out)
    assert out.read_bytes() == first  # save . load is the identity on canonical form


def test_round_trip_generated(tmp_path):
    inst = generate_instance(GeneratorConfig(seed=8, alpha_target=0.6))
    path = tmp_path / "gen.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert dumps_instance(again) == dumps_instance(inst)
    assert np.array_equal(again.pair.a, inst.pair.a)
    assert again.t_map.image == inst.t_map.image


def test_tolerance_overrides():
    inst = parse_instance(json.loads(GEOMETRIC_TEXT))
    bumped = inst.with_tolerances(eps_prox=0.5, tol=1e-6)
    assert (bumped.eps_prox, bumped.tol) == (0.5, 1e-6)
    assert (inst.eps_prox, inst.tol) == (1e-9, 1e-9)  # original untouched
    for bad, fragment in (
        ({"eps_prox": float("nan")}, "eps_prox"),
        ({"eps_prox": -1.0}, "eps_prox"),
        ({"tol": 0.0}, "tol"),
        ({"tol": float("inf")}, "tol"),
    ):
        with pytest.raises(ValueError, match=fragment):
            inst.with_tolerances(**bad)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda p: p.pop("T"), "'T'"),
        (lambda p: p.update(T=[0, 0]), "total"),
        (lambda p: p.update(T=[0, 0, 9]), "outside B"),
        (lambda p: p.update(T=[0, 0, "x"]), "'T'"),
        (lambda p: p.update(metric={"kind": "weird"}), "metric.kind"),
        (lambda p: p.update(metric={"kind": "explicit-matrix", "matrix": [[0, 1]]}), "metric.matrix"),
        (lambda p: p.update(A=[]), "'A'"),
        (lambda p: p.update(A=[[0, 0], ["x", 1], [0, 1]]), "A[1]"),
        (lambda p: p.update(A=[[0, 0], [0, 0], [0, 1]]), "duplicate"),
        (lambda p: p.update(tolerances={"eps_prox": -1.0}), "eps_prox"),
        (lambda p: p.update(tolerances={"tol": 0.0}), "tol"),
        (lambda p: p.update(alpha=-0.5), "alpha"),
        (lambda p: p.update(B=[[1, 0], [1, 0.25], [1, 1, 1]]), "dimension"),
        (lambda p: p.update(A=[[0, 0], [0, NAN], [0, 1]]), "non-finite coordinate"),
        (lambda p: p.update(tolerances={"tol": True}), "tolerances.tol"),
        (lambda p: p.update(tolerances={"eps_prox": False}), "tolerances.eps_prox"),
        (lambda p: p.update(tolerances={"tol": NAN}), "finite number > 0"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, NAN], [NAN, 0]]}), "'metric.matrix': non-finite"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [INF, 0]]}), "'metric.matrix': non-finite"),
        (lambda p: p.update(A=[[0, 0], [0, 1e200]], B=[[1, 0], [1, 1e200]], T=[0, 1]), "coordinates of A and B"),
        (lambda p: p.update(A=[[0, 0], [1e-200, 0], [0, 5]], B=[[1, 0], [1, 5]], T=[1, 1, 1]), "duplicate points in A"),
    ],
)
def test_parse_errors_name_the_field(mutate, fragment):
    payload = json.loads(GEOMETRIC_TEXT)
    mutate(payload)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(payload)
    assert fragment in str(exc.value)


def test_matrix_points_must_be_indices():
    with pytest.raises(InstanceFormatError, match="index"):
        parse_instance(
            {
                "metric": {"kind": "explicit-matrix", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                "A": [[0.0]],
                "B": [1],
                "T": [0],
            }
        )


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"metric": {"kind": "euclidean",}}')
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_instance(path)


def test_load_missing_file():
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load_instance("/nonexistent/inst.json")


def test_declared_alpha_round_trips(tmp_path):
    inst = generate_instance(GeneratorConfig(seed=4, alpha_target=0.3))
    assert inst.alpha_declared == 0.3
    path = tmp_path / "a.json"
    save_instance(inst, path)
    assert load_instance(path).alpha_declared == 0.3
