import contextlib
import itertools
import json
import re
import tracemalloc
import warnings
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bestprox import geometry, instance
from bestprox import (
    EUCLIDEAN,
    EXPLICIT_MATRIX,
    GeneratorConfig,
    InstanceFormatError,
    dumps_instance,
    generate_instance,
    load_instance,
    make_instance,
    matrix_metric,
    Metric,
    SetPair,
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
HUGE = 10**400  # a JSON integer no float can hold


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
    assert np.array_equal(again.t_map.image, inst.t_map.image)


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


# Each refusal of a point of A or B, as its message names it.  SetPair owns the
# rule, so a file and the library refuse these alike.
POINT_CASES = [
    (lambda p: p.update(A=[]), "'A'"),
    (lambda p: p.update(A=[[0, 0], ["x", 1], [0, 1]]), "A[1]"),
    (lambda p: p.update(A=[[0, 0], [0, 0], [0, 1]]), "duplicate"),
    (lambda p: p.update(B=[[1, 0], [1, 0.25], [1, 1, 1]]), "dimension"),
    (lambda p: p.update(A=[[0, 0], [0, NAN], [0, 1]]), "field 'A[1]': non-finite coordinate"),
    (lambda p: p.update(A=[[0, 0], [0, 1e200]], B=[[1, 0], [1, 1e200]], T=[0, 1]), "coordinates of A and B"),
    (lambda p: p.update(A=[[0, 0], [1e-200, 0], [0, 5]], B=[[1, 0], [1, 5]], T=[1, 1, 1]), "field 'A[1]': duplicate of A[0], at distance 0"),
    (lambda p: p.update(B=[[1, 0], [1, 0.25], [1, -0.0], [1, 0]]), "field 'B[2]': duplicate of B[0], at distance 0"),
    (lambda p: p.update(A=[[0, 0], [0, HUGE], [0, 1]]), "'A[1]'"),
    (lambda p: p.update(A=[["0", "0"], ["0", "0.25"], ["0", "1"]]), "'A[0]'"),
    (lambda p: p.update(B=[[1, 0], [1, 0.25], [1, None]]), "'B[2]'"),
    (lambda p: p.update(A=[[True, False], [False, True], [True, True]]), "'A[0]'"),
    (lambda p: p.update(A=[[0, 0], [0, True], [0, 1]]), "'A[1]': not a numeric point"),
    (lambda p: p.update(B=[[1, 0], [1, 0.25], [False, 1]]), "'B[2]': not a numeric point"),
    (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}, A=[0, 5], T=[0, 0]), "field 'A[1]': index 5 out of range for 2-point space"),
    (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}, B=[1, -1]), "field 'B[1]': index -1 out of range for 2-point space"),
    (lambda p: p.update(A=[5, 6]), "field 'A[0]': not a coordinate vector of dimension >= 1: 5"),
    (lambda p: p.update(A=[[], [1], [0, 1]]), "field 'A[0]': not a coordinate vector of dimension >= 1: []"),
    (lambda p: p.update(B=[[[1, 0]], [[1, 1]], [[1, 2]]]), "field 'B[0]': not a numeric point of dimension 2: [[1, 0]]"),
    # B's points are judged against A's dimension, even when they agree among themselves.
    (lambda p: p.update(B=[[1, 0, 0], [1, 0.25, 0], [1, 1, 0]]), "field 'B[0]': not a numeric point of dimension 2: [1, 0, 0]"),
    (lambda p: p.update(B=[[], [], []]), "field 'B[0]': not a numeric point of dimension 2: []"),
    (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}, A=[[0]]), "field 'A[0]': not an index into the distance table: [0]"),
    (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}, B=[True]), "field 'B[0]': not an index into the distance table: True"),
    (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}, B=[1.0]), "field 'B[0]': not an index into the distance table: 1.0"),
    (lambda p: p.update(B={"0": [1, 0]}), "field 'B': must be a nonempty array of points"),
]


@pytest.mark.parametrize(
    "mutate, fragment",
    POINT_CASES
    + [
        (lambda p: p.pop("T"), "'T'"),
        (lambda p: p.update(T=[0, 0]), "total"),
        (lambda p: p.update(T=[0, 0, 9]), "outside B"),
        (lambda p: p.update(T=[0, 0, "x"]), "'T'"),
        (lambda p: p.update(metric={"kind": "weird"}), "metric.kind"),
        (lambda p: p.update(metric={"kind": "explicit-matrix", "matrix": [[0, 1]]}), "metric.matrix"),
        (lambda p: p.update(tolerances={"eps_prox": -1.0}), "eps_prox"),
        (lambda p: p.update(tolerances={"tol": 0.0}), "tol"),
        (lambda p: p.update(alpha=-0.5), "alpha"),
        (lambda p: p.update(tolerances={"tol": True}), "tolerances.tol"),
        (lambda p: p.update(tolerances={"eps_prox": False}), "tolerances.eps_prox"),
        (lambda p: p.update(tolerances={"tol": NAN}), "finite number > 0"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, NAN], [NAN, 0]]}), "'metric.matrix': non-finite"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [INF, 0]]}), "'metric.matrix': non-finite"),
        (lambda p: p.update(tolerances={"tol": HUGE}), "'tolerances.tol': integer too large"),
        (lambda p: p.update(tolerances={"eps_prox": HUGE}), "'tolerances.eps_prox': integer too large"),
        (lambda p: p.update(tolerances={"tol": None}), "'tolerances.tol': must be a number"),
        (lambda p: p.update(alpha=HUGE), "'alpha': integer too large"),
        (lambda p: p.update(alpha=INF), "'alpha': must be a finite"),
        (lambda p: p.update(alpha=NAN), "'alpha': must be a finite"),
        (lambda p: p.update(alpha=True), "'alpha': must be a number"),
        (lambda p: p.update(alpha="0.5"), "'alpha': must be a number"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, HUGE], [HUGE, 0]]}), "'metric.matrix'"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, "1"], ["1", 0]]}), "'metric.matrix'"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, None], [None, 0]]}), "'metric.matrix'"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 1], [1]]}), "'metric.matrix'"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, True], [True, 0]]}), "'metric.matrix': must be rows"),
        (lambda p: p.update(MATRIX, metric={"kind": "explicit-matrix", "matrix": [[0, 0.5], [False, 0]]}), "'metric.matrix': must be rows"),
    ],
)
def test_parse_errors_name_the_field(mutate, fragment):
    payload = json.loads(GEOMETRIC_TEXT)
    mutate(payload)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(payload)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("mutate, fragment", POINT_CASES)
def test_library_refuses_each_point_with_the_files_message(mutate, fragment):
    payload = json.loads(GEOMETRIC_TEXT)
    mutate(payload)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(payload)
    message = str(exc.value)
    metric = Metric(payload["metric"]["kind"], payload["metric"].get("matrix"))
    for refuse in (
        lambda: make_instance(metric, payload["A"], payload["B"], payload["T"]),
        lambda: SetPair(metric, payload["A"], payload["B"]),
    ):
        with pytest.raises(ValueError) as exc:
            refuse()
        assert str(exc.value) == message


def test_booleans_in_rows_are_refused_when_loaded(tmp_path):
    # One rule refuses a boolean wherever it sits, in points and matrix rows,
    # also in a file that holds no other true or false.
    path = tmp_path / "bool.json"
    for text, field in (
        (GEOMETRIC_TEXT.replace("[0, 0.25]", "[0, true]"), "'A[1]'"),
        (GEOMETRIC_TEXT.replace("[1, 1]", "[1, true]"), "'B[2]'"),
        ('{"metric": {"kind": "explicit-matrix", "matrix": [[0, false], [1, 0]]}, "A": [0], "B": [1], "T": [0]}', "'metric.matrix'"),
    ):
        path.write_text(text)
        with pytest.raises(InstanceFormatError, match=re.escape(field)):
            load_instance(path)


def test_loaded_matrix_is_the_parsers_read_only_array(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text('{"metric": {"kind": "explicit-matrix", "matrix": [[0, 2], [2, 0]]}, "A": [0], "B": [1], "T": [0]}')
    handed = []
    real = instance.Metric

    def spy(kind, matrix=None):
        handed.append(matrix)
        return real(kind, matrix)

    with mock.patch.object(instance, "Metric", spy):
        inst = load_instance(path)
    table = inst.metric.matrix
    assert table is handed[-1]  # kept without a copy
    assert table.dtype == np.float64 and table.base is None
    assert table.flags.writeable is False


def test_loaded_coordinates_are_the_parsers_read_only_arrays(tmp_path):
    # The parser hands A and B to SetPair as decoded, and SetPair converts
    # each once, into the array it keeps.
    path = tmp_path / "inst.json"
    path.write_text(GEOMETRIC_TEXT)  # integer coordinates, parsed as float64
    converted = []
    real = geometry.frozen_array

    def spy(value, dtype):
        converted.append((value, real(value, dtype)))
        return converted[-1][1]

    with mock.patch.object(geometry, "frozen_array", spy):
        inst = load_instance(path)
    decoded = json.loads(GEOMETRIC_TEXT)
    assert [value for value, _ in converted] == [decoded["A"], decoded["B"]]  # each set once
    for kept, (_, made) in zip((inst.pair.a, inst.pair.b), converted):
        assert kept is made  # kept without a copy
        assert kept.dtype == np.float64 and kept.base is None
        assert kept.flags.writeable is False


# Each value the file parser refuses for a tolerance or alpha, as the keyword
# of make_instance that holds the field.
REFUSED_NUMBERS = [True, False, "1e-3", "0.5", HUGE, NAN, INF, -INF, -1.0, -1]
NUMBER_FIELDS = {"tolerances.eps_prox": "eps_prox", "tolerances.tol": "tol", "alpha": "alpha_declared"}


@pytest.mark.parametrize(
    "field, value",
    # A null eps_prox or alpha means the default or none; a null tol is refused.
    [(field, value) for field in sorted(NUMBER_FIELDS) for value in REFUSED_NUMBERS] + [("tolerances.tol", None)],
    ids=lambda v: "10**400" if v is HUGE else repr(v),
)
def test_library_refuses_the_numbers_the_parser_refuses(field, value):
    payload = json.loads(GEOMETRIC_TEXT)
    if field == "alpha":
        payload["alpha"] = value
    else:
        payload["tolerances"] = {field.split(".")[1]: value}
    inst = parse_instance(json.loads(GEOMETRIC_TEXT))
    pieces = (inst.metric, inst.pair.a, inst.pair.b, inst.t_map.image)
    refusals = [
        lambda: parse_instance(payload),
        lambda: make_instance(*pieces, **{NUMBER_FIELDS[field]: value}),
    ]
    if field != "alpha" and value is not None:  # None overrides nothing
        refusals.append(lambda: inst.with_tolerances(**{NUMBER_FIELDS[field]: value}))
    for refuse in refusals:
        with pytest.raises(ValueError, match=re.escape(f"field {field!r}: ")):
            refuse()


@pytest.mark.parametrize("number", [0, 2**70, None], ids=["0", "2**70", "defaults"])
def test_every_accepted_instance_round_trips_byte_for_byte(tmp_path, number):
    # None keeps the defaults (and no alpha); tol must be > 0, so it is not 0.
    matrix = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    numbers = {} if number is None else {"eps_prox": number, "alpha_declared": number}
    if number:
        numbers["tol"] = number
    path = tmp_path / "inst.json"
    for pieces in (
        (Metric(EUCLIDEAN), [(0, 0), (0, 0.25), (0, 1)], [(1, 0), (1, 0.25), (1, 1)], [0, 0, 1]),
        (Metric(EXPLICIT_MATRIX, matrix), [0, 1], [2, 3], [1, 0]),
    ):
        inst = make_instance(*pieces, **numbers)
        save_instance(inst, path)
        assert dumps_instance(load_instance(path)) == path.read_text() == dumps_instance(inst)


def test_integers_that_fit_a_float_are_accepted():
    payload = json.loads(GEOMETRIC_TEXT)
    payload.update(A=[[0, 0], [0, 2**70], [0, 1]], tolerances={"tol": 1, "eps_prox": 0}, alpha=1)
    inst = parse_instance(payload)
    assert inst.pair.a[1].tolist() == [0.0, float(2**70)]
    assert (inst.tol, inst.eps_prox, inst.alpha_declared) == (1.0, 0.0, 1.0)
    inst = parse_instance({"metric": {"kind": "explicit-matrix", "matrix": [[0, 2**70], [2**70, 0]]}, **MATRIX})
    assert inst.metric.matrix.tolist() == [[0.0, float(2**70)], [float(2**70), 0.0]]


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


# The decoder reads a distance table row by row into one array; every other
# table is read as json.loads reads it.  Each text below is the value of
# "matrix" (or, where it starts with '{', the whole metric object).
DEEP = '{"a": ' * 600 + "0" + "}" * 600
# Each sweep runs on three documents: as written, beside a boolean (so the
# text holds a true token), and beside an object nested 600 deep.
DOCUMENTS = {"flat": "", "note-true": ', "note": true', "nested-600": f', "x": {DEEP}'}
TABLE_TEXTS = {
    "compact": "[[0,1,2],[1,0,1],[2,1,0]]",
    "indent": json.dumps([[0, 1.5, 2], [1.5, 0, 1], [2, 1, 0]], indent=2),
    "whitespace": " [ [0 ,\t1]\n,\r\n[ 1,0 ]\t]\n",
    "empty": "[]",
    "empty-row": "[[]]",
    "ragged": "[[0, 1], [1]]",
    "ragged-row-0": "[[[0.0, 0.0], [1.0]], [1, 0]]",
    "non-square": "[[0, 1, 2], [1, 0, 2]]",
    "tall": "[[0, 1], [1, 0], [2, 2]]",
    "trailing-comma": "[[0, 1], [1, 0],]",
    "trailing-comma-in-row": "[[0, 1,], [1, 0]]",
    "missing-comma": "[[0, 1] [1, 0]]",
    "wrong-delimiter": "[[0, 1]; [1, 0]]",
    "unclosed": "[[0, 1], [1, 0]",
    "unclosed-row": "[[0, 1], [1, 0",
    "nan": "[[0, NaN], [NaN, 0]]",
    "infinity": "[[0, Infinity], [1, 0]]",
    "1e400": "[[0, 1e400], [1, 0]]",
    "400-digits": f"[[0, 1{'0' * 399}], [1, 0]]",
    "2**63+1": f"[[0, {2**63 + 1}], [{2**63 + 1}, 0]]",
    "2**63+1-and-negative": f"[[0, {2**63 + 1}], [-1, 0]]",
    "true": "[[0, true], [1, 0]]",
    "string": '[[0, "1"], ["1", 0]]',
    "null": "[[0, null], [1, 0]]",
    "nested-row": "[[0, [1]], [1, 0]]",
    "object-row": "[{}, [1, 0]]",
    "number-row": "[0, 1]",
    # One row of 200001 zeros: as the first row of a square table it would
    # ask for 320 GB, so it is no table before anything is allocated.
    "one-long-row": "[[" + "0," * 200000 + "0]]",
    "duplicate-key": '{"kind": "explicit-matrix", "matrix": [[0, 5], [5, 0]], "matrix": [[0, 1], [1, 0]]}',
    "escaped-key": '{"kind": "explicit-matrix", "m\\u0061trix": [[0, 1], [1, 0]]}',
    "decoy-key": '{"kind": "explicit-matrix", "a\\"matrix": [[0, 1], [1, 0]], "matrix": [[0, 2], [2, 0]]}',
    "only-decoy-key": '{"kind": "explicit-matrix", "a\\"matrix": [[0, 1], [1, 0]]}',
    "euclidean": '{"kind": "euclidean", "matrix": [[0, 1], [1, 0]]}',
    # A square array under "kind" is read as a table too, then refused.
    "kind-table": '{"kind": [[0, 1], [1, 0]]}',
    "kind-one-entry-table": '{"kind": [[0]]}',
    # Integer rows, which numpy's parser reads when they are canonical JSON.
    "leading-zero": "[[0, 01], [1, 0]]",
    "double-zero": "[[00, 1], [1, 0]]",
    "minus-zero": "[[-0, 1], [1, -0]]",
    "negative": "[[0, -1], [1, 0]]",
    "plus-one": "[[0, +1], [1, 0]]",
    "10**18-1": f"[[0, {10**18 - 1}], [{10**18 - 1}, 0]]",
    "10**18": f"[[0, {10**18}], [{10**18}, 0]]",
    "2**63-1": f"[[0, {2**63 - 1}], [{2**63 - 1}, 0]]",
    "10**19-1": f"[[0, {10**19 - 1}], [{10**19 - 1}, 0]]",
    "vertical-tab": "[[0,\v1], [1, 0]]",
    "form-feed": "[[0, 1\f], [1, 0]]",
    "no-comma": "[[0, 1 2], [1, 0]]",
    "minus-space": "[[0, - 1], [1, 0]]",
    "arabic-indic-digit": "[[0, 1], [\u0661, 0]]",
    "float-in-integer-row": "[[0, 1.0], [1, 0]]",
    "exponent-in-integer-row": "[[0, 1e2], [100, 0]]",
    "integer-indent": json.dumps([[0, 1, 2], [1, 0, 1], [2, 1, 0]], indent=2),
    "alternating-rows": "[[0, 1, 2], [1.0, 0.0, 1.5], [2, 1, 0], [2.5, 1e0, 0.0]]",
    # numpy reads a blank field as 0, one value for no digit, which a leading
    # zero elsewhere in the row would balance in the digit count.
    "blank-field-and-leading-zero": "[[0, 1], [ ,01]]",
    "leading-zero-and-blank-field": "[[0, 1], [01,\t]]",
}


def _document(table_text: str, extra: str = "") -> str:
    metric = table_text if table_text.startswith("{") else f'{{"kind": "explicit-matrix", "matrix": {table_text}}}'
    return f'{{"metric": {metric}, "A": [0], "B": [1], "T": [0]{extra}}}'


def _outcome(build):
    try:
        inst = build()
    except (ValueError, RecursionError) as err:
        return type(err), str(err)
    arrays = (inst.metric.matrix, inst.pair.a, inst.pair.b, inst.t_map.image)
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays], inst.alpha_declared, inst.eps_prox, inst.tol


def _via_json_loads(text: str) -> instance.Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from None
    return parse_instance(payload)


@pytest.mark.parametrize("extra", list(DOCUMENTS.values()), ids=list(DOCUMENTS))
@pytest.mark.parametrize("name", sorted(TABLE_TEXTS))
def test_table_decoder_agrees_with_json_loads(tmp_path, name, extra):
    text = _document(TABLE_TEXTS[name], extra)
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(lambda: load_instance(path)) == _outcome(lambda: _via_json_loads(text))


def _row_reads(table_text: str) -> int:
    """How many rows of ``table_text`` the decoder hands to the C scanner."""
    decoder = instance._TableDecoder()
    scan, reads = decoder._scan, []
    decoder._scan = lambda s, idx: reads.append(idx) or scan(s, idx)
    table, end = decoder._table(table_text, 1)
    assert end == len(table_text) and table.tolist() == json.loads(table_text)
    return len(reads)


def test_only_rows_that_are_not_canonical_integers_reach_the_c_scanner():
    n = 40
    ints = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 12345
    assert _row_reads(json.dumps(ints.tolist())) == 0
    assert _row_reads(json.dumps(ints.tolist(), indent=2)) == 0
    assert _row_reads(json.dumps((ints / 8).tolist())) == n
    mixed = [row if i % 2 else [float(v) for v in row] for i, row in enumerate(ints.tolist())]
    assert _row_reads(json.dumps(mixed)) == n // 2
    # Whitespace before a comma is JSON, but numpy reads only rows without it.
    assert _row_reads(json.dumps(ints.tolist(), separators=(" ,", ":"))) == n


@pytest.mark.parametrize("space", [" ", "\t", "\n", "\r", " \n  "], ids=repr)
def test_a_row_numpy_would_read_only_in_part_never_reaches_numpy(tmp_path, monkeypatch, space):
    # Whitespace between two digits is unmatched text to numpy: numpy 2
    # raises, but numpy 1 warns and returns the values before it.  So under
    # either, such a row goes to the C scanner without reaching numpy, and
    # no warning escapes, even where warnings are shown rather than raised.
    real, read = np.fromstring, []
    monkeypatch.setattr(np, "fromstring", lambda text, **kw: read.append(text) or real(text, **kw))
    text = _document(f"[[0, 1], [1, 0{space}0]]")
    path = tmp_path / "inst.json"
    path.write_bytes(text.encode())
    # Read back as load_instance reads it, where a lone \r is a line break.
    want = _outcome(lambda: _via_json_loads(path.read_text()))
    assert want[0] is InstanceFormatError
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert _outcome(lambda: load_instance(path)) == want
    assert shown == [] and read == ["0, 1"]


# Fields beside the table, each appended to a document holding the compact
# table.  The C scanner reads every number outside a table, so a digit that is
# not ASCII, which the Python number pattern of json.scanner would accept, is
# refused as json.loads refuses it.
OBJECT_FIELDS = {
    "alpha": '"alpha": 0.5',
    "alpha-arabic-indic-digit": '"alpha": 0.\u0665',
    "tol-arabic-indic-digit": '"tolerances": {"tol": 1\u0660}',
    "tolerances": '"tolerances": {"tol": 1e-6, "eps_prox": 0}',
    "alpha-nan": '"alpha": NaN',
    "alpha-minus-infinity": '"alpha": -Infinity',
    "alpha-escaped-string": '"alpha": "\\u0030"',
    "matrix-inside-an-array": '"x": [{"matrix": [[0]]}]',
    # A table's place, not its key, picks the row decoder: a top-level
    # "matrix" is read by the C scanner, a table under another member object
    # by the row decoder.
    "top-level-matrix": '"matrix": [[0, 1], [1, 0]]',
    "table-under-another-member": '"x": {"y": [[0, 1], [1, 0]]}',
    # Square arrays beside the table, read as tables too, then refused.
    "tol-table": '"tolerances": {"tol": [[0, 1], [1, 0]]}',
    "eps-prox-one-entry-table": '"tolerances": {"eps_prox": [[0]]}',
    "alpha-object-holding-a-table": '"alpha": {"a": [[0, 1], [1, 0]]}',
    "missing-value": '"alpha": }',
    "unquoted-key": "alpha: 0.5",
}


@pytest.mark.parametrize("name", sorted(OBJECT_FIELDS))
def test_object_fields_are_read_as_json_loads_reads_them(tmp_path, name):
    path = tmp_path / "inst.json"
    for extra in DOCUMENTS.values():
        text = _document(TABLE_TEXTS["compact"], ", " + OBJECT_FIELDS[name] + extra)
        path.write_text(text, encoding="utf-8")
        assert _outcome(lambda: load_instance(path)) == _outcome(lambda: _via_json_loads(text)), extra[:10]


# A, B and T in a euclidean and in a matrix space; each text of POINT_TEXTS
# replaces one of the three fields.
POINT_DOCUMENTS = {
    "euclidean": {"metric": '{"kind": "euclidean"}', "A": "[[0, 0], [0, 1]]", "B": "[[1, 0], [1, 1]]", "T": "[0, 1]"},
    "matrix": {"metric": '{"kind": "explicit-matrix", "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}', "A": "[0, 1]", "B": "[2]", "T": "[0, 0]"},
}
POINT_TEXTS = {
    "ragged": "[[0, 0], [1]]",
    "mixed-dimensions": "[[0, 0], 1]",
    "other-dimension": "[[0, 0, 0], [1, 1, 1]]",
    "true": "[[0, true], [1, 1]]",
    "true-index": "[0, true]",
    "null": "[[0, null], [1, 1]]",
    "null-index": "[0, null]",
    "nested-rows": "[[0, [1]], [1, 1]]",
    "400-digits": f"[[0, 1{'0' * 399}], [1, 1]]",
    "400-digit-index": f"[0, 1{'0' * 399}]",
    "matrix-space-rows": "[[0], [1]]",
}


@pytest.mark.parametrize("extra", list(DOCUMENTS.values()), ids=list(DOCUMENTS))
@pytest.mark.parametrize("name", sorted(POINT_TEXTS))
@pytest.mark.parametrize("field", ["A", "B", "T"])
@pytest.mark.parametrize("kind", sorted(POINT_DOCUMENTS))
def test_point_fields_are_read_as_json_loads_reads_them(tmp_path, kind, field, name, extra):
    fields = {**POINT_DOCUMENTS[kind], field: POINT_TEXTS[name]}
    text = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + extra + "}"
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(lambda: load_instance(path)) == _outcome(lambda: _via_json_loads(text))


def test_square_tables_are_decoded_as_one_array(tmp_path, monkeypatch):
    # Beside a boolean or a deeply nested object too, which once sent the
    # whole file to json.loads and so built n² Python numbers.
    real, payloads = instance.parse_instance, []
    monkeypatch.setattr(instance, "parse_instance", lambda payload, **kw: payloads.append(payload) or real(payload, **kw))
    path = tmp_path / "inst.json"
    deep_700 = '{"a": ' * 700 + "0" + "}" * 700
    for extra in [*DOCUMENTS.values(), f', "x": {deep_700}']:
        for name in ("compact", "indent", "whitespace", "nan", "1e400", "2**63+1", "escaped-key"):
            path.write_text(_document(TABLE_TEXTS[name], extra))
            with contextlib.suppress(InstanceFormatError):  # a non-finite table is decoded, then refused
                load_instance(path)
            table = payloads[-1]["metric"]["matrix"]
            assert type(table) is np.ndarray and table.dtype == np.float64, (name, extra[:10])
            assert table.base is None and not table.flags.writeable, (name, extra[:10])


def test_loading_a_table_peaks_near_its_array(tmp_path):
    # The text plus one float64 table, not n² Python ints: about 2x the table,
    # beside a boolean too, and with the key written with an escape.
    n = 600
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    path = tmp_path / "table.json"
    for extra, key in itertools.product(({}, {"note": True}), ('"matrix"', '"m\\u0061trix"')):
        text = json.dumps({"metric": {"kind": "explicit-matrix", "matrix": table.tolist()}, "A": [0], "B": [1], "T": [0], **extra}, separators=(",", ":"))
        path.write_text(text.replace('"matrix"', key), encoding="utf-8")
        tracemalloc.start()
        try:
            inst = load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.metric.matrix.tolist() == table.tolist()
        assert peak < 3 * n * n * 8, (extra, key, peak / (n * n * 8))


def test_saving_a_table_never_holds_its_whole_text(tmp_path):
    # The file is written piece by piece and a table's rows are turned into
    # lists one at a time, so saving peaks near one row: 0.06x the text here
    # and less on larger tables.  Holding every row as lists took about
    # 1.8x, and holding the whole text too about 3.4x.
    inst = generate_instance(GeneratorConfig(space_kind="explicit-matrix", decoy_count=200))
    path = tmp_path / "table.json"
    tracemalloc.start()
    try:
        save_instance(inst, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text()
    assert text == dumps_instance(inst)
    assert peak < 0.25 * len(text), peak / len(text)


def test_a_table_is_picked_by_its_place_not_its_key():
    # An array that is the value of a member of a member object is tried as a
    # table, however its key is spelled; the same text anywhere else is read
    # by the C scanner, as json.loads reads it.
    text = '{"matrix": [[0, 1], [1, 0]], "x": {"y": [[0, 1], [1, 0]], "m\\u0061trix": [[0, 2], [2, 0]]}, "z": [{"matrix": [[0]]}]}'
    doc = json.loads(text, cls=instance._TableDecoder)
    assert [type(doc["matrix"]), type(doc["z"][0]["matrix"])] == [list, list]
    assert [type(doc["x"]["y"]), type(doc["x"]["matrix"])] == [np.ndarray, np.ndarray]
    assert doc["x"]["matrix"].tolist() == [[0, 2], [2, 0]]


def _saved_table_text(inst) -> str:
    """The text of the table in ``dumps_instance(inst)``, from '[' to ']'."""
    text = dumps_instance(inst)
    start = text.index('"matrix": ') + len('"matrix": ')
    return text[start : text.index("\n    ]", start) + len("\n    ]")]


def test_saved_files_write_a_point_or_a_row_on_one_line():
    inst = make_instance(Metric(EUCLIDEAN), [(0, 0, 0), (0, 0.25, 1e-300)], [(1, 0, 2**60)], [0, 0])
    text = dumps_instance(inst)
    assert '\n  "A": [\n    [0.0, 0.0, 0.0],\n    [0.0, 0.25, 1e-300]\n  ],\n' in text
    assert '\n  "B": [\n    [1.0, 0.0, 1.152921504606847e+18]\n  ],\n' in text
    inst = make_instance(matrix_metric([[0, 1.5], [1.5, 0]]), [0], [1], [0])
    assert dumps_instance(inst) == """{
  "A": [
    0
  ],
  "B": [
    1
  ],
  "T": [
    0
  ],
  "metric": {
    "kind": "explicit-matrix",
    "matrix": [
      [0.0, 1.5],
      [1.5, 0.0]
    ]
  },
  "tolerances": {
    "eps_prox": 0.0,
    "tol": 1e-09
  }
}
"""


def test_saved_integral_tables_are_integer_rows(tmp_path):
    # One row to a line; as integers when every entry is a whole number below
    # 2**53 other than -0.0, so the table takes numpy's row reader when
    # loaded again, else as floats.
    n = 40
    ints = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 12345.0
    path = tmp_path / "inst.json"
    for table, integers in ((ints, True), (ints / 8, False), (ints * 2.0**40, False), (np.where(ints == 0, -0.0, ints), False)):
        inst = make_instance(matrix_metric(table), [0], [1], [0])
        rows = _saved_table_text(inst)
        assert rows.count("\n") == n + 1
        assert all(type(v) is int for row in json.loads(rows) for v in row) == integers
        assert _row_reads(rows) == (0 if integers else n)
        save_instance(inst, path)
        assert load_instance(path).metric.matrix.tobytes() == table.tobytes()


_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=2)
_ENTRIES = {
    "ints": st.integers(-(2**70), 2**70),
    # Canonical integer rows, values above 2**53 and at or above 10**18.
    "naturals": st.integers(0, 2**70),
    "floats": st.floats(allow_nan=False, allow_infinity=False),
    "mixed": st.one_of(st.integers(-(2**40), 2**40), st.floats(allow_nan=False, allow_infinity=False)),
}


@st.composite
def spaced_tables(draw):
    """A random square table written as JSON with random whitespace between its tokens."""
    n = draw(st.integers(2, 5))
    entries = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]

    def token(text: str) -> str:
        return draw(_WHITESPACE) + text + draw(_WHITESPACE)

    matrix = token("[") + ",".join(token("[") + ",".join(token(json.dumps(v)) for v in row) + token("]") for row in rows) + token("]")
    return _document(matrix)


@settings(max_examples=200, deadline=None)
@given(spaced_tables())
def test_spaced_tables_load_bitwise(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("spaced") / "inst.json"
    path.write_text(text)
    want = np.asarray(json.loads(text)["metric"]["matrix"], float)
    table = load_instance(path).metric.matrix
    assert table.dtype == np.float64 and table.tobytes() == want.tobytes()


# Tokens that JSON reads differently from numpy's text parser, each put in
# place of one entry of a canonical integer table ("" leaves a blank field).
_NON_CANONICAL = {
    "leading-zero": lambda v: f"0{v}",
    "minus-zero": lambda v: "-0",
    "plus": lambda v: f"+{v}",
    "blank-field": lambda v: "",
    "trailing-comma": lambda v: f"{v},",
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_non_canonical_integers_are_read_as_json_loads_reads_them(tmp_path_factory, data):
    # One or two swapped tokens: two can balance each other in numpy's count
    # of values and digits (a blank field and a leading zero in one row).
    n = data.draw(st.integers(2, 5))
    entries = st.one_of(st.integers(0, 9), st.integers(0, 2**70))
    rows = [[json.dumps(data.draw(entries)) for _ in range(n)] for _ in range(n)]
    i = data.draw(st.integers(0, n - 1))
    for swap in data.draw(st.lists(st.sampled_from(sorted(_NON_CANONICAL)), min_size=1, max_size=2)):
        j = n - 1 if swap == "trailing-comma" else data.draw(st.integers(0, n - 1))
        rows[i][j] = _NON_CANONICAL[swap](rows[i][j])
    text = _document("[" + ",".join("[" + ",".join(data.draw(_WHITESPACE) + t + data.draw(_WHITESPACE) for t in row) + "]" for row in rows) + "]")
    path = tmp_path_factory.mktemp("swap") / "inst.json"
    path.write_text(text)
    # Read back as load_instance reads it, where a lone \r is a line break.
    assert _outcome(lambda: load_instance(path)) == _outcome(lambda: _via_json_loads(path.read_text()))
