"""Instance files: the full problem statement (metric, A, B, T) + tolerances.

The on-disk format is JSON with an index-encoded map so fixtures stay
unambiguous and diff-able::

    {
      "metric": {"kind": "euclidean"}              # or {"kind": "explicit-matrix",
                                                   #     "matrix": [[...], ...]}
      "A": [[0.0, 0.0], [0.0, 1.0]],               # matrix spaces: integer indices
      "B": [[1.0, 0.0]],
      "T": [0, 0],                                 # B-position of T(A[i])
      "tolerances": {"eps_prox": 0.0, "tol": 1e-9},
      "alpha": 0.5                                 # optional declared constant
    }

Each rule of a field lives in the library code that owns it; the parser
reads the JSON, converts its arrays and names the field a refusal concerns.
So a boolean among numbers is refused by one rule, with no switch, that of
:func:`~bestprox.metric.frozen_array`.  One :class:`_TableDecoder` pass reads
every file.  It decodes an array two objects deep, where ``metric.matrix``
sits, one row at a time straight into one read-only float64 array, never as n²
Python numbers, so loading peaks at about the file text plus one table.  Saving
is canonical (keys sorted, indent 2, one array entry to a line, a point or a
table row on one line, a table as integers where every entry is integral), so
load/save round-trips are byte-stable.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .engine import DEFAULT_TOL, ProximityMap
from .geometry import SetPair, default_eps_prox
from .metric import EUCLIDEAN, EXPLICIT_MATRIX, Metric, frozen_array


class InstanceFormatError(ValueError):
    """A structurally invalid instance file (wrong shape, indices, map)."""


@dataclass(frozen=True)
class Instance:
    pair: SetPair
    t_map: ProximityMap
    eps_prox: float
    tol: float
    alpha_declared: float | None = None

    @property
    def metric(self) -> Metric:
        return self.pair.metric

    def with_tolerances(
        self, eps_prox: float | None = None, tol: float | None = None
    ) -> "Instance":
        out = self
        if eps_prox is not None:
            out = replace(out, eps_prox=checked_tolerance("tolerances.eps_prox", eps_prox))
        if tol is not None:
            out = replace(out, tol=checked_tolerance("tolerances.tol", tol))
        return out


def _fail(field: str, problem: str) -> InstanceFormatError:
    return InstanceFormatError(f"field {field!r}: {problem}")


# A refused value as its message names it: an array or an object by its JSON
# kind alone, as _TableDecoder may read an array in either as a float64 table.
def _shown(value) -> str:
    return "an array" if isinstance(value, (list, np.ndarray)) else "an object" if isinstance(value, dict) else repr(value)


def checked_tolerance(field: str, value) -> float:
    """``value`` of the instance field ``field`` (``tolerances.tol``,
    ``tolerances.eps_prox`` or ``alpha``) as a float, by one number rule: an
    int or a float, not a boolean, that fits a float, finite and >= 0, and
    > 0 for ``tolerances.tol``.  A refusal names the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(field, f"must be a number, got {_shown(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise _fail(field, "integer too large for a float") from None
    strict = field == "tolerances.tol"
    if not math.isfinite(value) or value < 0 or (value == 0 and strict):
        raise _fail(field, f"must be a finite number {'> 0' if strict else '>= 0'}, got {value!r}")
    return value


def make_instance(
    metric: Metric,
    a,
    b,
    t_image,
    *,
    eps_prox: float | None = None,
    tol: float = DEFAULT_TOL,
    alpha_declared: float | None = None,
) -> Instance:
    """Assemble and validate an instance from in-memory pieces.  A refusal of
    T, a tolerance or ``alpha_declared`` is an :class:`InstanceFormatError`
    naming the field of the file format, as a file's would."""
    pair = SetPair(metric, a, b)
    try:
        t_map = ProximityMap(t_image)
        t_map.validate(pair)
    except ValueError as err:
        raise _fail("T", str(err)) from None
    eps_prox = checked_tolerance("tolerances.eps_prox", default_eps_prox(metric) if eps_prox is None else eps_prox)
    tol = checked_tolerance("tolerances.tol", tol)
    if alpha_declared is not None:
        alpha_declared = checked_tolerance("alpha", alpha_declared)
    return Instance(pair, t_map, eps_prox, tol, alpha_declared)


def _parse_metric(payload) -> Metric:
    if not isinstance(payload, dict):
        raise _fail("metric", "must be an object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in (EUCLIDEAN, EXPLICIT_MATRIX):
        raise _fail("metric.kind", f"must be {EUCLIDEAN!r} or {EXPLICIT_MATRIX!r}, got {_shown(kind)}")
    if kind == EUCLIDEAN:
        if "matrix" in payload:
            raise _fail("metric.matrix", "euclidean metric takes no matrix")
        return Metric(EUCLIDEAN)
    try:
        table = frozen_array(payload.get("matrix"), np.float64)
    except ValueError:
        raise _fail("metric.matrix", "must be rows of one length of numbers that fit a float") from None
    try:
        return Metric(EXPLICIT_MATRIX, table)
    except ValueError as err:
        raise _fail("metric.matrix", str(err)) from None


def _parse_points(metric: Metric, payload, field: str) -> np.ndarray:
    """The points of ``field`` as one array, which SetPair keeps without a
    copy; else the first item that is not a point of the space is named."""
    if not isinstance(payload, list) or not payload:
        raise _fail(field, "must be a nonempty array of points")
    if metric.kind == EUCLIDEAN:
        dim = len(payload[0]) if isinstance(payload[0], list) else 0
        dtype, shape, what = np.float64, (dim,), f"a numeric point of dimension {dim}"
    else:
        dtype, shape, what = np.int64, (), "an index into the distance table"
    with contextlib.suppress(ValueError):
        points = frozen_array(payload, dtype)
        if points.shape[1:] == shape:
            return points
    pos = next((pos for pos, item in enumerate(payload) if not _is_point(item, dtype, shape)), 0)
    raise _fail(f"{field}[{pos}]", f"not {what}: {payload[pos]!r}")


def _is_point(item, dtype, shape: tuple) -> bool:
    with contextlib.suppress(ValueError):
        return frozen_array(item, dtype).shape == shape
    return False


def parse_instance(payload) -> Instance:
    """Build an Instance from a decoded JSON object, with field diagnostics.

    Booleans among the numbers of a point or a matrix row are refused, by the
    one rule of :func:`~bestprox.metric.frozen_array`.
    """
    if not isinstance(payload, dict):
        raise InstanceFormatError("top-level value must be an object")
    for required in ("metric", "A", "B", "T"):
        if required not in payload:
            raise _fail(required, "missing")
    metric = _parse_metric(payload["metric"])
    a = _parse_points(metric, payload["A"], "A")
    b = _parse_points(metric, payload["B"], "B")
    tolerances = payload.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise _fail("tolerances", "must be an object")
    try:
        return make_instance(
            metric,
            a,
            b,
            payload["T"],
            eps_prox=tolerances.get("eps_prox"),
            tol=tolerances.get("tol", DEFAULT_TOL),
            alpha_declared=payload.get("alpha"),
        )
    except (TypeError, ValueError) as err:
        raise InstanceFormatError(str(err)) from None


_WS = json.decoder.WHITESPACE.match
_TENS = 10 ** np.arange(1, 18, dtype=np.int64)  # an integer below 10**18 has 1 + #{10**k <= it} digits
# Each byte of a row as its kind: a digit as "0", JSON whitespace as " ", a
# comma as itself and any other byte as "x".
_KINDS = b"".join(b"0" if c in b"0123456789" else b" " if c in b" \t\n\r" else b"," if c in b"," else b"x" for c in range(256))
_INTEGER_START = re.compile(r"\[[ \t\n\r]*[0-9]+[ \t\n\r]*[,\]]").match


def _integer_row(text: str):
    """``text``, the inside of a table row, as an int64 array when it is ASCII
    canonical non-negative JSON integers below 10**18 between commas, with
    JSON whitespace only after a comma or at its ends; else None.  numpy's
    parser is laxer than JSON: it reads ``01`` as 1 and a blank field as 0,
    clamps an overflow to 2**63 - 1, and numpy 1 returns the values before
    unmatched text (``1 2``) with a warning.  So numpy reads only digit runs
    between single commas, one value a field, and the row is kept only with
    as many digit characters as its values have digits: a leading zero adds
    one, and as ``_TENS`` stops at 10**17, so does a value at or above 10**18."""
    kinds = text.encode().translate(_KINDS).strip() if text.isascii() else b"x"
    fields = kinds.translate(None, b" ")
    if b"x" in kinds or b"0 " in kinds or b",," in b"," + fields + b",":
        return None
    row = np.fromstring(text, dtype=np.int64, sep=",")
    digits = len(fields) - (row.size - 1)  # the fields less their commas
    return row if row.size + np.searchsorted(_TENS, row, side="right").sum() == digits else None


class _TableDecoder(json.JSONDecoder):
    """The stdlib decoder, which reads an array two objects deep, the value of
    a member of a member object as ``metric.matrix`` is, row by row into one
    read-only float64 array, whatever its key's spelling.  The stdlib's Python
    object parser walks the document and its member objects, and the C scanner
    reads every other value.  numpy's text parser reads a row of ASCII
    canonical non-negative JSON integers below 10**18, with JSON whitespace
    only after a comma or at the row's ends (:func:`_integer_row`), and the C
    scanner every other row, so the grammar, the error messages and the numbers
    are those of :func:`json.loads`.  An array there that is not square rows of
    numbers goes whole to the C scanner; a square one is a table under any key."""

    def __init__(self):
        super().__init__()
        self._scan = json.scanner.c_make_scanner(self)
        self.scan_once = partial(self._value, depth=0)

    def _value(self, s: str, idx: int, depth: int):
        if depth < 2 and s[idx : idx + 1] == "{":
            scan = partial(self._value, depth=depth + 1)
            return json.decoder.JSONObject((s, idx + 1), self.strict, scan, self.object_hook, self.object_pairs_hook)
        if depth == 2 and s[idx : idx + 1] == "[":
            try:
                return self._table(s, idx + 1)
            except (ValueError, StopIteration):
                pass
        return self._scan(s, idx)

    def _table(self, s: str, idx: int):
        start = idx - 1
        row, idx = self._row(s, _WS(s, idx).end())
        n = len(row) if type(row) in (list, np.ndarray) else 0
        # n rows of n numbers take at least 2n² characters: a longer first
        # row is no table, and allocating for it could ask for terabytes.
        if not n or 2 * n * n > len(s) - start:
            raise ValueError("not a table")
        table = np.empty((n, n))
        for i in range(n):
            if i:
                idx = _WS(s, idx).end()
                if s[idx : idx + 1] != ",":
                    raise ValueError("not a table")
                row, idx = self._row(s, _WS(s, idx + 1).end())
            row = np.asarray(row)
            if row.dtype.kind not in "iuf" or row.shape != (n,):
                raise ValueError("not a table")
            table[i] = row
        idx = _WS(s, idx).end()
        if s[idx : idx + 1] != "]":
            raise ValueError("not a table")
        table.flags.writeable = False
        return table, idx + 1

    def _row(self, s: str, idx: int):
        # A row's text ends at its first ']', so one holding '[' is no integer
        # row; nor is one whose first entry is not, which rejects a row of
        # floats before its text is copied.
        close = s.find("]", idx) if _INTEGER_START(s, idx) else -1
        row = _integer_row(s[idx + 1 : close]) if close > 0 else None
        if row is not None:
            return row, close + 1
        row, end = self._scan(s, idx)
        # numpy reads a boolean as a number, so a row holding one is no table
        # row.  The u of true and the s of false occur in no number or constant.
        if s.find("u", idx, end) >= 0 or s.find("s", idx, end) >= 0:
            raise ValueError("not a table")
        return row, end


def load_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.loads(fh.read(), cls=_TableDecoder)
    except OSError as err:
        raise InstanceFormatError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError:
        raise InstanceFormatError(f"cannot read {path}: not UTF-8 text") from None
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise InstanceFormatError("invalid JSON: nested too deeply") from None
    return parse_instance(payload)


def _integral(row: np.ndarray) -> bool:
    """Whether every entry of ``row`` is a whole number below 2**53 in
    magnitude other than -0.0, so that it reads back as an int bit for bit."""
    # The cast to int64 is made only below 2**53, where it cannot overflow.
    return bool((np.abs(row) < 2**53).all()) and np.array_equal(row.astype(np.int64).astype(np.float64).view(np.int64), row.view(np.int64))


def _table_rows(table: np.ndarray) -> Iterator[list]:
    """The rows of a distance table, each a list made as it is taken: of ints
    when every row is :func:`_integral`, else of floats.  Both passes go a
    row at a time, so no n²-sized temporary is built."""
    dtype = np.int64 if all(map(_integral, table)) else np.float64
    return (row.astype(dtype).tolist() for row in table)


def _payload(inst: Instance) -> dict:
    """The canonical JSON-able form of an instance, with a table's rows as
    :func:`_table_rows` yields them, so a writer holds one row at a time."""
    metric: dict = {"kind": inst.metric.kind}
    if inst.metric.kind == EXPLICIT_MATRIX:
        metric["matrix"] = _table_rows(inst.metric.matrix)
    payload = {
        "metric": metric,
        "A": inst.pair.a.tolist(),
        "B": inst.pair.b.tolist(),
        "T": inst.t_map.image.tolist(),
        "tolerances": {"eps_prox": inst.eps_prox, "tol": inst.tol},
    }
    if inst.alpha_declared is not None:
        payload["alpha"] = inst.alpha_declared
    return payload


def dumps_instance(inst: Instance) -> str:
    """The canonical text of an instance: keys sorted, indent 2, one object
    member or array entry to a line, and a point or a table row on one line."""
    return "".join(_layout(_payload(inst), "\n")) + "\n"


def _layout(value, indent: str):
    """The canonical text of ``value`` in pieces, one per object member's key
    and per array entry, so a file is written without its whole text."""
    # An array of the payload, a list or a table's rows, holds numbers or
    # arrays, never objects, so json.dumps writes each entry, a table row
    # with the C encoder.
    inner = indent + "  "
    if isinstance(value, dict):
        yield "{"
        for pos, (key, item) in enumerate(sorted(value.items())):
            yield f"{',' if pos else ''}{inner}{json.dumps(key)}: "
            yield from _layout(item, inner)
        yield indent + "}"
    elif isinstance(value, (list, Iterator)):
        yield "["
        for pos, entry in enumerate(value):
            yield f"{',' if pos else ''}{inner}{json.dumps(entry)}"
        yield indent + "]"
    else:
        yield json.dumps(value)


def save_instance(inst: Instance, path) -> None:
    """Write :func:`dumps_instance`'s text to ``path`` piece by piece."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_layout(_payload(inst), "\n"))
        fh.write("\n")
