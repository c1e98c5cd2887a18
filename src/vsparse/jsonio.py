"""JSON wire formats with bit-exact rationals.

Rationals travel as strings "num/den"; the emitter always writes an explicit
denominator ("3/1", "1/2") so artifacts are byte-stable, while the parser
also accepts bare integer strings. All dumps are canonical: sorted keys,
two-space indent, trailing newline. Parse errors raise
:class:`JsonFormatError` carrying the path of the offending field.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .core import DemandSet, Metric, WeightedGraph


class JsonFormatError(ValueError):
    """A JSON document does not match the expected wire format."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _quote(value: Any) -> str:
    """``repr(value)`` cut to 60 characters, so a huge input cannot flood stderr."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# Only "num/den" and bare integers: Fraction() alone would also take
# decimals, exponents ("1e999999999" builds a billion-digit integer),
# underscores, padding and non-ASCII digits.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(text: Any, path: str = "value") -> Fraction:
    if not isinstance(text, str):
        raise JsonFormatError(path, f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise JsonFormatError(path, f"bad rational {_quote(text)}: expected \"num/den\" or an integer")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise JsonFormatError(path, f"bad rational {_quote(text)}: {exc}") from None


def dump_canonical(data: Any) -> str:
    """Serialize to the canonical byte form used for every artifact."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """An object's members; a repeated key is an error, not its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for a, key in enumerate(keys) if key in keys[:a])
        raise JsonFormatError("document", f"repeated object key {_quote(key)}")
    return obj


def loads(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except RecursionError:
        raise JsonFormatError("document", "nested too deeply to parse") from None


def _expect_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise JsonFormatError(path, f"expected an integer, got {_quote(value)}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise JsonFormatError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_object(value: Any, path: str, required: Sequence[str]) -> dict:
    if not isinstance(value, dict):
        raise JsonFormatError(path, f"expected an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise JsonFormatError(path, f"missing required key {key!r}")
    return value


def _rows(data: Any, path: str, shape: str) -> Iterator[tuple[str, list]]:
    """The rows of the list ``data``, each of the ``shape`` it names, such as
    ``"[i, j, weight]"``: integers, then one rational. Yields each row's path
    and its values, the last parsed to a ``Fraction``; a bad row raises at
    its own path, or at its field's, when it is reached."""
    last = shape.count(",")
    tail = f"[{last}]"  # the rational's path suffix, formatted once per list
    for a, row in enumerate(_expect_list(data, path)):
        rpath = f"{path}[{a}]"
        _expect_list(row, rpath)
        if len(row) != last + 1:
            raise JsonFormatError(rpath, f"expected {shape}, got {len(row)} items")
        values = row[:last]
        for t, v in enumerate(values):
            if type(v) is not int:  # rows of plain ints build no field paths
                _expect_int(v, f"{rpath}[{t}]")
        values.append(parse_fraction(row[last], rpath + tail))
        yield rpath, values


_T = TypeVar("_T")


def _build(path: str, make: Callable[..., _T], *args: Any) -> _T:
    """``make(*args)``, with a ``ValueError`` it raises reported as a
    :class:`JsonFormatError` at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise JsonFormatError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# graphs


def graph_to_json(g: WeightedGraph) -> dict:
    return {
        "n": g.n,
        "terminals": list(g.terminals),
        "edges": [[i, j, format_fraction(w)] for i, j, w in g.edges()],
    }


def graph_from_json(data: Any, path: str = "graph") -> WeightedGraph:
    obj = _expect_object(data, path, ("n", "terminals", "edges"))
    n = _expect_int(obj["n"], f"{path}.n")
    terminals = [
        _expect_int(t, f"{path}.terminals[{a}]")
        for a, t in enumerate(_expect_list(obj["terminals"], f"{path}.terminals"))
    ]
    edges = [values for _, values in _rows(obj["edges"], f"{path}.edges", "[i, j, weight]")]
    return _build(path, WeightedGraph, n, terminals, edges)


# ---------------------------------------------------------------------------
# demands


def demands_to_json(ds: DemandSet) -> dict:
    return {"demands": [[s, t, format_fraction(dem)] for s, t, dem in ds.demands]}


def demands_from_json(data: Any, path: str = "demands") -> DemandSet:
    obj = _expect_object(data, path, ("demands",))
    return _demand_rows(obj["demands"], f"{path}.demands")


def _demand_rows(data: Any, path: str) -> DemandSet:
    """A list of [s, t, demand] rows: a demand file's body or a flow witness."""
    rows = [values for _, values in _rows(data, path, "[s, t, demand]")]
    return _build(path, DemandSet, rows)


# ---------------------------------------------------------------------------
# metrics (tables of rational strings)


def metric_to_json(d: Metric) -> list[list[str]]:
    return [[format_fraction(v) for v in row] for row in d.rows]


def metric_from_json(data: Any, path: str = "metric") -> Metric:
    rows = []
    for i, row in enumerate(_expect_list(data, path)):
        rows.append([
            parse_fraction(v, f"{path}[{i}][{j}]")
            for j, v in enumerate(_expect_list(row, f"{path}[{i}]"))
        ])
    return _build(path, Metric, rows)
