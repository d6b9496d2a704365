"""The one JSON codec: model.json, report.json and truth.json all go through here.

Encoding is `json.dump`'s own, streamed into `ingest.open_output`, so no
text of the whole file is ever held: dicts, lists, tuples (as lists), strings,
numbers and None are written by json's recursion, and its `default` hook
turns a dataclass into a dict of its fields in declaration order; a field's
``metadata={"json": key}`` renames its key. Reading back is driven by the
dataclass's type hints, compiled once per type into a decoder: ``init=False``
fields are written but never read, and a field with a default may be
missing. Outputs never contain NaN or infinity; a file that cannot be read
back raises `MalformedJson`.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path
from typing import Any, Callable, TypeVar

from workforecast.errors import MalformedJson
from workforecast.ingest import open_output

T = TypeVar("T")


def save(path: str | Path, value: Any, run_config: dict | None = None) -> None:
    """Write `value` plus an optional `run_config` stamp; on NaN or inf `path` keeps its old bytes."""
    payload = value
    if run_config is not None:
        payload = {**(value if isinstance(value, dict) else _fields(value)), "run_config": run_config}
    try:
        with open_output(path) as fh:
            json.dump(payload, fh, indent=2, allow_nan=False, default=_fields)
            fh.write("\n")
    except ValueError as err:
        raise MalformedJson(f"cannot write a non-finite number as JSON ({err})", file=str(path)) from None


def load(path: str | Path, cls: type[T]) -> T:
    """Read a file written by `save` back into an instance of the dataclass `cls`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return _codec(cls)(payload)
    except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as err:
        reason = f"missing key {err}" if isinstance(err, KeyError) else str(err)
        raise MalformedJson(f"not a valid {cls.__name__} file: {reason}", file=str(path)) from None


def _fields(value: Any) -> dict:
    """A dataclass instance as a dict of its fields; json.dump calls this for any value it cannot write."""
    return {key: getattr(value, name) for key, name in _keys(type(value))}


@functools.cache
def _keys(cls: type) -> tuple[tuple[str, str], ...]:
    """(JSON key, field name) of each field of the dataclass `cls`, read once per type, not once per value."""
    if not dataclasses.is_dataclass(cls):
        raise NotImplementedError(f"no JSON codec for {cls!r}")
    return tuple((field.metadata.get("json", field.name), field.name) for field in dataclasses.fields(cls))


def _expect(value: Any, *kinds: type) -> Any:
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(kind.__name__ for kind in kinds)}, got {value!r:.60}")
    return value


def _number(value: Any) -> float:
    number = float(_expect(value, int, float))
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r:.60}")
    return number


@functools.cache
def _codec(hint: Any) -> Callable[[Any], Any]:
    """Build, once per type, the decoder from parsed JSON to a value of that type."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        reads = tuple((field.name, field.metadata.get("json", field.name), _codec(hints[field.name]),
                       field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING)
                      for field in dataclasses.fields(hint) if field.init)

        def decode_dataclass(value: Any) -> Any:
            _expect(value, dict)
            return hint(**{name: decode(value[key]) for name, key, decode, required in reads
                           if required or key in value})

        return decode_dataclass
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        decode_inner = _codec(inner)
        return lambda value: None if value is None else decode_inner(value)
    if origin is tuple and args[-1] is Ellipsis:
        decode_item = _codec(args[0])
        return lambda value: tuple(decode_item(item) for item in _expect(value, list))
    if origin is tuple:
        decoders = tuple(_codec(arg) for arg in args)

        def decode_fixed(value: Any) -> tuple:
            if len(_expect(value, list)) != len(decoders):
                raise ValueError(f"expected {len(decoders)} items, got {value!r:.60}")
            return tuple(decode(item) for decode, item in zip(decoders, value))

        return decode_fixed
    if hint is float:
        return _number
    if hint in (int, bool, str):
        return lambda value: _expect(value, hint)
    raise NotImplementedError(f"no JSON codec for {hint!r}")
