"""The one JSON codec: model.json, report.json and truth.json all go through here.

`encode` writes a dataclass field by field in declaration order; a field's
``metadata={"json": key}`` renames its key. Writing and reading back are both
driven by the dataclass's type hints, resolved once per class into an
(encoder, decoder) pair: ``init=False`` fields are written but never read,
and a field with a default may be missing. Outputs never contain
NaN or infinity; a file that cannot be read back raises `MalformedJson`.
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

T = TypeVar("T")


def encode(value: Any) -> Any:
    """Dataclasses to dicts, tuples to lists, recursively; other values unchanged."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return _codec(type(value))[0](value)


def save(path: str | Path, value: Any, run_config: dict | None = None) -> None:
    """Write `value` plus an optional `run_config` stamp; nothing is written on NaN or inf."""
    payload = encode(value)
    if run_config is not None:
        payload["run_config"] = encode(run_config)
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as err:
        raise MalformedJson(f"cannot write a non-finite number as JSON ({err})", file=str(path)) from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load(path: str | Path, cls: type[T]) -> T:
    """Read a file written by `save` back into an instance of the dataclass `cls`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return _codec(cls)[1](payload)
    except (ValueError, KeyError, TypeError) as err:
        reason = f"missing key {err}" if isinstance(err, KeyError) else str(err)
        raise MalformedJson(f"not a valid {cls.__name__} file: {reason}", file=str(path)) from None


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
def _codec(hint: Any) -> tuple[Callable[[Any], Any] | None, Callable[[Any], Any]]:
    """Build, once per type, its (encoder, decoder) between values and parsed JSON.

    An encoder of None means values of the type are written as they are.
    """
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        specs = tuple((field, field.metadata.get("json", field.name), *_codec(hints[field.name]))
                      for field in dataclasses.fields(hint))
        reads = tuple((field.name, key, decode,
                       field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING)
                      for field, key, _, decode in specs if field.init)

        def encode_dataclass(value: Any) -> dict:
            return {key: getattr(value, field.name) if to_json is None else to_json(getattr(value, field.name))
                    for field, key, to_json, _ in specs}

        def decode_dataclass(value: Any) -> Any:
            _expect(value, dict)
            return hint(**{name: decode(value[key]) for name, key, decode, required in reads
                           if required or key in value})

        return encode_dataclass, decode_dataclass
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode_inner, decode_inner = _codec(inner)
        return (encode_inner and (lambda value: None if value is None else encode_inner(value)),
                lambda value: None if value is None else decode_inner(value))
    if origin is tuple and args[-1] is Ellipsis:
        encode_item, decode_item = _codec(args[0])
        return (list if encode_item is None else lambda value: [encode_item(item) for item in value],
                lambda value: tuple(decode_item(item) for item in _expect(value, list)))
    if origin is tuple:
        codecs = tuple(_codec(arg) for arg in args)

        def decode_fixed(value: Any) -> tuple:
            if len(_expect(value, list)) != len(codecs):
                raise ValueError(f"expected {len(codecs)} items, got {value!r:.60}")
            return tuple(decode(item) for (_, decode), item in zip(codecs, value))

        return list if all(codec[0] is None for codec in codecs) else encode, decode_fixed
    if hint is float:
        return None, _number
    if hint in (int, bool, str):
        return None, lambda value: _expect(value, hint)
    raise NotImplementedError(f"no JSON codec for {hint!r}")
