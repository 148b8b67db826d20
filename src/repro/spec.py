"""The ``key=value`` spec text of the CLI's ``--faults``,
``--retry-policy``, ``--elastic-plan`` and ``--autoscale`` flags.

One table-driven parser serves all four: each flag's parser passes its
key table and builds its spec from the fields this returns. Every bad
input raises :class:`~repro.errors.ConfigError` naming the flag, the
key and the value. :func:`format_spec` is the parser's inverse.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigError

#: A spec key's dataclass field and converter (``int``, ``float`` or
#: ``str``).
KeyTable = dict[str, tuple[str, Callable[[str], object]]]


def spec_pairs(
    text: str, flag: str, form: str = "key=value"
) -> list[tuple[str, str]]:
    """The stripped ``(key, value)`` of each comma-separated entry
    (blank entries skipped); an entry without ``=`` is malformed."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(
                f"malformed {flag} entry {part!r} (expected {form})"
            )
        key, value = part.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_spec(text: str, flag: str, noun: str, keys: KeyTable) -> dict:
    """The ``{field: value}`` of a spec's entries. Every entry must be
    well formed before any key is looked up in ``keys``; an unknown
    key names ``noun``."""
    fields: dict = {}
    for key, value in spec_pairs(text, flag):
        if key not in keys:
            raise ConfigError(
                f"unknown {noun} key {key!r}; choose from {sorted(keys)}"
            )
        name, conv = keys[key]
        fields[name] = spec_value(conv, value, key, flag)
    return fields


def spec_value(conv, value: str, key: str, flag: str):
    """``conv(value)`` for spec entry ``key`` (``int``, ``float`` or
    ``str``), or a :class:`ConfigError` naming the key and the value.
    Floats must be finite: no spec field has a meaning for nan or inf."""
    try:
        out = conv(value)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ConfigError(
            f"{flag}: {key}={value!r} is not {kind}"
        ) from None
    if conv is float and not math.isfinite(out):
        raise ConfigError(f"{flag}: {key}={value!r} must be finite")
    return out


def num_text(value) -> str:
    """Spec text for a number that parses back to exactly ``value``."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def format_spec(spec, keys: KeyTable, default=None, text=None) -> str:
    """The ``key=value`` text :func:`parse_spec` turns back into the
    fields of ``spec``: every key, or only those whose field differs
    from ``default``'s. ``text(key, value)`` renders a value (default:
    :func:`num_text`)."""
    parts = []
    for key in sorted(keys):
        name = keys[key][0]
        value = getattr(spec, name)
        if default is None or value != getattr(default, name):
            render = num_text(value) if text is None else text(key, value)
            parts.append(f"{key}={render}")
    return ",".join(parts)
