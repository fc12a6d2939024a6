"""Prometheus text exposition: render a registry, parse an exposition.

The renderer produces text-format 0.0.4 output (``# HELP`` / ``# TYPE``
comment lines followed by ``name{labels} value`` samples); the parser is
the strict inverse used by the test suite and ``repro metrics --json`` to
*validate* what ``GET /metrics`` serves — a scrape that fails to parse is
a bug, not a formatting nit.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Tuple

__all__ = ["format_labels", "parse_prometheus_text", "render_prometheus"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>[^\s]+)$")
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def format_labels(pairs: Tuple[Tuple[str, str], ...]) -> str:
    """``{a="x",b="y"}`` for a sorted label tuple ('' when unlabelled)."""
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()
                                  and abs(value) < 1e15):
        return str(int(value))
    return repr(float(value))


def _merge_label_key(label_key: str, extra: str) -> str:
    """Splice one more ``k="v"`` pair into a rendered label string."""
    if not label_key:
        return "{" + extra + "}"
    return label_key[:-1] + "," + extra + "}"


def render_prometheus(registry) -> str:
    """The registry's families as Prometheus text exposition 0.0.4."""
    lines = []
    for name, family in registry.snapshot().items():
        kind = family["type"]
        help_text = family["help"] or name.replace("_", " ")
        lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for label_key, value in family["samples"].items():
            if kind == "histogram":
                cumulative = 0
                for bucket, count in zip(value["buckets"],
                                         value["counts"]):
                    cumulative += count
                    le = _merge_label_key(label_key,
                                          f'le="{_format_value(bucket)}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                inf = _merge_label_key(label_key, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {value['count']}")
                lines.append(
                    f"{name}_sum{label_key} {_format_value(value['sum'])}")
                lines.append(f"{name}_count{label_key} {value['count']}")
            else:
                lines.append(f"{name}{label_key} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse an exposition into ``{sample name: {label string: value}}``.

    Raises :class:`ValueError` on any malformed line — unknown comment
    shapes, invalid metric names, unbalanced or malformed label sets, or
    non-numeric values.  Histogram series appear under their expanded
    sample names (``*_bucket`` / ``*_sum`` / ``*_count``).
    """
    samples: Dict[str, Dict[str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(
                    f"line {lineno}: malformed comment {raw!r}")
            if not _NAME_RE.match(parts[2]):
                raise ValueError(
                    f"line {lineno}: invalid metric name {parts[2]!r}")
            if parts[1] == "TYPE" and (
                    len(parts) < 4 or parts[3].split()[0] not in
                    ("counter", "gauge", "histogram", "summary",
                     "untyped")):
                raise ValueError(
                    f"line {lineno}: invalid TYPE line {raw!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        labels = match.group("labels") or ""
        if labels:
            inner = labels[1:-1]
            if inner:
                for pair in _split_label_pairs(inner, lineno):
                    if not _LABEL_RE.match(pair):
                        raise ValueError(
                            f"line {lineno}: malformed label {pair!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-numeric value "
                f"{match.group('value')!r}") from exc
        if math.isnan(value):
            raise ValueError(f"line {lineno}: NaN sample value")
        samples.setdefault(match.group("name"), {})[labels] = value
    return samples


def _split_label_pairs(inner: str, lineno: int):
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    pairs = []
    current = []
    in_quotes = False
    escaped = False
    for char in inner:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValueError(f"line {lineno}: unbalanced quotes in labels")
    if current:
        pairs.append("".join(current))
    return pairs
