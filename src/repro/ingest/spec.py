"""URL-style source spec grammar: one string resolves to one batch source.

A spec is ``scheme://target?key=value&...`` where the scheme names a
source family (``synthetic``, ``csv``, ``jsonl``, ``replay``)
and the query string carries the knobs every family shares (``batch``,
``shard=k/n``, ``seed``, ``weight``) plus family-specific ones
(``io_delay_ms``, ``speed``, ``pace``, ...). Examples:

- ``synthetic://kaggle?batch=4096&batches=64&seed=7&io_delay_ms=12``
- ``csv:///data/criteo/day_0.csv?batch=512&shard=3/8``
- ``jsonl://relative/path/rows.jsonl?batch=256``
- ``replay:///logs/flashcrowd.replay.jsonl?speed=2.0&pace=1``

The grammar is deliberately dumb: :func:`parse_spec` does nothing but
split and type the pieces, so every scheme handler sees the same
:class:`SourceSpec` and error messages stay uniform. Resolution of a spec
(or a comma-joined list of specs, which builds a weighted
:class:`repro.ingest.sources.MixedSource`) lives in
:mod:`repro.ingest.sources`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = ["IngestError", "SourceSpec", "parse_spec", "split_specs"]

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class IngestError(ValueError):
    """A malformed source spec or an unusable source."""


@dataclass(frozen=True)
class SourceSpec:
    """One parsed source spec: scheme, target path/name, typed params."""

    raw: str
    scheme: str
    target: str
    params: dict[str, str] = field(default_factory=dict)

    # -- typed parameter access ----------------------------------------

    def str_param(self, name: str, default: str | None = None) -> str | None:
        return self.params.get(name, default)

    def int_param(self, name: str, default: int | None = None) -> int | None:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise IngestError(
                f"bad source spec {self.raw!r}: {name}={value!r} is not an integer"
            ) from None

    def float_param(self, name: str, default: float | None = None) -> float | None:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise IngestError(
                f"bad source spec {self.raw!r}: {name}={value!r} is not a number"
            ) from None

    def bool_param(self, name: str, default: bool = False) -> bool:
        value = self.params.get(name)
        if value is None:
            return default
        lowered = value.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise IngestError(
            f"bad source spec {self.raw!r}: {name}={value!r} is not a boolean "
            f"(use one of {sorted(_TRUE | _FALSE)})"
        )

    def shard_param(self, name: str = "shard") -> tuple[int, int]:
        """Parse ``shard=k/n`` into ``(k, n)``; defaults to ``(0, 1)``."""
        value = self.params.get(name)
        if value is None:
            return (0, 1)
        index_s, sep, count_s = value.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(index_s), int(count_s)
        except ValueError:
            raise IngestError(
                f"bad source spec {self.raw!r}: {name}={value!r} is not of the form K/N"
            ) from None
        if count < 1 or not 0 <= index < count:
            raise IngestError(
                f"bad source spec {self.raw!r}: shard {index}/{count} needs 0 <= K < N"
            )
        return (index, count)

    def require_known(self, known: set[str]) -> None:
        """Reject typo'd knobs instead of silently ignoring them."""
        unknown = sorted(set(self.params) - known)
        if unknown:
            raise IngestError(
                f"bad source spec {self.raw!r}: unknown parameter(s) "
                f"{', '.join(unknown)} (known: {', '.join(sorted(known))})"
            )


def parse_spec(spec: str) -> SourceSpec:
    """Split one ``scheme://target?query`` spec into a :class:`SourceSpec`."""
    if not spec or not spec.strip():
        raise IngestError("empty source spec")
    spec = spec.strip()
    parts = urlsplit(spec)
    if not parts.scheme:
        raise IngestError(
            f"bad source spec {spec!r}: expected scheme://target?params "
            "(e.g. synthetic://kaggle?batch=4096)"
        )
    # ``csv://data/x.csv`` parses as netloc="data" path="/x.csv"; a file
    # target is the two glued back together. ``csv:///abs/x.csv`` keeps
    # its leading slash (netloc empty, path absolute).
    target = unquote(parts.netloc + parts.path)
    params: dict[str, str] = {}
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        if key in params:
            raise IngestError(f"bad source spec {spec!r}: duplicate parameter {key!r}")
        params[key] = value
    return SourceSpec(raw=spec, scheme=parts.scheme.lower(), target=target, params=params)


def split_specs(specs: str) -> list[str]:
    """Split a CLI-style ``SPEC[,SPEC...]`` list (commas never appear inside
    a spec: query values are URL-encoded if they need one)."""
    out = [piece.strip() for piece in specs.split(",")]
    if any(not piece for piece in out):
        raise IngestError(f"bad source list {specs!r}: empty spec in comma-joined list")
    return out
