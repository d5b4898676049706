"""JSON walk configuration: parsing, validation, serialization.

A config bundles everything needed to run a walk: spatial dimension d,
coin dimension n, a coin description, a d x n shift grid (or the string
"usual" for the symmetric menu), a finite list of initial amplitudes,
and run controls. Angles may be written either as literal radians or as
strings of the form ``pi*<num>/<den>`` (e.g. ``"pi*2/3"``, ``"-pi/2"``)
so that golden configs carry exact phase fractions instead of rounded
decimals.

External files use 1-based coin labels; the Python API is 0-based. The
conversion happens exactly once, here.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Union

from .coins import (
    CoinKind,
    CoinMatrix,
    build_custom_coin,
    build_cyclic_coin,
    build_general_coin_1d,
    build_partial_cycle_coin,
)
from .engine import RevivalMode, WalkInstance
from .errors import ConfigError, ConstraintError, DimensionMismatchError
from .shifts import ShiftTable, build_shift_table, usual_shift_choice
from .states import COORD_LIMIT, WalkState
from .tolerances import Tolerances

SCHEMA_VERSION = 1
_FLOAT_MAX = sys.float_info.max

_PI_PATTERN = re.compile(r"^\s*(-)?\s*pi\s*(?:\*\s*(-?\d+))?\s*(?:/\s*(\d+))?\s*$")


def parse_phase(value, field_path: str = "phase") -> float:
    """A finite literal radian number, or a ``pi*<num>/<den>`` string parsed exactly."""
    if isinstance(value, str):
        m = _PI_PATTERN.match(value)
        if m is None:
            raise ConfigError(
                field_path,
                f"cannot parse angle {value!r}; use a number or 'pi*<num>/<den>'",
            )
        sign = -1.0 if m.group(1) else 1.0
        try:
            num = int(m.group(2)) if m.group(2) else 1
            den = int(m.group(3)) if m.group(3) else 1
            value = sign * (math.pi * num) / den
        except ZeroDivisionError:
            raise ConfigError(field_path, "zero denominator in angle") from None
        except (OverflowError, ValueError):  # beyond the float range, or int()'s digit limit
            value = math.inf
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field_path, f"expected an angle, got {value!r}")
    return _finite(value, field_path)


@dataclass(frozen=True)
class CoinSpec:
    """Declarative coin description as written in a config file."""

    kind: str
    phases: tuple[float, ...] | None = None
    r: int | None = None
    theta: float | None = None
    phi1: float | None = None
    phi2: float | None = None
    custom_matrix: tuple[tuple[complex, ...], ...] | None = None


@dataclass(frozen=True)
class InitialEntry:
    position: tuple[int, ...]
    coin: int  # 1-based, as in the file
    amp_re: float
    amp_im: float


@dataclass(frozen=True)
class WalkConfig:
    d: int
    n: int
    coin: CoinSpec
    shifts: Union[tuple[tuple[int, ...], ...], str]
    initial: tuple[InitialEntry, ...]
    normalize: bool = False
    max_steps: int = 16
    tolerances: Tolerances = field(default_factory=Tolerances)
    revival_mode: RevivalMode = RevivalMode.EXACT
    seed: int = 0

    @cached_property
    def instance(self) -> WalkInstance:
        """The walk this config describes, built (and so validated) once."""
        coin, shifts, state = _build_coin(self), _build_shifts(self), _initial_state(self)
        try:
            return WalkInstance(coin=coin, shifts=shifts, initial=state, tolerances=self.tolerances)
        except ValueError as exc:
            raise ConfigError("<config>", str(exc)) from exc


def _field_names(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


# The keys a config file may use are the fields of the dataclasses above.
_CONFIG_KEYS = _field_names(WalkConfig) | {"schema_version"}
_COIN_KEYS = _field_names(CoinSpec)
_ENTRY_KEYS = _field_names(InitialEntry)
_TOLERANCE_KEYS = _field_names(Tolerances)

# The CoinSpec fields each coin kind takes; it must set these and no others.
_KIND_FIELDS = {
    CoinKind.CYCLIC: ("phases",),
    CoinKind.PARTIAL_CYCLE: ("phases", "r"),
    CoinKind.GENERAL_1D: ("theta", "phi1", "phi2"),
    CoinKind.CUSTOM: ("custom_matrix",),
}
_COIN_FIELDS = tuple(f.name for f in fields(CoinSpec) if f.name != "kind")  # in field order
_KIND_NAMES = frozenset(k.value for k in CoinKind)
_MODE_NAMES = frozenset(m.value for m in RevivalMode)


# -- parsing ----------------------------------------------------------------


def _require(obj: Mapping, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}{key}", "missing required field")
    return obj[key]


def _as_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return value


def _finite(value, path: str) -> float:
    """``value`` as a float; NaN, infinities and integers beyond the float range are refused."""
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # False for NaN; exact for any int
        raise ConfigError(path, f"must be a finite number within ±{_FLOAT_MAX:.4g}")
    return float(value)


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return _finite(value, path)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true/false, got {value!r}")
    return value


def _check_keys(obj: Mapping, allowed: frozenset[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}{key}", "unknown field")


def _parse_coin_spec(obj, n: int) -> CoinSpec:
    if not isinstance(obj, Mapping):
        raise ConfigError("coin", "expected an object")
    _check_keys(obj, _COIN_KEYS, "coin.")
    kind = _require(obj, "kind", "coin.")
    if kind not in _KIND_NAMES:
        raise ConfigError("coin.kind", f"unknown coin kind {kind!r}")
    phases = None
    if "phases" in obj:
        raw = obj["phases"]
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise ConfigError("coin.phases", "expected a list of angles")
        phases = tuple(
            parse_phase(v, f"coin.phases[{i}]") for i, v in enumerate(raw)
        )
    r = _as_int(obj["r"], "coin.r", minimum=2) if "r" in obj else None
    theta = parse_phase(obj["theta"], "coin.theta") if "theta" in obj else None
    phi1 = parse_phase(obj["phi1"], "coin.phi1") if "phi1" in obj else None
    phi2 = parse_phase(obj["phi2"], "coin.phi2") if "phi2" in obj else None
    custom = None
    if "custom_matrix" in obj:
        raw = obj["custom_matrix"]
        if not isinstance(raw, Sequence) or len(raw) != n:
            raise ConfigError("coin.custom_matrix", f"expected {n} rows")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, Sequence) or len(row) != n:
                raise ConfigError(f"coin.custom_matrix[{i}]", f"expected {n} entries")
            entries = []
            for j, cell in enumerate(row):
                if (
                    not isinstance(cell, Sequence)
                    or isinstance(cell, str)
                    or len(cell) != 2
                ):
                    raise ConfigError(
                        f"coin.custom_matrix[{i}][{j}]", "expected an [re, im] pair"
                    )
                entries.append(
                    complex(
                        _as_number(cell[0], f"coin.custom_matrix[{i}][{j}][0]"),
                        _as_number(cell[1], f"coin.custom_matrix[{i}][{j}][1]"),
                    )
                )
            rows.append(tuple(entries))
        custom = tuple(rows)
    return CoinSpec(
        kind=kind, phases=phases, r=r, theta=theta, phi1=phi1, phi2=phi2,
        custom_matrix=custom,
    )


def _parse_shifts(obj, d: int, n: int):
    if obj == "usual":
        return "usual"
    if not isinstance(obj, Sequence) or isinstance(obj, str):
        raise ConfigError("shifts", "expected a d x n integer grid or \"usual\"")
    if len(obj) != d:
        raise ConfigError("shifts", f"expected {d} row(s), got {len(obj)}")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, Sequence) or isinstance(row, str) or len(row) != n:
            raise ConfigError(f"shifts[{r}]", f"expected {n} integers")
        rows.append(tuple(_as_int(a, f"shifts[{r}][{j}]") for j, a in enumerate(row)))
    return tuple(rows)


def _parse_initial(obj, d: int, n: int) -> tuple[InitialEntry, ...]:
    if not isinstance(obj, Sequence) or isinstance(obj, str) or not obj:
        raise ConfigError("initial", "expected a non-empty list of amplitude entries")
    entries = []
    for i, item in enumerate(obj):
        path = f"initial[{i}]"
        if not isinstance(item, Mapping):
            raise ConfigError(path, "expected an object")
        _check_keys(item, _ENTRY_KEYS, f"{path}.")
        pos_raw = _require(item, "position", f"{path}.")
        if not isinstance(pos_raw, Sequence) or isinstance(pos_raw, str) or len(pos_raw) != d:
            raise ConfigError(f"{path}.position", f"expected {d} integer coordinate(s)")
        position = tuple(
            _as_int(c, f"{path}.position[{j}]", -COORD_LIMIT, COORD_LIMIT)
            for j, c in enumerate(pos_raw)
        )
        coin = _as_int(_require(item, "coin", f"{path}."), f"{path}.coin")
        if not 1 <= coin <= n:
            raise ConfigError(f"{path}.coin", f"coin label must be in 1..{n}, got {coin}")
        amp_re = _as_number(_require(item, "amp_re", f"{path}."), f"{path}.amp_re")
        amp_im = _as_number(_require(item, "amp_im", f"{path}."), f"{path}.amp_im")
        entries.append(InitialEntry(position, coin, amp_re, amp_im))
    return tuple(entries)


def _parse_tolerances(obj, path: str) -> Tolerances:
    if not isinstance(obj, Mapping):
        raise ConfigError(path, "expected an object")
    _check_keys(obj, _TOLERANCE_KEYS, f"{path}.")
    kwargs = {}
    for key, value in obj.items():
        kwargs[key] = _as_number(value, f"{path}.{key}")
        try:
            Tolerances(**{key: kwargs[key]})
        except ValueError as exc:
            raise ConfigError(f"{path}.{key}", str(exc)) from exc
    return Tolerances(**kwargs)


def _parse_mode(value, path: str) -> RevivalMode:
    if value not in _MODE_NAMES:
        raise ConfigError(path, f"expected 'exact' or 'global_phase', got {value!r}")
    return RevivalMode(value)


# Parsers of the optional top-level fields; an absent one takes its WalkConfig default.
_OPTIONAL_FIELDS = {
    "normalize": _as_bool,
    "max_steps": lambda value, path: _as_int(value, path, minimum=0),
    "tolerances": _parse_tolerances,
    "revival_mode": _parse_mode,
    "seed": lambda value, path: _as_int(value, path, minimum=0, maximum=2**64 - 1),
}


def parse_config(text: Union[bytes, str]) -> WalkConfig:
    """Parse and deeply validate a JSON walk config.

    Constraint violations from the construction layers (phase sums,
    zero sums, normalization) are reported here with the path of the
    offending field.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError("<config>", f"not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise ConfigError("<config>", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, Mapping):
        raise ConfigError("<config>", "top level must be a JSON object")
    _check_keys(obj, _CONFIG_KEYS, "")
    if "schema_version" in obj and obj["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            "schema_version", f"unsupported version {obj['schema_version']!r}"
        )
    d = _as_int(_require(obj, "d", ""), "d", minimum=1)
    n = _as_int(_require(obj, "n", ""), "n", minimum=2)
    coin = _parse_coin_spec(_require(obj, "coin", ""), n)
    shifts = _parse_shifts(_require(obj, "shifts", ""), d, n)
    initial = _parse_initial(_require(obj, "initial", ""), d, n)
    optional = {
        key: parse(obj[key], key) for key, parse in _OPTIONAL_FIELDS.items() if key in obj
    }
    config = WalkConfig(d=d, n=n, coin=coin, shifts=shifts, initial=initial, **optional)
    config.instance  # deep validation: violations surface with config field paths
    return config


def load_config(path) -> WalkConfig:
    try:
        with open(path, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc.strerror}") from exc
    return parse_config(text)


# -- construction -----------------------------------------------------------


def _build_coin(config: WalkConfig) -> CoinMatrix:
    spec, n = config.coin, config.n
    try:
        kind = CoinKind(spec.kind)
        takes = _KIND_FIELDS[kind]
        for name in _COIN_FIELDS:
            if (getattr(spec, name) is None) == (name in takes):
                problem = "require" if name in takes else "do not take"
                raise ConfigError(f"coin.{name}", f"{kind.value} coins {problem} this field")
        if kind is CoinKind.CYCLIC:
            if len(spec.phases) != n:
                raise ConfigError("coin.phases", f"expected {n} phases, got {len(spec.phases)}")
            return build_cyclic_coin(spec.phases, tol=config.tolerances.phase)
        if kind is CoinKind.PARTIAL_CYCLE:
            return build_partial_cycle_coin(n, spec.r, spec.phases, tol=config.tolerances.phase)
        if kind is CoinKind.GENERAL_1D:
            if n != 2:
                raise ConfigError("n", "general_1d coins require n = 2")
            return build_general_coin_1d(spec.theta, spec.phi1, spec.phi2)
        return build_custom_coin(spec.custom_matrix)
    except ConfigError:
        raise
    except (ConstraintError, DimensionMismatchError, ValueError) as exc:
        path = "coin.phases" if hasattr(exc, "residual") else "coin"
        raise ConfigError(path, str(exc)) from exc


def _build_shifts(config: WalkConfig) -> ShiftTable:
    if config.shifts == "usual":
        grid = [usual_shift_choice(config.n)] * config.d
    else:
        grid = list(config.shifts)
    try:
        return build_shift_table(grid)
    except ValueError as exc:
        dim = getattr(exc, "dimension", None)
        path = f"shifts[{dim}]" if dim is not None else "shifts"
        raise ConfigError(path, str(exc)) from exc


def _initial_state(config: WalkConfig) -> WalkState:
    entries = [
        (e.position, e.coin - 1, complex(e.amp_re, e.amp_im)) for e in config.initial
    ]
    try:
        return WalkState.from_entries(
            config.d, config.n, entries,
            normalize=config.normalize, norm_tol=config.tolerances.norm,
        )
    except ValueError as exc:
        raise ConfigError("initial", str(exc)) from exc


def build_instance(config: WalkConfig) -> WalkInstance:
    """The config's walk instance; built on first use, then shared."""
    return config.instance


# -- serialization ----------------------------------------------------------


def _to_json(value):
    """A config dataclass as plain JSON data: None fields are omitted."""
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _to_json(v) for name, v in items if v is not None}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, RevivalMode):
        return value.value
    return value


def config_to_dict(config: WalkConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_to_json(config)}


def serialize_config(config: WalkConfig) -> str:
    """JSON text whose parse equals ``config`` (floats round-trip via repr)."""
    return json.dumps(config_to_dict(config), indent=2) + "\n"
