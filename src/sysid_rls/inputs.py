"""Deterministic input-sequence generators for identification experiments."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError

KINDS = ("white", "prbs", "sine-mix", "file")
# keys whose value is a list of numbers
_LISTS = ("freqs", "amps", "phases")


@dataclass(frozen=True)
class InputSpec:
    """Description of an input sequence; fully determines it given a length.

    kinds: ``white`` (iid standard normal times scale), ``prbs``
    (equiprobable +/- scale), ``sine-mix`` (sum of sinusoids, broadcast to
    all channels), ``file`` (u columns of a trajectory CSV).
    """

    kind: str
    scale: float = 1.0
    seed: int = 0
    freqs: tuple = field(default_factory=tuple)
    amps: tuple = field(default_factory=tuple)
    phases: tuple = field(default_factory=tuple)
    path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown input kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "sine-mix":
            if not self.freqs:
                raise ValidationError("sine-mix needs at least one frequency")
            if self.amps and len(self.amps) != len(self.freqs):
                raise ValidationError("sine-mix amps must match freqs in length")
            if self.phases and len(self.phases) != len(self.freqs):
                raise ValidationError("sine-mix phases must match freqs in length")
        if self.kind == "file" and not self.path:
            raise ValidationError("file input needs a path")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "scale": self.scale, "seed": self.seed}
        if self.kind == "sine-mix":
            d["freqs"] = list(self.freqs)
            if self.amps:
                d["amps"] = list(self.amps)
            if self.phases:
                d["phases"] = list(self.phases)
        if self.kind == "file":
            d["path"] = self.path
        return d


def _parse_int(where: str, value) -> int:
    """``value`` if it is an integer: a float, even an integral one, a string
    or a bool (JSON ``true`` is an int to Python) is a validation error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{where}: {value!r} is not an integer")


def _parse_number(where: str, value, cast):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {value!r} is not a valid {cast.__name__}") from exc


def _parse_numbers(where: str, values) -> tuple:
    if isinstance(values, (str, bytes, dict)) or not hasattr(values, "__iter__"):
        raise ValidationError(f"{where}: expected a list of numbers, got {values!r}")
    return tuple(_parse_number(f"{where}[{i}]", x, float) for i, x in enumerate(values))


def parse_input_spec(text: str) -> InputSpec:
    """Parse CLI syntax like ``white:seed=7:scale=1.0`` or
    ``sine-mix:freqs=0.01,0.05:amps=1,0.5`` into the dict a config holds."""
    parts = text.split(":")
    d: dict = {"kind": parts[0]}
    for part in parts[1:]:
        if "=" not in part:
            raise ValidationError(f"bad input-spec fragment {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        if key in _LISTS:
            value = [x for x in value.split(",") if x]
        elif key == "seed" and re.fullmatch(r"[+-]?[0-9]+", value):
            value = int(value)
        d[key] = value
    return spec_from_dict(d, where="input-spec")


def spec_from_dict(d: dict, where: str = "input") -> InputSpec:
    """Validate a config-dict input description; unknown keys are rejected."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: expected an object")
    allowed = {"kind", "scale", "seed", "path", *_LISTS}
    unknown = set(d) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    if "kind" not in d:
        raise ValidationError(f"{where}.kind: required")
    kwargs = {"kind": d["kind"]}
    if "scale" in d:
        kwargs["scale"] = _parse_number(f"{where}.scale", d["scale"], float)
    if "seed" in d:
        kwargs["seed"] = _parse_int(f"{where}.seed", d["seed"])
        if kwargs["seed"] < 0:
            raise ValidationError(f"{where}.seed: must be non-negative, got {kwargs['seed']}")
    for key in _LISTS:
        if key in d:
            kwargs[key] = _parse_numbers(f"{where}.{key}", d[key])
    if "path" in d:
        kwargs["path"] = str(d["path"])
    try:
        return InputSpec(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def generate_input(spec: InputSpec, horizon: int, m: int) -> np.ndarray:
    """Input array of shape (horizon, m); identical across calls."""
    if horizon <= 0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    # numpy refuses, rather than allocates, an array of more bytes than this
    if horizon * m * 8 > np.iinfo(np.intp).max:
        raise ValidationError(f"input horizon {horizon} is too large: "
                              "numpy cannot allocate that many inputs")
    if spec.kind == "white":
        rng = np.random.default_rng(spec.seed)
        return spec.scale * rng.standard_normal((horizon, m))
    if spec.kind == "prbs":
        rng = np.random.default_rng(spec.seed)
        return spec.scale * rng.choice([-1.0, 1.0], size=(horizon, m))
    if spec.kind == "sine-mix":
        k = np.arange(horizon)[:, None]
        amps = spec.amps if spec.amps else tuple(1.0 for _ in spec.freqs)
        phases = spec.phases if spec.phases else tuple(0.0 for _ in spec.freqs)
        signal = np.zeros((horizon, 1))
        for f, a, ph in zip(spec.freqs, amps, phases):
            signal = signal + a * np.sin(2.0 * np.pi * f * k + ph)
        return spec.scale * np.repeat(signal, m, axis=1)
    if spec.kind == "file":
        from .fileio import load_trajectory

        path = Path(spec.path)
        traj = load_trajectory(path)
        if traj.m != m:
            raise ValidationError(f"{path} provides {traj.m} input channels, need {m}")
        if len(traj) < horizon:
            raise ValidationError(f"{path} has {len(traj)} rows, need {horizon}")
        u = traj.u[:horizon]
        if not np.all(np.isfinite(u)):
            raise ValidationError(f"{path}: requested window has missing input cells")
        return u
