"""Line-oriented problem-spec files.

Three key=value sections describe one problem:

    [family]
    name = geometric            # or arithmetic, powerlaw, loglevels,
                                # weighted-geometric, lattice3d, constant,
                                # divergent, explicit
    # family parameters, e.g.  offset = 0.0 / slope = 1.0
    # explicit families:  p = 1,1,1   sigma = 2,2,5   tail = arithmetic
    #                     tail.offset = 2   tail.slope = 1

    [problem]
    entropy = mb                # mb | be | fd
    mode = solve                # solve | classify | forward | sweep | verify
    u = 1.0
    v = 2.0                     # forward mode uses x/y; sweep uses
                                # u_min,u_max,u_steps,v_min,v_max,v_steps

    [tolerances]
    tol = 1e-10
    epsilon = 1e-6

Parsing is exact and diffable: a spec written back with its floats' repr
parses to the same ProblemSpec (the tests' serialize_spec checks it).
parse_spec also builds the family once, so that every error, the family's
included, is a ParseError with the line at fault; ProblemSpec.build_family
returns one instance per family name and parameters, shared between specs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError, EmpError
from .sequences import (
    Arithmetic,
    ExplicitPrefix,
    ExplosiveWeights,
    Lattice3D,
    LogLevels,
    PowerLaw,
    SequenceFamily,
    WeightedGeometric,
)

__all__ = ["ParseError", "ProblemSpec", "parse_spec"]

_ENTROPIES = ("mb", "be", "fd")
_GRID_KEYS = ("u_min", "u_max", "u_steps", "v_min", "v_max", "v_steps")
# the [problem] keys each mode requires, in the order they are parsed
_TARGET_KEYS = {
    "solve": ("u", "v"),
    "classify": ("u", "v"),
    "forward": ("x", "y"),
    "sweep": _GRID_KEYS,
    "verify": (),
}


class ParseError(EmpError):
    """Malformed spec file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ProblemSpec:
    family_name: str
    family_params: tuple[tuple[str, str], ...]  # canonical (key, raw value) pairs
    entropy: str = "mb"
    mode: str = "solve"
    u: Optional[float] = None
    v: Optional[float] = None
    x: Optional[float] = None
    y: Optional[float] = None
    grid: Optional[tuple[float, float, int, float, float, int]] = None
    tol: float = 1e-10
    epsilon: float = 1e-6

    def build_family(self) -> SequenceFamily:
        """The spec's family: one instance per (family_name, family_params),
        shared by the specs that name it, so that what the instance keeps
        (its term table) is built once."""
        return _shared_family(self.family_name, self.family_params)


@functools.lru_cache(maxsize=16)
def _shared_family(name: str, params: tuple[tuple[str, str], ...]) -> SequenceFamily:
    return _build_family(name, dict(params))


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(line, f"{key}: not a number: {raw!r}") from exc


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(line, f"{key}: not an integer: {raw!r}") from exc


def _float_list(raw: str, line: int, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok, line, key) for tok in raw.split(",") if tok.strip())


_SIMPLE_FAMILIES = {
    "arithmetic": (Arithmetic, {"offset": 0.0, "slope": 1.0}),
    "geometric": (Arithmetic, {"offset": 0.0, "slope": 1.0}),
    "powerlaw": (PowerLaw, {"scale": 1.0, "exponent": 1.0}),
    "loglevels": (LogLevels, {"scale": 1.0}),
    "weighted-geometric": (WeightedGeometric, {"rate": 1.0, "power": 3.0}),
    "lattice3d": (Lattice3D, {"scale": 1.0}),
    "divergent": (ExplosiveWeights, {"rate": 1.0}),
    "constant": (lambda level: Arithmetic(offset=level, slope=0.0), {"level": 1.0}),
}


def _build_family(name: str, params: dict[str, str], lines=None, prefix="") -> SequenceFamily:
    """The family `name` with `params`, each key read as prefix + key (an
    explicit family's tail reads its keys "tail.<key>").  Every error is a
    ParseError at the line of the key at fault, from lines ("family.<key>"
    to its line, 0 where absent): a parameter's own line for an unknown
    parameter or a value that is not a number, else the line that names the
    family (`name`, or `tail` for a tail), also for a family's own check of
    its values."""
    lines = lines or {}

    def line(key):
        return lines.get(f"family.{prefix}{key}", 0)

    name_line = lines.get(f"family.{prefix[:-1] or 'name'}", 0)
    try:
        if name == "explicit":
            if "p" not in params or "sigma" not in params:
                raise ParseError(name_line, "explicit family needs p and sigma lists")
            for key in params:
                if key not in ("p", "sigma", "tail") and not key.startswith("tail."):
                    message = f"family 'explicit' has no parameter {prefix + key!r}"
                    raise ParseError(line(key), message)
            weights = _float_list(params["p"], line("p"), f"{prefix}p")
            levels = _float_list(params["sigma"], line("sigma"), f"{prefix}sigma")
            tail_params = {
                k[len("tail.") :]: v for k, v in params.items() if k.startswith("tail.")
            }
            tail_name = params.get("tail", "arithmetic")
            tail = _build_family(tail_name, tail_params, lines, f"{prefix}tail.")
            return ExplicitPrefix(weights, levels, tail)
        if name not in _SIMPLE_FAMILIES:
            raise ParseError(name_line, f"unknown family {name!r}")
        cls, defaults = _SIMPLE_FAMILIES[name]
        kwargs = dict(defaults)
        for key, raw in params.items():
            if key not in defaults:
                raise ParseError(line(key), f"family {name!r} has no parameter {prefix + key!r}")
            kwargs[key] = _parse_float(raw, line(key), prefix + key)
        return cls(**kwargs)
    except ConfigurationError as exc:  # a family's own check of its values
        raise ParseError(name_line, str(exc)) from exc


def _no_stray_key(section: str, keys: dict[str, str], lines: dict[str, int]) -> None:
    """ParseError at the first key, in sorted order, that `section` has left."""
    if keys:
        stray = sorted(keys)[0]
        raise ParseError(lines.get(f"{section}.{stray}", 0), f"unexpected key {stray!r}")


def parse_spec(text: str) -> ProblemSpec:
    section = None
    family: dict[str, str] = {}
    problem: dict[str, str] = {}
    tolerances: dict[str, str] = {}
    lines: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("family", "problem", "tolerances"):
                raise ParseError(i, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(i, f"expected key = value, got {line!r}")
        if section is None:
            raise ParseError(i, "key outside any section")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not value:
            raise ParseError(i, f"empty value for {key!r}")
        target = {"family": family, "problem": problem, "tolerances": tolerances}[section]
        if key in target:
            raise ParseError(i, f"duplicate key {key!r}")
        target[key] = value
        lines[f"{section}.{key}"] = i

    if "name" not in family:
        raise ParseError(0, "missing [family] name")
    name = family.pop("name")
    mode = problem.pop("mode", "solve")
    if mode not in _TARGET_KEYS:
        raise ParseError(lines.get("problem.mode", 0), f"unknown mode {mode!r}")
    entropy = problem.pop("entropy", "mb")
    if entropy not in _ENTROPIES:
        raise ParseError(lines.get("problem.entropy", 0), f"unknown entropy {entropy!r}")

    targets = {}
    for key in _TARGET_KEYS[mode]:
        if key not in problem:
            raise ParseError(0, f"{mode} mode requires {key}")
        parse = _parse_int if key.endswith("_steps") else _parse_float
        targets[key] = parse(problem.pop(key), lines.get(f"problem.{key}", 0), key)
    if mode == "sweep":
        targets = {"grid": tuple(targets.values())}
        if targets["grid"][2] < 1 or targets["grid"][5] < 1:
            raise ParseError(0, "sweep step counts must be >= 1")
    _no_stray_key("problem", problem, lines)

    tol = _parse_float(tolerances.pop("tol", "1e-10"), lines.get("tolerances.tol", 0), "tol")
    epsilon = _parse_float(
        tolerances.pop("epsilon", "1e-6"), lines.get("tolerances.epsilon", 0), "epsilon"
    )
    _no_stray_key("tolerances", tolerances, lines)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParseError(lines.get("tolerances.tol", 0), "tol must be positive")

    _build_family(name, family, lines)
    params = tuple(sorted(family.items()))
    return ProblemSpec(name, params, entropy, mode, tol=tol, epsilon=epsilon, **targets)
