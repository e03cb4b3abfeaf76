"""Problem configuration: JSON schema, resolution, and canonical hashing.

A run is specified by a single JSON document:

    {
      "kernel":    {"type": "gaussian", "sigma": 0.5},
      "marginals": [{"type": "gaussian", "sigma": 1.0},
                    {"type": "gaussian", "sigma": 0.8}],
      "grid":      {"dim": 1, "radius": 8.0, "points": 401,
                    "rule": "trapezoid"},
      "solver":    {"tol": 1e-10, "max_iter": 10000, "force": false},
      "swap": false,
      "normalize_kernel_rows": false
    }

kernel.type is one of gaussian (sigma) / gaussian_multivariate (a d x d
covariance: per-axis factors if diagonal, sigma^2 I giving sigma's operator,
else one dense factor; both built by problem.gaussian_kernel) / table;
marginal types are gaussian (sigma, or covariance for dim > 1, where a
scalar sigma is a per-axis variance) / table.  Table values come from CSV
files resolved relative to the config file, and a table marginal is
rescaled to unit mass unless its "renormalize" is false (a JSON boolean,
or 0 or 1).  A radius of "auto" expands to 6.5 x the largest Gaussian
standard deviation in the problem, each read from the one key its kernel
or marginal is built from (a stray "sigma" on a table, say, is not read).
The grid keys are dim (default 1), radius, points and rule, and no
other (a misspelt "radus" would leave the radius "auto").  Every grid is
the trapezoid lattice (quadrature.build_grid), so rule takes only
"trapezoid", its default; the key stays so that the resolved config, the
problem hash and every summary.json keep their bytes.
A number (a sigma, a covariance entry, grid.radius, grid.points,
grid.dim, solver.tol) is a JSON number or a numeric string, never a JSON
boolean, which float() and numpy would read as 1 or 0.
solver.max_iter caps Sinkhorn's sweeps only: Fortet's solve runs one
scheme step and its closing, which fortet.REFINE_MAX bounds; the closing
stops at max(tol / 10, fortet.CLOSING_TOL_FLOOR), so a tol below 1e-14,
whose tenth float64 cannot reliably meet, stops at the floor.
solver.force runs every command past the feasibility refusal; the command
line has no switch of its own for it, so the resolved config, and the
hash, record whether a run was forced.  The problem hash is the sha256 of
the resolved config in canonical JSON form (sorted keys, no whitespace),
so two runs with the same hash saw the same fully-resolved instance.
build_problem returns a Problem, a NamedTuple of the grid, kernel,
marginals, solver options, resolved config and hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from pathlib import Path
from typing import Dict, NamedTuple

import numpy as np

from .errors import ConfigError
from .fortet import FortetOptions
from .problem import (DensityField, KernelOperator, MarginalPair,
                      density_field, gaussian_density, gaussian_kernel,
                      swapped_marginals, table_kernel, transition_normalized)
from .quadrature import QuadratureGrid, build_grid

AUTO_RADIUS_FACTOR = 6.5

_TOP_KEYS = {"kernel", "marginals", "grid", "solver", "swap",
             "normalize_kernel_rows"}
#: grid keys beside "points" and "radius", and their defaults
_GRID_DEFAULTS = {"dim": 1, "rule": "trapezoid"}
#: solver keys, their defaults and (by the default's type) their casts
_SOLVER_DEFAULTS = FortetOptions._field_defaults


class Problem(NamedTuple):
    grid: QuadratureGrid
    kernel: KernelOperator
    marginals: MarginalPair
    options: FortetOptions
    config: Dict[str, object]         # fully resolved
    problem_hash: str


def load_config(path) -> Dict[str, object]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def problem_hash(resolved: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()


def _marginal_key(spec: Dict[str, object], dim: int) -> str:
    """The key a gaussian marginal is built from: its "sigma", a standard
    deviation, in 1-D; in dim >= 2 its "covariance", or its "sigma" if it
    has none, read as a covariance (a scalar one a per-axis variance)."""
    return "covariance" if dim > 1 and "covariance" in spec else "sigma"


def _gaussian_scales(raw: Dict[str, object], dim: int):
    """The standard deviations of the Gaussians in raw, each read from the
    one key its builder reads (build_problem, _marginal_key): a
    covariance's is the square root of its largest eigenvalue."""
    kernel = raw["kernel"]
    key = {"gaussian": "sigma", "gaussian_multivariate": "covariance"}.get(kernel.get("type"))
    reads = [(kernel, key, key == "covariance")]
    reads += [(m, _marginal_key(m, dim), dim > 1)
              for m in raw["marginals"] if m.get("type") == "gaussian"]
    scales = []
    for spec, key, covariance in reads:
        if key not in spec:
            continue
        try:
            if covariance:
                cov = np.atleast_2d(np.asarray(spec[key], dtype=float))
                scales.append(float(np.sqrt(np.max(np.linalg.eigvalsh(cov)))))
            else:
                scales.append(float(spec[key]))
        except (TypeError, ValueError, OverflowError, np.linalg.LinAlgError):
            pass  # the builder refuses the value, naming its key
    return scales


def _holds_bool(value) -> bool:
    """Whether value is a bool or a (nested) list with a bool entry."""
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def _number(value, key: str, cast=float):
    """cast(value), which a JSON number or a numeric string passes, or a
    ConfigError naming key.  Every cast refuses a bool, and _floats a list
    holding one, which float(), int() and numpy read as 1 or 0; an int cast
    also refuses a float that is not integral, which int() would truncate
    (101.7 reads 101)."""
    if _holds_bool(value):
        raise ConfigError(f"{key} must be numeric, not {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be numeric, not {value!r}") from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _flag(raw: Dict[str, object], key: str) -> bool:
    """raw[key] (default false) as a bool: a JSON boolean, or the integer 0
    or 1; anything else, such as "false" (bool("false") is true), is a
    ConfigError naming key."""
    value = raw.get(key, False)
    if type(value) not in (bool, int) or value not in (0, 1):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return bool(value)


def _check_solver(solver: Dict[str, object]) -> None:
    """Refuse a solver value its FortetOptions field would misread: force
    must be a JSON boolean (bool("false") is true), max_iter an integer of
    at least 1 (a cap of 0 would read as non-convergence), and tol finite
    and positive (a tol of -1 is never met)."""
    if not isinstance(solver["force"], bool):
        raise ConfigError(f"solver.force must be true or false, not {solver['force']!r}")
    max_iter = solver["max_iter"]
    # type, not isinstance: a bool is an int
    if not (type(max_iter) is int or type(max_iter) is float and max_iter.is_integer()):
        raise ConfigError(f"solver.max_iter must be an integer, not {max_iter!r}")
    if max_iter < 1:
        raise ConfigError(f"solver.max_iter must be at least 1, not {max_iter!r}")
    if not 0 < _number(solver["tol"], "solver.tol") < math.inf:
        raise ConfigError(f"solver.tol must be finite and positive, not {solver['tol']!r}")


def _known(keys, allowed, what: str) -> None:
    """Refuse the keys outside allowed, naming them sorted: "unknown <what>
    keys: [...]"."""
    unknown = set(keys) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def resolve_config(raw: Dict[str, object]) -> Dict[str, object]:
    """Fill defaults and resolve "auto" values; returns a plain JSON dict."""
    _known(raw, _TOP_KEYS, "config")
    for key in ("kernel", "marginals", "grid"):
        if key not in raw:
            raise ConfigError(f"config is missing required key '{key}'")
    for key in ("kernel", "grid"):
        if not isinstance(raw[key], dict):
            raise ConfigError(f"'{key}' must be an object")
    if not isinstance(raw["marginals"], list) or len(raw["marginals"]) != 2:
        raise ConfigError("'marginals' must be a list of exactly two entries")
    if not all(isinstance(m, dict) for m in raw["marginals"]):
        raise ConfigError("each of 'marginals' must be an object")

    _known(raw["grid"], {"points", "radius", *_GRID_DEFAULTS}, "grid")
    grid = dict(_GRID_DEFAULTS, **raw["grid"])
    if "points" not in grid:
        raise ConfigError("grid needs 'points'")
    grid["points"] = _number(grid["points"], "grid.points", int)
    grid["dim"] = _number(grid["dim"], "grid.dim", int)
    if grid["rule"] != "trapezoid":
        raise ConfigError(f"grid.rule must be \"trapezoid\", not {grid['rule']!r}")
    radius = grid.get("radius", "auto")
    if radius == "auto":
        scales = _gaussian_scales(raw, grid["dim"])
        if not scales:
            raise ConfigError("radius 'auto' needs at least one Gaussian scale "
                              "in the kernel or marginals")
        radius = AUTO_RADIUS_FACTOR * max(scales)
    grid["radius"] = _number(radius, "grid.radius")

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("'solver' must be an object")
    _known(solver_raw, _SOLVER_DEFAULTS, "solver")
    solver = dict(_SOLVER_DEFAULTS, **solver_raw)
    _check_solver(solver)

    resolved = {
        "kernel": dict(raw["kernel"]),
        "marginals": [dict(m) for m in raw["marginals"]],
        "grid": grid,
        "solver": solver,
        "swap": _flag(raw, "swap"),
        "normalize_kernel_rows": _flag(raw, "normalize_kernel_rows"),
    }
    return resolved


def _load_table(path_value, base_dir: Path, what: str) -> np.ndarray:
    if not isinstance(path_value, str):
        raise ConfigError(f"{what} table needs a 'path' string")
    p = Path(path_value)
    if not p.is_absolute():
        p = base_dir / p
    try:
        # loadtxt warns on a file with no data, which is refused below
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vals = np.loadtxt(p, delimiter=",", ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} table {p}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} table {p} is not numeric CSV: {exc}") from exc
    if vals.size == 0:
        raise ConfigError(f"{what} table {p} holds no data")
    return vals


def _build_marginal(spec: Dict[str, object], grid: QuadratureGrid,
                    base_dir: Path, which: str) -> DensityField:
    kind = spec.get("type")
    if kind == "gaussian":
        key = _marginal_key(spec, grid.dim)
        if grid.dim == 1:
            if key not in spec:
                raise ConfigError(f"{which}: gaussian marginal needs 'sigma'")
            return gaussian_density(grid, _number(spec[key], f"{which}: {key}"))
        if spec.get(key) is None:
            raise ConfigError(f"{which}: gaussian marginal needs 'covariance'")
        return gaussian_density(grid, _number(spec[key], f"{which}: {key}", _floats))
    if kind == "table":
        vals = _load_table(spec.get("path"), base_dir, which)
        if vals.ndim != 1 or vals.shape[0] != grid.n_nodes:
            raise ConfigError(f"{which}: table must hold {grid.n_nodes} values")
        renormalize = _flag({"renormalize": True, **spec}, "renormalize")
        return density_field(grid, vals, renormalize=renormalize)
    raise ConfigError(f"{which}: unknown marginal type {kind!r}")


def build_problem(resolved: Dict[str, object], base_dir=".") -> Problem:
    """Materialize grids, kernel, and marginals from a resolved config."""
    base = Path(base_dir)
    g = resolved["grid"]
    try:
        grid = build_grid(dim=g["dim"], radius=g["radius"], points_per_axis=g["points"])
    except Exception as exc:
        raise ConfigError(f"grid construction failed: {exc}") from exc

    kspec = resolved["kernel"]
    kind = kspec.get("type")
    if kind == "gaussian":
        if "sigma" not in kspec:
            raise ConfigError("gaussian kernel needs 'sigma'")
        kernel = gaussian_kernel(grid, grid, _number(kspec["sigma"], "kernel sigma"))
    elif kind == "gaussian_multivariate":
        if "covariance" not in kspec:
            raise ConfigError("gaussian_multivariate kernel needs 'covariance'")
        kernel = gaussian_kernel(grid, grid, np.atleast_2d(
            _number(kspec["covariance"], "kernel covariance", _floats)))
    elif kind == "table":
        vals = np.atleast_2d(_load_table(kspec.get("path"), base, "kernel"))
        if vals.shape != (grid.n_nodes, grid.n_nodes):
            raise ConfigError(f"kernel table must be {grid.n_nodes} x {grid.n_nodes}")
        kernel = table_kernel(grid, grid, vals)
    else:
        raise ConfigError(f"unknown kernel type {kind!r}")
    if resolved.get("normalize_kernel_rows"):
        kernel = transition_normalized(kernel)

    m1 = _build_marginal(resolved["marginals"][0], grid, base, "marginal 1")
    m2 = _build_marginal(resolved["marginals"][1], grid, base, "marginal 2")
    marginals = MarginalPair(m1, m2)
    if resolved.get("swap"):
        kernel, marginals = kernel.swapped(), swapped_marginals(marginals)

    s = resolved["solver"]
    options = FortetOptions(**{k: type(d)(s[k]) for k, d in _SOLVER_DEFAULTS.items()})
    return Problem(grid=grid, kernel=kernel, marginals=marginals,
                   options=options, config=resolved,
                   problem_hash=problem_hash(resolved))


def load_problem(path) -> Problem:
    raw = load_config(path)
    resolved = resolve_config(raw)
    return build_problem(resolved, base_dir=Path(path).parent)
