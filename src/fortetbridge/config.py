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
marginal types are gaussian (sigma, or covariance for dim > 1) / table.  Table
values come from CSV files resolved relative to the config file.  A radius
of "auto" expands to 6.5 x the largest Gaussian scale in the problem.
solver.max_iter caps Sinkhorn's sweeps and Fortet's scheme steps; the
scheme hands over by n = 2, so for Fortet only a cap of 1 stops it.  The
problem hash is the sha256 of the resolved config in canonical JSON form
(sorted keys, no whitespace), so two runs with the same hash saw the same
fully-resolved instance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict

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
_GRID_DEFAULTS = {"dim": 1, "rule": "trapezoid"}
#: solver keys, their defaults and (by the default's type) their casts
_SOLVER_DEFAULTS = {f.name: f.default for f in fields(FortetOptions)}


@dataclass(frozen=True)
class Problem:
    grid: QuadratureGrid
    kernel: KernelOperator
    marginals: MarginalPair
    options: FortetOptions
    config: Dict[str, object]         # fully resolved
    problem_hash: str


def load_config(path) -> Dict[str, object]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
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


def _gaussian_scales(raw: Dict[str, object]):
    scales = []
    for spec in [raw.get("kernel", {})] + list(raw.get("marginals", [])):
        if not isinstance(spec, dict):
            continue
        if "sigma" in spec:
            try:
                scales.append(float(spec["sigma"]))
            except (TypeError, ValueError):
                pass
        if "covariance" in spec:
            try:
                cov = np.atleast_2d(np.asarray(spec["covariance"], dtype=float))
                scales.append(float(np.sqrt(np.max(np.linalg.eigvalsh(cov)))))
            except Exception:
                pass
    return scales


def resolve_config(raw: Dict[str, object]) -> Dict[str, object]:
    """Fill defaults and resolve "auto" values; returns a plain JSON dict."""
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("kernel", "marginals", "grid"):
        if key not in raw:
            raise ConfigError(f"config is missing required key '{key}'")
    if not isinstance(raw["marginals"], list) or len(raw["marginals"]) != 2:
        raise ConfigError("'marginals' must be a list of exactly two entries")

    grid = dict(_GRID_DEFAULTS, **raw["grid"])
    if "points" not in grid:
        raise ConfigError("grid needs 'points'")
    radius = grid.get("radius", "auto")
    if radius == "auto":
        scales = _gaussian_scales(raw)
        if not scales:
            raise ConfigError("radius 'auto' needs at least one Gaussian scale "
                              "in the kernel or marginals")
        radius = AUTO_RADIUS_FACTOR * max(scales)
    grid["radius"] = float(radius)
    grid["points"] = int(grid["points"])
    grid["dim"] = int(grid["dim"])
    grid["rule"] = str(grid["rule"])

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("'solver' must be an object")
    unknown = set(solver_raw) - set(_SOLVER_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown solver keys: {sorted(unknown)}")
    solver = dict(_SOLVER_DEFAULTS, **solver_raw)

    resolved = {
        "kernel": dict(raw["kernel"]),
        "marginals": [dict(m) for m in raw["marginals"]],
        "grid": grid,
        "solver": solver,
        "swap": bool(raw.get("swap", False)),
        "normalize_kernel_rows": bool(raw.get("normalize_kernel_rows", False)),
    }
    return resolved


def _load_table(path_value, base_dir: Path, what: str) -> np.ndarray:
    if not isinstance(path_value, str):
        raise ConfigError(f"{what} table needs a 'path' string")
    p = Path(path_value)
    if not p.is_absolute():
        p = base_dir / p
    try:
        return np.loadtxt(p, delimiter=",", ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} table {p}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} table {p} is not numeric CSV: {exc}") from exc


def _build_marginal(spec: Dict[str, object], grid: QuadratureGrid,
                    base_dir: Path, which: str) -> DensityField:
    kind = spec.get("type")
    if kind == "gaussian":
        if grid.dim == 1:
            if "sigma" not in spec:
                raise ConfigError(f"{which}: gaussian marginal needs 'sigma'")
            return gaussian_density(grid, float(spec["sigma"]))
        cov = spec.get("covariance", spec.get("sigma"))
        if cov is None:
            raise ConfigError(f"{which}: gaussian marginal needs 'covariance'")
        return gaussian_density(grid, np.asarray(cov, dtype=float))
    if kind == "table":
        vals = _load_table(spec.get("path"), base_dir, which)
        if vals.ndim != 1 or vals.shape[0] != grid.n_nodes:
            raise ConfigError(f"{which}: table must hold {grid.n_nodes} values")
        return density_field(grid, vals, renormalize=bool(spec.get("renormalize", True)))
    raise ConfigError(f"{which}: unknown marginal type {kind!r}")


def build_problem(resolved: Dict[str, object], base_dir=".") -> Problem:
    """Materialize grids, kernel, and marginals from a resolved config."""
    base = Path(base_dir)
    g = resolved["grid"]
    try:
        grid = build_grid(dim=g["dim"], radius=g["radius"],
                          points_per_axis=g["points"], rule=g["rule"])
    except Exception as exc:
        raise ConfigError(f"grid construction failed: {exc}") from exc

    kspec = resolved["kernel"]
    kind = kspec.get("type")
    if kind == "gaussian":
        if "sigma" not in kspec:
            raise ConfigError("gaussian kernel needs 'sigma'")
        kernel = gaussian_kernel(grid, grid, float(kspec["sigma"]))
    elif kind == "gaussian_multivariate":
        if "covariance" not in kspec:
            raise ConfigError("gaussian_multivariate kernel needs 'covariance'")
        kernel = gaussian_kernel(grid, grid, np.atleast_2d(kspec["covariance"]))
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
        marginals = swapped_marginals(marginals)

    s = resolved["solver"]
    options = FortetOptions(**{k: type(d)(s[k]) for k, d in _SOLVER_DEFAULTS.items()})
    return Problem(grid=grid, kernel=kernel, marginals=marginals,
                   options=options, config=resolved,
                   problem_hash=problem_hash(resolved))


def load_problem(path) -> Problem:
    raw = load_config(path)
    resolved = resolve_config(raw)
    return build_problem(resolved, base_dir=Path(path).parent)
