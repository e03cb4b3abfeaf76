"""Output checks for benchmark ops, and accuracy figures from potentials.csv.

An op passes when its exit code is the one expected and its artifacts say
what the workload expects.  A budget-limited compare (exit 3 after the
Sinkhorn sweep budget) passes its checks; it is still counted as a budget
exhaustion in the report's fail_frac.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: nodes where a marginal is at most this are outside the accuracy gate
GATE = 1e-12
#: files of a solve that must be byte-identical across repeated solves
SOLVE_FILES = ("trace.csv", "summary.json", "potentials.csv")

_EXHAUSTED = re.compile(r"sinkhorn did not converge in (\d+) iterations")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_op(op: str, code: int, out: Path, stderr: str, workload,
             hashes: Dict[str, str]) -> Tuple[List[str], Optional[int]]:
    """Problems found in one op's result, and the Sinkhorn sweep count when
    the op stopped at its sweep budget.  `hashes` holds the first solve's
    file digests and is filled by it."""
    problems: List[str] = []
    expected = workload.exit_codes[op]
    if code != expected:
        problems.append(f"{op}: exit code {code}, expected {expected}")
        return problems, None
    if op == "solve":
        missing = [n for n in SOLVE_FILES if not (out / n).is_file()]
        if missing:
            return [f"solve: missing {', '.join(missing)}"], None
        tag = json.loads((out / "summary.json").read_text()).get("case_tag")
        if tag != workload.case_tag:
            problems.append(f"solve: case_tag {tag!r}, expected {workload.case_tag!r}")
        for name in SOLVE_FILES:
            digest = _sha256(out / name)
            if hashes.setdefault(name, digest) != digest:
                problems.append(f"solve: {name} differs from the first solve of the run")
    elif op == "compare" and code == 0:
        payload = json.loads((out / "compare.json").read_text())
        if payload.get("consistent") is not True:
            problems.append("compare: compare.json is not consistent")
    elif op == "compare":
        match = _EXHAUSTED.search(stderr)
        if match is None:
            problems.append("compare: exit 3 without an exhausted Sinkhorn budget")
        else:
            return problems, int(match.group(1))
    elif op == "diagnose":
        payload = json.loads((out / "diagnose.json").read_text())
        if not payload.get("sinkhorn_iterations") or not payload.get("ratios_within_bound"):
            problems.append("diagnose: no Sinkhorn iterations or ratios above the bound")
    return problems, None


def read_potentials(path: Path):
    """(phi, psi) columns of potentials.csv; empty cells read as NaN."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cols = [header.index("phi"), header.index("psi")]
    data = np.array([[float(r[c]) if r[c] else math.nan for c in cols]
                     for r in rows[1:]])
    return data[:, 0], data[:, 1]


def _oracle_log(workload, nodes: np.ndarray):
    """Closed-form log phi and log psi at the grid nodes (product over axes
    in 2-D; the constant per axis is absorbed by the ray fit)."""
    from fortetbridge.bridge import gaussian_oracle
    oracle = gaussian_oracle(*workload.oracle)
    pts = nodes.reshape(len(nodes), -1)
    return (sum(oracle.log_phi(pts[:, k]) for k in range(pts.shape[1])),
            sum(oracle.log_psi(pts[:, k]) for k in range(pts.shape[1])))


def _ray_deviation(values, log_ref, mask) -> float:
    if not mask.any():
        return math.inf
    log_ratio = np.log(values[mask]) - log_ref[mask]
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(np.expm1(log_ratio - np.median(log_ratio)))))


def accuracy(problem, workload, potentials: Path) -> Dict[str, float]:
    """rel_resid, clean_share, oracle_dev and underflow_nodes of a solve.

    Gate nodes are those where the marginal of the equation (omega1 for
    phi, omega2 for psi) exceeds GATE.  A gate node is clean when phi and
    psi there are both normal floats; rel_resid is the largest per-node
    relative residual of either marginal equation over the clean gate
    nodes, and clean_share their share of all gate nodes.  Gate nodes where
    phi or psi is 0 or non-finite count as underflow nodes; oracle_dev
    leaves them out and gates both potentials by omega1, as criterion 1 does.
    """
    phi, psi = read_potentials(potentials)
    K = problem.kernel.values
    w1 = problem.kernel.grid1.weights
    w2 = problem.kernel.grid2.weights
    om1 = problem.marginals.omega1.values
    om2 = problem.marginals.omega2.values
    ok_phi = np.isfinite(phi) & (phi > 0)
    ok_psi = np.isfinite(psi) & (psi > 0)
    tiny = np.finfo(float).tiny
    clean = ok_phi & ok_psi & (phi >= tiny) & (psi >= tiny)
    phi0 = np.where(ok_phi, phi, 0.0)
    psi0 = np.where(ok_psi, psi, 0.0)
    g1, g2 = om1 > GATE, om2 > GATE
    s1 = phi0 * (K @ (w2 * psi0)) / np.where(g1, om1, 1.0) - 1.0
    s2 = psi0 * (K.T @ (w1 * phi0)) / np.where(g2, om2, 1.0) - 1.0
    rel = max(float(np.max(np.abs(s1[g1 & clean]), initial=0.0)),
              float(np.max(np.abs(s2[g2 & clean]), initial=0.0)))
    share = float(np.sum(g1 & clean) + np.sum(g2 & clean)) / max(
        1, int(np.sum(g1) + np.sum(g2)))
    log_phi, log_psi = _oracle_log(workload, np.asarray(problem.grid.nodes))
    dev = max(_ray_deviation(phi, log_phi, g1 & ok_phi),
              _ray_deviation(psi, log_psi, g1 & ok_psi))
    underflow = int(np.sum((g1 & ~ok_phi) | (g2 & ~ok_psi)))
    return {"rel_resid": rel, "clean_share": share, "oracle_dev": dev,
            "underflow_nodes": underflow}


def accurate(acc: Dict[str, float], workload) -> bool:
    """The solve's residual on its clean gate nodes is within the workload's
    limit, and enough of its gate nodes are clean.  On swap, where the
    potentials leave the float range on a third of the gate nodes, both
    limits are looser (workloads.py); a fix that makes every node clean and
    exact still passes there."""
    return (acc["rel_resid"] <= workload.resid_max
            and acc["clean_share"] >= workload.min_clean_share)
