"""Benchmark cases: how a case spec becomes a call into recoupler's public API,
what outcome it yields, and how an outcome is checked against the reference.

A case spec is plain JSON so that `reference.json` can hold the whole pool of
inputs together with the outcome the dense path produced for each. Kinds:

  gate      one `verify_gate` verdict
  circuit   one `verify_circuit` verdict
  suite     one `identity_suite` run
  cost      one `cost_report` table
  cli       one in-process `recoupler.cli.main(argv)` call
  simulate  `schedule_from_dict` + `apply_schedule` + unitarity defect +
            `restrict`, as `recoupler simulate` does

Every call goes through a module attribute (`rc.verify_gate`, `rc.cli.main`,
...) at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

TOLERANCE = 1e-10  # fidelity, leakage and block entries vs the reference


def _sector(rc, name):
    return {"symmetric": rc.SYMMETRIC, "antisymmetric": rc.ANTISYMMETRIC}[name]


def _gate(rc, g):
    kind, targets, params = g
    return rc.LogicalGate(kind, tuple(targets), tuple(params))


def _verdict(report) -> dict:
    return {
        "fidelity": report.fidelity,
        "leakage": report.leakage,
        "steps": [report.step_count_serial, report.step_count_parallel],
        "passed": report.passed,
        "error": report.reason.split(":")[0] if report.reason else None,
    }


def _weights(dim):
    """Fixed weights for a checksum that sees every entry of a block."""
    return [[math.cos(1.0 + 0.37 * i + 0.73 * j) for j in range(dim)] for i in range(dim)]


class Op:
    """One prepared case: `run()` times the call and returns (seconds, outcome)."""

    def __init__(self, rc, case, work, models):
        self.case = case
        spec = case["spec"]
        self.kind = spec["kind"]
        self.spec = spec
        if "preset" in spec:
            key = (spec["preset"], spec["n"])
            if key not in models:
                models[key] = rc.preset_model(*key)
            self.model = models[key]
        if self.kind == "gate":
            self.gate = _gate(rc, spec["gate"])
        elif self.kind == "circuit":
            self.gates = [_gate(rc, g) for g in spec["gates"]]
        elif self.kind == "cli":
            for name, content in spec.get("files", {}).items():
                with open(os.path.join(work, name), "w") as f:
                    json.dump(content, f)
            self.argv = [a.replace("{work}", work) for a in spec["argv"]]
        elif self.kind == "simulate":
            self.code = rc.CodeSpec(_sector(rc, spec["sector"]), spec["n"])
        self.rc = rc

    def run(self):
        rc, spec = self.rc, self.spec
        kind = self.kind
        if kind == "gate":
            t = time.perf_counter()
            rep = rc.verify_gate(
                self.gate, self.model, sector=_sector(rc, spec["sector"]),
                mode=spec["mode"], ratio=spec["ratio"],
            )
            dt = time.perf_counter() - t
            return dt, _verdict(rep)
        if kind == "circuit":
            t = time.perf_counter()
            rep = rc.verify_circuit(
                self.gates, self.model, sector=_sector(rc, spec["sector"]),
                mode=spec["mode"], ratio=spec["ratio"],
            )
            dt = time.perf_counter() - t
            return dt, _verdict(rep)
        if kind == "suite":
            t = time.perf_counter()
            entries = rc.identity_suite()
            dt = time.perf_counter() - t
            return dt, {"entries": [[e.name, e.residual, e.passed] for e in entries]}
        if kind == "cost":
            t = time.perf_counter()
            rows = rc.cost_report(self.model, sector=_sector(rc, spec["sector"]))
            dt = time.perf_counter() - t
            return dt, {"rows": rows}
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = time.perf_counter()
                code = rc.cli.main(list(self.argv))
                dt = time.perf_counter() - t
            return dt, {"exit": code, "stdout": _parse_text(out.getvalue()), "stderr": err.getvalue()}
        if kind == "simulate":
            t = time.perf_counter()
            schedule = rc.schedule_from_dict(spec["schedule"])
            u = rc.apply_schedule(schedule, self.model, mode=None, ratio=spec["ratio"])
            defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
            block, leakage = rc.restrict(u, self.code)
            dt = time.perf_counter() - t
            w = np.array(_weights(block.shape[0]))
            return dt, {
                "defect": defect,
                "leakage": leakage,
                "frob": float(np.linalg.norm(block)),
                "trace": _pair(np.trace(block)),
                "checksum": _pair(np.sum(w * block)),
                "steps": [schedule.step_count_serial, schedule.step_count_parallel],
            }
        raise ValueError(f"unknown case kind {kind!r}")

    def row(self, seconds, outcome) -> dict:
        """One per-op record for the rows file."""
        spec = self.spec
        gates = None
        if self.kind == "gate":
            gates = self.gate.describe()
        elif self.kind == "circuit":
            gates = [g.describe() for g in self.gates]
        elif self.kind == "cli":
            gates = spec["argv"][0]
        steps = outcome.get("steps") or [None, None]
        return {
            "case": self.case["id"],
            "kind": self.kind,
            "preset": spec.get("preset"),
            "n": spec.get("n"),
            "sector": spec.get("sector"),
            "gates": gates,
            "mode": spec.get("mode", "mixed" if self.kind == "simulate" else None),
            "ratio": spec.get("ratio"),
            "seconds": seconds,
            "fidelity": outcome.get("fidelity"),
            "leakage": outcome.get("leakage"),
            "steps_serial": steps[0],
            "steps_parallel": steps[1],
            "error": outcome.get("error"),
        }


def _pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_text(text: str):
    """CLI output as data: JSON if it parses, CSV rows if it has a header, else text."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = text.splitlines()
    if lines and "," in lines[0] and all("," in line for line in lines):
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{k: _number(v) for k, v in r.items()} for r in rows]
    return text


def _number(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def same(got, want, tol=TOLERANCE) -> bool:
    """Structural equality; floats within `tol`, everything else exact."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want and type(got) is type(want)
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        if isinstance(want, int) and isinstance(got, int):
            return got == want
        return abs(got - want) <= tol or (math.isinf(want) and got == want)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[k], want[k], tol) for k in want
        )
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w, tol) for g, w in zip(got, want))
        )
    return got == want


def check(spec: dict, got: dict, want: dict) -> str | None:
    """Why `got` differs from the reference outcome `want`, or None if it matches."""
    kind = spec["kind"]
    if kind in ("gate", "circuit"):
        if got["error"] != want["error"]:
            return f"error {got['error']!r}, expected {want['error']!r}"
        if got["steps"] != want["steps"]:
            return f"steps {got['steps']}, expected {want['steps']}"
        if spec["mode"] == "ideal" and want["error"] is None and not got["passed"]:
            return "ideal-mode verdict did not pass"
        for key in ("fidelity", "leakage"):
            if not same(got[key], want[key]):
                return f"{key} {got[key]!r}, expected {want[key]!r}"
        if got["passed"] != want["passed"]:
            return f"passed {got['passed']}, expected {want['passed']}"
        return None
    if kind == "simulate":
        if not got["defect"] <= TOLERANCE:
            return f"unitarity defect {got['defect']:.3e}"
        for key in ("leakage", "frob", "trace", "checksum", "steps"):
            if not same(got[key], want[key]):
                return f"{key} {got[key]!r}, expected {want[key]!r}"
        return None
    if kind == "suite":
        if not all(passed for _, _, passed in got["entries"]):
            return "identity suite has a failing entry"
    if not same(got, want):
        return f"outcome differs from the reference: {json.dumps(got)[:200]}"
    return None
