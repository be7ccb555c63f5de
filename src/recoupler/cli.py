"""Command-line front end: compile, simulate, verify, suite, cost, sweep.

Exit codes: 0 success, 1 verification failure (some pass=false), 2 usage or
input error. All angles in every file format are radians. Models may be given
as a JSON path or as "preset:NAME[:N_SPINS]".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .compiler import LogicalGate, circuit_from_list, compile_circuit
from .encoding import ANTISYMMETRIC, SYMMETRIC, CodeSpec
from .errors import RecouplerError, ValidationError
from .evolution import (
    apply_schedule,
    load_schedule,
    restrict,
    save_schedule,
    schedule_to_dict,
)
from .model import ExchangeModel, load_model, preset_model, read_json
from .verifier import STANDARD_GATES, cost_report, identity_suite, verify_circuit, verify_gate

_SECTORS = {"symmetric": SYMMETRIC, "antisymmetric": ANTISYMMETRIC}


def _load_model_arg(value: str) -> ExchangeModel:
    if value.startswith("preset:"):
        parts = value.split(":")
        if len(parts) > 3:
            raise ValidationError(f"extra fields after the spin count in {value!r}")
        try:
            n = int(parts[2]) if len(parts) > 2 else 4
        except ValueError:
            raise ValidationError(f"bad spin count {parts[2]!r} in {value!r}")
        return preset_model(parts[1], n)
    if not os.path.exists(value):
        raise ValidationError(f"model file not found: {value}")
    return load_model(value)


def _load_circuit(path: str) -> list[LogicalGate]:
    if not os.path.exists(path):
        raise ValidationError(f"circuit file not found: {path}")
    return circuit_from_list(read_json(path))


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:  # leave no temp file beside an unwritable --out
        os.unlink(tmp)
        raise


def _format_rows(rows: list[dict], fmt: str, columns: list[str]) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        for r in rows:
            w.writerow(r)
        return buf.getvalue()
    widths = {c: max([len(c)] + [len(_cell(r.get(c))) for r in rows]) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for r in rows:
        lines.append("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.3e}" if (v != 0 and abs(v) < 1e-3) else f"{v:.6g}"
    return str(v)


def _ratio(args) -> float | None:
    if args.mode == "realistic":
        if args.ratio is None or not 0 < args.ratio < math.inf:
            raise ValidationError("realistic mode needs --ratio R with 0 < R < inf")
        return args.ratio
    return None


def cmd_compile(args) -> int:
    model = _load_model_arg(args.model)
    gates = _load_circuit(args.circuit)
    schedule = compile_circuit(gates, model, _SECTORS[args.sector], parallel=not args.serial)
    if args.out:
        save_schedule(schedule, args.out)
    else:
        sys.stdout.write(json.dumps(schedule_to_dict(schedule), indent=2) + "\n")
    print(
        f"steps: {schedule.step_count_serial} serial / "
        f"{schedule.step_count_parallel} parallel",
        file=sys.stderr,
    )
    return 0


def cmd_simulate(args) -> int:
    model = _load_model_arg(args.model)
    schedule = load_schedule(args.schedule)
    u = apply_schedule(schedule, model, mode=args.mode, ratio=_ratio(args))
    spec = CodeSpec(_SECTORS[args.sector], model.n_spins)
    block, leakage = restrict(u, spec)
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    payload = {
        "n_spins": model.n_spins,
        "dim": u.shape[0],
        "mode": args.mode,
        "unitary_defect": defect,
        "sector": args.sector,
        "leakage": leakage,
        "logical_matrix": [[[z.real, z.imag] for z in row] for row in block],
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    model = _load_model_arg(args.model)
    gates = _load_circuit(args.circuit)
    kwargs = dict(
        sector=_SECTORS[args.sector], mode=args.mode, ratio=_ratio(args),
        parallel=not args.serial, tol_fidelity=args.tol_fidelity, tol_leakage=args.tol_leakage,
    )
    reports = [verify_gate(g, model, **kwargs) for g in gates]
    reports.append(verify_circuit(gates, model, **kwargs))
    rows = [r.to_dict() for r in reports]
    columns = [
        "gate", "fidelity", "leakage", "step_count_serial",
        "step_count_parallel", "mode", "pass", "reason",
    ]
    _write_text(args.out, _format_rows(rows, args.format, columns))
    return 0 if all(r.passed for r in reports) else 1


def cmd_suite(args) -> int:
    entries = identity_suite()
    rows = [e.to_dict() for e in entries]
    columns = ["name", "residual", "bound", "require", "pass"]
    _write_text(args.out, _format_rows(rows, args.format, columns))
    return 0 if all(e.passed for e in entries) else 1


def cmd_cost(args) -> int:
    model = _load_model_arg(args.model)
    rows = cost_report(model, sector=_SECTORS[args.sector])
    columns = ["gate", "serial", "parallel", "expected_serial", "expected_parallel", "match", "note"]
    _write_text(args.out, _format_rows(rows, args.format, columns))
    return 0 if all(r["match"] for r in rows) else 1


def _parse_ratios(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            r = float(part)
        except ValueError:
            raise ValidationError(f"bad ratio {part!r}")
        if not r > 0:
            raise ValidationError(f"ratio must be positive, got {part}")
        out.append(r)
    if not out:
        raise ValidationError("empty ratio list")
    return out


def _ratio_text(r: float) -> str:
    """The short `g` text of a ratio when it reads back as r, else the shortest that does."""
    text = f"{r:g}"
    return text if float(text) == r else repr(r)


def cmd_sweep(args) -> int:
    model = _load_model_arg(args.model)
    ratios = _parse_ratios(args.ratios)
    names = [g.strip() for g in args.gates.split(",")]
    for name in names:
        if name not in STANDARD_GATES:
            raise ValidationError(f"unknown sweep gate {name!r}; choose from {sorted(STANDARD_GATES)}")
    rows = []
    for name in names:
        gate = STANDARD_GATES[name]
        for r in ratios:
            mode = "ideal" if math.isinf(r) else "realistic"  # ideal mode ignores the ratio
            rep = verify_gate(gate, model, sector=_SECTORS[args.sector], mode=mode, ratio=r)
            ratio = _ratio_text(r)
            if rep.reason:  # a failed verdict is no measurement, and the CSV has no reason column
                raise ValidationError(f"sweep {name} at ratio {ratio}: {rep.reason}")
            rows.append({"gate": name, "ratio": ratio, "fidelity": rep.fidelity, "leakage": rep.leakage})
    _write_text(args.out, _format_rows(rows, "csv", ["gate", "ratio", "fidelity", "leakage"]))
    return 0


def _add_common(p, model=True, mode=True):
    if model:
        p.add_argument("--model", required=True, help="model JSON path or preset:NAME[:N]")
    p.add_argument("--sector", choices=sorted(_SECTORS), default="symmetric")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if mode:
        p.add_argument("--mode", choices=["ideal", "realistic"], default="ideal")
        p.add_argument("--ratio", type=float, default=None, help="pulse/background ratio (realistic)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="recoupler",
        description="Compile encoded gates to exchange-pulse schedules, simulate, and verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower a circuit to a pulse schedule")
    _add_common(p, mode=False)
    p.add_argument("--circuit", required=True)
    p.add_argument("--serial", action="store_true", help="no parallel pulse groups")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="evaluate a schedule into a unitary report")
    _add_common(p)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="compile + simulate + compare against targets")
    _add_common(p)
    p.add_argument("--circuit", required=True)
    p.add_argument("--serial", action="store_true")
    p.add_argument("--tol-fidelity", type=float, default=1e-8)
    p.add_argument("--tol-leakage", type=float, default=1e-8)
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run the identity regression suite")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("cost", help="step-count table vs expected values")
    _add_common(p, mode=False)
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("sweep", help="fidelity vs pulse/background ratio (CSV)")
    _add_common(p, mode=False)
    p.add_argument("--ratios", required=True, help="comma list, e.g. 10,100,1000,inf")
    p.add_argument("--gates", default="rz,cphase")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:  # an overflowing schedule ends in a RecouplerError, not numpy warnings first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (RecouplerError, OSError) as exc:  # OSError: writing --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy says how much it could not allocate, Python nothing
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
