"""Output checks that any correct implementation passes, and output hashes.

The checks gate the benchmark result; the hashes are recorded only, so a
change to the output bytes shows without failing the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

CSV_HEADER = "variant,signal_cycles,noise_sigma,sample_size,mean_value,stderr,n_failed"


def _grid(kind: str, variants, sizes, signals, noises) -> list[tuple]:
    if kind == "bound":
        return [(v, "", "", str(s)) for v in variants for s in sizes]
    return [
        (v, str(c), format(float(sig), ".17g"), str(s))
        for v in variants
        for c in signals
        for sig in noises
        for s in sizes
    ]


def check_driver_csv(csv_text: str, kind: str, realizations: int, variants, sizes, signals=(), noises=()) -> list[str]:
    """Problems with one driver CSV: an incomplete row grid or an out-of-range value.

    ``kind`` is ``"bound"`` (every non-failed value is a smallest singular
    value, so ``0 < v <= 1 + 1e-9``) or ``"mse"`` (every non-failed value is
    an error norm, so ``v >= 0``).
    """
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs from the driver schema"]
    expected = _grid(kind, variants, sizes, signals, noises)
    if len(lines) - 1 != len(expected):
        return [f"CSV has {len(lines) - 1} rows, expected {len(expected)}"]
    problems = []
    for line, key in zip(lines[1:], expected):
        fields = line.split(",")
        if len(fields) != 7 or tuple(fields[:4]) != key:
            problems.append(f"row {line!r} is not grid cell {key}")
            continue
        try:
            value, failed = float(fields[4]), int(fields[6])
        except ValueError:
            problems.append(f"row {line!r} has unparsable fields")
            continue
        if not 0 <= failed <= realizations:
            problems.append(f"row {line!r} has a failure count outside [0, {realizations}]")
        elif failed == realizations:
            if not math.isnan(value):
                problems.append(f"row {line!r} failed in every realization but has a value")
        elif not math.isfinite(value):
            problems.append(f"row {line!r} has a non-finite value")
        elif kind == "bound" and not 0.0 < value <= 1.0 + 1e-9:
            problems.append(f"row {line!r} has sigma_min outside (0, 1]")
        elif kind == "mse" and value < 0.0:
            problems.append(f"row {line!r} has a negative error")
    return problems


def csv_cells(csv_text: str) -> list[float]:
    """The ``mean_value`` column of a driver CSV, NaN for failed cells."""
    return [float(line.split(",")[4]) for line in csv_text.splitlines()[1:]]


def check_chain(codes: dict, selection: dict, reconstructions: dict, n: int, m: int) -> list[str]:
    """Problems with one CLI chain: a failed command, a bad selection or a bad reconstruction."""
    problems = [f"command {name} exited {code}" for name, code in codes.items() if code != 0]
    if problems:
        return problems
    order = selection.get("order", [])
    if len(order) != m or len(set(order)) != m:
        problems.append(f"selection does not hold {m} distinct vertices")
    if not all(isinstance(v, int) and 0 <= v < n for v in order):
        problems.append(f"selection holds a vertex outside [0, {n})")
    for method, rec in reconstructions.items():
        q_error = rec.get("q_error")
        if not isinstance(q_error, (int, float)) or not math.isfinite(q_error):
            problems.append(f"{method} q_error is not finite")
    if reconstructions.get("pocs", {}).get("residual_s") != 0:
        problems.append("pocs residual_s is not 0")
    return problems


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_json_file(path: Path) -> str:
    """Hash of a JSON output with the volatile ``created_utc`` line left out."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return sha256_text("".join(line for line in lines if '"created_utc"' not in line))


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
