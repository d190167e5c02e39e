"""Self-test of the benchmark's output checks: real outputs pass, corrupted ones fail.

Run from the root of a checkout; exits non-zero if a check misses a corruption
or rejects a correct output:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, import_package, pin_environment  # noqa: E402


def set_value(csv: str, row: int, value: str) -> str:
    lines = csv.splitlines()
    fields = lines[row].split(",")
    fields[4] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def main() -> int:
    pin_environment()
    wl = import_package()
    from perfbench.checks import check_chain, check_driver_csv, read_json

    sizes = wl.driver_sizes(20)
    cfg = wl.driver_cfg(5, 0, n=20)
    bound = wl.driver_unit("bound", cfg)[1]
    mse = wl.driver_unit("mse", cfg, method="closed-form")[1]

    def bound_problems(csv):
        return check_driver_csv(csv, "bound", 1, wl.VARIANTS, sizes)

    def mse_problems(csv):
        return check_driver_csv(csv, "mse", 1, wl.VARIANTS, sizes, wl.SIGNALS, wl.NOISES)

    cases = [
        ("bound CSV as written", bound_problems(bound), False),
        ("bound CSV missing its last row", bound_problems(bound.rstrip("\n").rsplit("\n", 1)[0] + "\n"), True),
        ("bound CSV with sigma_min 1.5", bound_problems(set_value(bound, 1, "1.5")), True),
        ("bound CSV with sigma_min 0", bound_problems(set_value(bound, 2, "0")), True),
        ("bound CSV with an infinite value", bound_problems(set_value(bound, 3, "inf")), True),
        ("bound CSV with NaN in a non-failed cell", bound_problems(set_value(bound, 4, "nan")), True),
        ("bound CSV with cells out of grid order", bound_problems(bound.replace("identity", "degree", 1)), True),
        ("mse CSV as written", mse_problems(mse), False),
        ("mse CSV with a negative error", mse_problems(set_value(mse, 1, "-0.5")), True),
    ]

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        size = wl.ChainSize(n=30, m=6, band=3)
        unit = wl.chain_unit(scratch, 5, 0, size)
        d = scratch / "u0"
        codes = {"gen": 0, "select": 0, "closed_form": 0, "pocs": 0}
        selection = read_json(d / "selection_voronoi.json")
        recs = {"closed_form": read_json(d / "rec_closed_form.json"), "pocs": read_json(d / "rec_pocs.json")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def chain_problems(codes=codes, selection=selection, recs=recs):
        return check_chain(codes, selection, recs, size.n, size.m)

    def altered(obj, path, value):
        out = copy.deepcopy(obj)
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return out

    order = selection["order"]
    cases += [
        ("chain as run", unit.problems, False),
        ("chain with a command exiting 3", chain_problems(codes={**codes, "pocs": 3}), True),
        ("chain selection with a repeated vertex", chain_problems(selection=altered(selection, ["order", 1], order[0])), True),
        ("chain selection one vertex short", chain_problems(selection=altered(selection, ["order"], order[:-1])), True),
        ("chain selection with a vertex out of range", chain_problems(selection=altered(selection, ["order", 0], size.n)), True),
        ("chain PoCS with a non-zero residual", chain_problems(recs=altered(recs, ["pocs", "residual_s"], 1e-3)), True),
        ("chain closed form with a NaN error", chain_problems(recs=altered(recs, ["closed_form", "q_error"], float("nan"))), True),
    ]

    wrong = 0
    for name, problems, should_fail in cases:
        ok = bool(problems) == should_fail
        wrong += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    print(f"{len(cases) - wrong}/{len(cases)} self-test cases behave as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
