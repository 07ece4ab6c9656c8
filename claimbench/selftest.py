"""Self-test of the claim-verification benchmark.

    python3 claimbench/selftest.py [--seed N] [workload ...]

For each workload, runs the traced run twice with the same seed and checks
that (1) every count and count ratio, and margin_decades_min, repeat
exactly, and (2) the bypass predictions hold: a layer not listed for the
workload in workloads.json has a self time under 2% of the traced claim
time (``series.order_fit`` is allowed on ``sewing``).  Exits 1 on any
mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("series", "qspecial", "curve", "contour", "odesys", "sewing")
BYPASS_FRAC = 0.02


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = json.loads((HERE / "workloads.json").read_text())["workloads"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    repeatable = [n for n, u in units.items()
                  if u == "count" or n.endswith(("distinct_frac", "fill_ratio",
                                                  "evals_per_coeff"))]
    problems = []
    for wl in args.workloads or [w["name"] for w in bench["workloads"]]:
        (rep1, out1), (rep2, out2) = traced_run(wl, args.seed), traced_run(wl, args.seed)
        m1 = {k: v["value"] for k, v in out1["metrics"].items()}
        m2 = {k: v["value"] for k, v in out2["metrics"].items()}
        for name in repeatable:
            if m1[name] != m2[name]:
                problems.append(f"{wl}: {name} differs: {m1[name]} vs {m2[name]}")
        for key in ("margin_decades_min", "attempted", "failed"):
            if rep1[key] != rep2[key]:
                problems.append(f"{wl}: {key} differs: {rep1[key]} vs {rep2[key]}")
        listed = records[wl]["layers"]
        for m in (m1, m2):
            for layer in LAYERS:
                if layer in listed:
                    continue
                self_s = m[f"{layer}.self_s"]
                if wl == "sewing" and layer == "series":
                    self_s -= m["series.order_fit.self_s"]
                frac = self_s / m["trace.claims_s"]
                if frac >= BYPASS_FRAC:
                    problems.append(f"{wl}: bypassed layer {layer} has self-time share "
                                    f"{frac:.3f}")
        shares = ", ".join(f"{layer} {m1[f'{layer}.self_frac']:.4f}" for layer in LAYERS)
        print(f"{wl}: {len(repeatable)} counts and margin "
              f"{rep1['margin_decades_min']:.6g} compared; self-time shares: {shares}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
