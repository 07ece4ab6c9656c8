"""Claim-verification benchmark for rcftlab.

    python3 claimbench/run.py --workload qseries --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  One process, one caller, one claim in
flight (closed loop).  The seed fixes every input: claims come in rounds,
and round r draws its inputs from ``default_rng([seed, 0, r])``, so the
claims of a round do not depend on how long earlier rounds took.

--trace 0 runs whole rounds until the next one would end past --seconds
and prints the end-to-end metrics.  --trace 1 runs the workload's fixed
``trace_rounds`` twice, untraced and then traced through the public
functions of every layer, and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
per-family detail.  Without ``src/rcftlab`` in the checkout it exits with
code 1 and prints no result.
"""

import time

T0 = time.perf_counter()  # set-up time counts from the benchmark's first statement

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# one caller, one thread: keep numeric libraries off extra cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def load_config():
    if not (ROOT / "src" / "rcftlab" / "series.py").is_file():
        sys.exit(f"error: no src/rcftlab under {ROOT}; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = json.loads((HERE / "workloads.json").read_text())
    return bench, records


WARM_UP_STRATA = 64


class Workload:
    """The seeded claim stream of one workload."""

    def __init__(self, name, record, seed):
        import numpy as np
        import families

        self.name, self.record, self.seed = name, record, seed
        self._np = np
        self.mix = [(families.FAMILIES[f], n) for f, n in record["mix"].items()]
        self._context = families.ROUND_CONTEXT.get(name, lambda rng: {})

    def rounds(self, count):
        """Inputs of rounds 0..count-1; round r is a list of
        (claim id, family, inputs) in a seeded random order."""
        out = []
        for r in range(count):
            rng = self._np.random.default_rng([self.seed, 0, r])
            ctx = self._context(rng)
            claims = [(fam, fam.draw(rng, j, n, ctx)) for fam, n in self.mix for j in range(n)]
            per = len(claims)
            out.append([(r * per + int(i), *claims[i]) for i in rng.permutation(per)])
        return out

    def warm_up(self):
        """One untimed claim per family, on inputs no round uses, drawn
        from the bottom of each size range so set-up cost does not
        depend on the seed."""
        rng = self._np.random.default_rng([self.seed, 1])
        ctx = self._context(rng)
        for fam, _ in self.mix:
            fam.call(fam.draw(rng, 0, WARM_UP_STRATA, ctx))


def run_claim(fam, inp, orc, call):
    """Time one claim and check it against its bounds."""
    t = time.perf_counter()
    dt = None
    try:
        out = call(fam, inp)
        dt = time.perf_counter() - t
        verdict = fam.check(inp, orc, out)
    except Exception:
        return {"s": time.perf_counter() - t if dt is None else dt, "ok": False,
                "margin": None, "unresolved": [], "detail": traceback.format_exc(limit=3)}
    if fam.flagged:
        return {"s": dt, "ok": bool(verdict), "margin": None, "unresolved": [],
                "detail": None if verdict else "flagged discrepancy no longer reproduces"}
    done = [c for c in verdict if c.resolved]
    bad = [c for c in done if not c.residual <= c.bound]
    margin = min((margin_decades(c.residual, c.bound) for c in done if c.digits),
                 default=None)
    return {"s": dt, "ok": not bad, "margin": margin,
            "unresolved": [c.label for c in verdict if not c.resolved],
            "detail": "; ".join(f"{c.label}: {c.residual:.3e} > {c.bound:.1e}"
                                for c in bad) or None}


MARGIN_CAP = 16.0  # decades credited to a residual of exactly 0


def margin_decades(residual, bound):
    if residual == 0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(bound / residual))


def run_rounds(wl, rounds, call, until=None):
    """Run whole rounds; with ``until`` (seconds), stop before a round that
    would end past it.  Returns one record per claim."""
    results = []
    loop_t0 = time.perf_counter()
    for r, batch in enumerate(rounds):
        elapsed = time.perf_counter() - loop_t0
        if until is not None and r >= wl.record["margin_rounds"] and \
                elapsed + elapsed / r > until:
            break
        oracles = [fam.oracle(inp) if fam.oracle else None for _, fam, inp in batch]
        for (cid, fam, inp), orc in zip(batch, oracles):
            res = run_claim(fam, inp, orc, lambda f, i: call(cid, f, i))
            res.update(id=cid, round=r, family=fam.name,
                       key=fam.key(inp) if fam.key else None)
            results.append(res)
    return results


def plain_call(cid, fam, inp):
    return fam.call(inp)


def summarize(wl, results):
    """Per-run facts both modes report: failures, margin, repeats, families."""
    seen, repeats = set(), 0
    for res in results:
        if res["key"] is not None:
            repeats += res["key"] in seen
            seen.add(res["key"])
    window = [res for res in results
              if res["round"] < wl.record["margin_rounds"] and res["margin"] is not None
              and res["ok"]]
    fams = {}
    for res in results:
        fams.setdefault(res["family"], []).append(res)
    fams = {name: {"n": len(rs), "failed": sum(not r["ok"] for r in rs),
                   "ms_p50": statistics.median(1e3 * r["s"] for r in rs),
                   "margin_min": min((r["margin"] for r in rs if r["margin"] is not None),
                                     default=None)}
            for name, rs in fams.items()}
    return {
        "attempted": len(results),
        "failed": sum(not res["ok"] for res in results),
        # 0 only when no claim of the window passed, and then correct is false
        "margin_decades_min": min((res["margin"] for res in window), default=0.0),
        "input_repeat_frac": repeats / len(results),
        "families": fams,
        "failures": [{k: res[k] for k in ("id", "family", "detail")}
                     for res in results if not res["ok"]],
        "unresolved": [{"id": res["id"], "family": res["family"], "checks": res["unresolved"]}
                       for res in results if res["unresolved"]],
    }


SETUP_REPEATS = 3


def setup_samples(args, own):
    """This process's set-up time plus that of fresh set-up-only processes."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def out_dir():
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def write_claims(wl, args, results):
    """Machine-readable record of every claim of the run."""
    fields = ("id", "round", "family", "s", "ok", "margin", "unresolved", "detail")
    with open(out_dir() / f"claims_{wl.name}_seed{args.seed}.json", "w") as fh:
        json.dump([{k: res[k] for k in fields} for res in results], fh)


def end_to_end(args, wl, rounds, setup):
    import numpy as np

    results = run_rounds(wl, rounds, plain_call, until=args.seconds)
    write_claims(wl, args, results)
    times = [res["s"] for res in results]
    rep = summarize(wl, results)
    ms = [1e3 * t for t in times]
    p50, p90 = np.percentile(ms, [50, 90])
    metrics = {
        "setup_s": statistics.median(setup),
        "claims_per_s": len(times) / sum(times),
        "claim_ms_p50": float(p50),
        "claim_ms_p90": float(p90),
        "pass_frac": 1 - rep["failed"] / rep["attempted"],
        "margin_decades_min": rep["margin_decades_min"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rep.update(samples=len(ms), rounds=results[-1]["round"] + 1, setup_samples=setup,
               claims_beyond_p90=sum(m > metrics["claim_ms_p90"] for m in ms))
    return metrics, rep


def traced(args, wl, rounds, fresh_rounds):
    """Untraced, then traced, over the same inputs; the traced pass gets
    fresh input objects so no per-object cache carries over."""
    from spans import Tracer

    plain = run_rounds(wl, rounds, plain_call)
    tracer = Tracer()
    tracer.install()
    try:
        results = run_rounds(wl, fresh_rounds,
                             lambda cid, fam, inp: tracer.claim_span(cid, lambda: fam.call(inp)))
    finally:
        tracer.uninstall()
    tracer.write(out_dir() / f"spans_{wl.name}_seed{args.seed}.npz")
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = (sum(r["s"] for r in results)
                                      / sum(r["s"] for r in plain) - 1)
    rep = summarize(wl, results)
    rep["untraced_failed"] = sum(not r["ok"] for r in plain)
    rep["attempted"] += len(plain)
    rep["failed"] += rep["untraced_failed"]
    return metrics, rep


def main():
    args = parse_args()
    bench, records = load_config()
    if args.workload not in records["workloads"]:
        sys.exit(f"error: unknown workload {args.workload!r}")
    wl = Workload(args.workload, records["workloads"][args.workload], args.seed)
    if args.trace:
        n = wl.record["trace_rounds"]
        rounds, fresh_rounds = wl.rounds(n), wl.rounds(n)
    else:
        rounds = wl.rounds(wl.record["max_rounds"])
    wl.warm_up()
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return
    if args.trace:
        metrics, rep = traced(args, wl, rounds, fresh_rounds)
        wanted = bench["per_layer"]
    else:
        metrics, rep = end_to_end(args, wl, rounds, setup_samples(args, own_setup))
        wanted = bench["end_to_end"]
    for m in wanted:
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **rep}, default=str))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
