"""Self-test of the harness: every check must reject a deliberately corrupted output.

Run from the root of the repository:

    python3 perfbench/selftest.py

It makes one real output per workload, requires the checks to accept it, then
corrupts a copy in one place at a time and requires the checks to reject each
copy. Exits 0 when all of that holds, 1 otherwise.
"""

import copy
import sys

import run  # sets one BLAS thread before numpy loads
from workloads import WORKLOADS


def real_output(mods, name: str, seed: int = 11):
    work = WORKLOADS[name](mods, seed)
    model, patches = work.setup()
    work.prepare(model, patches)
    return work, work.run()


def analyze_cases(work, out):
    full_rank = next(pid for pid, (_, ok) in work.expected.items() if ok)
    for k in range(12):
        bad = copy.deepcopy(out)
        bad.features[full_rank][k] += 1e-3
        yield f"feature {k} of patch {full_rank} off by 1e-3", bad
    bad = copy.deepcopy(out)
    bad.probed_ids = bad.probed_ids[1:]
    yield "a probed patch missing", bad
    bad = copy.deepcopy(out)
    bad.probes = bad.probes[1:]
    yield "a probe record missing", bad
    bad = copy.deepcopy(out)
    bad.records[0].score = 1.5
    yield "a score above 1", bad


def compress_cases(work, out):
    tn = work.mods["tn_decompositions"]
    budget = work.mods["tensor_core"].ParamBudget
    i = next(i for i, (_, _, ratio, _) in enumerate(work.items) if ratio < 0.5)
    w, family, _, _ = work.items[i]
    layer = tn.compress_matrix(w, family, budget(w.size // 2))
    bad = list(out)
    bad[i] = (layer, tn.layer_to_matrix(layer), out[i][2])
    yield f"a {family} layer over its budget", bad
    bad = list(out)
    bad[i] = (out[i][0], w.copy(), out[i][2])
    yield "a reconstruction that is not the payload's", bad


def plan_cases(work, out):
    options, plans = out
    for mode, plan in plans.items():
        k = next(k for k, e in enumerate(plan.entries) if e.family != "dense")
        bad = copy.deepcopy(out)
        bad[1][mode].entries[k].params += 1
        bad[1][mode].achieved_params += 1
        yield f"{mode}: one entry's params altered", bad
        bad = copy.deepcopy(out)
        bad[1][mode].entries[k].predicted_degradation *= 1.01
        yield f"{mode}: one entry's predicted degradation altered", bad
    fragile = min(work.fragile)
    bad = copy.deepcopy(out)
    entry = next(e for e in bad[1]["sensitivity"].entries if e.patch_id == fragile)
    donor = next(e for e in bad[1]["sensitivity"].entries if e.family == "tt")
    bad[1]["sensitivity"].achieved_params += donor.params - entry.params
    entry.family, entry.ranks, entry.params = "tt", donor.ranks, donor.params
    entry.target_ratio = donor.target_ratio
    entry.predicted_degradation = work.by_id[fragile].predictions["tt"][donor.target_ratio]
    yield "a fragile patch compressed", bad


CASES = {"analyze": analyze_cases, "compress": compress_cases, "plan": plan_cases}


def main() -> int:
    mods = run.load_program()
    failures = 0
    for name, cases in CASES.items():
        work, out = real_output(mods, name)
        problems = work.check(out)
        print(f"{name}: real output {'accepted' if not problems else 'REJECTED: ' + problems[0]}")
        failures += bool(problems)
        for label, bad in cases(work, out):
            problems = work.check(bad)
            print(f"  {'rejected' if problems else 'ACCEPTED'}: {label}"
                  + (f" ({problems[0][:100]})" if problems else ""))
            failures += not problems
    print("self-test", "passed" if failures == 0 else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
