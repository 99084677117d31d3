#!/usr/bin/env python3
"""Kernel-speedup regression gate for CI.

Absolute benchmark times are not comparable across runners (different
CPUs, different load), so the gate is built on a same-machine-safe
quantity: the RATIO of the scalar-forced kernel's time to the SIMD
kernel's time for the same benchmark, both measured in one job on one
machine. A dispatch bug, a de-vectorized hot loop, or a packing
regression collapses that ratio no matter which CPU the runner has.

Both sides pin the kernel via POE_GEMM_KERNEL (scalar vs avx2) because
auto-dispatch picks different kernels on different fleets (avx512 on one
recorder, avx2 on a hosted runner) and their ratios are not comparable;
avx2 is the portable lowest common denominator of x86-64 CI fleets.

Alongside the scalar/SIMD ratios, the gate tracks int8-vs-f32 ratios
(CROSS_RATIOS) measured within the SIMD run, so a quantized-kernel-only
regression fails CI even when the scalar int8 kernel regresses in
lockstep and keeps the scalar/SIMD ratio flat.

The two tiers drift apart between processes on a shared VM, so each
side may be given several google-benchmark JSONs, one per process: CI
alternates scalar and SIMD processes, one repetition each, and the gate
takes each benchmark's median over all of a side's files.

  record  writes the committed baseline from the two sides' JSONs
  check   compares HEAD's ratios against the baseline:
            - >2x collapse of a ratio  -> FAIL (exit 1)
            - outside the +-25% band   -> advisory warning only
          and emits a markdown table (GitHub step summary friendly).

Only benchmark names present in both runs and the baseline participate;
names with '/' template args (BM_Gemm/256) are exact-matched, never
pattern-matched, so they cannot be silently dropped.
"""

import argparse
import json
import statistics
import sys

FAIL_FACTOR = 2.0  # ratio collapsed to < baseline/2 -> hard failure
ADVISORY_BAND = 0.25  # +-25% drift -> warning, not failure

# Cross-benchmark ratios computed within the SIMD run alone: the f32 GEMM
# time over the int8 GEMM time at the same geometry (same machine, same
# job). An int8-only collapse — a broken VNNI/AVX2 int8 dispatch, a
# de-vectorized pack or dequantizing store — leaves every scalar-vs-SIMD
# ratio healthy (the scalar int8 kernel degrades in lockstep) but
# collapses THIS ratio, so it gates exactly like a SIMD collapse does.
CROSS_RATIOS = {
    "int8_vs_f32/Gemm/64": ("BM_Gemm/64", "BM_GemmS8/64"),
    "int8_vs_f32/Gemm/256": ("BM_Gemm/256", "BM_GemmS8/256"),
    # Direct-conv gates. int8_vs_f32 catches an int8-only collapse on the
    # direct path; the direct_vs_im2col pairs (im2col time over direct
    # time, > 1 when direct wins) catch the library's direct lowering
    # regressing to — or below — the im2col lowering it replaced, which
    # micro_ops times through the tests' reference
    # (tests/support/conv_reference.h).
    "int8_vs_f32/ConvWrnDirect/64": ("BM_ConvWrnDirect/64/64/32/1/3",
                                     "BM_ConvWrnDirectInt8/64/64/32/1/3"),
    "direct_vs_im2col/ConvWrn/64": ("BM_ConvWrnPrepacked/64/64/32/1/3",
                                    "BM_ConvWrnDirect/64/64/32/1/3"),
    "direct_vs_im2col/ConvWrnStride2/16": (
        "BM_ConvWrnPrepacked/16/32/32/2/3",
        "BM_ConvWrnDirect/16/32/32/2/3"),
    "direct_vs_im2col/ConvWrnInt8/64": (
        "BM_ConvWrnInt8Calibrated/64/64/32/1/3",
        "BM_ConvWrnDirectInt8/64/64/32/1/3"),
    "direct_vs_im2col/ConvWrnInt8Stride2/16": (
        "BM_ConvWrnInt8Calibrated/16/32/32/2/3",
        "BM_ConvWrnDirectInt8/16/32/32/2/3"),
}


def load_benchmark_times(paths):
    """name -> median real_time (ns) over the iteration runs in the
    google-benchmark JSON files `paths` (one per process, each with one
    or more --benchmark_repetitions), so no single noisy repetition or
    process can move a ratio."""
    runs = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type", "iteration") != "iteration":
                continue
            runs.setdefault(bench["name"], []).append(
                float(bench["real_time"]))
    return {name: statistics.median(times) for name, times in runs.items()}


def compute_ratios(scalar_paths, simd_paths):
    scalar = load_benchmark_times(scalar_paths)
    simd = load_benchmark_times(simd_paths)
    ratios = {}
    for name in sorted(scalar.keys() & simd.keys()):
        if simd[name] > 0:
            ratios[name] = scalar[name] / simd[name]
    for name, (f32_name, int8_name) in CROSS_RATIOS.items():
        if simd.get(int8_name, 0) > 0 and f32_name in simd:
            ratios[name] = simd[f32_name] / simd[int8_name]
    return ratios


def cmd_record(args):
    ratios = compute_ratios(args.scalar, args.simd)
    if not ratios:
        print("error: no common benchmarks between the two runs",
              file=sys.stderr)
        return 1
    out = {
        "description": "scalar/simd real_time ratio per benchmark "
                       "(see tools/bench_gate.py)",
        "simd_kernel": args.simd_kernel,
        "ratios": {name: round(r, 3) for name, r in ratios.items()},
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} ({len(ratios)} benchmarks)")
    return 0


def cmd_check(args):
    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    baseline = baseline_doc["ratios"]
    head = compute_ratios(args.scalar, args.simd)

    rows = []
    failures = []
    warnings = []
    for name in sorted(baseline.keys()):
        if name not in head:
            warnings.append(f"{name}: in baseline but not measured at HEAD")
            rows.append((name, baseline[name], None, "MISSING"))
            continue
        base, now = baseline[name], head[name]
        drift = now / base - 1.0
        if now < base / FAIL_FACTOR:
            status = "FAIL"
            failures.append(
                f"{name}: speedup ratio collapsed {base:.2f} -> {now:.2f} "
                f"(>{FAIL_FACTOR:g}x regression)")
        elif abs(drift) > ADVISORY_BAND:
            status = "WARN"
            warnings.append(
                f"{name}: ratio drifted {drift:+.0%} "
                f"(advisory band is +-{ADVISORY_BAND:.0%})")
        else:
            status = "OK"
        rows.append((name, base, now, status))
    for name in sorted(head.keys() - baseline.keys()):
        rows.append((name, None, head[name], "NEW"))

    lines = [
        "### Kernel-speedup regression gate (scalar vs "
        f"{baseline_doc.get('simd_kernel', 'simd')})",
        "",
        "| benchmark | baseline ratio | HEAD ratio | drift | status |",
        "|---|---:|---:|---:|---|",
    ]
    for name, base, now, status in rows:
        base_s = f"{base:.2f}" if base is not None else "—"
        now_s = f"{now:.2f}" if now is not None else "—"
        drift_s = (f"{now / base - 1.0:+.0%}"
                   if base is not None and now is not None else "—")
        lines.append(f"| `{name}` | {base_s} | {now_s} | {drift_s} | {status} |")
    lines.append("")
    lines.append(f"Hard gate: >{FAIL_FACTOR:g}x ratio collapse. "
                 f"Advisory band: ±{ADVISORY_BAND:.0%}.")
    table = "\n".join(lines)

    print(table)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(table + "\n")

    for warning in warnings:
        print(f"::warning::{warning}")
    for failure in failures:
        print(f"::error::{failure}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="write the committed ratio baseline")
    rec.add_argument("--scalar", required=True, nargs="+",
                     help="benchmark JSONs from POE_GEMM_KERNEL=scalar runs")
    rec.add_argument("--simd", required=True, nargs="+",
                     help="benchmark JSONs from the SIMD-kernel runs")
    rec.add_argument("--simd-kernel", default="avx2",
                     help="kernel name the --simd run pinned (provenance)")
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_record)

    chk = sub.add_parser("check", help="gate HEAD ratios against the baseline")
    chk.add_argument("--scalar", required=True, nargs="+")
    chk.add_argument("--simd", required=True, nargs="+")
    chk.add_argument("--baseline", required=True)
    chk.add_argument("--summary", default="",
                     help="file to append the markdown table to "
                          "(e.g. $GITHUB_STEP_SUMMARY)")
    chk.set_defaults(func=cmd_check)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
