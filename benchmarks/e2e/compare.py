"""Compare two ``BENCH_e2e.json`` files: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate. One row per (workload, end-to-end metric)
with both medians, their quartiles and the ratio B/A. The bounds come
from ``BENCHMARK.json``: B may be worse than A by at most ``bound`` x
A's median. A metric whose inter-quartile spread (either side, as a
share of its median) exceeds the bound is reported ``unresolved``, not
``unchanged`` — the runs cannot tell. Every ``exact`` count must be
identical, ``failed_fraction`` may not rise and ``result_rel_err`` must
stay within its tolerance. Exit code 1 when any of that is broken;
``unresolved`` rows are reported and counted but do not fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(s: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``regression``, ``improved``, ``unchanged`` or ``unresolved``."""
    ratio = b["median"] / a["median"]
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return "regression"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "improved" if -worse > bound else "unchanged"


def compare(a: dict, b: dict, spec: dict
            ) -> tuple[list[str], list[str], list[str]]:
    """``(report lines, problems, unresolved)`` of ``b`` against base ``a``."""
    lines = [f"{'workload':<18} {'metric':<19} {'A median [q1, q3]':<36} "
             f"{'B median [q1, q3]':<36} {'B/A':>7}  verdict"]
    problems: list[str] = []
    unresolved: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            problems.append(f"{name}: missing from one of the files")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            sa = wa["end_to_end"].get(m["name"])
            sb = wb["end_to_end"].get(m["name"])
            if sa is None or sb is None:
                problems.append(f"{name} {m['name']}: not measured")
                continue
            result = verdict(sa, sb, m["better"], m["bound"])
            cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                     f"n={s['n']}" for s in (sa, sb)]
            lines.append(
                f"{name:<18} {m['name']:<19} {cells[0]:<36} {cells[1]:<36} "
                f"{sb['median'] / sa['median']:>7.3f}  {result} "
                f"(bound {m['bound']:.0%} of A)")
            if result == "regression":
                problems.append(f"{name} {m['name']}: regression")
            elif result == "unresolved":
                unresolved.append(f"{name} {m['name']}")

        fa = wa["end_to_end"]["failed_fraction"]["value"]
        fb = wb["end_to_end"]["failed_fraction"]["value"]
        lines.append(f"{name:<18} {'failed_fraction':<19} {fa:<36g} {fb:<36g}")
        if fb > fa:
            problems.append(f"{name} failed_fraction rose: {fa:g} -> {fb:g}")
        for side, record in (("A", wa), ("B", wb)):
            err = record["end_to_end"]["result_rel_err"]
            if err["value"] > err["tolerance"]:
                problems.append(f"{name} result_rel_err of {side} is "
                                f"{err['value']:.3g} > {err['tolerance']:g}")

        for metric, pa in wa["per_layer"].items():
            pb = wb["per_layer"].get(metric)
            if pa["exact"] and (pb is None or pb["value"] != pa["value"]):
                problems.append(
                    f"{name} {metric}: exact count differs, {pa['value']!r}"
                    f" -> {pb['value'] if pb else 'missing'!r}")
    return lines, problems, unresolved


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, problems, unresolved = compare(a, b, spec)
    print("\n".join(lines))
    if problems:
        print("\nNOT WITHIN BOUNDS:")
        print("\n".join(f"  {p}" for p in problems))
        return 1
    print(f"\nno regression; exact counts identical; "
          f"{len(unresolved)} metric(s) unresolved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
