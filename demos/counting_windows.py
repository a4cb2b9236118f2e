"""Walkthrough: exact counting on implicit hierarchies, and repetitivity.

Occurrence counts never require the full patch: block-aligned counts come
from integer matrix products, sliding counts recurse on the seams between
children, memoized by the child ids they join.  Both are checked against
direct scans of a materialized window here, then the repetitivity radius of
the window is computed (the smallest R such that every R x R sub-window
contains every small pattern).
"""

from fractions import Fraction as F

from delone import hierarchy, nonrect
from delone.hierarchy import BLOCK_ALIGNED, SLIDING

build = nonrect.build_delone_spec(nonrect.counting_schedule(3), 3, mode="toy")
spec = build.spec
top = spec.num_levels
print("levels:", [(t, spec.side(t)) for t in range(1, top + 1)])

needle = spec.base[0]
print(f"\ncounting the sparse 4x4 base patch inside level {top}, patch 1:")
blocks = hierarchy.count_occurrences(spec, needle, top, 1, BLOCK_ALIGNED)
slides = hierarchy.count_occurrences(spec, needle, top, 1, SLIDING)
print(f"  as an aligned block: {blocks}   as a sliding window: {slides}")

window = hierarchy.materialize(spec, top, 1)
print(f"  direct scan of the {window.width}x{window.height} window: "
      f"{hierarchy.scan_count(window.cells, needle)} (sliding)")

print("\nblock-frequency matrices (columns sum to 1):")
for n in (2, top):
    mat = hierarchy.block_frequency_matrix(spec, 1, n)
    print(f"  1 -> {n}:", [[str(v) for v in row] for row in mat])

print("\nrepetitivity radii of the window:")
for r in (1, 2, 4):
    print(f"  patterns of side {r}: R = {hierarchy.estimate_repetitivity(window, r)}")

print("\nvalidation:", "all structural checks pass"
      if hierarchy.validate_scheme(spec).ok else "FAILED")
