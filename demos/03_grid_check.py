"""Cross-check the decomposition identity numerically on a grid.

Every convergent index (p,q,r) up to weight 5 is evaluated both ways --
direct double sum versus decomposition -- for all color pairs drawn from
the 1st..4th roots of unity, including genuinely complex cases like
alpha = i, beta = exp(2*pi*i/3).  Agreement must hold within the sum of
the two rigorous error bounds, with no tuning per case.  (The test suite
runs the same check up to weight 8.)
"""
import time

from tornheim import EvalConfig, cross_check_grid
from tornheim.verify import format_report_table

cfg = EvalConfig(oracle_cutoff=1000)

t0 = time.perf_counter()
reports = cross_check_grid(5, [1, 2, 3, 4], cfg)
elapsed = time.perf_counter() - t0

passed = sum(r.passed for r in reports)
print(f"{passed}/{len(reports)} cases agree within combined bounds ({elapsed:.1f} s)\n")

print("A few sample rows (complex colors shown as k/N):")
samples = [r for i, r in enumerate(reports) if i % 73 == 0]
print(format_report_table(samples))

worst = max(reports, key=lambda r: r.absdiff / r.bound if r.bound else 0.0)
print(f"\nTightest case: {worst.label}")
print(f"  |oracle - decomposition| = {worst.absdiff:.3e} vs bound {worst.bound:.3e}")
