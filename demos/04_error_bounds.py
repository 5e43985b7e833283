"""How the rigorous error bounds behave, and why they can be trusted.

Every evaluator result carries an absolute error bound that covers the
truncated series tails.  Two experiments below:

  * bound versus actual error, measured against reference values that are
    known in closed form (zeta(2), zeta(2,1) = zeta(3), eta(4));
  * stability under cutoff doubling -- re-running with all cutoffs doubled
    must move each value by less than its originally reported bound.
"""
import math

from tornheim import (
    MINUS_ONE,
    ONE,
    EvalConfig,
    MTIndex,
    RootOfUnity,
    eval_li,
    eval_mt_direct,
)
from tornheim.li import tail_sum

print("Bound vs actual error against closed forms:")
z2 = tail_sum(2, ONE, 0)
print(f"  zeta(2):   value {z2.value.real:.15f}")
print(f"             bound {z2.error_bound:.2e}, actual {abs(z2.value.real - math.pi**2 / 6):.2e}")

eta4 = tail_sum(4, MINUS_ONE, 0)
truth = -(7 / 8) * math.pi**4 / 90
print(f"  -eta(4):   value {eta4.value.real:.15f}")
print(f"             bound {eta4.error_bound:.2e}, actual {abs(eta4.value.real - truth):.2e}")

z21 = eval_li(2, 1, ONE, ONE)
z3_ref = 1.2020569031595942854
print(f"  zeta(2,1): value {z21.value.real:.15f}")
print(f"             bound {z21.error_bound:.2e}, actual {abs(z21.value.real - z3_ref):.2e}")

print("\nOracle truncation: the bound shrinks with the cutoff and always")
print("covers the omitted tail (weight-3 index, the slowest case):")
idx = MTIndex(1, 1, 1)
deep = eval_mt_direct(idx, ONE, ONE, EvalConfig(oracle_cutoff=16000))
for cutoff in (500, 1000, 2000, 4000):
    v = eval_mt_direct(idx, ONE, ONE, EvalConfig(oracle_cutoff=cutoff))
    actual = abs(v.value.real - deep.value.real)
    print(f"  cutoff {cutoff:5d}: value {v.value.real:.10f}  bound {v.error_bound:.2e}  "
          f"actual-tail {actual:.2e}")

print("\nCutoff doubling stays inside the reported bounds:")
cases = [
    (MTIndex(2, 1, 2), MINUS_ONE, ONE),
    (MTIndex(1, 1, 2), RootOfUnity(1, 4), RootOfUnity(1, 3)),
    (MTIndex(0, 1, 3), RootOfUnity(2, 3), MINUS_ONE),
]
for idx, alpha, beta in cases:
    v1 = eval_mt_direct(idx, alpha, beta, EvalConfig(oracle_cutoff=1000))
    v2 = eval_mt_direct(idx, alpha, beta, EvalConfig(oracle_cutoff=2000))
    moved = abs(v1.value - v2.value)
    print(f"  T{idx};{alpha},{beta}: moved {moved:.2e} < bound {v1.error_bound:.2e}"
          f"  -> {moved < v1.error_bound}")
