"""The value R(2,1,2) three ways, and why one published closed form is wrong.

R(2,1,2) = sum_{m,n>=1} (-1)^n / (m^2 n (m+n)^2) can be computed

  1. directly from its definition (truncated double sum with a tail bound),
  2. through the exact decomposition into alternating double zeta values,
  3. from the closed form (107/32) zeta(5) - (5/16) pi^2 zeta(3).

All three agree to ten digits: -0.2402184755...  A previously published
closed form, (45/16) zeta(5) - (1/4) pi^2 zeta(3), evaluates instead to
-0.0495972141..., about 0.19 away; the series itself settles the dispute.
"""
from tornheim import (
    MINUS_ONE,
    ONE,
    EvalConfig,
    MTIndex,
    check_relation,
    decompose,
    eval_decomposition,
    eval_mt_direct,
    parse_relation,
    to_level2,
)
from tornheim.verify import R212_CLOSED_FORM, R212_DISPUTED_FORM, eval_constants

idx = MTIndex(2, 1, 2)
cfg = EvalConfig()  # tolerance 1e-10, oracle cutoff 20000

print("1. Direct double sum (the ground truth, ~200 million terms):")
oracle = eval_mt_direct(idx, MINUS_ONE, ONE, cfg)
print(f"   {oracle.value.real:.12f}  (rigorous error bound {oracle.error_bound:.2e})")

print("\n2. Decomposition route:")
d = decompose(idx, MINUS_ONE, ONE)
print("   R(2,1,2) = " + " + ".join(t.pretty() for t in to_level2(d)))
dec = eval_decomposition(d, cfg)
print(f"   {dec.value.real:.12f}  (error bound {dec.error_bound:.2e})")

# Both closed forms go through the relation evaluator: zeta(s) and pi carry
# their own bounds, and the rational combination propagates them.
corrected = parse_relation(f"{R212_CLOSED_FORM} == MT(2,1,2;-1,1)")
published = parse_relation(f"{R212_DISPUTED_FORM} == MT(2,1,2;-1,1)")

print(f"\n3. Closed form {R212_CLOSED_FORM}:")
closed = eval_constants(corrected.terms)
print(f"   {closed.value.real:.12f}  (error bound {closed.error_bound:.2e})")
print(f"   relation check: {check_relation(corrected, cfg).status}")

print(f"\nThe published closed form {R212_DISPUTED_FORM}:")
disputed = eval_constants(published.terms)
print(f"   {disputed.value.real:.12f}  (error bound {disputed.error_bound:.2e})")
print(f"   ... which misses the series value by {abs(disputed.value - oracle.value):.10f}")
print(f"   relation check: {check_relation(published, cfg).status}")

print("\nAgreement summary:")
print(f"   |oracle - decomposition| = {abs(oracle.value - dec.value):.2e}")
print(f"   |oracle - closed form|   = {abs(oracle.value - closed.value):.2e}")
