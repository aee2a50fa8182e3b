"""Draw exact uniform integers and watch the bit meter.

A power-of-two range spends exactly log2(n) flips per draw, never more.
Any other range pays a toll below 2 extra flips on average, and the draw
is still exactly uniform: no modulo bias, no floating point.
"""

from fastdice import BufferedWordSource, exact_cost, fdr_uniform

src = BufferedWordSource(seed_or_generator=7)

print("ten draws from [0, 6):")
for _ in range(10):
    out = fdr_uniform(src, 6)
    print(f"  value {out.value}  ({out.bits_used} flips)")
print(f"meter: {src.bits_consumed()} flips total\n")

# dyadic n: the cost is deterministic
start = src.bits_consumed()
for _ in range(1000):
    fdr_uniform(src, 8)
print(f"1000 draws of n=8 cost {src.bits_consumed() - start} flips "
      "(3 each, always)")

# non-dyadic n: the average settles on the exact expectation u(n)
start = src.bits_consumed()
draws = 200_000
for _ in range(draws):
    fdr_uniform(src, 6)
spent = src.bits_consumed() - start
print(f"{draws} draws of n=6: {spent / draws:.4f} flips/draw, "
      f"theory {exact_cost(6):.4f} (= 11/3)")
