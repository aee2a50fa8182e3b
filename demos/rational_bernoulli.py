"""A biased coin from a fair one, at two flips on average.

The trick: flip until the first heads; that position picks a bit of the
binary expansion of p, and that bit is the answer.  Bias lands exactly
on p.  Bit t of p is floor(p * 2**t) mod 2, so the sampler keeps only
the count of flips.
"""

from fastdice import (BufferedWordSource, Rational, bernoulli_rational,
                      binary_expansion)

p = Rational(1, 5)
bits = binary_expansion(p, 16)
print(f"1/5 in binary: 0.{''.join(map(str, bits))}...  (period 0011)")

src = BufferedWordSource(5)
trials = 500_000
heads = sum(bernoulli_rational(src, p) for _ in range(trials))
print(f"{trials} draws of Bernoulli(1/5): "
      f"frequency {heads / trials:.5f}, flips/draw "
      f"{src.bits_consumed() / trials:.5f}")

# the flip budget does not depend on the bias
for num, den in ((1, 2), (1, 3), (7, 16), (499, 1000)):
    src = BufferedWordSource(num * den)
    for _ in range(200_000):
        bernoulli_rational(src, Rational(num, den))
    print(f"p = {num}/{den}: {src.bits_consumed() / 200_000:.4f} flips/draw")
