"""The cost curve u(n): entropy floor, sawtooth toll, smooth formula.

u(n) - log2(n) is a sawtooth in log2(n): zero at powers of two, jumping
back up right after.  A dozen Fourier terms built from zeta values on
the line Re(s)=1 reproduce u(n) closely away from the jumps.
"""

import math

from fastdice import (EULER_GAMMA, asymptotic_cost, exact_cost,
                      exact_cost_rational, toll, zeta_complex)

print("   n      u(n)       log2(n)    toll      smooth")
for n in (2, 3, 4, 5, 8, 9, 16, 100, 729, 1000, 1024):
    print(f"{n:5d}  {exact_cost(n):9.6f}  {math.log2(n):9.6f}  "
          f"{toll(n):8.6f}  {asymptotic_cost(n):9.6f}")

print(f"\nexact rationals: u(3) = {exact_cost_rational(3)}, "
      f"u(5) = {exact_cost_rational(5)}, u(100) = {exact_cost_rational(100)}")

constant = 0.5 + (1.0 - EULER_GAMMA) / math.log(2.0)
print(f"constant term 1/2 + (1 - gamma)/ln2 = {constant:.12f}")

s = complex(1.0, 2.0 * math.pi / math.log(2.0))
print(f"first fluctuation frequency needs zeta({s.real:g} + {s.imag:.4f}i) "
      f"= {zeta_complex(s):.6f}")

# the toll is jumpy even inside an octave: it drops whenever n crosses
# 2^m / k for odd k (1024/3 = 341.3, 2048/5 = 409.6, ...), and the
# truncated series rings near every jump, most of all at powers of two
# where the jump is a full 2 bits
errors = sorted(abs(asymptotic_cost(n) - exact_cost(n))
                for n in range(256, 512))
print(f"octave [256, 512): median error {errors[len(errors) // 2]:.5f}")
for n, where in ((256, "on the dyadic jump"), (511, "approaching it"),
                 (341, "below the 1024/3 jump"), (300, "between jumps")):
    print(f"  n={n:3d} ({where}): error "
          f"{abs(asymptotic_cost(n) - exact_cost(n)):.5f}")
