"""Survey the restricted quadratic form's signature over the spiral family.

The form restricted to the four-dimensional solution space is expected to
have signature (1, 3): one positive direction (scaling, which grows area)
and three negative ones.  The computation is exact symmetric congruence
diagonalization over the rationals, so each verdict is a certainty for its
instance; any deviation would be reported as a finding, not silenced.
"""

import time

from octacolor import spiral_instance

print(f"{'k':>3} {'E_b':>5} {'rank':>5} {'dim':>4} {'signature':>12} {'verdict':>10} {'secs':>7}")
for k in range(3, 7):
    t0 = time.perf_counter()
    inst = spiral_instance(k)  # the gated pipeline Instance: kernel and cone already derived
    kernel, form = inst.kernel, inst.form
    elapsed = time.perf_counter() - t0
    sig = form.signature
    verdict = "expected" if sig == (1, 3, 0) else "FINDING"
    print(f"{k:>3} {len(kernel.col_edges):>5} {kernel.rank:>5} {kernel.dimension:>4} "
          f"{str(sig):>12} {verdict:>10} {elapsed:>7.2f}")

print("\nrestricted form for k=3 (doubled Gram matrix on the lattice basis):")
for row in spiral_instance(3).form.restricted:
    print("  " + "  ".join(f"{str(x):>6}" for x in row))
