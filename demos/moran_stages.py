"""Moran constructions at growing block length.

For a target exponent and margin eps the construction needs the filtered
block alphabet to carry enough dimension; short blocks are refused with the
achieved value. This script shows the refusals and then the first lengths
where the stage dimensions enter the (f_bar - eps, f_bar] sandwich, and
ends with an accepted length just below a refused one.
"""

from multifractal import (
    NeedLargerN,
    f_bar,
    load_system,
    moran_construct,
    moran_dimension,
)

S1 = load_system({"probs": [1 / 3, 2 / 3], "ratios": [0.5, 0.5],
                  "translations": [0.0, 0.5]})

EPS = 0.05


def attempt(alpha: float, n: int) -> bool:
    try:
        spec = moran_construct(S1, alpha, EPS, n, stages=12)
    except NeedLargerN as exc:
        print(f"  n={n:4d}: refused, blocks reach {exc.achieved:.6f}, "
              f"need > {exc.required:.6f}")
        return False
    s_ks = [moran_dimension(spec, k) for k in range(1, 13)]
    fb = f_bar(S1, alpha)
    print(f"  n={n:4d}: s = {spec.s:.6f}, stage dims in "
          f"[{min(s_ks):.6f}, {max(s_ks):.6f}], target window "
          f"({fb - EPS:.6f}, {fb:.6f}], stage lengths {spec.stage_lengths[:6]}...")
    return True


def main():
    for alpha in (0.9, 1.0, 1.2):
        print(f"alpha = {alpha}, eps = {EPS}, envelope f_bar = "
              f"{f_bar(S1, alpha):.6f}")
        for n in (16, 32, 64, 128, 256):
            if attempt(alpha, n):
                break
        print()
    print("the alphabet's shortfall from f_bar is bounded by a multiple of")
    print("log(n)/n, so exponents far from the peak need the longest blocks;")
    print("that bound is no threshold, and acceptance is not monotone in n.")
    print("alpha = 0.9 just below the refused ladder length 128:")
    for n in (127, 128):
        attempt(0.9, n)


if __name__ == "__main__":
    main()
