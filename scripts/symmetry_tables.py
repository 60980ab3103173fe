#!/usr/bin/env python3
"""Print the pentagon action on all 15 subset generators, the orbit
structure, and the closure order of the combined symmetry group."""

from racah import symmetry as sym
from racah.freealg import Gen


def main() -> None:
    rot = sym.PENTAGON[1].letter_map(4)[0]
    refl = sym.PENTAGON[5].letter_map(4)[0]
    print("pentagon rotation on subset generators:")
    for x in sorted(rot, key=lambda x: x.indices):
        print(f"  {str(x):6s} -> {rot[x]}")
    print("\nreflection about the top vertex:")
    for x in sorted(refl, key=lambda x: x.indices):
        if refl[x] != x:
            print(f"  {x} <-> {refl[x]}")

    print("\norbits of C12:")
    for group in ("d5", "p4", "both"):
        members = sym.orbit(Gen("C", (1, 2)), group)
        print(f"  {group:4s} ({len(members):2d}): {', '.join(members)}")

    print(f"\ngroup orders: pentagon {sym.closure_order('d5')}, "
          f"relabeling {sym.closure_order('p4')}, "
          f"combined {sym.closure_order('both')}")


if __name__ == "__main__":
    main()
