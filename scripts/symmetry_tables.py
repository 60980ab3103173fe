#!/usr/bin/env python3
"""Print the pentagon action on all 15 subset generators, the orbit
structure, and the closure order of the combined symmetry group."""

from racah import symmetry as sym
from racah.freealg import Gen


def main() -> None:
    rot = sym.DihedralElement.rotation(1)
    refl = sym.DihedralElement.reflection(0)
    print("pentagon rotation on subset generators:")
    for I, J in sorted(rot.subset_map().items()):
        a = "C" + "".join(map(str, I))
        b = "C" + "".join(map(str, J))
        print(f"  {a:6s} -> {b}")
    print("\nreflection about the top vertex:")
    for I, J in sorted(refl.subset_map().items()):
        if I != J:
            print(f"  C{''.join(map(str, I))} <-> C{''.join(map(str, J))}")

    print("\norbits of C12:")
    for group in ("d5", "p4", "both"):
        members = sym.orbit(Gen("C", (1, 2)), group)
        print(f"  {group:4s} ({len(members):2d}): {', '.join(members)}")

    print(f"\ngroup orders: pentagon {sym.closure_order('d5')}, "
          f"relabeling {sym.closure_order('p4')}, "
          f"combined {sym.closure_order('both')}")


if __name__ == "__main__":
    main()
