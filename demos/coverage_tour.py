"""Tour of unit coverage: which residues mod n are reached by tau-fixed units.

For the quotient ring S = Z[rho]/(1 + rho + ... + rho^(n-1)) with the action
rho -> rho^r, the library builds tau-fixed real cyclotomic units and reports
the subgroup of (Z/nZ)* covered by their coefficient sums mod n, with one
witness unit per covered residue. An exhaustive bounded enumeration serves as
an independent oracle.
"""

from sdpcert import (
    coverage_subgroup,
    eps_bar,
    exhaustive_fixed_units,
    is_unit,
    subgroup_closure,
    unit_witness,
)


def main():
    print("== Dihedral case: r = n - 1 ==")
    for n in (3, 5, 7, 9, 15):
        report = coverage_subgroup(n, n - 1)
        print(f"n={n:>2}  covered subgroup {report.subgroup}  full={report.is_full}")

    print()
    print("== Generators for n = 7, r = 6 ==")
    for unit, residue in coverage_subgroup(7, 6).generators:
        print(f"  coeffs {unit.coeffs}  residue {residue}  unit={is_unit(unit)}")

    print()
    print("== A small action: n = 7, r = 2 (order 3) ==")
    report = coverage_subgroup(7, 2)
    print(f"covered subgroup: {report.subgroup}")
    print("witnesses and their inverses by residue:")
    for residue in report.subgroup:
        unit, inverse = unit_witness(7, 2, residue)
        print(f"  residue {residue}: {unit.coeffs}, inverse {inverse.coeffs}")

    print()
    print("== Exhaustive oracle with coefficient bound 2 ==")
    for n, r in ((5, 4), (7, 2), (8, 7)):
        units = exhaustive_fixed_units(n, r, 2)
        residues = sorted({eps_bar(u) for u in units})
        closure = subgroup_closure(residues, n)
        report = coverage_subgroup(n, r)
        print(
            f"n={n}, r={r}: {len(units)} bounded fixed units, residues {residues}, "
            f"closure {closure}, agrees with generators: {closure == report.subgroup}"
        )


if __name__ == "__main__":
    main()
