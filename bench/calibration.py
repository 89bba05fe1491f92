"""Fixed job timed beside every round of a workload, to gauge host speed.

    python3 -S bench/calibration.py

Truncated products of power series with exact Fraction coefficients: the
same kind of work as the program's series kernel, on coefficients whose
numerators and denominators grow the same way.  It imports nothing from
the program, so its time moves with the host's speed and never with a
change to the program.
"""

from fractions import Fraction

ORDER = 40
ROUNDS = 24


def main() -> None:
    series = [Fraction(1, k + 1) + Fraction(k, 7) for k in range(ORDER + 1)]
    for _ in range(ROUNDS):
        product = [Fraction(0)] * (ORDER + 1)
        for i, a in enumerate(series):
            for j in range(ORDER + 1 - i):
                product[i + j] += a * series[j]
        series = [c / (k + 1) for k, c in enumerate(product)]


if __name__ == "__main__":
    main()
