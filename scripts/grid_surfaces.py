"""Write CSV probability surfaces for external plotting.

Produces the two classic pictures: an ordinary binomial bell (20 tosses,
bias 7/10) as a single CSV row, and the two-dimensional bell of 10 tosses
of an entwined two-coin as a (K+1) x (K+1) CSV matrix.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from bitoss.binomials import binomial, bivbin, two_coin
from bitoss.serialize import grid_to_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=".", help="directory for the CSV files (created if missing)")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    bell = binomial(20, Fraction(7, 10))
    row = ",".join(repr(float(bell(n))) for n in range(21))
    (outdir / "binomial_20_0p7.csv").write_text(row + "\n")

    coin = two_coin(Fraction(3, 8), Fraction(5, 12), Fraction(1, 12), Fraction(1, 8))
    grid = bivbin(10, coin)
    (outdir / "bivbin_10.csv").write_text(grid_to_csv(grid))
    print("wrote", outdir / "binomial_20_0p7.csv", "and", outdir / "bivbin_10.csv")


if __name__ == "__main__":
    main()
