#!/usr/bin/env python3
"""Reproduce the thermal correlation panel of the V4+ spin dimer.

Writes one sweep CSV per spin-orbit coupling strength and prints the
critical temperatures.  All numbers are deterministic.
"""

import argparse
import pathlib

from dimercorr import DimerModel, cli, critical_temperatures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--J", type=float, default=7.81, help="exchange constant, meV")
    parser.add_argument("--outdir", default="panel_out", help="output directory")
    parser.add_argument(
        "--couplings", type=float, nargs="+", default=[0.0, 2.0, 4.0, 8.0],
        help="DM coupling strengths to sweep, meV",
    )
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'D (meV)':>8} {'Tc_ent (K)':>12} {'Tc_chsh (K)':>12} {'T_cross (K)':>12}")
    for D in args.couplings:
        result = critical_temperatures(DimerModel(J=args.J, D=D))
        print(
            f"{D:8.2f} {result.tc_entanglement:12.3f} "
            f"{result.tc_chsh:12.3f} {result.t_cross:12.3f}"
        )
        out = outdir / f"sweep_D{D:g}.csv"
        code = cli.main(
            [
                "sweep", "--J", str(args.J), "--D", str(D),
                "--tmin", "1", "--tmax", "300", "--steps", "300",
                "--out", str(out),
            ]
        )
        if code != 0:
            raise SystemExit(code)
        print(f"         wrote {out}")


if __name__ == "__main__":
    main()
