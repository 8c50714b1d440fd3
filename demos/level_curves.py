"""Level curves of the nonexistence quantity L(T1, T2).

The two-temperature stationary system admits no zero-velocity solution unless
a very restrictive balance condition holds; the argument needs the level sets
of L(T1, T2) = m0/|Omega| to be smooth curves.  This script scans L over the
published [10, 12]^2 window (step 0.1, epsilon0 = c0 = sigma = 1), extracts
eight evenly spaced contour levels with marching squares, and reports their
connectivity: one clean component per level and no saddle ambiguities is
exactly the smooth-curve picture.

Run:  python3 demos/level_curves.py
Writes grid.csv / contours.csv to the current directory for external plotting
(e.g. pandas + matplotlib: pivot grid.csv on T1/T2 and contour it).
"""

import time

import numpy as np

from radgas import PhysConsts
from radgas.levelscan import ScanWindow, extract_contours, scan, smoothness_report

consts = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)

print("scanning L on [10,12]^2 with step 0.1 ...")
t0 = time.time()
window = ScanWindow(10.0, 12.0, 10.0, 12.0, 0.1)
result = scan(window, consts)
print(f"  {result.grid.shape[0]}x{result.grid.shape[1]} grid in {time.time()-t0:.1f}s, "
      f"{len(result.failures)} singular cells")
print(f"  L range: [{result.grid.min():.6f}, {result.grid.max():.6f}]")
print(f"  L(10,10) = {result.grid[0,0]:.9f}   L(12,12) = {result.grid[-1,-1]:.9f}")

levels = np.linspace(result.grid.min(), result.grid.max(), 10)[1:-1]
contours = extract_contours(result, levels)
report = smoothness_report(result, contours)
print("\nlevel        components  saddles  max turn (deg)")
for row in report["levels"]:
    print(f"{row['level']:<12.6f} {row['components']:^10d} {row['saddles']:^8d} "
          f"{np.degrees(row['max_turning_angle']):.1f}")
print("\nsmooth-curve hypothesis " + ("HOLDS" if not report["any_flagged"] else "FAILS")
      + " on this window")

with open("grid.csv", "w") as fh:
    fh.write("T1,T2,L\n")
    for i, t1 in enumerate(window.t1_values()):
        for j, t2 in enumerate(window.t2_values()):
            fh.write(f"{t1:.17g},{t2:.17g},{result.grid[i,j]:.17g}\n")
with open("contours.csv", "w") as fh:
    fh.write("level,chain,T1,T2\n")
    for level, chains in zip(contours.levels, contours.polylines):
        for ci, chain in enumerate(chains):
            for p in chain:
                fh.write(f"{level:.17g},{ci},{p[0]:.17g},{p[1]:.17g}\n")
print("wrote grid.csv and contours.csv")
