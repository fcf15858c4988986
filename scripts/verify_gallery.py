#!/usr/bin/env python3
"""Certify every bound on every gallery problem and tabulate the margins.

Runs the flow to T_MAX with the (1/2-admissible) exponential regularizer
a(t) = exp(-DECAY t), deep enough that the limit checks apply, certifies
it with dsmflow.certify, then prints one row per (problem, bound) and
writes the full reports as JSON.

Usage: python scripts/verify_gallery.py [--out DIR]
"""

import argparse
import json
from pathlib import Path

import numpy as np

import dsmflow as d

T_MAX = 32.0
DECAY = 0.44


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/gallery_verification", help="report directory")
    args = ap.parse_args()

    schedule = d.exponential(1.0, DECAY)
    cfg = d.IntegratorConfig(t_max=T_MAX, rel_tol=1e-10, abs_tol=1e-12, residual_stop=1e-8)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'problem':22s} {'bound':9s} {'pass':5s} {'worst_margin':>13s} {'at':>9s}")
    all_ok = True
    for name in d.GALLERY_NAMES:
        p = d.make_problem(name)
        traj = d.integrate(p, schedule, np.zeros(p.dim), cfg)
        reports, _, _ = d.certify(traj, p, schedule, d.NewtonConfig(), cfg.residual_stop)
        for r in reports:
            all_ok &= r.passed
            print(f"{name:22s} {r.bound_id:9s} {str(r.passed):5s} {r.worst_margin:+13.3e} {r.worst_t:9.3g}")
        payload = {
            "problem": name,
            "terminated_by": traj.terminated_by,
            "t_final": traj.final.t,
            "h_final": traj.final.h,
            "bounds": [r.to_dict() for r in reports],
        }
        (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")

    print(f"\nall bounds certified: {all_ok}  (reports in {out_dir})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
