"""Independent reference values of I_n(z) = ∫₀¹ K(k)·k/(z+k²)^(n+3/2) dk.

mpmath alone computes them: ``mpmath.quad`` over ``mpmath.ellipk(k**2)`` at
60 digits, with breakpoints on a power-of-two ladder down past the
integrand's peak at k = sqrt(z/(2n+2)).  This module never imports ellipkint.
Results are cached per seed under ``perfbench/.cache`` and generated before a
run's timed phase, so they count toward no metric.

Regenerate the cache for a seed (and re-validate against the closed forms
printed in the paper) with

    python3 perfbench/reference.py --workload sweep --seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import mpmath
from mpmath import mpf

import workloads

REF_DPS = 60
CACHE_DIR = Path(__file__).resolve().parent / ".cache"


class Reference:
    """Quadrature of the family at REF_DPS digits, sharing K(k) across calls."""

    def __init__(self):
        self._kernel: dict[mpf, mpf] = {}  # node k -> K(k)*k

    def _kk(self, k: mpf) -> mpf:
        v = self._kernel.get(k)
        if v is None:
            v = self._kernel[k] = mpmath.ellipk(k * k) * k
        return v

    @staticmethod
    def z(z) -> mpf:
        """z from 'p/q' text or a special-point label, at the current precision."""
        if z in workloads.POINT_THETA:
            theta = workloads.POINT_THETA[z]
            return mpmath.cot(mpmath.pi * theta.numerator / theta.denominator) ** 2
        return workloads.rational(z)

    def family(self, z, ns) -> dict[int, mpf]:
        """I_n(z) for every n in ns; one z shares its nodes and powers."""
        ns = list(ns)
        with mpmath.workdps(REF_DPS):
            z = self.z(z)
            peak = mpmath.sqrt(z / (2 * max(ns) + 2))
            points = [mpf(1)]
            while points[-1] > peak / 4:
                points.append(points[-1] / 2)
            points = [mpf(0)] + points[::-1]
            parts: dict[mpf, tuple[mpf, mpf]] = {}

            def part(k):
                p = parts.get(k)
                if p is None:
                    s = z + k * k
                    p = parts[k] = (self._kk(k) / (s * mpmath.sqrt(s)), 1 / s)
                return p

            out = {}
            for n in ns:
                # scale the integrand to about 1 at its peak: quad's error
                # target is absolute, and the values span over 150 orders of magnitude
                base, r = part(min(mpmath.sqrt(z / (2 * n + 2)), mpf(1) / 2))
                scale = base * r**n

                def f(k, n=n, scale=scale):
                    base, r = part(k)
                    return base * r**n / scale

                value, err = mpmath.quad(f, points, error=True)
                value, err = value * scale, err * scale
                if not err <= abs(value) * mpf(10) ** (15 - REF_DPS):
                    raise RuntimeError(f"reference quadrature for I_{n}({z}) did not converge")
                out[n] = value
            return out


def validate(ref: Reference) -> None:
    """Check the generator on the three closed forms printed in PAPER.md."""
    with mpmath.workdps(REF_DPS):
        pi, sqrt = mpmath.pi, mpmath.sqrt
        cases = [
            (0, "1", pi / (4 * sqrt(2))),
            (2, "1", 1 / (6 * sqrt(2)) + 19 * pi / (240 * sqrt(2))),
            (0, "cot2-pi-10", pi / (10 * sqrt(50 + 22 * sqrt(5)))),
        ]
        for n, z, exact in cases:
            got = ref.family(z, [n])[n]
            if abs(got - exact) > abs(exact) * mpf(10) ** (15 - REF_DPS):
                raise RuntimeError(f"reference disagrees with the closed form of I_{n}({z})")


def _cached(name: str, key: object, make, force: bool = False) -> list[str]:
    """Values stored as decimal strings in CACHE_DIR/<name>-<digest>.json."""
    blob = json.dumps(key, sort_keys=True)
    path = CACHE_DIR / f"{name}-{hashlib.sha1(blob.encode()).hexdigest()[:12]}.json"
    if not force and path.is_file():
        data = json.loads(path.read_text())
        if data["key"] == key:
            return data["values"]
    ref = Reference()
    validate(ref)
    values = [mpmath.nstr(v, REF_DPS + 5) for v in make(ref)]
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"key": key, "values": values}))
    tmp.replace(path)
    return values


def sweep_reference(seed: int, specs: list[dict], force: bool = False) -> list[mpf]:
    """Reference value for each sweep spec, in order."""

    def make(ref):
        return [ref.family(s["z"], [s["n"]])[s["n"]] for s in specs]

    key = {"seed": seed, "specs": [[s["n"], s["z"]] for s in specs], "dps": REF_DPS}
    with mpmath.workdps(REF_DPS):
        return [mpf(v) for v in _cached(f"sweep-{seed}", key, make, force)]


def tables_reference(points: list[str], max_n: int, force: bool = False) -> dict[str, list[mpf]]:
    """I_n at every special point for n = 0..max_n (the same for every seed)."""

    def make(ref):
        return [v for label in points for v in ref.family(label, range(max_n + 1)).values()]

    key = {"points": points, "max_n": max_n, "dps": REF_DPS}
    with mpmath.workdps(REF_DPS):
        flat = [mpf(v) for v in _cached("tables", key, make, force)]
    return {label: flat[i * (max_n + 1) : (i + 1) * (max_n + 1)] for i, label in enumerate(points)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "tables"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.workload == "sweep":
        specs = workloads.sweep_inputs(args.seed, **workloads.SWEEP_SIZE)
        values = sweep_reference(args.seed, specs, force=True)
        for s, v in zip(specs, values):
            print(f"I_{s['n']}({s['z']}) = {mpmath.nstr(v, 30)}")
    else:
        inputs = workloads.tables_inputs(args.seed, **workloads.TABLES_SIZE)
        table = tables_reference(inputs["points"], inputs["max_n"], force=True)
        for label, values in table.items():
            print(f"I_n({label}), n=0..{len(values) - 1}: I_0 = {mpmath.nstr(values[0], 30)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
