"""Write the gl0 and glm workloads' spectral-data inputs anew from `forward`.

    python3 perfbench/make_inputs.py

Run from the repository root.  The files are schema-v1 spectral JSON, the
same format `slspec forward --out` writes; keeping them on disk keeps the
forward solver out of the inverse workloads.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# file name -> (built-in potential, omega)
INPUTS = {
    "q1_omega40.json": ("q1", 40.0),
    "quartic_rational_omega20.json": ("quartic_rational", 20.0),
}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from slspec import builtin, forward

    DATA.mkdir(exist_ok=True)
    for name, (potential, omega) in INPUTS.items():
        sd = forward(builtin(potential), omega, potential_id=potential)
        (DATA / name).write_text(sd.to_json() + "\n")
        print(f"{name}: {potential} omega={omega:g} N={sd.count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
