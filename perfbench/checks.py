"""Output checks: the program must still compute what it computed when the
benchmark was defined.

Each run replays its workload at the ``tiny`` size on ``CHECK_SEED`` and
compares the outputs with ``reference.json``: a sha256 over every bit
fingerprint (bits must stay identical), spectral eigenvalues to 1e-9, and the
MGS and AUC values to 1e-9.  The measured passes are checked for sane values
and for being identical from pass to pass.

Re-record the reference only when a change of outputs is intended:
``python3 perfbench/checks.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
CHECK_SEED = 0
FLOAT_TOL = 1e-9
QUALITY = ("holdout_mgs", "corpus_mgs", "test_auc")


def digest(outputs: dict) -> dict:
    """The recorded form of one pass's outputs."""
    fps = outputs.get("fingerprints", {})
    out = {}
    if fps and hasattr(next(iter(fps.values())), "to_hex"):
        blob = "".join(f"{gid}:{fp.to_hex()}\n" for gid, fp in sorted(fps.items()))
        out["fingerprint_sha256"] = hashlib.sha256(blob.encode("ascii")).hexdigest()
    elif fps:
        out["eigenvalues"] = {gid: list(fp.eigenvalues) for gid, fp in sorted(fps.items())}
    for key in QUALITY:
        if key in outputs:
            out[key] = outputs[key]
    if "arch_mgs" in outputs:
        out["arch_mgs"] = dict(outputs["arch_mgs"])
    return out


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(float(a) - float(b)) <= FLOAT_TOL


def compare(name: str, got: dict, reference: dict) -> list[str]:
    """Mismatches between a digest and the recorded one, as messages."""
    want = reference.get(name)
    if want is None:
        return [f"{name}: no recorded reference"]
    problems = []
    for key in sorted(set(want) | set(got)):
        if key not in got or key not in want or not _close(got[key], want[key]):
            problems.append(f"{name}: {key} differs from the recorded reference")
    return problems


def sanity(outputs: dict, n_graphs: int) -> list[str]:
    """Range checks on a measured pass."""
    problems = []
    if len(outputs.get("fingerprints", {})) != n_graphs:
        problems.append("fingerprint count differs from the corpus size")
    for key in ("holdout_mgs", "corpus_mgs"):
        if key in outputs and not -1.0 <= outputs[key] <= 1.0:
            problems.append(f"{key}={outputs[key]} outside [-1, 1]")
    if "test_auc" in outputs and not 0.0 <= outputs["test_auc"] <= 1.0:
        problems.append(f"test_auc={outputs['test_auc']} outside [0, 1]")
    for arch, value in outputs.get("arch_mgs", {}).items():
        if not math.isfinite(value):
            problems.append(f"MGS of {arch} is not finite")
    return problems


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _record() -> None:
    import warnings

    from workloads import WORKLOADS, Ops, run_pass, set_up, tiny

    warnings.simplefilter("ignore")
    reference = {}
    for name, w in WORKLOADS.items():
        small = tiny(w)
        result = run_pass(small, CHECK_SEED, set_up(small, CHECK_SEED), Ops())
        if not result.ok:
            raise SystemExit(f"{name}: the check pass failed")
        reference[name] = digest(result.outputs)
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/checks.py --record")
    import run  # noqa: F401  (pins BLAS threads and puts src/ on the path)
    _record()
