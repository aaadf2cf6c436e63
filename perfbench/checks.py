"""Output checks: parent-commit digests plus invariants that do not come
from mfk.

Each checker takes the job and the parsed artifact and returns ``None`` when
the output is acceptable, or a one-line reason.  ``check_output`` adds the
exit-status, JSON and traceback checks every job shares.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

import gen

# Significant digits kept when digesting floating-point artifacts (amoeba):
# the sample goes through libm and BLAS, whose last bits may differ between
# machines that are otherwise equal.
FLOAT_DIGITS = 9


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    return value


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digest(job, stdout: bytes) -> str:
    """Digest compared with the parent commit: the exact stdout bytes, or
    for float artifacts the bytes after rounding to FLOAT_DIGITS."""
    if job.check != "amoeba":
        return sha256(stdout)
    try:
        artifact = json.loads(stdout)
    except ValueError:
        return sha256(stdout)
    return sha256(json.dumps(_round_floats(artifact),
                             sort_keys=True).encode())


# -- invariant checkers --------------------------------------------------------


def check_ok(job, artifact):
    return None


def check_error(job, artifact):
    if set(artifact) != {"error", "message"}:
        return f"error artifact has keys {sorted(artifact)}"
    if not all(isinstance(artifact[k], str) for k in artifact):
        return "error artifact values are not strings"
    return None


def check_polytope(job, artifact):
    vertices = len(artifact["vertices"])
    if vertices != job.expect:
        return f"{vertices} vertices for {job.expect} bases"
    alternating = sum((-1) ** k * f for k, f in enumerate(artifact["f_vector"]))
    if alternating != 1:
        return f"f-vector alternating sum is {alternating}"
    return None


def check_lattice(job, artifact):
    """Folkman: the proper part of a rank-r geometric lattice has reduced
    homology only in degree r-2, of rank |mu(0, 1)| (mfk's unsigned
    ``mu_top``); by Hall and Rota its reduced Euler characteristic is
    mu(0, 1) = (-1)^r |mu(0, 1)|."""
    rank = len(artifact["flats_by_rank"]) - 1
    mu = artifact["mu_top"]
    betti = artifact["betti_proper_part"]
    if mu <= 0:
        return f"mu_top {mu} is not positive"
    expected = [mu if k == rank - 2 else 0 for k in range(rank - 1)]
    if betti != expected:
        return f"Betti numbers {betti} are not {expected}"
    if artifact["reduced_euler"] != (-1) ** rank * mu:
        return (f"reduced Euler characteristic {artifact['reduced_euler']} "
                f"is not (-1)^{rank} * {mu}")
    return None


def check_compare(job, artifact):
    return None if artifact["refines_ab"] is True else "refines_ab is not true"


def check_grid(job, artifact):
    if artifact.get("support_grid_agrees") is not True:
        return "support grid check disagrees"
    return None


def check_circuits(job, artifact):
    """Each coefficient vector annihilates its circuit's columns, has full
    support, and the circuit is minimally dependent; all circuits appear."""
    rows = job.expect
    seen = set()
    for gen_ in artifact["generators"]:
        circuit = [e - 1 for e in gen_["circuit"]]
        coeffs = dict(gen_["coefficients"])
        if sorted(coeffs) != gen_["circuit"] or 0 in coeffs.values():
            return f"coefficients of {gen_['circuit']} lack full support"
        for row in rows:
            if sum(Fraction(row[e]) * coeffs[e + 1] for e in circuit) != 0:
                return f"coefficients of {gen_['circuit']} do not annihilate"
        if gen.exact_rank(gen.columns(rows, circuit)) != len(circuit) - 1:
            return f"{gen_['circuit']} is not dependent of corank one"
        seen.add(tuple(circuit))
    if len(seen) != circuit_count(rows):
        return f"{len(seen)} circuits listed, {circuit_count(rows)} exist"
    return None


def circuit_count(rows) -> int:
    """Number of minimal dependent column sets, by exact rank."""
    ncols = len(rows[0])
    found: list[frozenset] = []
    for size in range(1, len(rows) + 2):
        for combo in combinations(range(ncols), size):
            if any(c <= frozenset(combo) for c in found):
                continue
            if gen.exact_rank(gen.columns(rows, combo)) < size:
                found.append(frozenset(combo))
    return len(found)


def check_amoeba(job, artifact):
    points, deviations = artifact["points"], artifact["deviations"]
    if artifact["count"] != job.expect or len(points) != job.expect:
        return f"{len(points)} amoeba points for count {job.expect}"
    if len(deviations) != len(points) or min(deviations) < 0:
        return "deviations are missing or negative"
    if any(abs(sum(p)) > 1e-9 for p in points):
        return "amoeba points are not centred"
    return None


CHECKERS = {
    "ok": check_ok, "error": check_error, "polytope": check_polytope,
    "lattice": check_lattice, "compare": check_compare, "grid": check_grid,
    "circuits": check_circuits,
    "amoeba": check_amoeba,
}


def check_output(job, status, stdout: bytes, stderr: bytes, golden):
    """Reason the output fails, or None.

    ``golden`` is the parent commit's ``[status, digest]`` for the job, or
    None when the job has no recorded golden.
    """
    expected_status = 1 if job.check == "error" else 0
    if status != expected_status:
        return f"exit status {status}, expected {expected_status}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if golden is not None and [status, golden_digest(job, stdout)] != golden:
        return "stdout differs from the parent commit"
    try:
        artifact = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(artifact, dict):
        return "artifact is not a JSON object"
    try:
        return CHECKERS[job.check](job, artifact)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return f"malformed artifact: {type(err).__name__}: {err}"
