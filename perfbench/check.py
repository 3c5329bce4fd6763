"""Output checker: canonical form, reference digests and independent oracles.

A job's ``--format json`` output is put in canonical form, mapped back to the
identity frame through the known frame U, and hashed.  The digest must equal
the committed reference for (shape, command, N).  Only two outputs depend on
the frame: the ``dual-nef`` polytopes and the ``gkz`` section of ``all``.

The oracles check the reference itself against facts that do not come from
the program: published values, integrality of z(q), of the I-function's
eps^0 slice and of the instanton numbers, and the mirror exchange of Hodge
numbers.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from gen import apply, transpose

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class CheckError(Exception):
    pass


def ref_key(shape, command, N):
    return f"{shape}|{command}|{N}"


def load_reference():
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _points(M, pts):
    return sorted(list(apply(M, p)) for p in pts)


def _poly(M, d):
    return {"dim": d["dim"], "vertices": _points(M, d["vertices"])}


def _canon_dual_nef(p, U, Uinv):
    UT = transpose(U)
    framed_dual = [tuple(v) for v in p["nabla_dual"]["vertices"]]
    parts = p["dual_partition"]["parts"]
    return {
        "nabla_parts": [_poly(UT, P) for P in p["nabla_parts"]],
        "nabla": _poly(UT, p["nabla"]),
        "nabla_dual": _poly(Uinv, p["nabla_dual"]),
        "dual_partition": {
            "delta": _poly(UT, p["dual_partition"]["delta"]),
            "parts": [_points(Uinv, [framed_dual[i] for i in part]) for part in parts],
        },
    }


def _canon_gkz(g, U):
    """Map the GKZ matrix back to the identity frame.

    Lattice rows hold the framed rays U^-T rho; U^T maps them back.  Within a
    part, ray columns are listed in reverse-lex order, so they are re-sorted
    after the map and the kernel entries follow their columns.  Labels are
    positions (part, index in part), so they stay as they are.
    """
    n, r = g["n"], g["r"]
    A = g["A"]
    rows, beta = A[n:] + A[:n], g["beta"][n:] + g["beta"][:n]
    if g["display"] != {"A_rows": rows, "beta": beta}:
        raise CheckError("gkz display rows disagree with A")
    cols = [tuple(A[i][c] for i in range(n + r)) for c in range(len(A[0]))]
    UT = transpose(U)
    cols = [apply(UT, col[:n]) + col[n:] for col in cols]
    labels = [tuple(lab) for lab in g["column_labels"]]
    order = sorted(
        range(len(cols)),
        key=lambda c: (labels[c][0], labels[c][1] != 0, tuple(-x for x in cols[c][:n])),
    )
    kernel = []
    for v in g["kernel"]:
        v = [v[c] for c in order]
        lead = next((x for x in v if x), 1)
        kernel.append([x if lead > 0 else -x for x in v])
    return {
        "A": [[cols[c][i] for c in order] for i in range(n + r)],
        "alpha": [g["alpha"][c] for c in order],
        "beta": g["beta"],
        "column_labels": g["column_labels"],
        "kernel": sorted(kernel),
        "n": n,
        "r": r,
    }


def canonical(command, payload, U, Uinv):
    """The frame-free form of one job's parsed ``--format json`` output."""
    if command == "dual-nef":
        return _canon_dual_nef(payload, U, Uinv)
    if command == "all":
        payload = dict(payload, gkz=_canon_gkz(payload["gkz"], U))
    return payload


def digest(canon):
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(reference, job, rc, stdout):
    """Raise CheckError unless the job exited 0 with the reference output."""
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    try:
        payload = json.loads(stdout)
        canon = canonical(job.command, payload, job.U, job.Uinv)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc
    want = reference.get(ref_key(job.shape, job.command, job.N))
    if want is None:
        raise CheckError("no reference entry")
    if digest(canon) != want:
        raise CheckError("output differs from the reference")


# -- oracles ------------------------------------------------------------------


def _coeffs(series):
    return [Fraction(c) for c in series["coeffs"]]


def instanton_numbers(K, C):
    """n_d from K(q) = C + sum_d n_d d^3 q^d / (1 - q^d); None if not integral."""
    if K[0] != C:
        return None
    ns = {}
    for d in range(1, len(K)):
        rest = K[d] - sum(ns[k] * k**3 for k in ns if d % k == 0)
        n_d = Fraction(rest, d**3)
        if n_d.denominator != 1:
            return None
        ns[d] = int(n_d)
    return [ns[d] for d in sorted(ns)]


def oracle_failures(shape, command, N, payload, dim):
    """Independent checks on one identity-frame output; returns messages."""
    bad = []
    if command in ("euler", "hodge", "all"):
        topo = payload["euler"] if command == "all" else payload
        if topo["chi_Y"] + topo["chi_Y_dual"] != 0 and dim % 2 == 1:
            bad.append("chi(Y) != -chi(Y_dual) for an odd-dimensional pair")
        if dim == 3:
            h, hd = topo["hodge"]["h"], topo["hodge_dual"]["h"]
            if (h["1,1"], h["2,1"]) != (hd["2,1"], hd["1,1"]):
                bad.append("h11 <-> h21 exchange fails")
            if 2 * (h["1,1"] - h["2,1"]) != topo["chi_Y"]:
                bad.append("chi(Y) != 2(h11 - h21)")
        if shape == "p3_4" and (topo["chi_Y"], topo["chi_Y_dual"]) != (-60, 60):
            bad.append("quartic chi(Y), chi(Y_dual) != -60, 60")
    if command in ("mirror-map", "all"):
        mm = payload["mirror_map"] if command == "all" else payload
        if any(c.denominator != 1 for c in _coeffs(mm["z_of_q"])):
            bad.append("z(q) has a non-integral coefficient")
    if command in ("yukawa", "all"):
        yk = payload["yukawa"] if command == "all" else payload
        if "K_q" in yk:
            K = _coeffs(yk["K_q"])
            if instanton_numbers(K, Fraction(yk["C"])) is None:
                bad.append("instanton numbers are not integers")
            if shape == "p3_4" and K[:3] != [2, 29504, 1030708800]:
                bad.append("quartic K(q) != 2 + 29504 q + 1030708800 q^2 + ...")
        elif dim == 3:
            bad.append("yukawa skipped on a threefold")
    if command == "ifunction":
        A = [Fraction(row[0]) for row in payload["i_function"]["coeffs"]]
        if any(c.denominator != 1 for c in A):
            bad.append("eps^0 slice of the I-function is not integral")
    return bad
