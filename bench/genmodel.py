"""Seeded generic models with known answers, written in the weaksym JSON format.

A generic model is the decohered AKLT LPDO tensored with a random injective
MPS B on an extra ancilla factor:

    A'[i, (a, s), (x, g), (y, h)] = A[i, a, x, y] * B[s, g, h],

with the same physical action u_g and the ancilla action ua_g (x) 1, so no
symmetry acts on B. B is scaled so its transfer map sum_s B_s (x) conj(B_s)
has leading eigenvalue 1; every twisted transfer map then factorises as
T_AKLT(g) (x) E, and the responses, conservation law and push-through law of
the AKLT family carry over unchanged. Only numpy is used here, so the
program under test sees nothing but the JSON file.
"""

import json

import numpy as np

_SQ2 = np.sqrt(2.0)
LABELS = ("1", "R_x", "R_y", "R_z")


def spin1():
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQ2
    sy = -np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQ2
    sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    return sx, sy, sz


def aklt_lpdo(p):
    """(tensor[i, a, x, y], {label: (u, ua)}) of the AKLT chain at noise rate p.

    Kraus operators sqrt(1-p) 1, sqrt(p) SxSy, sqrt(p) SySz, sqrt(p) SzSx.
    A pi rotation R_alpha = 1 - 2 S_alpha^2 maps each Kraus operator to +-
    itself, so its ancilla action is the diagonal matrix of those signs.
    """
    sx, sy, sz = spin1()
    eye = np.eye(3, dtype=complex)
    a0 = np.zeros((3, 2, 2), dtype=complex)
    a0[0] = np.sqrt(2.0 / 3.0) * np.array([[0, 1], [0, 0]])
    a0[1] = -np.sqrt(1.0 / 3.0) * np.array([[1, 0], [0, -1]])
    a0[2] = -np.sqrt(2.0 / 3.0) * np.array([[0, 0], [1, 0]])
    kraus = np.stack([np.sqrt(1 - p) * eye, np.sqrt(p) * sx @ sy, np.sqrt(p) * sy @ sz, np.sqrt(p) * sz @ sx])
    tensor = np.einsum("aij,jxy->iaxy", kraus, a0)
    actions = {"1": (eye, np.eye(4, dtype=complex))}
    for label, s in (("R_x", sx), ("R_y", sy), ("R_z", sz)):
        u = eye - 2.0 * s @ s
        signs = [1.0] + [
            np.vdot(k, u @ k @ u.conj().T).real / np.vdot(k, k).real for k in kraus[1:]
        ]
        actions[label] = (u, np.diag(np.round(signs)).astype(complex))
    return tensor, actions


def group_table():
    """Multiplication table of Z2 x Z2 = {1, R_x, R_y, R_z}, rows and columns in LABELS order."""

    def mul(g, h):
        if g == "1":
            return h
        if h == "1":
            return g
        if g == h:
            return "1"
        return ({"R_x", "R_y", "R_z"} - {g, h}).pop()

    return [[mul(g, h) for h in LABELS] for g in LABELS]


def random_injective_mps(rng, dr, bond):
    """Complex Gaussian MPS, rescaled so its transfer map has leading eigenvalue 1.

    Draws again until the transfer map has a clear gap (second modulus below
    0.9), which keeps every thermodynamic quantity well defined. Returns
    (B[s, g, h], second eigenvalue modulus of the transfer map).
    """
    while True:
        b = rng.normal(size=(dr, bond, bond)) + 1j * rng.normal(size=(dr, bond, bond))
        e = sum(np.kron(bs, bs.conj()) for bs in b)
        mods = np.sort(np.abs(np.linalg.eigvals(e)))[::-1]
        if mods[1] < 0.9 * mods[0]:
            return b / np.sqrt(mods[0]), float(mods[1] / mods[0])


def _encode(m):
    m = np.asarray(m)
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_encode(row) for row in m]


def write_generic_model(path, p, bond, rng, dr=2):
    """Write AKLT(p) (x) random MPS with total bond dimension ``bond`` to ``path``.

    ``bond`` must be even: the AKLT factor has D = 2. Returns the
    closed-form data the checker needs: p and the second eigenvalue modulus
    ``mu1`` of the random factor's transfer map.
    """
    if bond % 2:
        raise ValueError("total bond dimension must be even")
    tensor, actions = aklt_lpdo(p)
    b, mu1 = random_injective_mps(rng, dr, bond // 2)
    d, da, dv = 3, 4 * dr, bond
    full = np.einsum("iaxy,sgh->iasxgyh", tensor, b).reshape(d, da, dv, dv)
    doc = {
        "d": d,
        "da": da,
        "D": dv,
        "tensor": _encode(full),
        "group": {"elements": list(LABELS), "table": group_table()},
        "actions": [
            {"element": g, "u": _encode(u), "ua": _encode(np.kron(ua, np.eye(dr)))}
            for g, (u, ua) in actions.items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return {"p": p, "mu1": mu1}
