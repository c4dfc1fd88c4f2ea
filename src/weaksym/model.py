"""Model construction: site tensors, noise channels, dilation, serialization.

The built-in family is the spin-1 AKLT chain decohered by a bond-algebra
preserving channel with Kraus operators

    K_0 = sqrt(1-p) * 1,   K_1 = sqrt(p) * Sx Sy,
    K_2 = sqrt(p) * Sy Sz, K_3 = sqrt(p) * Sz Sx,

purified by the Stinespring dilation A[i, a] = sum_j K_a[i, j] A0[j] into a
locally purified tensor with a four-dimensional ancilla leg for every p.
"""

import functools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .numerics import _split
from .symmetry import GroupTable, SymmetryAction, endpoint_charge

_SQ2 = np.sqrt(2.0)


def spin1_operators():
    """Spin-1 operators in the basis (m=-1, m=0, m=+1).

    Returns a new dict with the spin matrices S_x, S_y, S_z, the identity
    S_0, and the pi-rotations R_alpha = exp(i pi S_alpha). For spin 1 the
    rotations close to R_alpha = 1 - 2 S_alpha^2, so R_z = diag(-1, 1, -1)
    exactly. The arrays are read-only, made once per process and shared by
    every dict.
    """
    return dict(_spin1_set())


@functools.cache
def _spin1_set():
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQ2
    sy = -np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQ2
    sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    ops = {"S_0": eye, "S_x": sx, "S_y": sy, "S_z": sz}
    for alpha in "xyz":
        s = ops[f"S_{alpha}"]
        ops[f"R_{alpha}"] = eye - 2.0 * (s @ s)
    for m in ops.values():
        m.flags.writeable = False
    return ops


@dataclass(frozen=True, eq=False)
class LpdoTensor:
    """Locally purified site tensor, indexed [physical, ancilla, left, right].

    The tensor is a read-only copy of the array passed in, so values
    derived from it can be memoised on the instance (``_memo``, read and
    written by :func:`weaksym.transfer._memoised` alone) and never go stale;
    the memo is freed with the instance.

    ``pencil``, None on a bare tensor, is ``(weights, family)`` on a member of a
    family whose maps are T = sum_k weights[k] T(parts[k]) for ancilla insertions
    zero on ``cross``, with ``(parts, cross) = family()``.
    """

    tensor: np.ndarray
    pencil: tuple | None = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.tensor, dtype=complex)
        if t.ndim != 4 or t.shape[2] != t.shape[3]:
            raise DimensionMismatchError(f"purified tensor must be (d, da, D, D), got {t.shape}")
        if not np.isfinite(t).all():
            raise ValidationError("tensor: entries must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "tensor", t)

    @classmethod
    def _of_rows(cls, stack, pencils):
        """``LpdoTensor(row, pencil)`` of each row of ``stack`` (k, d, da, D, D), a read-only stack
        its caller made and holds no other reference to, and each of ``pencils``, checked as one
        stack: each tensor is its row, a view laid out as the row's copy. Sets every field."""
        if not np.isfinite(stack).all():
            raise ValidationError("tensor: entries must be finite")
        rows = [object.__new__(cls) for _ in pencils]
        for lpdo, tensor, pencil in zip(rows, stack, pencils):
            lpdo.__dict__.update(tensor=tensor, pencil=pencil, _memo={})
        return rows

    @property
    def d(self):
        return self.tensor.shape[0]

    @property
    def da(self):
        return self.tensor.shape[1]

    @property
    def bond_dim(self):
        return self.tensor.shape[2]


@dataclass
class KrausChannel:
    """Quantum channel as a stack of Kraus operators, indexed [a, i, j]."""

    kraus: np.ndarray
    p: float | None = None

    def __post_init__(self):
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3 or k.shape[1] != k.shape[2]:
            raise DimensionMismatchError(f"kraus must be (n, d, d), got {k.shape}")
        self.kraus = k

    @property
    def d(self):
        return self.kraus.shape[1]

    def completeness_defect(self):
        """Frobenius norm of sum_a K_a^dag K_a - 1."""
        s = np.einsum("aji,ajk->ik", self.kraus.conj(), self.kraus)
        return float(np.linalg.norm(s - np.eye(self.d)))

    def validate(self):
        defect = self.completeness_defect()
        if defect > 1e-9:
            raise ValidationError(f"channel.kraus: not trace preserving (defect {defect:.3e})")
        p = self.p
        if p is not None and (isinstance(p, bool) or not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0)):
            raise ValidationError(f"channel.p: expected 0 <= p <= 1, got {p}")


def aklt_tensor():
    """Bond-dimension-2 AKLT site tensor A0[m, x, y] (left-canonical normalization), a new array."""
    return _aklt_tensor().copy()


@functools.cache
def _aklt_tensor():
    """:func:`aklt_tensor`, made once per process and read-only."""
    a = np.zeros((3, 2, 2), dtype=complex)
    a[0] = np.sqrt(2.0 / 3.0) * np.array([[0, 1], [0, 0]])   # m = -1
    a[1] = -np.sqrt(1.0 / 3.0) * np.array([[1, 0], [0, -1]])  # m = 0
    a[2] = -np.sqrt(2.0 / 3.0) * np.array([[0, 0], [1, 0]])   # m = +1
    a.flags.writeable = False
    return a


@functools.cache
def _aklt_family():
    """The parts B_0 (A0 in ancilla slot 0) and B_1 (sum_k K_k A0 in slots 1-3), dilations
    with unit weights, and the ancilla entries that couple them. Made at a member's first
    map; a member at noise rate p is sqrt(1-p) B_0 + sqrt(p) B_1."""
    basis, first = _aklt_kraus_basis(), np.arange(4) == 0
    parts = tuple(dilate(_aklt_tensor(), KrausChannel(np.where(part[:, None, None], basis, 0))) for part in (first, ~first))
    cross = first[:, None] != first[None, :]
    cross.flags.writeable = False
    return parts, cross


@functools.cache
def _aklt_kraus_basis():
    """The p-independent Kraus operators 1, Sx Sy, Sy Sz, Sz Sx, stacked read-only."""
    ops = spin1_operators()
    sx, sy, sz = ops["S_x"], ops["S_y"], ops["S_z"]
    basis = np.stack([ops["S_0"], sx @ sy, sy @ sz, sz @ sx])
    basis.flags.writeable = False
    return basis


def dilate(pure, channel):
    """Stinespring dilation of a channel applied to every site of a pure MPS A0[j, x, y].

    A[i, a] = sum_j K_a[i, j] A0[j]; the ancilla dimension equals the
    number of Kraus operators (zero operators keep their slot, so the
    ancilla dimension does not jump across parameter values where some
    Kraus operators vanish).
    """
    if channel.d != pure.shape[0]:
        raise DimensionMismatchError(
            f"channel acts on d={channel.d}, tensor has d={pure.shape[0]}"
        )
    a4 = np.einsum("aij,jxy->iaxy", channel.kraus, pure)
    return LpdoTensor(a4)


@functools.cache
def aklt_group():
    """Z2 x Z2 rotation group {1, R_x, R_y, R_z} of the AKLT family.

    Built and validated once per process; the frozen table is shared.
    """
    labels = ("1", "R_x", "R_y", "R_z")
    # the indices 0-3 as bits, 1 = 00, R_x = 01, R_y = 10, R_z = 11: a
    # product of two labels is the XOR of their indices
    table = [[labels[i ^ j] for j in range(4)] for i in range(4)]
    return GroupTable(labels, table)


@functools.cache
def _aklt_actions():
    """Physical and ancilla action of each element of :func:`aklt_group`.

    u_g is the pi rotation R_g (1 for the identity). Each Kraus operator K
    of the family's channel is a charge eigenoperator, u_g K u_g^dag = c K,
    so the Stinespring environment picks up ua_g = diag(conj(c)) in the
    Kraus basis, the same for every p. Built once per process; the arrays
    are read-only and shared, and each model gets its own dict.
    """
    ops = spin1_operators()
    actions = {}
    for g in aklt_group().labels:
        u = ops["S_0"] if g == "1" else ops[g]
        rotation = SymmetryAction(element=g, u=u, ua=None)  # endpoint_charge reads u only
        ua = np.diag([endpoint_charge(k, rotation) for k in _aklt_kraus_basis()]).conj()
        ua.flags.writeable = False
        actions[g] = replace(rotation, ua=ua)
    return actions


@dataclass
class Model:
    """A purified site tensor bundled with its symmetry data.

    ``actions`` maps each group element label to its on-site
    :class:`SymmetryAction`. ``channel`` records the dilated noise channel
    when known (the built-in family keeps it; a model file may carry it).
    """

    lpdo: LpdoTensor
    group: GroupTable
    actions: dict
    channel: KrausChannel | None = None

    def action(self, g):
        try:
            return self.actions[g]
        except KeyError:
            raise KeyError(f"no symmetry action for group element {g!r}") from None


def build_aklt_model(p):
    """Decohered AKLT chain at noise rate p, with its Z2 x Z2 action; its maps are
    (1 - p) T(B_0) + p T(B_1) of the family's parts (:func:`_aklt_family`). This is the
    stack of one of :func:`_aklt_models`."""
    return _aklt_models([p])[0]


def _aklt_models(p_values):
    """:func:`build_aklt_model` at each of ``p_values``: the Kraus weights as one broadcast and the
    tensors as one einsum, each bit for bit the same in any stack, which the tensors keep
    (:func:`~weaksym.numerics._split`). The first p outside [0, 1] raises."""
    p = list(map(float, p_values))
    for x in p:
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"channel.p: expected 0 <= p <= 1, got {x}")
    kraus = np.sqrt([(1.0 - x, x, x, x) for x in p])[:, :, None, None] * _aklt_kraus_basis()
    tensors = np.einsum("kaij,jxy->kiaxy", kraus, _aklt_tensor())  # each row laid out as a tensor alone
    stack = np.ascontiguousarray(tensors.transpose(2, 0, 1, 3, 4)).transpose(1, 2, 0, 3, 4)  # as _stacked lays rows
    tensors.flags.writeable = stack.flags.writeable = False
    lpdos = _split({"tensor": stack}, LpdoTensor._of_rows(tensors, [((1.0 - x, x), _aklt_family) for x in p]))
    group, actions = aklt_group(), _aklt_actions()
    return [Model(lpdo, group, dict(actions), KrausChannel(k, p=x)) for lpdo, k, x in zip(lpdos, kraus, p)]


# --- serialization ---------------------------------------------------------

def _encode_array(m):
    """Nested lists of [re, im] pairs, one per entry."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_encode_array(row) for row in m]


def _decode_array(data, shape, path):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: expected nested [re, im] pairs") from None
    if arr.shape != shape + (2,):
        raise ValidationError(f"{path}: expected shape {shape + (2,)}, got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_model(model, path):
    """Write a model to the JSON interchange format (see README)."""
    lpdo = model.lpdo
    doc = {
        "d": lpdo.d,
        "da": lpdo.da,
        "D": lpdo.bond_dim,
        "tensor": _encode_array(lpdo.tensor),
        "group": {
            "elements": list(model.group.labels),
            "table": [list(row) for row in model.group.table],
        },
        "actions": [
            {
                "element": g,
                "u": _encode_array(model.actions[g].u),
                "ua": _encode_array(model.actions[g].ua),
            }
            for g in model.group.labels
        ],
    }
    if model.channel is not None:
        doc["channel"] = {
            "p": model.channel.p,
            "kraus": _encode_array(model.channel.kraus),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Load and validate a model from the JSON interchange format.

    Every structural invariant is checked on load: integer dimensions and
    their consistency, group axioms, one action per group element, unitarity
    of all symmetry actions (tolerance 1e-10), and trace preservation of the
    optional channel block (tolerance 1e-9).
    Violations raise :class:`ValidationError` naming the offending field.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"model file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"file: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError("file: expected a JSON object")

    for field in ("d", "da", "D", "tensor", "group", "actions"):
        if field not in doc:
            raise ValidationError(f"{field}: missing required field")
    d, da, dv = doc["d"], doc["da"], doc["D"]
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (d, da, dv)):
        raise ValidationError("d/da/D: expected integers")
    if min(d, da, dv) < 1:
        raise ValidationError("d/da/D: dimensions must be positive")

    lpdo = LpdoTensor(_decode_array(doc["tensor"], (d, da, dv, dv), "tensor"))

    grp = doc["group"]
    if not isinstance(grp, dict) or "elements" not in grp or "table" not in grp:
        raise ValidationError("group: expected an object with elements and table")
    if not isinstance(grp["elements"], list) or any(isinstance(g, (list, dict)) for g in grp["elements"]):
        raise ValidationError("group.elements: expected a list of labels")
    if not isinstance(grp["table"], list) or not all(isinstance(r, list) for r in grp["table"]):
        raise ValidationError("group.table: expected a list of rows")
    group = GroupTable(grp["elements"], grp["table"])

    actions = {}
    if not isinstance(doc["actions"], list):
        raise ValidationError("actions: expected a list")
    for idx, entry in enumerate(doc["actions"]):
        where = f"actions[{idx}]"
        if not isinstance(entry, dict) or "element" not in entry:
            raise ValidationError(f"{where}: expected an object with an element label")
        g = entry["element"]
        if g not in group.labels:
            raise ValidationError(f"{where}.element: unknown group element {g!r}")
        if g in actions:
            raise ValidationError(f"{where}.element: second entry for group element {g!r}")
        u = _decode_array(entry.get("u"), (d, d), f"{where}.u")
        ua = _decode_array(entry.get("ua"), (da, da), f"{where}.ua")
        act = SymmetryAction(element=g, u=u, ua=ua)
        act.validate(path=where)
        actions[g] = act
    missing = [g for g in group.labels if g not in actions]
    if missing:
        raise ValidationError(f"actions: missing entries for {missing}")

    channel = None
    if "channel" in doc:
        ch = doc["channel"]
        if not isinstance(ch, dict) or not isinstance(ch.get("kraus"), list):
            raise ValidationError("channel: expected an object with a kraus list")
        kraus = _decode_array(ch["kraus"], (len(ch["kraus"]), d, d), "channel.kraus")
        channel = KrausChannel(kraus, p=ch.get("p"))
        channel.validate()

    return Model(lpdo=lpdo, group=group, actions=actions, channel=channel)
