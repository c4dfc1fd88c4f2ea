"""Closed forms of the decohered AKLT family and checkers for CLI output.

Every output the benchmark reads is classified as one of

* ``ok``    -- matches its closed form within tolerance, or is refused with
  the expected flag where the closed form is undefined;
* ``fail``  -- no usable answer where the closed form is finite: a
  non-finite value, an ``*_undefined`` flag, exit code 3, a numpy
  RuntimeWarning, a fitted exponent that misses 1e-6 but stays within the
  fit's own noise level (1e-3), or a value computed through the subnormal
  range of doubles;
* ``wrong`` -- an answer that contradicts the closed form, a failed
  ``verify`` check, a malformed output or an unexpected exit code.

``fail`` and ``wrong`` both count as failed outputs; only ``wrong`` makes a
run incorrect, so the known floating-point range failures of the parent
program are reported rather than hidden or treated as wrong answers.
"""

import math
import re
from collections import Counter

OK, FAIL, WRONG = "ok", "fail", "wrong"

TINY = 2.2250738585072014e-308  # smallest normal double
RESPONSE_TOL = 1e-8
GAP_TOL = 1e-9
STRING_ATOL = 1e-10
STRING_RTOL = 1e-8
XI_TOL = 1e-6  # the acceptance tolerance of `verify`
XI_NOISE = 1e-3  # the fit's own noise threshold (stringorder.NOISE_RESIDUAL)
RING_MARGIN = 40  # N - l - 2 >= 40 makes the (-1/3)^(N-l-2) ring terms negligible

VERIFY_SECTIONS = (
    "transfer tables",
    "symmetry gaps",
    "responses",
    "string order",
    "decay exponents",
    "dense oracle",
    "structural identities",
    "pure-state limit",
)
SWEEP_HEADER = "p,reQxz,imQxz,reQyz,imQyz,gap_z,abs_sn_x,abs_sn_y,xi_x,xi_y,flags"
STRING_HEADER = "l,re_raw,im_raw,re_norm,im_norm"


class Tally:
    """Counts of classified outputs, with the reason for every non-ok one."""

    def __init__(self):
        self.kinds = Counter()
        self.reasons = Counter()

    def add(self, kind, reason=""):
        self.kinds[kind] += 1
        if kind != OK:
            self.reasons[f"{kind}: {reason}"] += 1

    @property
    def attempted(self):
        return sum(self.kinds.values())

    @property
    def failed(self):
        return self.kinds[FAIL] + self.kinds[WRONG]


# --- closed forms ------------------------------------------------------------

def tz_eigenvalues(p):
    """Spectrum of the R_z-twisted transfer matrix (verify.aklt_tz_eigenvalues)."""
    return ((3 - 4 * p) / 3, (4 * p - 1) / 3, -1 / 3, -1 / 3)


def lead_modulus(p):
    return max(abs(v) for v in tz_eigenvalues(p))


def gap_z(p):
    return abs(2 - 4 * p) / 3


def string_amplitude(p):
    return (2 * (1 - p) / 3) ** 2


def string_ratio(p, chi):
    """Ratio of the single geometric channel of the chi string, g2 = R_z."""
    return -1 / 3 if chi == "sx" else (4 * p - 1) / 3


def decay_exponent(p, chi):
    """xi = -ln|ratio|, or None where the string vanishes identically."""
    r = string_ratio(p, chi)
    if string_amplitude(p) == 0 or r == 0:
        return None
    return -math.log(abs(r))


def _signed_power(coef, ratio, length, log_shift=0.0):
    """coef * ratio**length * exp(-log_shift), evaluated in log space."""
    if coef == 0 or (ratio == 0 and length > 0):
        return 0.0
    sign = math.copysign(1.0, coef) * (math.copysign(1.0, ratio) ** length if length else 1.0)
    log_mag = math.log(abs(coef)) + (length * math.log(abs(ratio)) if length else 0.0) - log_shift
    return sign * math.exp(log_mag) if log_mag > -745 else 0.0


def thermo_string(p, chi, length):
    """(raw, normalized) thermodynamic string S(l) = -A r^l, normalized by lambda0^l."""
    a, r, lam = string_amplitude(p), string_ratio(p, chi), lead_modulus(p)
    raw = _signed_power(-a, r, length)
    norm = _signed_power(-a, r / lam, length)
    return raw, norm


def ring_log_charge(p, n_sites):
    """ln|Tr T(R_z)^N| without forming the power."""
    lam = lead_modulus(p)
    total = sum((v / lam) ** n_sites for v in tz_eigenvalues(p))
    return n_sites * math.log(lam) + math.log(abs(total))


def ring_string(p, chi, length, n_sites):
    """(raw, normalized) ring string for N - l - 2 >= RING_MARGIN.

    The identity stretch T(1)^(N-l-2) equals the leading projector up to
    (1/3)^(N-l-2), so the raw value is the thermodynamic one; the ring
    normalization divides by |Tr T(R_z)^N|^(l/N).
    """
    a, r = string_amplitude(p), string_ratio(p, chi)
    raw = _signed_power(-a, r, length)
    norm = _signed_power(-a, r, length, log_shift=length * ring_log_charge(p, n_sites) / n_sites)
    return raw, norm


def aklt_response(p, g1):
    """Thermodynamic e^{iQ(g1, R_z)} of the AKLT family (verify's closed forms).

    -1 for g1 = R_x; for g1 = R_y, -1 below and +1 above p = 1/2. None at
    p = 1/2, where T(R_z) is gapless and the response is undefined.
    """
    if p == 0.5:
        return None
    return -1.0 if g1 == "R_x" or p < 0.5 else 1.0


def generic_gap(p, mu1):
    """Gap of T_AKLT(R_z) (x) E, where E has leading eigenvalue 1 and |mu1| next."""
    mods = sorted((abs(v) for v in tz_eigenvalues(p)), reverse=True)
    return mods[0] - max(mods[1], mods[0] * mu1)


# --- classification helpers --------------------------------------------------

def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def classify_value(got, expected, atol, rtol=0.0):
    if not _finite(got):
        return FAIL
    return OK if abs(got - expected) <= atol + rtol * abs(expected) else WRONG


def classify_exponent(got, expected):
    if not _finite(got):
        return FAIL
    err = abs(got - expected) / abs(expected)
    if err <= XI_TOL:
        return OK
    return FAIL if err <= XI_NOISE else WRONG


def classify_status(rc, warned):
    """The invocation itself: exit code 0 and no numpy RuntimeWarning.

    Every benchmarked quantity is defined, so exit 3 is a failed output.
    """
    if rc == 0:
        return (FAIL, "RuntimeWarning") if warned else (OK, "")
    if rc == 3:
        return FAIL, "exit 3 on a defined quantity"
    return WRONG, f"exit {rc}"


# --- per-command checkers ----------------------------------------------------

_CHECK_RE = re.compile(r"^(PASS|FAIL)  \[([^\]]+)\] (.+): worst (\S+) vs tol (\S+)(  \((.*)\))?$")
_SUMMARY_RE = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(out, tally, sections=None, n_checks=None):
    """`verify` report: every check PASS, summary consistent.

    ``sections`` (a set) must equal the sections printed; ``n_checks``, when
    given, is the expected number of checks. Returns the number of checks.
    """
    lines = out.rstrip("\n").split("\n")
    summary = _SUMMARY_RE.match(lines[-1])
    rows = [_CHECK_RE.match(line) for line in lines[:-1]]
    if summary is None or any(m is None for m in rows):
        tally.add(WRONG, "verify: malformed report")
        return 0
    for m in rows:
        if m.group(1) == "FAIL":
            tally.add(WRONG, f"verify FAIL [{m.group(2)}] {m.group(3)}")
        elif m.group(7) and m.group(7).startswith("skipped"):
            tally.add(FAIL, f"verify skipped [{m.group(2)}] {m.group(3)}")
        else:
            tally.add(OK)
    n_pass = sum(m.group(1) == "PASS" for m in rows)
    printed = {m.group(2) for m in rows}
    if (int(summary.group(1)), int(summary.group(2))) != (n_pass, len(rows)):
        tally.add(WRONG, "verify: summary disagrees with the check lines")
    if sections is not None and printed != set(sections):
        tally.add(WRONG, f"verify: sections {sorted(printed)}")
    if n_checks is not None and len(rows) != n_checks:
        tally.add(WRONG, f"verify: {len(rows)} checks, expected {n_checks}")
    return len(rows)


def sweep_grid(p_min, p_max, steps):
    """The p values `sweep --steps N` (N >= 2) evaluates, computed as the CLI does."""
    span = p_max - p_min
    return [p_min + i * span / (steps - 1) for i in range(steps)]


def _check_sweep_row(p, f, flags, n_sites, length, tally):
    nan_q = not _finite(f["reQxz"], f["imQxz"], f["reQyz"], f["imQyz"])
    for name, g1 in (("Qxz", "R_x"), ("Qyz", "R_y")):
        re_v, im_v = f[f"re{name}"], f[f"im{name}"]
        expected = aklt_response(p, g1)
        if expected is None:
            ok = nan_q and "gapless_thermo" in flags
            tally.add(OK if ok else WRONG, f"sweep {name} at the transition")
            continue
        kind = classify_value(re_v, expected, RESPONSE_TOL)
        if kind == OK:
            kind = classify_value(im_v, 0.0, RESPONSE_TOL)
        tally.add(kind, f"sweep {name}")
    tally.add(classify_value(f["gap_z"], gap_z(p), GAP_TOL), "sweep gap_z")
    for tag in ("x", "y"):
        _, norm = ring_string(p, f"s{tag}", length, n_sites)
        tally.add(
            classify_value(f[f"abs_sn_{tag}"], abs(norm), STRING_ATOL, STRING_RTOL),
            f"sweep abs_sn_{tag}",
        )
        expected = decay_exponent(p, f"s{tag}")
        got = f[f"xi_{tag}"]
        if expected is None:
            ok = (got is not None and math.isnan(got)) and f"xi_{tag}_undefined" in flags
            tally.add(OK if ok else WRONG, f"sweep xi_{tag} where the string vanishes")
        else:
            tally.add(classify_exponent(got, expected), f"sweep xi_{tag}")


def check_sweep(out, grid, tally, n_sites=200, length=50):
    """CSV `sweep` output: 7 checked columns per row. Returns rows read."""
    lines = out.rstrip("\n").split("\n")
    if not lines or lines[0] != SWEEP_HEADER or len(lines) - 1 != len(grid):
        tally.add(WRONG, "sweep: malformed CSV")
        return 0
    cols = SWEEP_HEADER.split(",")
    for p, line in zip(grid, lines[1:]):
        parts = line.split(",")
        if len(parts) != len(cols) or parts[0] != f"{p:.17g}":
            tally.add(WRONG, "sweep: malformed row")
            continue
        f = {c: _parse_float(v) for c, v in zip(cols[:-1], parts[:-1])}
        flags = set(filter(None, parts[-1].split(";")))
        _check_sweep_row(p, f, flags, n_sites, length, tally)
    return len(grid)


def _check_string_row(parts, p, chi, length, n_sites, tally):
    raw_re, raw_im, norm_re, norm_im = (_parse_float(v) for v in parts[1:])
    if n_sites is None:
        exp_raw, exp_norm = thermo_string(p, chi, length)
        log_scale = length * math.log(lead_modulus(p))
    else:
        exp_raw, exp_norm = ring_string(p, chi, length, n_sites)
        log_scale = length * ring_log_charge(p, n_sites) / n_sites
    # Below the normal range the envelope itself has lost precision.
    subnormal = log_scale < math.log(TINY)
    scale = math.exp(log_scale) if log_scale > -745 else 0.0
    raw_ok = _finite(raw_re, raw_im) and (
        abs(raw_re - exp_raw) <= STRING_RTOL * scale + 1e-300 and abs(raw_im) <= STRING_RTOL * scale + 1e-300
    )
    kind = classify_value(norm_re, exp_norm, STRING_ATOL, STRING_RTOL)
    if kind == OK:
        kind = classify_value(norm_im, 0.0, STRING_ATOL)
    if kind == OK and not raw_ok:
        kind = WRONG
    if kind == WRONG and subnormal:
        kind = FAIL
    if not _finite(norm_re, norm_im):
        reason = "string row non-finite"
    else:
        reason = "string row" + (" (subnormal envelope)" if subnormal else "")
    tally.add(kind, reason)


_FOOTER_RE = re.compile(r"^# xi=(\S+) residual=(\S+) window=(\S+) flags=(.*)$")


def check_string(out, p, chi, lengths, tally, n_sites=None):
    """CSV `string` output: one output per length plus the fitted exponent."""
    lines = out.rstrip("\n").split("\n")
    lengths = list(lengths)
    footer = _FOOTER_RE.match(lines[-1]) if lines else None
    if not lines or lines[0] != STRING_HEADER or len(lines) != len(lengths) + 2 or footer is None:
        tally.add(WRONG, "string: malformed CSV")
        return 0
    for length, line in zip(lengths, lines[1:-1]):
        parts = line.split(",")
        if len(parts) != 5 or parts[0] != str(length):
            tally.add(WRONG, "string: malformed row")
            continue
        _check_string_row(parts, p, chi, length, n_sites, tally)
    expected = decay_exponent(p, chi)
    got = _parse_float(footer.group(1))
    if expected is None:
        ok = got is not None and math.isnan(got) and "xi_undefined" in footer.group(4)
        tally.add(OK if ok else WRONG, "string xi where the string vanishes")
    else:
        tally.add(classify_exponent(got, expected), "string xi")
    return len(lengths)


def check_string_refused(lengths, tally):
    """A `string` run that exited 3: every row and the exponent are missing."""
    for _ in lengths:
        tally.add(FAIL, "string row (refused)")
    tally.add(FAIL, "string xi (refused)")


_VALUE_RE = re.compile(r"^value: (\S+?)( \(snapped: (.+)\))?$")
_GAP_RE = re.compile(r"^gap: (\S+)$")
_MODE_RE = re.compile(r"^mode: (thermo|finite \(N=(\d+)\))$")


def check_response(out, expected, gap, n_sites, tally):
    """Text `response` output: value within 1e-8 of +-1, snapped label, gap, mode."""
    lines = out.rstrip("\n").split("\n")
    if len(lines) != 3:
        tally.add(WRONG, "response: malformed output")
        return
    mv, mg, mm = _VALUE_RE.match(lines[0]), _GAP_RE.match(lines[1]), _MODE_RE.match(lines[2])
    if not (mv and mg and mm):
        tally.add(WRONG, "response: malformed output")
        return
    try:
        value = complex(mv.group(1))
    except ValueError:
        tally.add(WRONG, "response: unparsable value")
        return
    want_mode = "thermo" if n_sites is None else f"finite (N={n_sites})"
    label = {1.0: "1", -1.0: "exp(i*pi)"}[expected]
    kind = classify_value(value.real, expected, RESPONSE_TOL)
    if kind == OK:
        kind = classify_value(value.imag, 0.0, RESPONSE_TOL)
    if kind == OK and (mv.group(3) != label or mm.group(1) != want_mode):
        kind = WRONG
    if kind == OK:
        kind = classify_value(_parse_float(mg.group(1)), gap, GAP_TOL)
    tally.add(kind, "response value")
