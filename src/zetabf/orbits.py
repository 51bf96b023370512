"""Periodic-orbit data for suspension flows over hyperbolic toral automorphisms.

Orbit counts are exact: fixed points of A^j on the 2-torus are counted as
|det(A^j - I)| with unbounded Python integers, primitive orbits come out of
Moebius inversion, and the exterior-power traces of the linearised Poincare
maps are integer recurrences.  A plain text format ingests externally
computed orbit spectra (e.g. geodesic length spectra) with validation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotHyperbolicError, ParseError, ValidationError

_MAX_POWER = 64   # guarded range for exact integer powers


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class ToralAutomorphism:
    """Hyperbolic element of GL(2,Z) with |det| = 1, plus a constant roof."""

    a11: int
    a12: int
    a21: int
    a22: int
    roof: float = 1.0

    def __post_init__(self):
        if abs(self.det) != 1:
            raise NotHyperbolicError(f"|det A| = {abs(self.det)} != 1")
        if abs(self.trace) <= 2:
            raise NotHyperbolicError(f"|tr A| = {abs(self.trace)} <= 2")
        if self.roof <= 0:
            raise ValueError("roof must be positive")

    @classmethod
    def from_matrix(cls, matrix, roof: float = 1.0) -> "ToralAutomorphism":
        m = np.asarray(matrix)
        if m.shape != (2, 2):
            raise NotHyperbolicError(f"A must be 2x2, got shape {m.shape}")
        vals = [int(x) for x in m.ravel()]
        if any(float(v) != float(x) for v, x in zip(vals, np.ravel(m))):
            raise NotHyperbolicError("A must have integer entries")
        return cls(vals[0], vals[1], vals[2], vals[3], roof=roof)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    @property
    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def trace(self) -> int:
        return self.a11 + self.a22

    @property
    def expanding_eigenvalue(self) -> float:
        """The eigenvalue of modulus > 1."""
        t, d = self.trace, self.det
        disc = math.sqrt(t * t - 4 * d)
        roots = ((t + disc) / 2.0, (t - disc) / 2.0)
        return max(roots, key=abs)

    @property
    def contracting_eigenvalue(self) -> float:
        return self.det / self.expanding_eigenvalue

    def powers(self, j_max: int):
        """Exact entries of A^1, ..., A^j_max (Python integers), one product each."""
        m = (1, 0, 0, 1)
        e, f, g, h = self.a11, self.a12, self.a21, self.a22
        for _ in range(j_max):
            a, b, c, d = m
            m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            yield m

    def power(self, j: int) -> Tuple[int, int, int, int]:
        """Exact entries of A^j (Python integers, j >= 0)."""
        if not 0 <= j <= _MAX_POWER:
            raise ValueError(f"power {j} outside guarded range [0, {_MAX_POWER}]")
        m = (1, 0, 0, 1)
        for m in self.powers(j):
            pass
        return m

    def trace_power(self, j: int) -> int:
        """tr(A^j) by the exact recurrence t_j = t*t_(j-1) - det*t_(j-2)."""
        if j == 0:
            return 2
        t, d = self.trace, self.det
        prev, cur = 2, t
        for _ in range(j - 1):
            prev, cur = cur, t * cur - d * prev
        return cur


def _fixed_points(m: Tuple[int, int, int, int]) -> int:
    """|det(M - I)| of the 2x2 integer matrix with entries m."""
    a, b, c, d = m
    return abs((a - 1) * (d - 1) - b * c)


def count_fixed_points(aut: ToralAutomorphism, j: int) -> int:
    """|det(A^j - I)| in exact integer arithmetic (Lefschetz count)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return _fixed_points(aut.power(j))


@dataclass(frozen=True)
class OrbitRecord:
    """One group of primitive orbits sharing length, holonomy and linearisation.

    ``period`` is the primitive period of a suspension orbit, its turns round
    the suspension direction, so theta twists it by e^(i theta period);
    file-based records carry an explicit holonomy instead, a complex number.
    """

    length: float
    count: int
    eig_expanding: float
    eig_contracting: float
    holonomy: Optional[complex] = None
    period: Optional[int] = None

    def __post_init__(self):
        for name in ("length", "eig_expanding", "eig_contracting", "holonomy"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ValidationError(name, f"must be finite, got {value}")
        if self.length <= 0:
            raise ValidationError("length", f"must be positive, got {self.length}")
        if self.count < 1:
            raise ValidationError("count", f"must be >= 1, got {self.count}")
        prod = self.eig_expanding * self.eig_contracting
        if abs(abs(prod) - 1.0) > 1e-6:
            raise ValidationError(
                "poincare_eigs", f"eigenvalue product {prod} not of modulus 1"
            )
        if not abs(self.eig_contracting) < 1.0 < abs(self.eig_expanding):
            raise ValidationError(
                "poincare_eigs", "need |eig_contracting| < 1 < |eig_expanding|, got "
                f"{self.eig_expanding} and {self.eig_contracting}"
            )
        if self.holonomy is not None:      # one type for every holonomy
            object.__setattr__(self, "holonomy", complex(self.holonomy))
        if self.holonomy is not None and abs(abs(self.holonomy) - 1.0) > 1e-9:
            raise ValidationError("holonomy", f"|holonomy| = {abs(self.holonomy)} != 1")
        if self.holonomy is None and self.period is None:
            raise ValidationError("holonomy", "record needs a holonomy or a period")


@dataclass(frozen=True)
class OrbitData:
    """A set of primitive-orbit records, with provenance.

    ``aut`` is set for complete suspension spectra, in which case sharp
    collapsed tail bounds (via the Lefschetz counts) are available.
    ``complete_to``, required with ``aut``, is the period up to which the records
    are complete; the certificate of ``zetabf.zeta`` reads it.
    """

    records: Tuple[OrbitRecord, ...]
    aut: Optional[ToralAutomorphism] = None
    complete_to: Optional[int] = None

    def __post_init__(self):
        if self.aut is not None and self.complete_to is None:
            raise ValidationError("complete_to", "required for a suspension spectrum")

    @property
    def is_suspension(self) -> bool:
        return self.aut is not None

    @cached_property
    def term_tables(self) -> dict:
        """The orbit-term tables of ``zetabf.zeta``, one per truncation J."""
        return {}

    @cached_property
    def record_tails(self):
        """The per-record tail arrays of ``zetabf.zeta``, built on first use."""
        from .zeta import RecordTails
        return RecordTails(self.records)


def enumerate_primitive_orbits(aut: ToralAutomorphism, j_max: int) -> List[OrbitRecord]:
    """Primitive-orbit records for periods <= j_max via Moebius inversion.

    The counts N(j) satisfy sum_(d|j) d*N(d) = |det(A^j - I)| exactly.  The
    fixed-point counts |det(A^j - I)| read one sweep of exact powers
    A^j = A^(j-1) A, j = 1..j_max, rather than a fresh power per j as
    ``count_fixed_points`` forms it.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > _MAX_POWER:
        raise ValidationError("J", f"periods above {_MAX_POWER} leave the guarded "
                                   f"range of exact powers, got {j_max}")
    fixed = {j: _fixed_points(m) for j, m in enumerate(aut.powers(j_max), start=1)}
    mu = aut.expanding_eigenvalue
    records = []
    for j in range(1, j_max + 1):
        total = sum(_mobius(j // d) * fixed[d] for d in _divisors(j))
        if total % j != 0:
            raise ZeroDivisionError("Moebius inversion produced a non-integer count")
        n_j = total // j
        if n_j == 0:
            continue
        records.append(OrbitRecord(
            length=j * aut.roof,
            count=n_j,
            eig_expanding=mu ** j,
            eig_contracting=(aut.det / mu) ** j,
            period=j,
        ))
    return records


def suspension_orbits(aut: ToralAutomorphism, j_max: int) -> OrbitData:
    return OrbitData(tuple(enumerate_primitive_orbits(aut, j_max)),
                     aut=aut, complete_to=j_max)


def poincare_data(aut: ToralAutomorphism, j: int, k: int) -> Tuple[int, int]:
    """(tr Lambda^k P^j, det(I - P^j)) as exact integers, with the per-orbit
    identity (-1)^n |det(I - P^j)| = sum_k (-1)^k tr Lambda^k P^j verified."""
    if not 0 <= k <= 2:
        raise ValueError("k must be in {0, 1, 2}")
    t_j = aut.trace_power(j)
    det_j = aut.det ** j
    traces = (1, t_j, det_j)
    det_i_minus = 1 - t_j + det_j
    alternating = traces[0] - traces[1] + traces[2]
    # n = 1 for the 3-dimensional suspension; exact in integer arithmetic.
    if alternating != -abs(det_i_minus):   # pragma: no cover
        raise AssertionError("per-orbit linear-algebra identity failed")
    return traces[k], det_i_minus


# -- orbit-spectrum file format -------------------------------------------------

_HEADER = "# zetabf orbit spectrum v1: length primitive_flag hol_re hol_im eig1 eig2 count"


def g17(x: float) -> str:
    """The package's one number format: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


def write_orbit_spectrum(path, records: Sequence[OrbitRecord],
                         theta: Optional[float] = None):
    """Canonical writer; rows sorted by (length, holonomy phase).

    Suspension records carry a period rather than a holonomy; pass ``theta``
    to materialise it as e^(i*theta*period).
    """
    rows = []
    materialised = []
    for r in records:
        h = r.holonomy
        if h is None:
            if theta is None:
                raise ValidationError("holonomy",
                                      "period-only record needs theta to be written")
            h = complex(np.exp(1j * theta * r.period))
        materialised.append((r, h))
    for r, h in sorted(materialised, key=lambda p: (p[0].length, np.angle(p[1]))):
        rows.append(" ".join([
            g17(r.length), "1", g17(h.real), g17(h.imag),
            g17(r.eig_expanding), g17(r.eig_contracting), str(r.count),
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))


def load_orbit_spectrum(path) -> OrbitData:
    """Parse and validate an orbit-spectrum file; exact duplicates merge."""
    records: List[OrbitRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) != 7:
                raise ParseError(lineno, f"expected 7 fields, got {len(fields)}")
            try:
                length = float(fields[0])
                flag = int(fields[1])
                hol = complex(float(fields[2]), float(fields[3]))
                eig1 = float(fields[4])
                eig2 = float(fields[5])
                count = int(fields[6])
            except ValueError as exc:
                raise ParseError(lineno, f"malformed number: {exc}")
            if flag != 1:
                raise ValidationError("primitive_flag",
                                      "only primitive records are supported")
            records.append(OrbitRecord(length=length, count=count,
                                       eig_expanding=eig1, eig_contracting=eig2,
                                       holonomy=hol))
    # insertion order keeps each merged record where it first appeared
    merged: Dict[Tuple[float, complex, float, float], OrbitRecord] = {}
    for rec in records:
        key = (rec.length, rec.holonomy, rec.eig_expanding, rec.eig_contracting)
        prev = merged.get(key)
        merged[key] = rec if prev is None else replace(prev, count=prev.count + rec.count)
    return OrbitData(tuple(merged.values()))
