"""Periodic-orbit data for suspension flows over hyperbolic toral automorphisms.

Orbit counts are exact: fixed points of A^j on the 2-torus are counted as
|det(A^j - I)| with unbounded Python integers, primitive orbits come out of
the divisor-sum recursion j N(j) = F(j) - sum_(d|j, d<j) d N(d), and the
exterior-power traces of the linearised Poincare maps are read off exact
powers of A.  A plain text format ingests externally computed orbit spectra
(e.g. geodesic length spectra) with validation.  Each group of orbits is an
``OrbitRecord``, a tuple of its fields checked when it is built, since a
spectrum holds thousands of them.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NotHyperbolicError, ParseError, ValidationError

_MAX_POWER = 64   # guarded range for exact integer powers

# Transverse unstable/stable rank of the 3-dimensional suspension model.
TRANSVERSE_RANK = 1


def form_degree(k: int) -> int:
    """k, checked to be a form degree of the transverse bundle: an integer in
    [0, 2 * TRANSVERSE_RANK], else ValidationError."""
    if not (isinstance(k, numbers.Integral) and 0 <= k <= 2 * TRANSVERSE_RANK):
        raise ValidationError("k", f"must be an integer in [0, {2 * TRANSVERSE_RANK}], "
                                   f"got {k!r}")
    return k


@dataclass(frozen=True)
class ToralAutomorphism:
    """Hyperbolic element of GL(2,Z) with |det| = 1, plus a constant roof.
    The entries are integers, numpy's included and kept as Python integers,
    and the roof is positive and finite, else ValidationError."""

    a11: int
    a12: int
    a21: int
    a22: int
    roof: float = 1.0

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22"):
            entry = getattr(self, name)
            if not isinstance(entry, numbers.Integral):
                raise ValidationError(name, f"must be an integer, got {entry!r}")
            # a numpy integer would run the exact counts in int64, which wraps
            object.__setattr__(self, name, int(entry))
        if abs(self.det) != 1:
            raise NotHyperbolicError(f"|det A| = {abs(self.det)} != 1")
        if abs(self.trace) <= 2:
            raise NotHyperbolicError(f"|tr A| = {abs(self.trace)} <= 2")
        if not (isinstance(self.roof, numbers.Real) and math.isfinite(self.roof)
                and self.roof > 0):
            raise ValidationError("roof", "must be a positive finite real number, "
                                          f"got {self.roof!r}")

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
        """Exact entries of A^j (Python integers); a j that is not an integer
        in [0, 64] raises ValidationError."""
        if not (isinstance(j, numbers.Integral) and 0 <= j <= _MAX_POWER):
            raise ValidationError("j", f"power {j!r} outside guarded range [0, {_MAX_POWER}]")
        m = (1, 0, 0, 1)
        for m in self.powers(j):
            pass
        return m


def _fixed_points(m: Tuple[int, int, int, int]) -> int:
    """|det(M - I)| of the 2x2 integer matrix with entries m."""
    a, b, c, d = m
    return abs((a - 1) * (d - 1) - b * c)


def count_fixed_points(aut: ToralAutomorphism, j: int) -> int:
    """|det(A^j - I)| in exact integer arithmetic (Lefschetz count); j
    outside [1, 64] raises ValidationError."""
    if j < 1:
        raise ValidationError("j", f"must be >= 1, got {j}")
    return _fixed_points(aut.power(j))


class OrbitRecord(namedtuple("_OrbitFields", "length count eig_expanding eig_contracting "
                                             "holonomy period")):
    """One group of primitive orbits sharing length, holonomy and linearisation.

    A named tuple that is validated when it is made: the constructor, and so
    ``_make``, ``_replace``, copies and pickles, run the checks.  It costs
    about two thirds of what a frozen dataclass does to build, and a
    spectrum holds thousands.  Equal records are equal tuples, equal also to the plain tuple
    of their fields, and hash alike.

    The length and the Poincare eigenvalues are finite real numbers and the
    count an integer, so every record the writer writes its reader takes.
    ``period`` is the primitive period of a suspension orbit, a positive
    integer: its turns round the suspension direction, so theta twists it by
    e^(i theta period); file-based records carry an explicit holonomy
    instead, a complex number.
    """

    __slots__ = ()

    def __new__(cls, length: float, count: int, eig_expanding: float,
                eig_contracting: float, holonomy: Optional[complex] = None,
                period: Optional[int] = None):
        for name, value in (("length", length), ("eig_expanding", eig_expanding),
                            ("eig_contracting", eig_contracting)):
            # numbers.Real refuses complex numbers, numpy's too; a float skips
            # that slower check
            if type(value) is not float and not isinstance(value, numbers.Real):
                raise ValidationError(name, f"must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValidationError(name, f"must be finite, got {value}")
        if holonomy is not None and not cmath.isfinite(holonomy):
            raise ValidationError("holonomy", f"must be finite, got {holonomy}")
        if length <= 0:
            raise ValidationError("length", f"must be positive, got {length}")
        if type(count) is not int and not isinstance(count, numbers.Integral):
            # the file format writes and reads counts as integers
            raise ValidationError("count", f"must be an integer, got {count!r}")
        if count < 1:
            raise ValidationError("count", f"must be >= 1, got {count}")
        prod = eig_expanding * eig_contracting
        if abs(abs(prod) - 1.0) > 1e-6:
            raise ValidationError(
                "poincare_eigs", f"eigenvalue product {prod} not of modulus 1"
            )
        if not abs(eig_contracting) < 1.0 < abs(eig_expanding):
            raise ValidationError(
                "poincare_eigs", "need |eig_contracting| < 1 < |eig_expanding|, got "
                f"{eig_expanding} and {eig_contracting}"
            )
        if holonomy is not None:      # one type for every holonomy
            holonomy = complex(holonomy)
            if abs(abs(holonomy) - 1.0) > 1e-9:
                raise ValidationError("holonomy", f"|holonomy| = {abs(holonomy)} != 1")
        elif period is None:
            raise ValidationError("holonomy", "record needs a holonomy or a period")
        if period is not None and not (isinstance(period, numbers.Integral)
                                       and period >= 1):
            raise ValidationError("period", f"must be a positive integer, got {period!r}")
        return tuple.__new__(cls, (length, count, eig_expanding, eig_contracting,
                                   holonomy, period))

    @classmethod
    def _make(cls, fields) -> "OrbitRecord":
        return cls(*fields)

    def holonomy_at(self, theta: float) -> complex:
        """The holonomy under the twist theta: the stored one, or
        e^(i theta period) for a suspension record."""
        if self.holonomy is None:
            return cmath.exp(1j * theta * self.period)
        return self.holonomy


@dataclass(frozen=True)
class OrbitData:
    """A set of primitive-orbit records, with provenance.

    ``aut`` is set for complete suspension spectra, in which case sharp
    collapsed tail bounds (via the Lefschetz counts) are available.
    ``complete_to``, required with ``aut``, is the period up to which the records
    are complete; the certificate of ``zetabf.zeta`` reads it.  The one
    cache is ``term_tables``, the orbit-term tables of ``zetabf.zeta`` keyed
    by truncation J, a plain dict so that this module imports nothing to hold
    them.
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


def enumerate_primitive_orbits(aut: ToralAutomorphism, j_max: int) -> List[OrbitRecord]:
    """Primitive-orbit records for periods <= j_max by the divisor-sum recursion.

    The counts N(j) satisfy sum_(d|j) d*N(d) = F(j) = |det(A^j - I)| exactly,
    so j N(j) = F(j) - sum_(d|j, d<j) d N(d); each j N(j), once known, is
    added into the sums of its multiples.  The fixed-point counts F(j) read
    one sweep of exact powers A^j = A^(j-1) A, j = 1..j_max, rather than a
    fresh power per j as ``count_fixed_points`` forms it.  A period whose
    eigenvalue power mu^j leaves the float range is a ValidationError of J
    that names it.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > _MAX_POWER:
        raise ValidationError("J", f"periods above {_MAX_POWER} leave the guarded "
                                   f"range of exact powers, got {j_max}")
    mu = aut.expanding_eigenvalue
    proper = [0] * (j_max + 1)    # sum_(d|j, d<j) d N(d), filled in as d passes
    records = []
    for j, m in enumerate(aut.powers(j_max), start=1):
        rest = _fixed_points(m) - proper[j]
        if rest % j != 0:
            raise ZeroDivisionError("divisor-sum recursion produced a non-integer count")
        for multiple in range(2 * j, j_max + 1, j):
            proper[multiple] += rest
        n_j = rest // j
        if n_j == 0:
            continue
        try:
            mu_j = mu ** j
        except OverflowError:
            raise ValidationError("J", f"at period {j} the eigenvalue power "
                                       f"{mu!r}^{j} overflows a float") from None
        records.append(OrbitRecord(j * aut.roof, n_j, mu_j, (aut.det / mu) ** j, period=j))
    return records


def suspension_orbits(aut: ToralAutomorphism, j_max: int) -> OrbitData:
    return OrbitData(tuple(enumerate_primitive_orbits(aut, j_max)),
                     aut=aut, complete_to=j_max)


def poincare_data(aut: ToralAutomorphism, j: int, k: int) -> Tuple[int, int]:
    """(tr Lambda^k P^j, det(I - P^j)) as exact integers.  P^j is read off
    the exact power A^j, so j outside [0, 64] raises ValidationError, as
    does a k that is not a form degree."""
    k = form_degree(k)
    a, _, _, d = aut.power(j)
    t_j, det_j = a + d, aut.det ** j
    return (1, t_j, det_j)[k], 1 - t_j + det_j


# -- orbit-spectrum file format -------------------------------------------------

_HEADER = "# zetabf orbit spectrum v1: length primitive_flag hol_re hol_im eig1 eig2 count"


def g17(x: float) -> str:
    """The package's one number format: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


def content_lines(path) -> Iterator[Tuple[int, str]]:
    """(line number, line) for each line of the UTF-8 file at ``path`` that is
    neither blank nor a ``#`` comment: the scanner of all three text formats.
    The file is read and closed before the first line is yielded, so a reader
    that stops at a bad line leaves no file open."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def write_orbit_spectrum(path, records: Sequence[OrbitRecord],
                         theta: Optional[float] = None):
    """Canonical writer; rows sorted by (length, holonomy phase).

    Suspension records carry a period rather than a holonomy; pass ``theta``
    to materialise it as ``OrbitRecord.holonomy_at(theta)``.
    """
    if theta is None and any(r.holonomy is None for r in records):
        raise ValidationError("holonomy", "period-only record needs theta to be written")
    holonomies = [r.holonomy_at(theta) for r in records]
    # np.angle of the whole array is bit for bit np.angle of each scalar;
    # cmath.phase, libm's atan2, differs from numpy's in the last bit on some
    # machines, which would reorder rows whose phases are an ulp apart
    phases = np.angle(np.array(holonomies, dtype=complex)).tolist()
    order = sorted(range(len(records)), key=lambda i: (records[i].length, phases[i]))
    rows = [" ".join([g17(r.length), "1", g17(h.real), g17(h.imag),
                      g17(r.eig_expanding), g17(r.eig_contracting), str(r.count)])
            for r, h in ((records[i], holonomies[i]) for i in order)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))


def load_orbit_spectrum(path) -> OrbitData:
    """Parse and validate an orbit-spectrum file; exact duplicates merge."""
    # insertion order keeps each merged record where it first appeared
    merged: Dict[Tuple[float, complex, float, float], OrbitRecord] = {}
    for lineno, line in content_lines(path):
        fields = line.split()
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
            raise ValidationError("primitive_flag", "only primitive records are supported",
                                  line=lineno)
        try:
            rec = OrbitRecord(length, count, eig1, eig2, hol)
        except ValidationError as exc:
            raise ValidationError(exc.field, exc.detail, line=lineno) from None
        key = (length, hol, eig1, eig2)
        prev = merged.get(key)
        merged[key] = rec if prev is None else prev._replace(count=prev.count + count)
    return OrbitData(tuple(merged.values()))
