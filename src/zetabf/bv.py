"""Finite-dimensional BV engine for abelian BF theory.

The field space doubles an acyclic twisted complex: A components live in the
complex itself with degree 1 - k, B components in the dual complex (slot k
pairs canonically with the degree-k A component, carrying degree k - 2), so
the odd symplectic pairing is perfect by construction.  Gauge subspaces come
in two kinds, the metric gauge cut out by coexactness and the contraction
gauge cut out by a square-zero degree -1 map iota, and one constructor builds
both: per degree k the A side is a subspace K^k of C^k, the B side is its
annihilator conj(K^perp) in the dual slot, and B is parametrised through one
map (d for the metric gauge, the complement injection a for a contraction).
The declared complement of a gauge is its side swap and is not stored.
Partition functions are superdeterminants of the gauge-restricted action,
corrected by the declared parametrisation Jacobian (|sdet d*| for the metric
parametrisation B = d* eta, and 1 for normalised contractions).  The BF
action S = sum_k B_(k+1)(d_k A_k) enters only through those restrictions,
``restricted_action_blocks``.  ``gauge_polarization`` gives a gauge's
``DarbouxChart``, whose variable table is built once, from ``a_degrees``.

Everything here reads the base complex's stored differentials, which
``TwistedComplex`` keeps in their isometric presentation, and the Reeb
contraction of a mapping torus reads the complex's ``suspension`` pairs, which
``build_twisted_complex`` carries from the cell complex at any rank.

Shared factorisations: the metric gauge and the Hodge contraction, its
iota and its kernel splits, read the same exact/coexact bases
(``TwistedComplex.hodge_bases``, one SVD with vectors per differential, cut
at the rank of the complex's spectral record), and random contractions take
their ranks from that record.  A contraction reads its degree dimensions off
the shapes of iota, validates itself once, on construction, and carries its
kernel splits: per degree the kernel of iota_k and its orthogonal
complement, which its validation and gauge read.  Every constructor builds
iota and hands over its splits, and a contraction derives a = iota^dagger
itself and checks the splits by matrix products alone: the Hodge contraction
the coexact/exact bases, the Reeb contraction coordinate columns, a random
contraction the Haar-random splits it is drawn from, a homotopy family the
Hodge splits rotated by the unitaries that rotate its iota.  No contraction
factorises iota_k or its kernel to find its split.  The restricted action
blocks are L = iota d + d iota on ker iota (for a Reeb contraction, the zeta
factors); their SVDs and those of ``is_lagrangian``'s basis Grams are the
checks that the gauge-fixed side reproduces the torsion.  The metric gauge's
blocks (d_k c_k)* d_k c_k, c_k the record's coexact basis, have the record's
kept s_i^2 as singular values; ``nonzero_mask`` cuts only what the record
does not fix, the contraction gauges' blocks.

Stacked draws and scans: every map of a contraction may carry one leading
sample axis, and the contraction, its gauge, ``partition_function`` and
``is_lagrangian`` then work per member in the same code, through stacked
products, SVDs (LAPACK runs once per member, as for a lone matrix) and 1-D
per-member sums.  ``random_contraction(..., samples=N)`` draws N random
contractions as one stack, with the RNG calls in the lone calls' order and
one stacked QR per Haar slot.  ``homotopy_scan`` asks its family for all
samples at once, so per degree it takes one stacked matrix exponential
(``graded.exp_stack``, the Pade kernel of the heat traces) and one SVD per
restricted action block, and no kernel or complement SVD.  Either way each
member's digits are those of its own single contraction, bit for bit.

Omega pairs A slot k only with B slot k, so ``is_lagrangian`` certifies a
gauge slot by slot and forms no Gram matrix of all its columns: per slot
A and B columns number d_k, the blocks of ``_isotropy`` (also the scan's
residual) vanish, and the basis Grams a_k^H a_k and b_k^H b_k, its pairing
with the side swap, are nonsingular.  ``omega``, the pairing itself, is the
tests' reference for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .complexes import TwistedComplex, ginibre, nonzero_mask, phase_fixed_qr, read_only
from .errors import (
    DegenerateContractionError,
    DegenerateGaugeError,
)
from .graded import exp_stack

ISOTROPY_TOL = 1e-12
# Relative bound of a contraction's validation residuals; each scales with
# the size of its checked product (d, |iota| or |iota|^2).
CONTRACTION_TOL = 1e-12
# Smallest singular value of a gauge's pairing with its side swap that
# ``is_lagrangian`` accepts as transverse.
TRANSVERSALITY_TOL = 1e-8
# Degree-summed matrix entries of one homotopy-scan stack (samples times
# sum_k dim_k^2).  A stack's heap peak (tracemalloc, rank-20 cat twist, 131
# samples) was measured at 79 bytes per entry, about 79 MiB at this bound, so
# longer scans run in several stacked passes.
SCAN_STACK_ENTRIES = 2 ** 20


@dataclass
class BFField:
    """One point of the BF field space: per-degree A and B components.

    Components may also be d_k x N matrices, holding N fields as columns.
    """

    a: Tuple[np.ndarray, ...]
    b: Tuple[np.ndarray, ...]


class BFFieldSpace:
    """Doubled odd symplectic space (A, B) over an acyclic base complex.

    Degrees: the C^k component of A has degree 1 - k, its dual B slot has
    degree k - 2, so each conjugate pair has total degree -1 (the pairing has
    degree -1 under the declared grading).  ``base`` is the complex itself,
    in its isometric presentation.
    """

    def __init__(self, base: TwistedComplex):
        base.require_acyclic()
        self.base = base
        self.n = self.base.top_degree
        self.dims = self.base.dims
        self.a_degrees = tuple(1 - k for k in range(self.n + 1))

    def a_parity(self, k: int) -> int:
        """Parity of the degree-k A slot; its B partner has the other one."""
        return self.a_degrees[k] % 2

    def omega(self, v: BFField, w: BFField):
        """Odd symplectic pairing, the package's one statement of its sign
        convention.

        Omega(v, w) = sum_k [ v.b_k(w.a_k) - (-1)^(p_k) w.b_k(v.a_k) ] with
        p_k the parity of the degree-k A slot.  For fields stacked as N and M
        columns the result is the N x M matrix of pairings; each entry is
        summed from the same length-d_k dot products as for single fields.
        """
        total = 0.0 + 0.0j
        for k in range(self.n + 1):
            sign = -1.0 if self.a_parity(k) == 0 else 1.0
            total += _dots(v.b[k], w.a[k]) + sign * _dots(w.b[k], v.a[k]).T
        return total


def _dots(x: np.ndarray, y: np.ndarray):
    """x . y for vectors; for d x N and d x M matrices the N x M matrix of
    column dot products, per member for matrices with a leading sample axis.
    Each entry is one BLAS dot product over contiguous columns, the kernel
    1-D ``@`` calls, so stacked and single-field pairings agree bit for bit
    (a GEMM would reorder the sums)."""
    if x.ndim == 1:
        return x @ y
    xt = np.ascontiguousarray(x.swapaxes(-1, -2))
    yt = np.ascontiguousarray(y.swapaxes(-1, -2))
    return (xt[..., :, None, None, :] @ yt[..., None, :, :, None])[..., 0, 0]


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(m).swapaxes(-1, -2)


def _norm(m: np.ndarray):
    """Frobenius norm of the last two axes, one per member (a lone matrix
    takes numpy's BLAS-dot norm, cheaper than the per-axis reduction a stack
    needs)."""
    return np.linalg.norm(m) if m.ndim == 2 else np.linalg.norm(m, axis=(-2, -1))


def _refuse(bad, message=None, **kwargs):
    """Raise DegenerateContractionError where ``bad`` holds; for a stacked
    contraction it names the first failing member.  A lone contraction's
    check is one truth test (``.any()`` of a numpy scalar costs microseconds,
    and validation runs a few dozen checks)."""
    if bad.ndim == 0:
        if bad:
            raise DegenerateContractionError(message, **kwargs)
    elif bad.any():
        raise DegenerateContractionError(message, member=int(np.flatnonzero(bad)[0]), **kwargs)


def _each(fn: Callable[[float], float], x):
    """``fn`` of each member's value, one scalar call each (libm ``exp``, as
    for a single gauge, where numpy's vector loop may round differently); a
    float when ``x`` has no sample axis."""
    if np.ndim(x) == 0:
        return fn(float(x))
    return np.array([fn(float(v)) for v in x])


def _row_sums(x: np.ndarray):
    """Sums over the last axis, one 1-D sum per member: a single gauge's
    pairwise summation, which a 2-D reduction need not repeat."""
    return float(np.sum(x)) if x.ndim == 1 else np.array([np.sum(r) for r in x])


def build_bf_fields(tc: TwistedComplex) -> BFFieldSpace:
    """BV field space of BF theory over an acyclic complex."""
    return BFFieldSpace(tc)


# -- gauge subspaces ------------------------------------------------------------


@dataclass
class GaugeSubspace:
    """A Lagrangian gauge-fixing subspace plus its declared parametrisation.

    Per degree k, ``a_bases[k]`` is a column basis of the A-side subspace
    K^k of C^k and ``b_bases[k]`` one of the B-side annihilator conj(K^perp)
    in the dual slot k (as plain vectors; a functional acts by transposed
    multiplication).  The Gaussian integral runs in the coordinates of
    ``a_bases[k]`` on the A side and of the declared parametrisation matrix
    ``b_params[k]`` on the B side.  The declared complement is the side swap,
    conj(b_bases[k]) = K^perp on the A side and conj(a_bases[k]) on the B
    side, so it is not stored.  ``jacobian_convention`` is the declared
    super-volume factor of the parametrisation (|sdet d*| for the metric
    parametrisation, 1 for normalised contractions).
    """

    kind: str
    a_bases: List[np.ndarray]
    b_bases: List[np.ndarray]
    b_params: List[np.ndarray]
    jacobian_convention: float


def _lagrangian(kind: str, sub, perp, maps, jacobian) -> GaugeSubspace:
    """The gauge with A side ``sub[k]``, B side conj(``perp[k]``) and B
    parametrised by conj(maps[k-1] @ sub[k-1]) (empty in degree 0);
    ``jacobian`` maps (a_bases, b_params) to the declared Jacobian."""
    a_bases = list(sub)
    b_bases = [np.conj(p) for p in perp]
    b_params = [b_bases[0][..., :0]]
    b_params += [np.conj(m @ s) for m, s in zip(maps, a_bases[:-1])]
    return GaugeSubspace(kind, a_bases, b_bases, b_params, jacobian(a_bases, b_params))


def metric_gauge(fs: BFFieldSpace) -> GaugeSubspace:
    """Lagrangian cut out by coexactness of A and of B (in its own complex).

    The A side of slot k is the coexact subspace of C^k; the B side of slot
    k+1 is conj(exact), i.e. the dual-complex coexact forms.  The declared
    parametrisation is the one from the metric-gauge formula: A by coexact
    coordinates, B = d* eta with eta ranging over coexact forms, contributing
    the Jacobian |sdet(d*)|.
    """
    bases = fs.base.hodge_bases
    exact = [np.zeros((fs.dims[0], 0))] + [e for e, _ in bases]
    coexact = [c for _, c in bases] + [np.zeros((fs.dims[fs.n], 0))]

    def jacobian(a_bases, b_params):
        # super volume factor of the declared parametrisation
        log_jac = 0.0
        for k in range(fs.n + 1):
            a_par = fs.a_parity(k)
            for mat, parity in ((a_bases[k], a_par), (b_params[k], 1 - a_par)):
                if mat.shape[1] == 0:
                    continue
                gram = mat.conj().T @ mat
                _, ld = np.linalg.slogdet(gram)
                eta = 1.0 if parity == 1 else -1.0
                log_jac += 0.5 * eta * ld
        return math.exp(log_jac)

    return _lagrangian("metric", coexact, exact, fs.base.diffs, jacobian)


Split = Tuple[np.ndarray, np.ndarray]


@dataclass
class Contraction:
    """Square-zero degree -1 map iota, with complement injection a = iota^dagger.

    ``iota[k]`` maps C^k to C^(k-1) (entry 0 is the zero map out of C^0), so
    the degree dimensions ``dims`` are read off its shapes.  Construction
    derives the read-only ``a_maps``: ``a_maps[k]`` = iota_(k+1)^dagger
    injects C^k into C^(k+1) (entry n is the zero map out of the top degree).
    The gauge-independence theorems of the test suite cover this
    unitary-normalised class, iota a partial isometry; validation checks
    iota o a = iota iota^dagger = id on ker iota, so the normalisation
    sdet(iota o a) = 1 holds for every valid instance and a non-coisometric
    iota is refused.  A contraction validates itself once, on construction,
    and raises DegenerateContractionError when invalid.  It owns its maps and
    splits and marks their arrays read-only, so the splits cannot go stale.

    Every map may carry one leading sample axis of a common length: the
    contraction is then a stack of members (a homotopy family at several
    parameters), validated together by stacked products; a member that fails
    validation raises with its index as ``member``.

    ``splits`` holds per degree an orthonormal pair (K^k, P^k) with K^k
    spanning ker(iota_k) and P^k its orthogonal complement, on which iota_k
    must be isometric.  Every constructor hands its split over; it is checked
    with matrix products and used as given, so a stack's kernel ranks are the
    shapes of its split.
    """

    iota: Sequence[np.ndarray]
    splits: Sequence[Split]
    a_maps: Tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        self.iota = tuple(read_only(np.asarray(m)) for m in self.iota)
        top = self.iota[-1]
        self.a_maps = tuple(read_only(m) for m in [_adjoint(m) for m in self.iota[1:]]
                            + [np.zeros(top.shape[:-2] + (0, top.shape[-1]))])
        self.splits = tuple((read_only(np.asarray(ker)), read_only(np.asarray(perp)))
                            for ker, perp in self.splits)
        self._validate()

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(m.shape[-1] for m in self.iota)

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """() for a single contraction, (N,) for a stack of N members."""
        return self.iota[0].shape[:-2]

    def _validate(self):
        dims, lead = self.dims, self.sample_shape
        n = len(dims) - 1
        # iota_k: C^k -> C^(k-1), the zero map out of C^0
        if len(lead) > 1 or any(m.shape != lead + (lo, d)
                                for m, lo, d in zip(self.iota, (0,) + dims[:-1], dims)):
            raise DegenerateContractionError("contraction has wrong shapes")
        scale = np.maximum.reduce([np.ones(lead)] + [_norm(m) for m in self.iota])
        for k in range(1, n):
            _refuse(_norm(self.iota[k] @ self.iota[k + 1]) > CONTRACTION_TOL * scale ** 2,
                    f"iota^2 != 0 at degree {k + 1}")
        self._check_splits(scale)
        for k in range(n):
            ker = self.splits[k][0]
            if ker.shape[-1] == 0:
                continue
            err = _norm(self.iota[k + 1] @ (self.a_maps[k] @ ker) - ker)
            _refuse(err > CONTRACTION_TOL * scale, f"iota o a != id on ker iota at degree {k}")

    def _check_splits(self, scale):
        """[K P] unitary, iota K = 0 and iota isometric on P, so that K spans
        exactly ker(iota), from matrix products alone; each residual is held
        to CONTRACTION_TOL times the size of its product (d, |iota|, |iota|^2)."""
        if len(self.splits) != len(self.iota):
            raise DegenerateContractionError("kernel splits have the wrong arity")
        for k, ((ker, perp), m) in enumerate(zip(self.splits, self.iota)):
            column = self.sample_shape + (m.shape[-1],)
            if (ker.shape[:-1], perp.shape[:-1]) != (column, column) or \
                    ker.shape[-1] + perp.shape[-1] != column[-1]:
                raise DegenerateContractionError(f"kernel split has wrong shapes at degree {k}")
            q = np.concatenate([ker, perp], axis=-1)
            _refuse(_norm(_adjoint(q) @ q - np.eye(column[-1]))
                    > CONTRACTION_TOL * max(1.0, column[-1]),
                    f"kernel split is not orthonormal at degree {k}")
            _refuse(_norm(m @ ker) > CONTRACTION_TOL * scale,
                    f"kernel split is not killed by iota at degree {k}")
            image = m @ perp
            _refuse(_norm(_adjoint(image) @ image - np.eye(perp.shape[-1]))
                    > CONTRACTION_TOL * scale ** 2,
                    f"iota is not isometric on the kernel complement at degree {k}")


def _hodge_maps(tc: TwistedComplex) -> Tuple[List[np.ndarray], List[Split]]:
    """The maps iota_k of ``hodge_contraction`` and its kernel splits, both
    read off the complex's ``hodge_bases``; no contraction is built or
    validated."""
    tc.require_acyclic()
    bases = tc.hodge_bases
    iota = [np.zeros((0, tc.dims[0]))]
    for e_next, c_here in bases:
        w = e_next @ c_here.conj().T          # partial isometry C^k -> C^(k+1)
        iota.append(w.conj().T)
    d0 = tc.dims[0]
    splits = [(np.eye(d0), np.zeros((d0, 0)))]
    splits += [(c, e) for (_, c), (e, _) in zip(bases[1:], bases)]
    splits.append((np.zeros((tc.dims[-1], 0)), bases[-1][0]))
    return iota, splits


def hodge_contraction(tc: TwistedComplex) -> Contraction:
    """Polar-isometry contraction: iota_(k+1) is the adjoint of the partial
    isometry part of d_k (initial space coexact, final space exact).

    Its kernel splits come from the same ``hodge_bases`` and take no SVD:
    ker iota_k is the coexact subspace of C^k and its complement the exact
    one, im d_(k-1); in degree 0 the kernel is all of C^0 (the identity), in
    the top degree it is empty.  The gauge therefore has the metric gauge's
    bases in every degree but 0."""
    return Contraction(*_hodge_maps(tc))


def random_contraction(tc: TwistedComplex, rng: np.random.Generator,
                       samples: Optional[int] = None) -> Contraction:
    """Random unitary-normalised contraction: random kernel subspaces K^k with
    dim K^k = rank d_k, iota mapping the orthogonal complement isometrically
    onto K^(k-1), and a = iota^dagger.

    With ``samples=N`` it is the stacked contraction of N members, member i
    the i-th of N consecutive lone calls on ``rng``, which ends in the same
    state.  The Ginibre matrices are drawn in the lone calls' order, and each
    slot (the Q of a degree, or a U) is factorised in one stacked QR as soon
    as its last member is drawn, so a lone call holds one at a time.  A lone
    call factorises its matrices unstacked: drawn as stacks of one, the lone
    draws of rank-r twists (n up to 3r = 120) made a whole rank ladder about
    1.6% slower.
    """
    tc.require_acyclic()
    if samples is not None and samples < 1:
        raise ValueError("samples must be a positive count")
    n = tc.top_degree
    m = [tc.rank(k) for k in range(n)] + [0]
    count, lead = (1, ()) if samples is None else (samples, (samples,))

    # per member: the Q of each degree, then the U of each nonzero rank
    sizes = list(tc.dims) + [r for r in m if r]
    slots: list = [[] for _ in sizes]
    for i in range(count):
        for j, size in enumerate(sizes):
            slots[j].append(ginibre(rng, size))
            if i == count - 1:
                slots[j] = phase_fixed_qr(np.stack(slots[j]) if lead else slots[j][0])
    qs, us = slots[:n + 1], iter(slots[n + 1:])
    kernels = [q[..., :r] for q, r in zip(qs, m)]
    perps = [q[..., r:] for q, r in zip(qs, m)]
    iota = [np.zeros(lead + (0, tc.dims[0]))]
    for k in range(1, n + 1):
        u = next(us) if m[k - 1] else np.zeros(lead + (0, 0))
        iota.append(kernels[k - 1] @ u @ _adjoint(perps[k]))
    # iota_0 is the zero map, so its kernel is all of C^0
    d0 = tc.dims[0]
    splits = [(np.broadcast_to(np.eye(d0), lead + (d0, d0)), np.zeros(lead + (d0, 0)))]
    return Contraction(iota, splits + list(zip(kernels[1:], perps[1:])))


def suspension_contraction(tc: TwistedComplex) -> Contraction:
    """The Reeb-direction contraction of a mapping-torus complex: iota kills
    base cells and sends each (cell x I) to its base cell, as the complex's
    ``suspension`` pairs them (the cell complex's pairs, at the twist's rank).

    Its kernel splits are coordinate columns and take no SVD: per degree,
    ker iota_k is spanned by the cells that are not a (cell x I), its
    complement by those that are."""
    if tc.suspension is None:
        raise DegenerateContractionError("complex carries no suspension structure")
    iota = [np.zeros((0, tc.dims[0]))]
    for k in range(1, tc.top_degree + 1):
        m = np.zeros((tc.dims[k - 1], tc.dims[k]))
        for src, dst in tc.suspension[k]:
            m[dst, src] = 1.0
        iota.append(m)
    splits = []
    for m in iota:
        lifted = m.any(axis=0)            # the (cell x I) columns
        eye = np.eye(m.shape[1])
        splits.append((eye[:, ~lifted], eye[:, lifted]))
    return Contraction(iota, splits)


def contraction_gauge(fs: BFFieldSpace, c: Contraction) -> GaugeSubspace:
    """Lagrangian cut out by iota A = iota B = 0 (B in the dual complex).

    Per slot k the A side is ker(iota) in C^k and the B side is the
    annihilator of ker(iota) in the dual slot, i.e. conj((ker iota)^perp).
    The declared B parametrisation is y -> conj(a y) over ker(iota) one
    degree down, with Jacobian 1 (the sdet(iota o a) = 1 normalisation).
    """
    if c.dims != fs.dims:
        raise DegenerateContractionError(
            f"contraction dims {c.dims} do not match the field space {fs.dims}")
    kernels, perps = zip(*c.splits)
    return _lagrangian("contraction", kernels, perps, c.a_maps, lambda a, b: 1.0)


@dataclass
class LagrangianReport:
    """``is_lagrangian``'s certificate, one entry per member for a stacked
    gauge: ``ok``, the largest |Omega| between two gauge columns, and the
    smallest singular value of the pairing with the side swap (inf for a
    gauge without columns)."""

    ok: bool
    isotropy: float
    cross_pairing_min_sv: float


def _isotropy(a_bases, b_bases):
    """max |Omega(u, v)| over pairs of columns of one side (A columns
    ``a_bases``, B columns ``b_bases``), per member for stacked bases.

    This is the largest modulus in the upper triangle of the side's Gram
    matrix, ``omega`` of its columns (each a field zero outside its own
    slot), A columns first.  That triangle is zero but for one block per
    slot, the slot term sign * _dots(b_k, a_k)^T, and the sign and the
    transpose leave its moduli as they are; so the largest |entry| of the
    blocks _dots(b_k, a_k) is bit-identical to it, and the Gram matrix is
    never formed.  Moduli come from hypot, as scalar abs does.
    """
    worst = 0.0
    for a, b in zip(a_bases, b_bases):
        # complex, as in a field: a real dot product may round differently
        block = _dots(np.asarray(b, dtype=complex), np.asarray(a, dtype=complex))
        worst = np.maximum(worst, np.max(np.hypot(block.real, block.imag),
                                         axis=(-2, -1), initial=0.0))
    return float(worst) if np.ndim(worst) == 0 else worst


def _check_heights(fs: BFFieldSpace, gs: GaugeSubspace) -> None:
    """Raise DegenerateGaugeError, naming the slot and both heights, at the
    first slot k whose A basis, B basis or B parameters do not have d_k rows:
    such columns are not vectors of that slot."""
    for k, (d, *mats) in enumerate(zip(fs.dims, gs.a_bases, gs.b_bases, gs.b_params)):
        for name, m in zip(("a_bases", "b_bases", "b_params"), mats):
            if m.shape[-2] != d:
                raise DegenerateGaugeError(k, f"{name}[{k}] has {m.shape[-2]} rows, "
                                              f"but slot {k} has dimension {d}")


def _unbalanced_slot(fs: BFFieldSpace, gs: GaugeSubspace) -> Optional[int]:
    """The first slot k whose A and B columns do not number d_k, or None;
    a basis of the wrong height raises (``_check_heights``)."""
    _check_heights(fs, gs)
    counts = [a.shape[-1] + b.shape[-1] for a, b in zip(gs.a_bases, gs.b_bases)]
    return next((k for k, (c, d) in enumerate(zip_longest(counts, fs.dims)) if c != d), None)


def is_lagrangian(fs: BFFieldSpace, gs: GaugeSubspace) -> LagrangianReport:
    """ok when every slot is half-dimensional, the isotropy (``_isotropy``)
    is below ISOTROPY_TOL and the pairing with the declared complement, the
    side swap, has its smallest singular value above TRANSVERSALITY_TOL.

    That pairing's Gram matrix is, up to order and signs, the direct sum of
    the per-slot Grams a_k^H a_k and b_k^H b_k, so its singular values come
    from one values-only SVD of each.  The swap's isotropy is the gauge's.
    A basis without d_k rows in slot k raises DegenerateGaugeError.
    """
    unbalanced = _unbalanced_slot(fs, gs)
    iso = _isotropy(gs.a_bases, gs.b_bases)
    lowest = [np.linalg.svd(_adjoint(m) @ m, compute_uv=False)[..., -1]
              for m in [*gs.a_bases, *gs.b_bases] if m.shape[-1]]
    min_sv = np.min(lowest + [np.full(gs.a_bases[0].shape[:-2], np.inf)], axis=0)
    ok = (unbalanced is None) & (iso < ISOTROPY_TOL) & (min_sv > TRANSVERSALITY_TOL)
    if np.ndim(min_sv):
        return LagrangianReport(ok, iso, min_sv)
    return LagrangianReport(bool(ok), iso, float(min_sv))


def restricted_action_blocks(fs: BFFieldSpace, gs: GaugeSubspace) -> List[np.ndarray]:
    """Action compressions M_k pairing the slot-k A parameters with the
    slot-(k+1) B parameters: M_k = b_params[k+1]^T d_k a_bases[k]."""
    return [gs.b_params[k + 1].swapaxes(-1, -2) @ (d @ gs.a_bases[k])
            for k, d in enumerate(fs.base.diffs)]


def _fixed_action(fs: BFFieldSpace, gs: GaugeSubspace):
    """(Z, smallest singular value over the restricted action blocks), per
    member for a stacked gauge.  A contraction gauge block with a singular
    value below the rank cut raises DegenerateContractionError, so the second
    is the gauge's distance to a degenerate one; the metric gauge's blocks
    have the record's kept s_i^2 as values and are not cut again."""
    _check_heights(fs, gs)
    lead = gs.a_bases[0].shape[:-2]
    log_z, smallest = np.zeros(lead), np.full(lead, np.inf)
    for k, m in enumerate(restricted_action_blocks(fs, gs)):
        if m.shape[-2] != m.shape[-1]:
            raise DegenerateGaugeError(k, f"action block {k} is not square "
                                          f"({m.shape[-2:]}): gauge is not Lagrangian")
        if m.shape[-1] == 0:
            continue
        s = np.linalg.svd(m, compute_uv=False)
        if gs.kind == "contraction":
            _refuse(~nonzero_mask(s)[..., -1], degree=k)
        # sum of log singular values = log|det|; Z is reported as a modulus
        log_z = log_z + (-1) ** k * _row_sums(np.log(s))
        smallest = np.minimum(smallest, s[..., -1])
    return _each(math.exp, log_z) / gs.jacobian_convention, smallest


def partition_function(fs: BFFieldSpace, gs: GaugeSubspace) -> float:
    """|sdet of the restricted action|^(+-1) divided by the declared Jacobian.

    Exponent signs follow the shifted parities: the (A_k, B_(k+1)) pair is
    odd exactly when k is even.  Metric gauge: equals the analytic torsion of
    the base.  Contraction gauge: equals |sdet(L restricted to ker iota)| with
    L = iota d + d iota, whose degree-k block is restricted_action_blocks[k]
    for a unitary-normalised contraction.  A stacked contraction gauge gives
    one Z per member; only a contraction gauge is tested for degeneracy.  A
    basis without d_k rows in slot k raises DegenerateGaugeError.
    """
    return _fixed_action(fs, gs)[0]


# -- homotopy scans -------------------------------------------------------------


@dataclass
class ScanResult:
    """Structured gauge-scan records: t, Z(t), isotropy residual; and per
    sample the smallest singular value over its restricted action blocks,
    its distance to the degeneracy test."""

    samples: List[Tuple[float, float, float]]
    max_relative_deviation: float
    action_min_sv: List[float]


def _scanned_gauge(fs: BFFieldSpace, family: Callable[[np.ndarray], Contraction],
                   ts: List[float]):
    """The stacked contraction gauge of ``family`` at ``ts`` and its
    ``_fixed_action``.  A degenerate member raises DegenerateContractionError
    with the first failing t.  The stack is validated before any action
    block is factorised, so after a failure at member i the members before
    it are scanned again: one of them may fail at a later stage."""
    failure, stop = None, len(ts)
    while stop:
        try:
            c = family(np.array(ts[:stop]))
            if c.sample_shape != (stop,):
                raise ValueError(f"family gave members of shape {c.sample_shape} "
                                 f"for {stop} samples: it must stack one member per t")
            gs = contraction_gauge(fs, c)
            fixed = _fixed_action(fs, gs)
        except DegenerateContractionError as exc:
            failure, stop = exc, exc.member or 0
            continue
        if failure is None:
            return gs, fixed
        break
    raise DegenerateContractionError(str(failure), t=ts[failure.member or 0])


def homotopy_scan(fs: BFFieldSpace, family: Callable[[np.ndarray], Contraction],
                  samples: int = 10) -> ScanResult:
    """Evaluate the contraction-gauge partition function along a family.

    ``family`` maps a 1-D array of parameters t to the contraction with one
    member per t along a leading sample axis, as the families of
    ``unitary_contraction_family`` do; the whole scan is then one stacked
    pass with one SVD per restricted action block and none of a kernel, each
    member's digits bit-identical to those of its own single contraction.  A
    stack holds at most SCAN_STACK_ENTRIES // sum_k dim_k^2 samples, so a
    long scan of a large complex takes several passes.  The isotropy residual
    is ``_isotropy`` of the subspace.  Returns max |Z(t)/Z(0) - 1|; a degenerate
    or invalid member raises DegenerateContractionError identifying the first
    failing sample.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = [i / (samples - 1) for i in range(samples)]
    per_pass = max(1, SCAN_STACK_ENTRIES // sum(d * d for d in fs.dims))
    rows, smallest = [], []
    for start in range(0, samples, per_pass):
        part = ts[start:start + per_pass]
        gs, (zs, low) = _scanned_gauge(fs, family, part)
        residuals = _isotropy(gs.a_bases, gs.b_bases)
        rows += [(t, float(z), float(r)) for t, z, r in zip(part, zs, residuals)]
        smallest += [float(x) for x in low]
    z0 = rows[0][1]
    worst = 0.0
    for _, z, _ in rows[1:]:
        worst = max(worst, abs(z / z0 - 1.0))
    return ScanResult(rows, worst, smallest)


def gauge_polarization(fs: BFFieldSpace, gs: GaugeSubspace,
                       max_word_length: int = 12):
    """Darboux chart adapted to a gauge subspace, plus its coordinate names.

    In the rotated basis where the first columns of each slot span the A-side
    subspace, the gauge is the coordinate Lagrangian spanned by those A
    coordinates together with the B coordinates dual to the complement.
    Returns (chart, lagrangian_variable_names).
    """
    from .observables import DarbouxChart

    k = _unbalanced_slot(fs, gs)
    if k is not None:
        raise DegenerateGaugeError(k, "gauge subspace is not half-dimensional")
    pairs, degrees, names = [], [], []
    for k, a_basis in enumerate(gs.a_bases):
        na = a_basis.shape[1]
        # one pair (a_k_i, b_k_i) per cell coordinate: field degree 1 - k, antifield k - 2
        slot = [(f"a{k}_{i}", f"b{k}_{i}") for i in range(fs.dims[k])]
        pairs += slot
        degrees += [fs.a_degrees[k]] * fs.dims[k]
        names += [a for a, _ in slot[:na]] + [b for _, b in slot[na:]]
    return DarbouxChart(tuple(pairs), tuple(degrees), max_word_length), tuple(names)


def unitary_contraction_family(tc: TwistedComplex,
                               rng: np.random.Generator) -> Callable[[np.ndarray], Contraction]:
    """Family t -> U(t) iota U(t)^dagger of the Hodge contraction's iota,
    with U(t) = exp(t G), G random skew-Hermitian of unit Frobenius norm per
    degree.  Stays inside the unitary-normalised class, and starts at the
    Hodge contraction up to rounding: the Pade kernel's U(0) may sit a
    rounding off the identity, so Z at t = 0 can differ from the Hodge
    contraction's Z in the last digits (by at most 3.3e-16 relative on the
    README's bf runs).

    Each member carries the Hodge kernel split (K_k, P_k) rotated by the
    same unitaries, (U_k K_k, U_k P_k), so neither drawing nor evaluating the
    family takes an SVD.  The family takes a float t, giving one contraction,
    or a 1-D array of them, giving the stacked contraction of all members:
    per degree one ``graded.exp_stack`` call, the package's one matrix
    exponential, which also gives the heat traces of ``flat_det``, and
    stacked products, each member bit-identical to the contraction at its own
    t.
    """
    base, splits = _hodge_maps(tc)
    gens = []
    for d in tc.dims:
        z = ginibre(rng, d)
        k = (z - z.conj().T) / 2.0
        norm = np.linalg.norm(k)
        gens.append(k / norm if norm > 0 else k)

    def family(t) -> Contraction:
        t = np.asarray(t, dtype=float)
        us = [exp_stack(-g, t.ravel()).reshape(t.shape + g.shape) for g in gens]
        iota = [np.zeros(t.shape + (0, tc.dims[0]))]
        for k in range(1, tc.top_degree + 1):
            iota.append(us[k - 1] @ base[k] @ _adjoint(us[k]))
        return Contraction(iota, [(u @ ker, u @ perp) for u, (ker, perp) in zip(us, splits)])

    return family
