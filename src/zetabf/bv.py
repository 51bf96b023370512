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
parametrisation B = d* eta, and 1 for normalised contractions).

Everything here reads the base complex's stored differentials, which
``TwistedComplex`` keeps in their isometric presentation, and the Reeb
contraction of a mapping torus reads the complex's ``suspension`` pairs.

Shared factorisations: the metric gauge and the Hodge contraction read the
same exact/coexact bases (``TwistedComplex.hodge_bases``, one SVD with
vectors per differential, cut at the rank of the complex's spectral record),
and random contractions take their ranks from that record.  A contraction
reads its degree dimensions off the shapes of iota, validates itself once, on
construction, and finds each kernel of iota_k and its orthogonal complement
once; its validation, gauge and Lie operator all reuse those bases.  The
unitary-normalised constructors (Hodge, random, suspension, homotopy
families) build only iota and leave a = iota^dagger to
``Contraction.unitary``.  A random contraction is drawn from Haar-random
kernel splits and hands them over, so neither iota_k nor its kernel is
factorised; the Hodge, Reeb and homotopy-family contractions carry no split
and keep one SVD of iota_k for the kernel and one of the kernel for the
complement, the factorisations behind the Z and isotropy digits that ``bf``
prints.  The SVDs of
the restricted action blocks and of the isotropy cross pairing stay separate:
they are the checks that the gauge-fixed side reproduces the torsion.

Fields may be stacked: a ``BFField`` whose slot components are d_k x N
matrices holds N fields as columns, and ``omega`` of two stacked fields is the
matrix of their pairings.  A gauge basis column lives in one slot only, so
``is_lagrangian`` forms its three Gram matrices (isotropy of each side, cross
pairing) from the slot-diagonal blocks alone: per slot, the B columns of one
side against the A columns of the other, through the same slot term as
``omega`` and written into a zero matrix.  Every off-slot term of ``omega`` is
an exact zero, so the Gram matrices are bit-identical to stacked ``omega``
calls.  ``homotopy_scan`` forms only the subspace block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .complexes import TwistedComplex, haar_unitary, nonzero_mask, read_only
from .errors import (
    DegenerateContractionError,
    DegenerateGaugeError,
)

ISOTROPY_TOL = 1e-12


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

    def action(self, f: BFField) -> complex:
        """S_BF = sum_k B_(k+1)(d_k A_k)."""
        total = 0.0 + 0.0j
        for k in range(self.n):
            total += f.b[k + 1] @ (self.base.diffs[k] @ f.a[k])
        return total

    def omega(self, v: BFField, w: BFField):
        """Odd symplectic pairing; sign convention fixed once, in
        ``_slot_pairings``.

        Omega(v, w) = sum_k [ v.b_k(w.a_k) - (-1)^(p_k) w.b_k(v.a_k) ] with
        p_k the parity of the degree-k A slot.  For fields stacked as N and M
        columns the result is the N x M matrix of pairings; each entry is
        summed from the same length-d_k dot products as for single fields.
        """
        total = 0.0 + 0.0j
        for k in range(self.n + 1):
            ba, ab = self._slot_pairings(k, v.a[k], v.b[k], w.a[k], w.b[k])
            total += ba + ab
        return total

    def _slot_pairings(self, k: int, v_a, v_b, w_a, w_b):
        """The two summands of slot k in Omega(v, w), from its components."""
        sign = -1.0 if self.a_parity(k) == 0 else 1.0
        return _dots(v_b, w_a), sign * _dots(w_b, v_a).T


def _dots(x: np.ndarray, y: np.ndarray):
    """x . y for vectors; for d x N and d x M matrices the N x M matrix of
    column dot products.  Each entry is one BLAS dot product over contiguous
    columns, the kernel 1-D ``@`` calls, so stacked and single-field
    pairings agree bit for bit (a GEMM would reorder the sums)."""
    if x.ndim == 1:
        return x @ y
    xt = np.ascontiguousarray(x.T)
    yt = np.ascontiguousarray(y.T)
    return (xt[:, None, None, :] @ yt[None, :, :, None])[..., 0, 0]


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
    b_params = [b_bases[0][:, :0]]
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
    """Square-zero degree -1 map with a normalised complement injection.

    ``iota[k]`` maps C^k to C^(k-1) (entry 0 is the zero map out of C^0), so
    the degree dimensions ``dims`` are read off its shapes; ``a_maps[k]``
    injects C^k into C^(k+1) with iota o a = id on ker iota (entry n is the
    zero map out of the top degree).  The gauge-independence theorems of the
    test suite cover the unitary-normalised class a = iota^dagger (iota a
    partial isometry), which ``Contraction.unitary`` builds from iota;
    validation checks iota o a = id on ker iota, so the normalisation
    sdet(iota o a) = 1 holds for every valid instance.  A
    contraction validates itself once, on construction, and raises
    DegenerateContractionError when invalid.  It owns both families and marks
    their arrays read-only, so the kernel and complement bases, found once,
    cannot go stale.

    ``splits``, when given, holds per degree an orthonormal pair (K^k, P^k)
    with K^k spanning ker(iota_k) and P^k its orthogonal complement, on which
    iota_k must be isometric; validation checks this with matrix products and
    the bases are used as given.  Without it, ker(iota_k) comes from one SVD of
    iota_k and its complement from one SVD of that kernel basis, each on first
    use (no SVD where the kernel is all of C^k or empty).
    """

    iota: Sequence[np.ndarray]
    a_maps: Sequence[np.ndarray]
    splits: Optional[Sequence[Split]] = None

    def __post_init__(self):
        self.iota = tuple(read_only(np.asarray(m)) for m in self.iota)
        self.a_maps = tuple(read_only(np.asarray(m)) for m in self.a_maps)
        self._kernels: Dict[int, np.ndarray] = {}
        self._complements: Dict[int, np.ndarray] = {}
        if self.splits is not None:
            self.splits = tuple((read_only(np.asarray(ker)), read_only(np.asarray(perp)))
                                for ker, perp in self.splits)
            self._kernels.update(enumerate(ker for ker, _ in self.splits))
            self._complements.update(enumerate(perp for _, perp in self.splits))
        self._validate()

    @classmethod
    def unitary(cls, iota: Sequence[np.ndarray],
                splits: Optional[Sequence[Split]] = None) -> "Contraction":
        """The unitary-normalised contraction: a_k = iota_(k+1)^dagger."""
        a_maps = [m.conj().T for m in iota[1:]]
        a_maps.append(np.zeros((0, iota[-1].shape[1])))
        return cls(iota, a_maps, splits)

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(m.shape[1] for m in self.iota)

    def _validate(self):
        tol = 1e-12
        dims = self.dims
        n = len(dims) - 1
        # iota_k: C^k -> C^(k-1) and a_k: C^k -> C^(k+1), zero maps at the ends
        below, above = (0,) + dims[:-1], dims[1:] + (0,)
        if len(self.a_maps) != n + 1 or any(
                (i.shape, a.shape) != ((lo, d), (hi, d))
                for i, a, lo, d, hi in zip(self.iota, self.a_maps, below, dims, above)):
            raise DegenerateContractionError("contraction has wrong arity or shapes")
        scale = max([1.0] + [float(np.linalg.norm(m)) for m in self.iota])
        for k in range(1, n):
            err = np.linalg.norm(self.iota[k] @ self.iota[k + 1])
            if err > tol * scale ** 2:
                raise DegenerateContractionError(f"iota^2 != 0 at degree {k + 1}")
        if self.splits is not None:
            self._check_splits(tol, scale)
        for k in range(n):
            ker = self.kernel_basis(k)
            if ker.shape[1] == 0:
                continue
            err = np.linalg.norm(self.iota[k + 1] @ (self.a_maps[k] @ ker) - ker)
            if err > tol * max(1.0, scale):
                raise DegenerateContractionError(
                    f"iota o a != id on ker iota at degree {k}"
                )

    def _check_splits(self, tol: float, scale: float):
        """[K P] unitary, iota K = 0 and iota isometric on P, so that K spans
        exactly ker(iota), from matrix products alone; each residual is held
        to ``tol`` times the size of its product (d, |iota|, |iota|^2)."""
        if len(self.splits) != len(self.iota):
            raise DegenerateContractionError("kernel splits have the wrong arity")
        for k, ((ker, perp), m) in enumerate(zip(self.splits, self.iota)):
            d = m.shape[1]
            if ker.ndim != 2 or perp.ndim != 2 or (ker.shape[0], perp.shape[0],
                                                   ker.shape[1] + perp.shape[1]) != (d, d, d):
                raise DegenerateContractionError(f"kernel split has wrong shapes at degree {k}")
            q = np.hstack([ker, perp])
            if np.linalg.norm(q.conj().T @ q - np.eye(d)) > tol * max(1.0, d):
                raise DegenerateContractionError(
                    f"kernel split is not orthonormal at degree {k}")
            if np.linalg.norm(m @ ker) > tol * scale:
                raise DegenerateContractionError(
                    f"kernel split is not killed by iota at degree {k}")
            image = m @ perp
            if np.linalg.norm(image.conj().T @ image - np.eye(perp.shape[1])) > tol * scale ** 2:
                raise DegenerateContractionError(
                    f"iota is not isometric on the kernel complement at degree {k}")

    def kernel_basis(self, k: int) -> np.ndarray:
        """Orthonormal basis of ker(iota_k) in C^k."""
        if k not in self._kernels:
            m = self.iota[k]
            if m.shape[0] == 0:
                ker = np.eye(self.dims[k])
            else:
                _, s, vh = np.linalg.svd(m, full_matrices=True)
                rank = int(np.count_nonzero(nonzero_mask(s)))
                ker = vh[rank:, :].conj().T
            self._kernels[k] = read_only(ker)
        return self._kernels[k]

    def complement_basis(self, k: int) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement of ker(iota_k)."""
        if k not in self._complements:
            ker = self.kernel_basis(k)
            if ker.shape[1] == 0:
                perp = np.eye(self.dims[k])
            elif ker.shape[1] == self.dims[k]:
                perp = ker[:, :0]
            else:
                perp = np.linalg.svd(ker, full_matrices=True)[0][:, ker.shape[1]:]
            self._complements[k] = read_only(perp)
        return self._complements[k]


def hodge_contraction(tc: TwistedComplex) -> Contraction:
    """Polar-isometry contraction: iota_(k+1) is the adjoint of the partial
    isometry part of d_k (initial space coexact, final space exact)."""
    tc.require_acyclic()
    iota = [np.zeros((0, tc.dims[0]))]
    for e_next, c_here in tc.hodge_bases:
        w = e_next @ c_here.conj().T          # partial isometry C^k -> C^(k+1)
        iota.append(w.conj().T)
    return Contraction.unitary(iota)


def random_contraction(tc: TwistedComplex, rng: np.random.Generator) -> Contraction:
    """Random unitary-normalised contraction: random kernel subspaces K^k with
    dim K^k = rank d_k, iota mapping the orthogonal complement isometrically
    onto K^(k-1), and a = iota^dagger."""
    tc.require_acyclic()
    n = tc.top_degree
    m = [tc.rank(k) for k in range(n)] + [0]

    kernels = []
    perps = []
    for k in range(n + 1):
        q = haar_unitary(rng, tc.dims[k])
        kernels.append(q[:, :m[k]])
        perps.append(q[:, m[k]:])
    iota = [np.zeros((0, tc.dims[0]))]
    for k in range(1, n + 1):
        u = haar_unitary(rng, m[k - 1]) if m[k - 1] else np.zeros((0, 0))
        iota.append(kernels[k - 1] @ u @ perps[k].conj().T)
    # iota_0 is the zero map, so its kernel is all of C^0
    d0 = tc.dims[0]
    splits = [(np.eye(d0), np.zeros((d0, 0)))] + list(zip(kernels[1:], perps[1:]))
    return Contraction.unitary(iota, splits)


def suspension_contraction(tc: TwistedComplex) -> Contraction:
    """The Reeb-direction contraction of a mapping-torus complex: iota kills
    base cells and sends each (cell x I) to its base cell, as the complex's
    ``suspension`` pairs them."""
    if tc.suspension is None:
        raise DegenerateContractionError("complex carries no suspension structure")
    iota = [np.zeros((0, tc.dims[0]))]
    for k in range(1, tc.top_degree + 1):
        m = np.zeros((tc.dims[k - 1], tc.dims[k]))
        for src, dst in tc.suspension[k]:
            m[dst, src] = 1.0
        iota.append(m)
    return Contraction.unitary(iota)


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
    degrees = range(fs.n + 1)
    return _lagrangian("contraction", [c.kernel_basis(k) for k in degrees],
                       [c.complement_basis(k) for k in degrees], c.a_maps, lambda a, b: 1.0)


@dataclass
class LagrangianReport:
    ok: bool
    isotropy_subspace: float
    isotropy_complement: float
    cross_pairing_min_sv: float
    dimension_match: bool


def _gram(fs: BFFieldSpace, v, w) -> np.ndarray:
    """Matrix of Omega between the columns of two gauge bases.

    ``v`` and ``w`` are (a_bases, b_bases) pairs of per-slot column bases,
    ordered A columns of every slot first, then B.  A column is zero outside
    its own slot, so only the slot-diagonal A-B and B-A blocks are nonzero;
    each is added into a zero matrix, and x + 0 = x keeps every entry
    bit-identical to the stacked ``omega`` sum.
    """
    def layout(basis):
        # complex, as in a stacked field: a real dot product may round differently
        a, b = ([np.asarray(m, dtype=complex) for m in side] for side in basis)
        starts = np.cumsum([0] + [m.shape[1] for m in a + b])
        return a, b, starts[:len(a)], starts[len(a):-1], starts[-1]

    va, vb, v_a0, v_b0, nv = layout(v)
    wa, wb, w_a0, w_b0, nw = layout(w)
    g = np.zeros((nv, nw), dtype=complex)
    for k in range(fs.n + 1):
        ba, ab = fs._slot_pairings(k, va[k], vb[k], wa[k], wb[k])
        g[v_b0[k]:v_b0[k] + ba.shape[0], w_a0[k]:w_a0[k] + ba.shape[1]] += ba
        g[v_a0[k]:v_a0[k] + ab.shape[0], w_b0[k]:w_b0[k] + ab.shape[1]] += ab
    return g


def _max_modulus_upper(g: np.ndarray) -> float:
    """max |g_ij| over i <= j (0 when empty); hypot matches scalar abs."""
    return float(np.max(np.triu(np.hypot(g.real, g.imag)), initial=0.0))


def is_lagrangian(fs: BFFieldSpace, gs: GaugeSubspace) -> LagrangianReport:
    """Isotropy of the subspace and its declared complement, and perfection
    of the pairing between them, from three slot-diagonal Gram matrices.
    The declared complement is the side swap of the subspace."""
    sub = (gs.a_bases, gs.b_bases)
    comp = ([np.conj(b) for b in gs.b_bases], [np.conj(a) for a in gs.a_bases])
    g_sub, g_comp = _gram(fs, sub, sub), _gram(fs, comp, comp)
    iso_sub, iso_comp = _max_modulus_upper(g_sub), _max_modulus_upper(g_comp)

    dims_match = len(g_sub) == len(g_comp)
    if dims_match and len(g_sub):
        cross = _gram(fs, sub, comp)
        min_sv = float(np.linalg.svd(cross, compute_uv=False)[-1])
    else:
        min_sv = 0.0 if not dims_match else np.inf
    ok = (iso_sub < ISOTROPY_TOL and iso_comp < ISOTROPY_TOL
          and dims_match and min_sv > 1e-8)
    return LagrangianReport(ok, iso_sub, iso_comp, min_sv, dims_match)


def restricted_action_blocks(fs: BFFieldSpace, gs: GaugeSubspace) -> List[np.ndarray]:
    """Action compressions M_k pairing the slot-k A parameters with the
    slot-(k+1) B parameters: M_k = b_params[k+1]^T d_k a_bases[k]."""
    return [gs.b_params[k + 1].T @ (d @ gs.a_bases[k])
            for k, d in enumerate(fs.base.diffs)]


def partition_function(fs: BFFieldSpace, gs: GaugeSubspace) -> float:
    """|sdet of the restricted action|^(+-1) divided by the declared Jacobian.

    Exponent signs follow the shifted parities: the (A_k, B_(k+1)) pair is
    odd exactly when k is even.  Metric gauge: equals the analytic torsion of
    the base.  Contraction gauge: equals |sdet(L restricted to ker iota)| with
    L = iota d + d iota.
    """
    log_z = 0.0
    for k, m in enumerate(restricted_action_blocks(fs, gs)):
        if m.shape[0] != m.shape[1]:
            raise DegenerateGaugeError(k, f"action block {k} is not square "
                                          f"({m.shape}): gauge is not Lagrangian")
        if m.size == 0:
            continue
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= 1e-10 * max(s[0], 1.0):
            if gs.kind == "contraction":
                raise DegenerateContractionError(degree=k)
            raise DegenerateGaugeError(k)
        # sum of log singular values = log|det|; Z is reported as a modulus
        log_z += (-1) ** k * float(np.sum(np.log(s)))
    return math.exp(log_z) / gs.jacobian_convention


def lie_operator_on_kernel(fs: BFFieldSpace, c: Contraction, k: int) -> np.ndarray:
    """L = iota d + d iota compressed to ker(iota) in degree k."""
    base = fs.base
    ker = c.kernel_basis(k)
    if k < fs.n:
        ld = c.iota[k + 1] @ (base.diffs[k] @ ker)
    else:
        ld = np.zeros((base.dims[k], ker.shape[1]))
    return ker.conj().T @ ld


# -- homotopy scans -------------------------------------------------------------


@dataclass
class ScanResult:
    """Structured gauge-scan records: t, Z(t), isotropy residual."""

    samples: List[Tuple[float, float, float]]
    max_relative_deviation: float


def homotopy_scan(fs: BFFieldSpace, family: Callable[[float], Contraction],
                  samples: int = 10) -> ScanResult:
    """Evaluate the contraction-gauge partition function along a family.

    Returns max |Z(t)/Z(0) - 1|; a degenerate member raises
    DegenerateContractionError identifying the first failing sample.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = [i / (samples - 1) for i in range(samples)]
    rows = []
    z0 = None
    worst = 0.0
    for t in ts:
        try:
            gs = contraction_gauge(fs, family(t))
            z = partition_function(fs, gs)
        except DegenerateContractionError as exc:
            raise DegenerateContractionError(str(exc), t=t)
        sub = (gs.a_bases, gs.b_bases)
        residual = _max_modulus_upper(_gram(fs, sub, sub))
        rows.append((t, z, residual))
        if z0 is None:
            z0 = z
        else:
            worst = max(worst, abs(z / z0 - 1.0))
    return ScanResult(rows, worst)


def gauge_polarization(fs: BFFieldSpace, gs: GaugeSubspace,
                       max_word_length: int = 12):
    """Darboux chart adapted to a gauge subspace, plus its coordinate names.

    In the rotated basis where the first columns of each slot span the A-side
    subspace, the gauge is the coordinate Lagrangian spanned by those A
    coordinates together with the B coordinates dual to the complement.
    Returns (chart, lagrangian_variable_names).
    """
    from .observables import bf_darboux_chart

    chart = bf_darboux_chart(fs, max_word_length)
    names = []
    for k, (a_basis, b_basis) in enumerate(zip(gs.a_bases, gs.b_bases)):
        na, nb = a_basis.shape[1], b_basis.shape[1]
        if na + nb != fs.dims[k]:
            raise DegenerateGaugeError(k, "gauge subspace is not half-dimensional")
        names.extend(f"a{k}_{i}" for i in range(na))
        names.extend(f"b{k}_{i}" for i in range(na, na + nb))
    return chart, tuple(names)


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first call: scipy stays off the import
    path of every command that draws no unitary family."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def unitary_contraction_family(tc: TwistedComplex, base: Contraction,
                               rng: np.random.Generator) -> Callable[[float], Contraction]:
    """Family t -> U(t) base U(t)^dagger with U(t) = exp(t K), K random
    skew-Hermitian of unit Frobenius norm per degree.  Stays inside the
    unitary-normalised class."""
    gens = []
    for d in tc.dims:
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        k = (z - z.conj().T) / 2.0
        norm = np.linalg.norm(k)
        gens.append(k / norm if norm > 0 else k)

    def family(t: float) -> Contraction:
        us = [expm(t * g) for g in gens]
        iota = [np.zeros((0, tc.dims[0]))]
        for k in range(1, tc.top_degree + 1):
            iota.append(us[k - 1] @ base.iota[k] @ us[k].conj().T)
        return Contraction.unitary(iota)

    return family
