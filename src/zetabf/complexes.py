"""Twisted cochain complexes: assembly, torsion, and the Schwarz resolution.

A cell complex stores its coboundary entries as integer combinations of words
in abstract generators (entries of the equivariant chain complex); applying a
unitary representation to each word produces the twisted differentials.  A
circle with the loop labelled g therefore twists to d_0 = rho(g) - 1 even
though its plain integer incidence matrix is zero.

Torsion is computed two ways and cross-checked: the alternating product of
flat determinants of the Laplacians, and Schwarz's coexact product over
det(d_k* d_k).  The resolution-based partition function assembles the
resolution operators explicitly, with the second field tower living in the
dual complex (transposed differentials), which is what the manifold picture
degenerates to once Hodge duality is stripped away.

A complex with Gram matrices is stored in its isometric presentation
G^(1/2) d G^(-1/2), the only way torsion and the partition functions see the
metric, so every consumer reads identity inner products.  Each complex
factorises its stored differentials once, into a ``SpectralRecord``: the
rank and coexact log det of every d_k, from its values-only SVD, and the log
det of every Laplacian, from its eigenvalues, each log det read off the kept
values by ``_kept_log``.  Ranks, Betti numbers, acyclicity, the
coexact log dets, the Laplacian torsion route, the expected ranks of the
Schwarz blocks and relation (3) all read it.  The record never mixes routes:
the Laplacian route reads Laplacian eigenvalues, the coexact route the
singular values of d_k.  Factorisations of other matrices stay separate
because they are cross-checks: relation (1) takes its own SVD of d_k*, and
the Schwarz resolution factorises the blocks it assembles.  The exact/coexact
bases of the BV gauges come from a second, with-vectors SVD (``hodge_bases``),
cut at the record's rank.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateResolutionError,
    NotAComplexError,
    NotAcyclicError,
    ParseError,
    RelatorViolationError,
    ZetaBFError,
)
from .orbits import ToralAutomorphism, g17

# Relative singular-value cutoff separating kernel from cokernel.
RANK_TOL = 1e-9

# Agreement required between the two torsion routes.
TORSION_XCHECK_TOL = 1e-10

# Declared relators must map within this of the identity.
RELATOR_TOL = 1e-10

# d_(k+1) d_k must vanish to this fraction of max(max_k |d_k|^2, 1): in the
# presentation a complex is given in, then in its isometric one.
D_SQUARE_TOL = 1e-12
ISOMETRIC_D_SQUARE_TOL = 1e-9

Word = Tuple[int, ...]            # signed 1-based generator indices
Entry = Tuple[Tuple[int, Word], ...]   # integer combination of words
# per degree k, the (cell x I in C^k, base cell in C^(k-1)) index pairs
Suspension = Tuple[Tuple[Tuple[int, int], ...], ...]

_EMPTY: Word = ()


def nonzero_mask(x: np.ndarray) -> np.ndarray:
    """The one rank decision: entries of ``x`` above RANK_TOL * max(max(x), 1).

    Applied to singular values or to Hermitian eigenvalues, whichever a site
    factorises; for stacked values (one row per member), per row.
    """
    if x.size == 0:
        return np.zeros(x.shape, dtype=bool)
    return x > RANK_TOL * np.maximum(x.max(axis=-1, keepdims=True), 1.0)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it (for arrays that caches depend on)."""
    a.setflags(write=False)
    return a


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of 2-D blocks, in the dtype they promote to."""
    rows, cols = (sum(b.shape[i] for b in blocks) for i in (0, 1))
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary (QR of a complex Ginibre matrix, phase-fixed)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fox_derivative(word: Word, gen: int) -> Entry:
    """Free Fox derivative d(word)/d(gen) as an integer combination of words."""
    terms = []
    prefix: List[int] = []
    for letter in word:
        if letter == gen:
            terms.append((1, tuple(prefix)))
        elif letter == -gen:
            terms.append((-1, tuple(prefix) + (letter,)))
        prefix.append(letter)
    return tuple(terms)


def _invert_word(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def _entry_augmentation(entry: Entry) -> int:
    return sum(c for c, _ in entry)


@dataclass
class CellComplex:
    """Cell counts plus group-ring-valued coboundary entries.

    ``coboundaries[k][i][j]`` is the entry pairing the i-th (k+1)-cell with
    the j-th k-cell.  ``incidence(k)`` returns the integer augmentation (the
    plain CW incidence matrix), which must square to zero exactly.
    ``self_dual`` declares Poincare self-duality (the ``self_dual=1`` field
    of a complex file header); builders that know their model is self-dual
    say so themselves.
    """

    counts: Tuple[int, ...]
    coboundaries: Tuple[Tuple[Tuple[Entry, ...], ...], ...]
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...] = ()
    name: str = ""
    self_dual: bool = False

    def __post_init__(self):
        n = len(self.counts)
        if len(self.coboundaries) != max(n - 1, 0):
            raise ValueError("need one coboundary block per consecutive degree pair")
        for k, block in enumerate(self.coboundaries):
            if len(block) != self.counts[k + 1]:
                raise ValueError(f"coboundary {k}: wrong row count")
            for row in block:
                if len(row) != self.counts[k]:
                    raise ValueError(f"coboundary {k}: wrong column count")
        for k in range(len(self.coboundaries) - 1):
            prod = self.incidence(k + 1) @ self.incidence(k)
            if np.any(prod != 0):
                raise NotAComplexError(
                    f"integer incidence does not satisfy d*d = 0 at degree {k}"
                )

    @property
    def top_degree(self) -> int:
        return len(self.counts) - 1

    def incidence(self, k: int) -> np.ndarray:
        block = self.coboundaries[k]
        out = np.zeros((self.counts[k + 1], self.counts[k]), dtype=np.int64)
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                out[i, j] = _entry_augmentation(entry)
        return out


@dataclass
class UnitaryRep:
    """Unitary representation of the abstract generators.

    Images must be unitary to 1e-12 and declared relators must map to the
    identity within 1e-10.
    """

    rank: int
    images: Dict[str, np.ndarray]

    def __post_init__(self):
        clean = {}
        for name, mat in self.images.items():
            u = np.atleast_2d(np.asarray(mat, dtype=complex))
            if u.shape != (self.rank, self.rank):
                raise ValueError(f"image of {name} has shape {u.shape}, rank={self.rank}")
            if np.linalg.norm(u @ u.conj().T - np.eye(self.rank)) >= 1e-12:
                raise ValueError(f"image of {name} is not unitary to 1e-12")
            clean[name] = u
        self.images = clean

    def evaluate(self, word: Word, generators: Sequence[str]) -> np.ndarray:
        out = np.eye(self.rank, dtype=complex)
        for letter in word:
            u = self.images[generators[abs(letter) - 1]]
            out = out @ (u if letter > 0 else u.conj().T)
        return out

    def check_relators(self, cc: CellComplex):
        eye = np.eye(self.rank)
        for word in cc.relators:
            err = np.linalg.norm(self.evaluate(word, cc.generators) - eye)
            if err >= RELATOR_TOL:
                raise RelatorViolationError(
                    f"relator {word} maps {err:.3e} away from the identity"
                )


def character_rep(assignments: Dict[str, complex]) -> UnitaryRep:
    """Rank-1 representation sending each generator to a unit complex number."""
    return UnitaryRep(1, {k: np.array([[v]]) for k, v in assignments.items()})


@dataclass(frozen=True)
class SpectralRecord:
    """Factorisations of a complex's stored differentials, computed once.

    Per differential d_k, from its values-only SVD: ``ranks[k]``, the count of
    singular values above the rank cut, and ``coexact_logdets[k]`` =
    log det_flat(d_k* d_k).  Per degree k = 0..N, from the eigenvalues of
    Delta_k: ``laplacian_logdets[k]`` = log det_flat(Delta_k).
    """

    ranks: Tuple[int, ...]
    coexact_logdets: Tuple[float, ...]
    laplacian_logdets: Tuple[float, ...]


def _kept_log(x: np.ndarray) -> Tuple[float, int]:
    """(sum of log x over the values of x above the rank cut, their count)."""
    keep = nonzero_mask(x)
    return float(np.sum(np.log(x[keep]))), int(np.count_nonzero(keep))


def _logdet_nonzero_sq(matrix: np.ndarray) -> Tuple[float, int]:
    """Sum of log(sigma^2) over nonzero singular values, plus their count."""
    log_s, count = _kept_log(np.linalg.svd(matrix, compute_uv=False))
    return 2.0 * log_s, count


def _gram_root(g: Optional[np.ndarray], n: int) -> np.ndarray:
    """Hermitian square root of an n x n Gram matrix (None is the identity).

    The one Gram validation: raises ValueError unless ``g`` is Hermitian to
    1e-12, of shape (n, n) and positive definite.
    """
    if g is None:
        g = np.eye(n)
    else:
        g = np.array(g, dtype=complex)
        if g.shape != (n, n) or np.linalg.norm(g - g.conj().T) > 1e-12:
            raise ValueError("Gram matrices must be Hermitian of matching size")
    w, v = np.linalg.eigh(g)
    if np.min(w, initial=np.inf) <= 0:
        raise ValueError("Gram matrices must be positive definite")
    return (v * np.sqrt(w)) @ v.conj().T


def _check_closes(diffs: Sequence[np.ndarray], tol: float):
    """Raise NotAComplexError unless every d_(k+1) d_k vanishes to ``tol``."""
    scale = max((np.linalg.norm(d) for d in diffs), default=1.0)
    for k in range(len(diffs) - 1):
        err = np.linalg.norm(diffs[k + 1] @ diffs[k])
        if err > tol * max(scale ** 2, 1.0):
            raise NotAComplexError(
                f"d_{k+1} d_{k} has norm {err:.3e}; complex does not close"
            )


class TwistedComplex:
    """Finite cochain complex in its isometric presentation, with Laplacians.

    ``diffs[k]`` maps C^k to C^(k+1).  Optional Hermitian positive definite
    Gram matrices (default: the identity, combinatorial L2 in the cell basis)
    probe metric dependence.  They are consumed on construction: ``diffs[k]``
    stores G_(k+1)^(1/2) d_k G_k^(-1/2), so every consumer works with
    identity inner products.  d_(k+1) d_k must vanish to D_SQUARE_TOL as given
    and to ISOMETRIC_D_SQUARE_TOL as stored.  The differentials are read-only
    copies, so the cached spectral data cannot go stale.

    ``suspension`` marks a mapping-torus complex: per degree k, the
    (cell x I, base cell) index pairs that the Reeb contraction joins; None
    for every other complex.
    """

    def __init__(self, diffs: Sequence[np.ndarray],
                 grams: Optional[Sequence[Optional[np.ndarray]]] = None,
                 poincare_self_dual: bool = False):
        diffs = [np.array(d, dtype=complex, ndmin=2) for d in diffs]
        if not diffs:
            raise ValueError("need at least one differential")
        dims = [diffs[0].shape[1]]
        for d in diffs:
            if d.shape[1] != dims[-1]:
                raise ValueError("differential shapes do not chain")
            dims.append(d.shape[0])
        self.dims = tuple(dims)
        self.top_degree = len(dims) - 1
        self.poincare_self_dual = poincare_self_dual
        self.suspension: Optional[Suspension] = None

        _check_closes(diffs, D_SQUARE_TOL)
        if grams is not None and len(grams) != len(dims):
            raise ValueError("need one Gram matrix per degree")
        if grams is not None and any(g is not None for g in grams):
            roots = [_gram_root(g, n) for g, n in zip(grams, dims)]
            diffs = [roots[k + 1] @ d @ np.linalg.inv(roots[k])
                     for k, d in enumerate(diffs)]
            _check_closes(diffs, ISOMETRIC_D_SQUARE_TOL)
        self.diffs = tuple(read_only(d) for d in diffs)

    # -- basic operators ----------------------------------------------------

    def laplacian(self, k: int) -> np.ndarray:
        """Delta_k = d_k* d_k + d_(k-1) d_(k-1)*, d* the conjugate transpose."""
        n = self.dims[k]
        lap = np.zeros((n, n), dtype=complex)
        if k < len(self.diffs):
            lap += self.diffs[k].conj().T @ self.diffs[k]
        if k > 0:
            lap += self.diffs[k - 1] @ self.diffs[k - 1].conj().T
        return lap

    # -- ranks, Betti numbers, acyclicity ------------------------------------

    @cached_property
    def spectrum(self) -> SpectralRecord:
        """Spectral record of the stored differentials, computed on first use."""
        coexact, ranks = zip(*map(_logdet_nonzero_sq, self.diffs))
        lap = tuple(_kept_log(np.linalg.eigvalsh(self.laplacian(k)))[0]
                    for k in range(self.top_degree + 1))
        return SpectralRecord(ranks, coexact, lap)

    @cached_property
    def hodge_bases(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Per differential d_k: (orthonormal basis of im d_k, of the coexact
        subspace of C^k), from one SVD with vectors, cut at the spectral
        record's rank."""
        out = []
        for d, rank in zip(self.diffs, self.spectrum.ranks):
            u, _, vh = np.linalg.svd(d, full_matrices=False)
            out.append((read_only(u[:, :rank].copy()), read_only(vh[:rank, :].conj().T)))
        return tuple(out)

    def rank(self, k: int) -> int:
        if not (0 <= k < len(self.diffs)):
            return 0
        return self.spectrum.ranks[k]

    def betti_numbers(self) -> Tuple[int, ...]:
        return tuple(self.dims[k] - self.rank(k) - self.rank(k - 1)
                     for k in range(self.top_degree + 1))

    def require_acyclic(self):
        betti = self.betti_numbers()
        if any(betti):
            raise NotAcyclicError(betti)


def build_twisted_complex(cc: CellComplex, rep: UnitaryRep,
                          grams: Optional[Sequence[Optional[np.ndarray]]] = None,
                          poincare_self_dual: Optional[bool] = None) -> TwistedComplex:
    """Assemble the twisted differentials by applying ``rep`` to each entry word."""
    rep.check_relators(cc)
    r = rep.rank
    diffs = []
    for k, block in enumerate(cc.coboundaries):
        rows = cc.counts[k + 1] * r
        cols = cc.counts[k] * r
        d = np.zeros((rows, cols), dtype=complex)
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                acc = np.zeros((r, r), dtype=complex)
                for coeff, word in entry:
                    acc += coeff * rep.evaluate(word, cc.generators)
                d[i * r:(i + 1) * r, j * r:(j + 1) * r] = acc
        diffs.append(d)
    if poincare_self_dual is None:
        poincare_self_dual = cc.self_dual
    try:
        return TwistedComplex(diffs, grams=grams,
                              poincare_self_dual=poincare_self_dual)
    except NotAComplexError as exc:
        raise NotAComplexError(f"bad labelling for {cc.name or 'cell complex'}: {exc}")


# -- spectral bookkeeping -----------------------------------------------------


def torsion_routes(tc: TwistedComplex) -> Tuple[float, float]:
    """(Laplacian-product torsion, coexact-product torsion), uncrosschecked.

    The first is prod_k det_flat(Delta_k)^(k/2 * (-1)^(k+1)), the second
    Schwarz's prod_k det_flat(d_k* d_k)^((-1)^k/2).
    """
    tc.require_acyclic()
    spec = tc.spectrum

    log_coexact = 0.0
    for k, ell in enumerate(spec.coexact_logdets):
        log_coexact += 0.5 * (-1) ** k * ell

    log_laplace = 0.0
    for k in range(1, tc.top_degree + 1):
        log_laplace += 0.5 * k * (-1) ** (k + 1) * spec.laplacian_logdets[k]
    return math.exp(log_laplace), math.exp(log_coexact)


def analytic_torsion(tc: TwistedComplex, sign: int = 1) -> float:
    """Analytic torsion prod_k det_flat(Delta_k)^(k/2 * (-1)^(k+1)).

    Also evaluates Schwarz's coexact form prod_k det_flat(d_k* d_k)^((-1)^k/2)
    and insists the two agree to 1e-10; ``sign=-1`` reports the reciprocal
    convention.
    """
    laplace, coexact = torsion_routes(tc)
    if abs(math.log(laplace) - math.log(coexact)) > \
            TORSION_XCHECK_TOL * max(1.0, abs(math.log(coexact))):
        raise ZetaBFError(
            "torsion cross-check failed: laplacian route "
            f"{laplace!r} vs coexact route {coexact!r}"
        )
    return coexact ** sign


def schwarz_partition(tc: TwistedComplex) -> float:
    """Partition function of the resolution of the BF action kernel.

    Assembles T, T_1, ..., T_k as explicit block matrices (the B tower in the
    dual complex, i.e. transposed differentials) and returns

        det_flat(T^2)^(-1/4) * prod_k det_flat(T_k T_k*)^((-1)^(k+1)/2).

    For a one-degree complex the resolution degenerates and the coexact
    product is returned directly.
    """
    tc.require_acyclic()
    n = tc.top_degree

    if n == 1:
        return math.exp(0.5 * tc.spectrum.coexact_logdets[0])

    ranks = tc.spectrum.ranks
    d = tc.diffs

    # T^2 = diag(d_1* d_1, dual twin); log det_flat and a rank check.
    t_sq = _block_diag(d[1].conj().T @ d[1], np.conj(d[1]) @ d[1].T)
    log_w, count = _kept_log(np.linalg.eigvalsh(t_sq))
    if count != 2 * ranks[1]:
        raise DegenerateResolutionError("action block T^2 has unexpected rank")
    log_z = -0.25 * log_w

    # Ghost towers (T_k, expected rank), the dual tower's differentials d^T:
    # T_1 = diag(d_0, d_2^T) (d_2^T for N >= 3), T_k = d_(k+1)^T for 2 <= k <= N-2.
    towers = [(_block_diag(d[0], d[2].T), ranks[0] + ranks[2]) if n >= 3
              else (_block_diag(d[0]), ranks[0])]
    towers += [(d[k + 1].T, ranks[k + 1]) for k in range(2, n - 1)]
    for k, (t_k, expected) in enumerate(towers, start=1):
        ld, count = _logdet_nonzero_sq(t_k)
        if count != expected:
            raise DegenerateResolutionError(f"resolution block T_{k} has unexpected rank")
        log_z += 0.5 * (-1) ** (k + 1) * ld
    return math.exp(log_z)


@dataclass
class DetRelationsReport:
    """Residuals (in log scale) of the determinant relations.

    relation1: det(d_k* d_k) = det(d_k d_k*) for all k;
    relation3: det(Delta_k) = det(d_(k-1) d_(k-1)*) det(d_k* d_k);
    relation2: det(d_(k-1) d_(k-1)*) = det(d_(N-k)* d_(N-k)), evaluated only
    when the complex declares a dual pairing (closed-manifold models).
    """

    relation1: float
    relation3: float
    relation2: Optional[float]
    coexact_logdets: Tuple[float, ...]


def det_relations_report(tc: TwistedComplex) -> DetRelationsReport:
    tc.require_acyclic()
    n = tc.top_degree
    ell = tc.spectrum.coexact_logdets          # log det(d_k* d_k), k = 0..N-1

    res1 = 0.0
    for k, d in enumerate(tc.diffs):
        dd_star, _ = _logdet_nonzero_sq(d.conj().T)
        res1 = max(res1, abs(dd_star - ell[k]))

    res3 = 0.0
    for k in range(n + 1):
        target = (ell[k - 1] if k >= 1 else 0.0) + (ell[k] if k < n else 0.0)
        res3 = max(res3, abs(tc.spectrum.laplacian_logdets[k] - target))

    res2 = None
    if tc.poincare_self_dual:
        res2 = 0.0
        for k in range(1, n + 1):
            res2 = max(res2, abs(ell[k - 1] - ell[n - k]))

    return DetRelationsReport(res1, res3, res2, tuple(ell))


# -- model complexes ----------------------------------------------------------


def circle_cell_complex() -> CellComplex:
    entry = ((1, (1,)), (-1, _EMPTY))
    return CellComplex(
        counts=(1, 1),
        coboundaries=(((entry,),),),
        generators=("g",),
        name="circle",
    )


def circle_complex(theta: float) -> TwistedComplex:
    rep = character_rep({"g": cmath.exp(1j * theta)})
    return build_twisted_complex(circle_cell_complex(), rep, poincare_self_dual=True)


def torus_cell_complex() -> CellComplex:
    commutator: Word = (1, 2, -1, -2)
    d0 = (
        (((1, (1,)), (-1, _EMPTY)),),
        (((1, (2,)), (-1, _EMPTY)),),
    )
    d1 = ((fox_derivative(commutator, 1), fox_derivative(commutator, 2)),)
    return CellComplex(
        counts=(1, 2, 1),
        coboundaries=(d0, d1),
        generators=("a", "b"),
        relators=(commutator,),
        name="torus",
    )


def torus_complex(alpha: float, beta: float) -> TwistedComplex:
    rep = character_rep({"a": cmath.exp(1j * alpha), "b": cmath.exp(1j * beta)})
    return build_twisted_complex(torus_cell_complex(), rep, poincare_self_dual=True)


def _power_word(gen: int, power: int) -> Word:
    if power >= 0:
        return (gen,) * power
    return (-gen,) * (-power)


def mapping_torus_cell_complex(a_matrix) -> CellComplex:
    """CW complex (1,3,3,1 cells) of the mapping torus of A acting on T^2.

    A must be a hyperbolic element of GL(2,Z), as ``ToralAutomorphism``
    decides; otherwise NotHyperbolicError.
    """
    aut = ToralAutomorphism.from_matrix(a_matrix)
    a, det = aut.matrix, aut.det

    commutator: Word = (1, 2, -1, -2)
    # Images of the generators under A (columns give the words).
    w_a = _power_word(1, a[0, 0]) + _power_word(2, a[1, 0])
    w_b = _power_word(1, a[0, 1]) + _power_word(2, a[1, 1])
    r_a: Word = (3,) + (1,) + (-3,) + _invert_word(w_a)
    r_b: Word = (3,) + (2,) + (-3,) + _invert_word(w_b)

    d0 = tuple(
        (((1, (g,)), (-1, _EMPTY)),) for g in (1, 2, 3)
    )
    d1 = (
        (fox_derivative(commutator, 1), fox_derivative(commutator, 2),
         fox_derivative(commutator, 3)),
        (fox_derivative(r_a, 1), fox_derivative(r_a, 2), fox_derivative(r_a, 3)),
        (fox_derivative(r_b, 1), fox_derivative(r_b, 2), fox_derivative(r_b, 3)),
    )
    # 3-cell F x I: monodromy acts on F by det(A); the (dF) x I terms carry
    # the negated Fox derivatives of the commutator (they augment to zero).
    f_col: Entry = ((det, (3,)), (-1, _EMPTY))
    ra_col: Entry = tuple((-c, w) for c, w in fox_derivative(commutator, 1))
    rb_col: Entry = tuple((-c, w) for c, w in fox_derivative(commutator, 2))
    d2 = ((f_col, ra_col, rb_col),)

    return CellComplex(
        counts=(1, 3, 3, 1),
        coboundaries=(d0, d1, d2),
        generators=("a", "b", "t"),
        relators=(commutator, r_a, r_b),
        name="mapping_torus",
    )


def mapping_torus_complex(a_matrix, theta: float) -> TwistedComplex:
    """Mapping torus of a hyperbolic A in SL(2,Z) twisted by e^(i theta) on
    the suspension generator; acyclic for theta not in 2*pi*Z."""
    cc = mapping_torus_cell_complex(a_matrix)
    rep = character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(1j * theta)})
    tc = build_twisted_complex(cc, rep, poincare_self_dual=True)
    # cells x I: t in degree 1, (a x I, b x I) in degree 2, F x I in degree 3
    tc.suspension = ((), ((2, 0),), ((1, 0), (2, 1)), ((0, 0),))
    return tc


def random_twisted_complex(rng: np.random.Generator, top_degree: int = 3,
                           max_cells: int = 4, rank: int = 1) -> TwistedComplex:
    """Random acyclic twisted complex with controlled conditioning.

    Dimensions are cells-per-degree times the twist rank; the differentials
    are random unitary mixtures with singular values in [0.5, 2], so every
    generated complex is exactly acyclic and well conditioned.
    """
    if top_degree < 1:
        raise ValueError("top_degree must be >= 1")
    cap = max(2, max_cells * rank)
    ranks = []
    prev = 0
    for _ in range(top_degree):
        hi = max(1, cap - prev)
        m = int(rng.integers(1, hi + 1))
        ranks.append(m)
        prev = m
    dims = []
    prev = 0
    for m in ranks:
        dims.append(prev + m)
        prev = m
    dims.append(prev)

    us = [haar_unitary(rng, n) for n in dims]
    diffs = []
    for k, m in enumerate(ranks):
        s = rng.uniform(0.5, 2.0, size=m)
        left = us[k + 1][:, :m]
        right = us[k][:, dims[k] - m:]
        diffs.append(left @ np.diag(s) @ right.conj().T)
    return TwistedComplex(diffs)


# -- file format ---------------------------------------------------------------

def _word_to_str(word: Word, generators: Sequence[str]) -> str:
    if not word:
        return "1"
    parts = []
    for letter in word:
        name = generators[abs(letter) - 1]
        parts.append(name if letter > 0 else name + "'")
    return ".".join(parts)


def _entry_to_str(entry: Entry, generators: Sequence[str]) -> str:
    if not entry:
        return "0"
    parts = []
    for coeff, word in entry:
        sign = "+" if coeff >= 0 else "-"
        parts.append(f"{sign}{abs(coeff)}*{_word_to_str(word, generators)}")
    return " ".join(parts)


def write_complex_file(path, cc: CellComplex, rep: UnitaryRep,
                       grams: Optional[Sequence[Optional[np.ndarray]]] = None):
    """Canonical writer for the twisted-complex text format (bit-exact)."""
    lines = [f"complex top={cc.top_degree} rank={rep.rank}"
             + (" self_dual=1" if cc.self_dual else "")]
    lines.append("counts " + " ".join(str(c) for c in cc.counts))
    lines.append("generators " + " ".join(cc.generators))
    for word in cc.relators:
        lines.append("relator " + _word_to_str(word, cc.generators))
    for k, block in enumerate(cc.coboundaries):
        lines.append(f"boundary {k}")
        for row in block:
            lines.append("  " + " ; ".join(_entry_to_str(e, cc.generators) for e in row))
    for name in cc.generators:
        lines.append(f"rep {name}")
        mat = rep.images[name]
        for row in mat:
            lines.append("  " + " ".join(f"{g17(z.real)},{g17(z.imag)}"
                                         for z in row))
    if grams is not None:
        for k, g in enumerate(grams):
            if g is None:
                continue
            lines.append(f"gram {k}")
            for row in np.asarray(g, dtype=complex):
                lines.append("  " + " ".join(f"{g17(z.real)},{g17(z.imag)}"
                                             for z in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _integer(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {text!r}")


def _argument(fields: List[str], lineno: int) -> str:
    """The one argument of a directive line such as ``boundary 0``."""
    if len(fields) != 2:
        raise ParseError(lineno, f"{fields[0]} takes one argument, got {len(fields) - 1}")
    return fields[1]


def _parse_word(token: str, gen_index: Dict[str, int], lineno: int) -> Word:
    if token == "1":
        return _EMPTY
    letters = []
    for atom in token.split("."):
        inverse = atom.endswith("'")
        name = atom[:-1] if inverse else atom
        if name not in gen_index:
            raise ParseError(lineno, f"unknown generator {name!r}")
        idx = gen_index[name]
        letters.append(-idx if inverse else idx)
    return tuple(letters)


def _parse_entry(text: str, gen_index: Dict[str, int], lineno: int) -> Entry:
    text = text.strip()
    if text == "0":
        return ()
    terms = []
    for tok in text.split():
        sign = 1
        if tok.startswith("+"):
            tok = tok[1:]
        elif tok.startswith("-"):
            sign = -1
            tok = tok[1:]
        if "*" in tok:
            num, word = tok.split("*", 1)
            coeff = sign * _integer(num, lineno, "coefficient")
            terms.append((coeff, _parse_word(word, gen_index, lineno)))
        else:
            raise ParseError(lineno, f"malformed term {tok!r}")
    return tuple(terms)


def _parse_complex_row(text: str, lineno: int) -> List[complex]:
    out = []
    for tok in text.split():
        if "," not in tok:
            raise ParseError(lineno, f"expected re,im pair, got {tok!r}")
        re_s, im_s = tok.split(",", 1)
        try:
            out.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ParseError(lineno, f"bad float in {tok!r}")
    return out


def read_complex_file(path):
    """Parse the twisted-complex format; returns (CellComplex, UnitaryRep, grams)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    top = rank = None
    self_dual = False
    counts: Optional[Tuple[int, ...]] = None
    generators: List[str] = []
    relator_words: List[str] = []
    boundary_rows: Dict[int, List[str]] = {}
    rep_rows: Dict[str, List[str]] = {}
    gram_rows: Dict[int, Tuple[int, List[str]]] = {}
    section = None

    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indented = line.startswith((" ", "\t"))
        if indented:
            if section is None:
                raise ParseError(lineno, "data row outside any block")
            section[1].append((lineno, stripped))
            continue
        fields = stripped.split()
        key = fields[0]
        if key == "complex":
            for f in fields[1:]:
                if f.startswith("top="):
                    top = _integer(f[4:], lineno, "top")
                elif f.startswith("rank="):
                    rank = _integer(f[5:], lineno, "rank")
                elif f == "self_dual=1":
                    self_dual = True
                else:
                    raise ParseError(lineno, f"unknown header field {f!r}")
            section = None
        elif key == "counts":
            counts = tuple(_integer(x, lineno, "counts") for x in fields[1:])
            section = None
        elif key == "generators":
            generators = list(fields[1:])
            section = None
        elif key == "label":        # checked, then ignored: generators names them
            idx, colon, _ = _argument(fields, lineno).partition(":")
            if not colon:
                raise ParseError(lineno, "label must read index:name")
            _integer(idx, lineno, "label index")
            section = None
        elif key == "relator":
            relator_words.append(_argument(fields, lineno))
            section = None
        elif key == "boundary":
            k = _integer(_argument(fields, lineno), lineno, "boundary degree")
            boundary_rows[k] = []
            section = ("boundary", boundary_rows[k])
        elif key == "rep":
            name = _argument(fields, lineno)
            rep_rows[name] = []
            section = ("rep", rep_rows[name])
        elif key == "gram":
            k = _integer(_argument(fields, lineno), lineno, "gram degree")
            gram_rows[k] = (lineno, [])
            section = ("gram", gram_rows[k][1])
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")

    if top is None or rank is None or counts is None or not generators:
        raise ParseError(0, "missing complex header, counts or generators")
    if len(counts) != top + 1:
        raise ParseError(0, f"counts has {len(counts)} entries, expected {top + 1}")

    gen_index = {name: i + 1 for i, name in enumerate(generators)}
    cobs = []
    for k in range(top):
        if k not in boundary_rows:
            raise ParseError(0, f"missing boundary {k} block")
        rows = []
        for lineno, row in boundary_rows[k]:
            entries = [
                _parse_entry(cell, gen_index, lineno) for cell in row.split(";")
            ]
            if len(entries) != counts[k]:
                raise ParseError(lineno, f"expected {counts[k]} entries per row")
            rows.append(tuple(entries))
        if len(rows) != counts[k + 1]:
            raise ParseError(0, f"boundary {k}: expected {counts[k + 1]} rows")
        cobs.append(tuple(rows))

    images = {}
    for name in generators:
        if name not in rep_rows:
            raise ParseError(0, f"missing rep block for generator {name!r}")
        mat = [_parse_complex_row(row, lineno) for lineno, row in rep_rows[name]]
        if len(mat) != rank or any(len(r) != rank for r in mat):
            raise ParseError(0, f"rep {name}: expected a {rank}x{rank} matrix")
        images[name] = np.array(mat)

    relators = tuple(_parse_word(w, gen_index, 0) for w in relator_words)
    cc = CellComplex(counts=counts, coboundaries=tuple(cobs),
                     generators=tuple(generators), relators=relators, name="file",
                     self_dual=self_dual)
    try:
        rep = UnitaryRep(rank, images)
    except ValueError as exc:
        raise ParseError(0, str(exc))

    grams = None
    if gram_rows:
        grams = [None] * (top + 1)
        for k, (header, rows) in gram_rows.items():
            if not 0 <= k <= top:
                raise ParseError(header, f"gram {k}: degree outside 0..{top}")
            n = counts[k] * rank
            mat = [_parse_complex_row(row, lineno) for lineno, row in rows]
            if len(mat) != n or any(len(r) != n for r in mat):
                raise ParseError(header, f"gram {k}: expected a {n}x{n} matrix")
            try:
                _gram_root(mat, n)
            except ValueError as exc:
                raise ParseError(header, f"gram {k}: {exc}")
            grams[k] = np.array(mat)
    return cc, rep, grams
