"""Twisted cochain complexes: assembly, torsion, and the Schwarz resolution.

A cell complex stores its coboundary entries as integer combinations of words
in abstract generators (entries of the equivariant chain complex); applying a
unitary representation to each word produces the twisted differentials.  A
circle with the loop labelled g therefore twists to d_0 = rho(g) - 1 even
though its plain integer incidence matrix is zero.  ``build_twisted_complex``
is where the two meet, once: it also carries a mapping-torus cell complex's
Reeb pairs into the twist, at any rank.

A term of an entry is ``(coeff, word, cut)``: coeff times the prefix
word[:cut].  The Fox derivatives of one relator all cut that one word, so a
cell complex holds each relator once however many terms read it, and the
twist walks each distinct word (one tuple object) once, with the running
product rho(w[:i+1]) = rho(w[:i]) u_(w[i]) from the identity.  That is the
product order of multiplying every prefix out on its own, so the
differentials are the same to the bit, in time and memory linear in the
total word length: a mapping torus of A costs O(|a_ij|), not its square.

Torsion is computed two ways and cross-checked: the alternating product of
flat determinants of the Laplacians, and Schwarz's coexact product over
det(d_k* d_k).  The resolution-based partition function reads the
resolution operators as block-diagonal matrices, with the second field tower
living in the dual complex (transposed differentials), which is what the
manifold picture degenerates to once Hodge duality is stripped away; it
factorises each diagonal block on its own and merges their values, so no
block-diagonal assembly is ever factorised.

A complex with Gram matrices is stored in its isometric presentation
G^(1/2) d G^(-1/2), the only way torsion and the partition functions see the
metric, so every consumer reads identity inner products.  Each complex
factorises its stored differentials once, into a ``SpectralRecord``: the
rank and coexact log det of every d_k, from its values-only SVD, and the log
det of every Laplacian, from its eigenvalues.  Its cut of the singular
values of each d_k (``nonzero_mask``) is the complex's one rank decision:
Betti numbers, acyclicity, both torsion routes, the Schwarz blocks, relations
(1) and (3) and the bases of the BV gauges read its ranks.  Factorisations of
other matrices stay separate because they are cross-checks (relation (1)
takes its own SVD of d_k*, the Schwarz resolution factorises the diagonal
blocks of its operators: d_1* d_1 and its dual twin, d_0 and d_2^T), but
each keeps its largest values, as many as the record's ranks give it, and
cuts nothing again.  The exact/coexact bases of the BV gauges (the metric
gauge's, and the Hodge contraction's iota and kernel splits) come from a
second, with-vectors SVD (``hodge_bases``), cut at the record's rank.

The random batches of the acceptance suite are factorised by shape:
``random_twisted_complexes`` fills its complexes' records, and
``schwarz_partitions`` and ``det_relations_reports`` factorise their blocks,
with one stacked LAPACK call per matrix shape across the batch
(``_values_by_shape``).  A stacked call factorises each member exactly as a
lone call would, so every value keeps its bits; a batch of one complex makes
the lone calls, one matrix at a time, and ``TwistedComplex.spectrum``,
``schwarz_partition`` and ``det_relations_report`` are such batches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    NotAComplexError,
    NotAcyclicError,
    ParseError,
    RelatorViolationError,
    ZetaBFError,
)
from .orbits import ToralAutomorphism, content_lines, g17

# Relative singular-value cutoff separating kernel from cokernel.
RANK_TOL = 1e-9

# Agreement required between the two torsion routes.
TORSION_XCHECK_TOL = 1e-10

# Declared relators must map within this of the identity.
RELATOR_TOL = 1e-10

# A Gram matrix must be Hermitian to this fraction of its norm.
GRAM_HERMITIAN_TOL = 1e-12

# d_(k+1) d_k must vanish to this fraction of max(max_k |d_k|^2, 1): in the
# presentation a complex is given in, then in its isometric one.
D_SQUARE_TOL = 1e-12
ISOMETRIC_D_SQUARE_TOL = 1e-9

# Mapping-torus cell complexes kept, one per A: theta sweeps repeat A.
MAPPING_TORI_KEPT = 8

Word = Tuple[int, ...]            # signed 1-based generator indices
Term = Tuple[int, Word, int]      # (coeff, word, cut): coeff * word[:cut]
Entry = Tuple[Term, ...]          # integer combination of word prefixes
# per degree k, the (cell x I in C^k, base cell in C^(k-1)) index pairs
Suspension = Tuple[Tuple[Tuple[int, int], ...], ...]

_EMPTY: Word = ()


def nonzero_mask(x: np.ndarray) -> np.ndarray:
    """The rank cut: entries of ``x`` above RANK_TOL * max(max(x), 1).

    For stacked values (one row per member), per row.  A complex cuts only
    the singular values of its d_k, in ``SpectralRecord``; ``bv`` cuts only
    the contraction gauges' action blocks, which the record does not
    factorise.
    """
    if x.size == 0:
        return np.zeros(x.shape, dtype=bool)
    return x > RANK_TOL * np.maximum(x.max(axis=-1, keepdims=True), 1.0)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it (for arrays that caches depend on)."""
    a.setflags(write=False)
    return a


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n complex Ginibre matrix: real, then imaginary parts, from ``rng``,
    each draw written into the one complex array."""
    z = np.empty((n, n), dtype=complex)
    z.real = rng.normal(size=(n, n))
    z.imag = rng.normal(size=(n, n))
    return z


def phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """The Haar unitary of a Ginibre matrix ``z``: Q of z = QR, each column
    times the phase of its diagonal entry of R (Mezzadri, "How to generate
    random matrices from the classical compact groups", Notices AMS 54, 2007,
    arXiv:math-ph/0609050).  ``z`` may carry a leading stack axis: one
    stacked QR then factorises every member, each exactly as it would be
    alone."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def fox_derivative(word: Word, gen: int) -> Entry:
    """Free Fox derivative d(word)/d(gen) as an integer combination of
    prefixes of ``word``: +word[:i] for each letter gen at i, -word[:i+1]
    for each letter gen^-1.  Every term holds ``word`` itself, not a copy."""
    terms = []
    for i, letter in enumerate(word):
        if letter == gen:
            terms.append((1, word, i))
        elif letter == -gen:
            terms.append((-1, word, i + 1))
    return tuple(terms)


def _invert_word(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def _entry_augmentation(entry: Entry) -> int:
    return sum(c for c, _, _ in entry)


def _as_term(term) -> Term:
    """A term as (coeff, word, cut): a plain (coeff, word) reads its whole word."""
    if len(term) == 2:
        return term[0], term[1], len(term[1])
    if len(term) != 3:
        raise ValueError(f"a term is (coeff, word) or (coeff, word, cut), got {term!r}")
    return term


def _reeb_fits(counts: Sequence[int], k: int, pairs) -> bool:
    """Whether degree k holds the Reeb pairs: 1 <= k <= top, each cell x I
    in C^k and its base cell in C^(k-1)."""
    return 1 <= k < len(counts) and all(0 <= i < counts[k] and 0 <= j < counts[k - 1]
                                        for i, j in pairs)


@dataclass(frozen=True)
class CellComplex:
    """Cell counts plus group-ring-valued coboundary entries.

    ``coboundaries[k][i][j]`` is the entry pairing the i-th (k+1)-cell with
    the j-th k-cell: a tuple of terms (coeff, word, cut), each coeff times
    the prefix word[:cut]; a plain (coeff, word) term is stored as (coeff,
    word, len(word)).  Terms that cut one shared word (the same tuple, as
    ``fox_derivative`` gives them) share its walk: construction checks each
    distinct word once and stores the plan that ``build_twisted_complex``
    follows, ``walks`` (each distinct word with its cuts, ascending) and the
    slot, an index into the prefixes in walk order, of each relator
    (``relator_slots``, its whole word) and of each term (``term_slots``, in
    term order).  ``incidence(k)`` returns the integer augmentation (the
    plain CW incidence matrix), which must square to zero exactly.
    ``self_dual`` declares Poincare self-duality at the unit metric (a Gram
    metric may break it); read from a file, it is the header's ``self_dual=1``
    field, which declares it at the file's metric.  ``suspension`` holds a
    mapping torus's Reeb pairs: per degree k, the (cell x I in C^k, base cell
    in C^(k-1)) cell indices, none in degree 0.  Construction checks every
    index: cells, Reeb pairs, cuts and the letters of every word, which must
    name one of the distinct generators.  The complex is immutable, so one
    instance may serve every twist of it.
    """

    counts: Tuple[int, ...]
    coboundaries: Tuple[Tuple[Tuple[Entry, ...], ...], ...]
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...] = ()
    name: str = ""
    self_dual: bool = False
    suspension: Optional[Suspension] = None

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
        object.__setattr__(self, "coboundaries", tuple(
            tuple(tuple(tuple(_as_term(t) for t in entry) for entry in row) for row in block)
            for block in self.coboundaries))
        if len(set(self.generators)) != len(self.generators):
            raise ValueError(f"repeated generator name in {self.generators}")
        # every prefix read: each relator whole, then each term, in term order
        reads = [(w, len(w)) for w in self.relators] + [
            (w, cut) for block in self.coboundaries for row in block for entry in row
            for _, w, cut in entry]
        cuts: Dict[int, Tuple[Word, set]] = {}          # id(w) -> (w, cuts read)
        for w, cut in reads:
            if not 0 <= cut <= len(w):
                raise ValueError(f"a term cuts its word of length {len(w)} at {cut}")
            cuts.setdefault(id(w), (w, set()))[1].add(cut)
        if not all(0 < abs(x) <= len(self.generators) for w, _ in cuts.values() for x in w):
            raise ValueError(f"a word names a letter outside +-1..{len(self.generators)}")
        # the walk plan: each distinct word once, its cuts ascending; slot s
        # is the s-th prefix the walks reach, and each read names its slot
        slot: Dict[Tuple[int, int], int] = {}
        walks = []
        for key, (w, read) in cuts.items():
            walks.append((w, tuple(sorted(read))))
            for cut in walks[-1][1]:
                slot[key, cut] = len(slot)
        slots = [slot[id(w), cut] for w, cut in reads]
        object.__setattr__(self, "walks", tuple(walks))
        object.__setattr__(self, "relator_slots", tuple(slots[:len(self.relators)]))
        object.__setattr__(self, "term_slots", tuple(slots[len(self.relators):]))
        s = self.suspension
        if s is not None and (len(s) != n or s[0] or not all(
                _reeb_fits(self.counts, k, pairs) for k, pairs in enumerate(s[1:], start=1))):
            raise ValueError("suspension needs one tuple of Reeb pairs per degree, "
                             "none in degree 0, each cell index in range")
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


def character_rep(assignments: Dict[str, complex]) -> UnitaryRep:
    """Rank-1 representation sending each generator to a unit complex number."""
    return UnitaryRep(1, {k: np.array([[v]]) for k, v in assignments.items()})


@dataclass(frozen=True)
class SpectralRecord:
    """Factorisations of a complex's stored differentials, computed once.

    Per differential d_k, from its values-only SVD: ``ranks[k]``, the count of
    singular values above the rank cut, and ``coexact_logdets[k]`` =
    log det_flat(d_k* d_k).  Per degree k = 0..N, from the eigenvalues of
    Delta_k: ``laplacian_logdets[k]`` = log det_flat(Delta_k), over its
    largest rank d_k + rank d_(k-1) eigenvalues.
    """

    ranks: Tuple[int, ...]
    coexact_logdets: Tuple[float, ...]
    laplacian_logdets: Tuple[float, ...]


def _log_sum(x: np.ndarray) -> float:
    """Sum of log x."""
    return float(np.sum(np.log(x)))


def _logdet_top_sq(svals: Sequence[np.ndarray], count: int) -> float:
    """Sum of log(sigma^2) over the largest ``count`` singular values of a
    block-diagonal matrix, given each block's values-only SVD: merged
    descending as the SVD of one block gives them."""
    s = -np.sort(-np.concatenate(svals))
    return 2.0 * _log_sum(s[:count])


def _values_by_shape(kernel: str, shapes: Sequence[Tuple[int, int]],
                     build: Callable[[int], np.ndarray], stack: bool) -> List[np.ndarray]:
    """The singular values (``kernel`` "svd") or the eigenvalues ("eigvalsh")
    of the matrices build(0), build(1), ..., of shapes ``shapes``, in input
    order.

    With ``stack``, the matrices of one shape are built when their group
    comes up and factorised in one stacked call, which factorises each member
    exactly as a lone call would; a group of one is factorised alone.
    Without it, each matrix is built and factorised alone, in input order:
    a batch of one complex makes the calls of its lone form.
    """
    def values(a):
        return np.linalg.svd(a, compute_uv=False) if kernel == "svd" else np.linalg.eigvalsh(a)

    if not stack:
        return [values(build(i)) for i in range(len(shapes))]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    out: List[np.ndarray] = [None] * len(shapes)
    for members in groups.values():
        if len(members) == 1:
            out[members[0]] = values(build(members[0]))
        else:
            for i, v in zip(members, values(np.stack([build(i) for i in members]))):
                out[i] = v
    return out


def _gram_root(g: Optional[np.ndarray], n: int) -> np.ndarray:
    """Hermitian square root of an n x n Gram matrix (None is the identity).

    The one Gram validation: raises ValueError unless ``g`` is of shape
    (n, n), Hermitian to GRAM_HERMITIAN_TOL relative to its norm, and
    positive definite.
    """
    if g is None:
        g = np.eye(n)
    else:
        g = np.array(g, dtype=complex)
        if g.shape != (n, n) or \
                np.linalg.norm(g - g.conj().T) > GRAM_HERMITIAN_TOL * np.linalg.norm(g):
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
    (cell x I, base cell) index pairs that the Reeb contraction joins, which
    ``build_twisted_complex`` carries from the cell complex; None for every
    other complex.
    """

    def __init__(self, diffs: Sequence[np.ndarray],
                 grams: Optional[Sequence[Optional[np.ndarray]]] = None,
                 poincare_self_dual: bool = False,
                 suspension: Optional[Suspension] = None):
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
        self.suspension = suspension

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
        """Spectral record of the stored differentials, computed on first use:
        the batch of one of ``_spectral_records``, unless a batch has already
        filled it (``random_twisted_complexes``, ``schwarz_partitions``,
        ``det_relations_reports``)."""
        return _spectral_records([self])[0]

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


def _spectral_records(tcs: Sequence[TwistedComplex]) -> List[SpectralRecord]:
    """The spectral record of each complex, in order: first the singular values
    of every differential, then, with the ranks they give, the eigenvalues of
    every Laplacian, each set factorised by ``_values_by_shape``, stacked
    across a batch of more than one complex."""
    stack = len(tcs) > 1
    diffs = [d for tc in tcs for d in tc.diffs]
    svals = iter(_values_by_shape("svd", [d.shape for d in diffs], diffs.__getitem__, stack))
    heads = []                                  # per complex: (ranks, coexact log dets)
    for tc in tcs:
        # SVD values descend and eigvalsh ascends: keep a head, resp. a tail
        s = [next(svals) for _ in tc.diffs]
        ranks = tuple(int(np.count_nonzero(nonzero_mask(v))) for v in s)
        heads.append((ranks, tuple(2.0 * _log_sum(v[:r]) for v, r in zip(s, ranks))))
    laps = [(tc, k) for tc in tcs for k in range(len(tc.dims))]
    eigs = iter(_values_by_shape("eigvalsh", [(tc.dims[k],) * 2 for tc, k in laps],
                                 lambda i: laps[i][0].laplacian(laps[i][1]), stack))
    out = []
    for tc, (ranks, coexact) in zip(tcs, heads):
        kept = [a + b for a, b in zip((0,) + ranks, ranks + (0,))]   # rank d_(k-1) + rank d_k
        lap = tuple(_log_sum(next(eigs)[n - c:]) for n, c in zip(tc.dims, kept))
        out.append(SpectralRecord(ranks, coexact, lap))
    return out


def _spectra(tcs: Sequence[TwistedComplex]):
    """Fill the spectral record of every complex that lacks one, as one batch."""
    todo = [tc for tc in tcs if "spectrum" not in vars(tc)]
    for tc, record in zip(todo, _spectral_records(todo)):
        vars(tc)["spectrum"] = record       # where cached_property keeps it


def _acyclic_prefix(tcs: Sequence[TwistedComplex]
                    ) -> Tuple[Sequence[TwistedComplex], Optional[NotAcyclicError]]:
    """The complexes before the first non-acyclic one, and the NotAcyclicError
    that one raises (None when every complex is acyclic)."""
    for i, tc in enumerate(tcs):
        try:
            tc.require_acyclic()
        except NotAcyclicError as exc:
            return tcs[:i], exc
    return tcs, None


def _unit_metric(grams: Optional[Sequence[Optional[np.ndarray]]]) -> bool:
    return grams is None or all(g is None for g in grams)


def build_twisted_complex(cc: CellComplex, rep: UnitaryRep,
                          grams: Optional[Sequence[Optional[np.ndarray]]] = None,
                          poincare_self_dual: Optional[bool] = None) -> TwistedComplex:
    """Assemble the twisted differentials by applying ``rep`` to each entry term.

    ``rep`` must image exactly the complex's generators (else ValueError);
    each signed letter is paired with its image (u, or u* if inverse) once.
    Each distinct word is walked once, by the plan ``cc.walks``; the relator
    checks read their slots' products, and each entry adds coeff *
    rho(w[:cut]) over its terms in term order, from zero.  Reeb pairs go to
    rank r as the blocks do: cell i spans i*r .. i*r + r - 1.
    ``poincare_self_dual`` defaults to ``cc.self_dual`` at the unit metric and
    to False under Gram blocks, which only the caller can declare dual.
    """
    if set(rep.images) != set(cc.generators):
        raise ValueError(f"rep images {sorted(rep.images)} do not match the "
                         f"generators {sorted(cc.generators)}")
    letters = {}
    for i, name in enumerate(cc.generators, start=1):
        letters[i], letters[-i] = rep.images[name], rep.images[name].conj().T
    r = rep.rank
    # rho(w[:i+1]) = rho(w[:i]) @ u_(w[i]) from the identity: the order in
    # which reduce(np.matmul, ..., eye) multiplies each prefix out alone, the
    # leading eye @ u_(w[0]) included (it can change the sign of a zero)
    eye = np.eye(r, dtype=complex)
    products = []                                   # one per slot
    for word, cuts in cc.walks:
        product, at = eye, 0
        for cut in cuts:
            for letter in word[at:cut]:
                product = np.matmul(product, letters[letter])
            products.append(product)
            at = cut

    for word, s in zip(cc.relators, cc.relator_slots):
        err = np.linalg.norm(products[s] - eye)
        if err >= RELATOR_TOL:
            raise RelatorViolationError(
                f"relator {word} maps {err:.3e} away from the identity")
    slots = iter(cc.term_slots)
    diffs = []
    for k, block in enumerate(cc.coboundaries):
        d = np.zeros((cc.counts[k + 1] * r, cc.counts[k] * r), dtype=complex)
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                acc = d[i * r:(i + 1) * r, j * r:(j + 1) * r]     # a view, from zero
                for coeff, _, _ in entry:
                    acc += coeff * products[next(slots)]
        diffs.append(d)
    if poincare_self_dual is None:
        poincare_self_dual = cc.self_dual and _unit_metric(grams)
    suspension = None if cc.suspension is None else tuple(
        tuple((i * r + c, j * r + c) for i, j in pairs for c in range(r))
        for pairs in cc.suspension)
    try:
        return TwistedComplex(diffs, grams=grams, poincare_self_dual=poincare_self_dual,
                              suspension=suspension)
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
    log_laplace = 0.0
    for k in range(1, tc.top_degree + 1):
        log_laplace += 0.5 * k * (-1) ** (k + 1) * spec.laplacian_logdets[k]
    return math.exp(log_laplace), math.exp(_log_coexact_torsion(spec))


def _log_coexact_torsion(spec: SpectralRecord) -> float:
    """log prod_k det_flat(d_k* d_k)^((-1)^k/2), from the spectral record."""
    out = 0.0
    for k, ell in enumerate(spec.coexact_logdets):
        out += 0.5 * (-1) ** k * ell
    return out


def _cross_check(route: str, value: float, coexact: float):
    """Raise ZetaBFError unless log ``value`` lies within TORSION_XCHECK_TOL *
    max(1, |log tau|) of log tau, tau the coexact route; a NaN fails."""
    if not abs(math.log(value) - math.log(coexact)) <= \
            TORSION_XCHECK_TOL * max(1.0, abs(math.log(coexact))):
        raise ZetaBFError(
            f"torsion cross-check failed: {route} route {value!r} vs coexact route {coexact!r}")


def analytic_torsion(tc: TwistedComplex) -> float:
    """Analytic torsion prod_k det_flat(Delta_k)^(k/2 * (-1)^(k+1)).

    Also evaluates Schwarz's coexact form prod_k det_flat(d_k* d_k)^((-1)^k/2)
    and insists the two agree (``_cross_check``), so a NaN route fails the
    check; the reciprocal convention is the caller's ``** -1``.
    """
    laplace, coexact = torsion_routes(tc)
    _cross_check("laplacian", laplace, coexact)
    return coexact


def schwarz_partition(tc: TwistedComplex) -> float:
    """Partition function of the resolution of the BF action kernel.

    The operators T^2, T_1, ..., T_k are block-diagonal (the B tower in the
    dual complex, i.e. transposed differentials); the result is

        det_flat(T^2)^(-1/4) * prod_k det_flat(T_k T_k*)^((-1)^(k+1)/2).

    For a one-degree complex the resolution degenerates and the coexact
    product is returned directly.  Each diagonal block is factorised on its
    own (eigvalsh for the blocks of T^2, a values-only SVD for those of T_k)
    and the blocks' values are merged, so no block-diagonal matrix is
    assembled.  Each operator keeps its largest merged values, as many as the
    spectral record's ranks give it.  The result is held to the coexact route
    as ``analytic_torsion`` holds the Laplacian route (``_cross_check``):
    beyond that, ZetaBFError.  The batch of one of ``schwarz_partitions``.
    """
    return schwarz_partitions([tc])[0]


def _t_sq_block(d1: np.ndarray, dual: bool) -> np.ndarray:
    """A diagonal block of T^2: d_1* d_1 on C^1, or its dual twin
    conj(d_1) d_1^T on C^2."""
    return np.conj(d1) @ d1.T if dual else d1.conj().T @ d1


def _ghost_towers(tc: TwistedComplex) -> List[Tuple[Tuple[np.ndarray, ...], int]]:
    """(blocks of T_k, rank) for k = 1 .. N-2, the dual tower's differentials
    d^T: T_1 = diag(d_0, d_2^T) (d_2^T for N >= 3), T_k = d_(k+1)^T for
    2 <= k <= N-2."""
    d, ranks, n = tc.diffs, tc.spectrum.ranks, tc.top_degree
    towers = [((d[0], d[2].T), ranks[0] + ranks[2]) if n >= 3 else ((d[0],), ranks[0])]
    towers += [((d[k + 1].T,), ranks[k + 1]) for k in range(2, n - 1)]
    return towers


def schwarz_partitions(tcs: Sequence[TwistedComplex]) -> List[float]:
    """``schwarz_partition`` of each complex, in order, from one stacked
    factorisation per matrix shape across the batch (``_values_by_shape``):
    the spectral records that are missing, then the blocks of every T^2, then
    those of every T_k, each value bit-identical to the lone call's.  The
    complexes are then finished in order, so the batch raises what the first
    failing lone call would: its NotAcyclicError or its cross-check
    ZetaBFError.  An empty batch gives []."""
    _spectra(tcs)
    ready, not_acyclic = _acyclic_prefix(tcs)
    stack = len(tcs) > 1
    deep = [tc for tc in ready if tc.top_degree > 1]
    t_sq = iter(_values_by_shape("eigvalsh", [(n, n) for tc in deep for n in tc.dims[1:3]],
                                 lambda i: _t_sq_block(deep[i // 2].diffs[1], i % 2 == 1),
                                 stack))
    towers = [_ghost_towers(tc) if tc.top_degree > 1 else [] for tc in ready]
    blocks = [b for tower in towers for bs, _ in tower for b in bs]
    svals = iter(_values_by_shape("svd", [b.shape for b in blocks], blocks.__getitem__, stack))
    out = []
    for tc, tower in zip(ready, towers):
        spec = tc.spectrum
        if tc.top_degree == 1:
            out.append(math.exp(0.5 * spec.coexact_logdets[0]))
            continue
        # T^2 = diag(d_1* d_1, dual twin): the merged values ascend, so the
        # kept ones are the last 2 rank d_1.
        t = np.sort(np.concatenate([next(t_sq), next(t_sq)]))
        log_z = -0.25 * _log_sum(t[len(t) - 2 * spec.ranks[1]:])
        for k, (bs, rank) in enumerate(tower, start=1):
            log_z += 0.5 * (-1) ** (k + 1) * _logdet_top_sq([next(svals) for _ in bs], rank)
        z = math.exp(log_z)
        _cross_check("schwarz", z, math.exp(_log_coexact_torsion(spec)))
        out.append(z)
    if not_acyclic is not None:
        raise not_acyclic
    return out


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


def _worst(residuals) -> float:
    """The largest residual (0 for none), NaN if any is: ``max`` may drop it."""
    return float(np.max(list(residuals), initial=0.0))


def det_relations_report(tc: TwistedComplex) -> DetRelationsReport:
    """Every det read off the spectral record, but relation (1)'s det(d_k d_k*):
    from its own SVD of d_k*, over its largest rank d_k singular values.  A
    NaN log-determinant makes its relation's residual NaN.  The batch of one
    of ``det_relations_reports``."""
    return det_relations_reports([tc])[0]


def det_relations_reports(tcs: Sequence[TwistedComplex]) -> List[DetRelationsReport]:
    """``det_relations_report`` of each complex, in order, from one stacked
    factorisation per matrix shape across the batch (``_values_by_shape``):
    the spectral records that are missing, then every d_k* of relation (1),
    each value bit-identical to the lone call's.  The batch raises the
    NotAcyclicError of its first non-acyclic complex after reporting on the
    ones before it.  An empty batch gives []."""
    _spectra(tcs)
    ready, not_acyclic = _acyclic_prefix(tcs)
    diffs = [d for tc in ready for d in tc.diffs]
    svals = iter(_values_by_shape("svd", [d.T.shape for d in diffs],
                                  lambda i: diffs[i].conj().T, len(tcs) > 1))
    out = []
    for tc in ready:
        n, spec = tc.top_degree, tc.spectrum
        ell = spec.coexact_logdets          # log det(d_k* d_k), k = 0..N-1
        res1 = _worst(abs(_logdet_top_sq([next(svals)], r) - e)
                      for r, e in zip(spec.ranks, ell))
        ends = (0.0,) + ell + (0.0,)        # ends[k] + ends[k + 1]: relation (3)'s target at k
        res3 = _worst(abs(lap - (ends[k] + ends[k + 1]))
                      for k, lap in enumerate(spec.laplacian_logdets))
        res2 = (_worst(abs(ell[k - 1] - ell[n - k]) for k in range(1, n + 1))
                if tc.poincare_self_dual else None)
        out.append(DetRelationsReport(res1, res3, res2, tuple(ell)))
    if not_acyclic is not None:
        raise not_acyclic
    return out


# -- model complexes ----------------------------------------------------------


def circle_cell_complex() -> CellComplex:
    entry = ((1, (1,)), (-1, _EMPTY))
    return CellComplex(
        counts=(1, 1),
        coboundaries=(((entry,),),),
        generators=("g",),
        name="circle",
        self_dual=True,
    )


def circle_complex(theta: float) -> TwistedComplex:
    rep = character_rep({"g": cmath.exp(1j * theta)})
    return build_twisted_complex(circle_cell_complex(), rep)


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
        self_dual=True,
    )


def torus_complex(alpha: float, beta: float) -> TwistedComplex:
    rep = character_rep({"a": cmath.exp(1j * alpha), "b": cmath.exp(1j * beta)})
    return build_twisted_complex(torus_cell_complex(), rep)


def _power_word(gen: int, power: int) -> Word:
    if power >= 0:
        return (gen,) * power
    return (-gen,) * (-power)


def mapping_torus_cell_complex(a_matrix) -> CellComplex:
    """CW complex (1,3,3,1 cells) of the mapping torus of A acting on T^2,
    with its Reeb pairs, declared Poincare self-dual (at the unit metric)
    exactly when det A = 1.

    A must be a hyperbolic element of GL(2,Z), as ``ToralAutomorphism``
    decides; otherwise NotHyperbolicError.  The complex is shared: the last
    MAPPING_TORI_KEPT matrices' complexes are kept, keyed by A's entries, so
    a theta sweep over one A builds its cells once.
    """
    aut = ToralAutomorphism.from_matrix(a_matrix)
    return _mapping_torus_cells(aut.a11, aut.a12, aut.a21, aut.a22)


@lru_cache(maxsize=MAPPING_TORI_KEPT)
def _mapping_torus_cells(a11: int, a12: int, a21: int, a22: int) -> CellComplex:
    det = a11 * a22 - a12 * a21
    commutator: Word = (1, 2, -1, -2)
    # Images of the generators under A (columns give the words).
    w_a = _power_word(1, a11) + _power_word(2, a21)
    w_b = _power_word(1, a12) + _power_word(2, a22)
    r_a: Word = (3,) + (1,) + (-3,) + _invert_word(w_a)
    r_b: Word = (3,) + (2,) + (-3,) + _invert_word(w_b)

    d0 = tuple(
        (((1, (g,)), (-1, _EMPTY)),) for g in (1, 2, 3)
    )
    d1 = tuple(tuple(fox_derivative(w, g) for g in (1, 2, 3))
               for w in (commutator, r_a, r_b))
    # 3-cell F x I: monodromy acts on F by det(A); the (dF) x I terms carry
    # the negated Fox derivatives of the commutator (they augment to zero).
    f_col: Entry = ((det, (3,)), (-1, _EMPTY))
    ra_col, rb_col = (tuple((-c, w, cut) for c, w, cut in fox_derivative(commutator, g))
                      for g in (1, 2))
    d2 = ((f_col, ra_col, rb_col),)

    return CellComplex(
        counts=(1, 3, 3, 1),
        coboundaries=(d0, d1, d2),
        generators=("a", "b", "t"),
        relators=(commutator, r_a, r_b),
        name="mapping_torus",
        # a non-orientable total space (det A = -1) pairs the twist with its
        # conjugate times the orientation character, not with itself
        self_dual=det == 1,
        # cells x I: t in degree 1, (a x I, b x I) in degree 2, F x I in degree 3
        suspension=((), ((2, 0),), ((1, 0), (2, 1)), ((0, 0),)),
    )


def mapping_torus_complex(a_matrix, theta: float) -> TwistedComplex:
    """Mapping torus of a hyperbolic A in GL(2,Z) twisted by e^(i theta) on
    the suspension generator; acyclic for theta not in 2*pi*Z.  Poincare
    self-dual as its cell complex declares: for det A = 1 only.  Every theta
    twists A's one shared cell complex."""
    rep = character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(1j * theta)})
    return build_twisted_complex(mapping_torus_cell_complex(a_matrix), rep)


def random_twisted_complexes(rng: np.random.Generator, count: int,
                             shape: Callable[[np.random.Generator], Tuple[int, int, int]]
                             ) -> List[TwistedComplex]:
    """``count`` random acyclic twisted complexes, each drawn as
    ``random_twisted_complex(rng, *shape(rng))`` would draw it.

    ``shape(rng)`` gives each complex's (top_degree, max_cells, rank) just
    before that complex's draws.  Every draw comes first, in the order of
    ``count`` lone calls; then the Ginibre matrices of each size are
    factorised in one stacked QR, and released, and the complexes are
    assembled: each is bit-identical to its lone call, and ``rng`` ends in
    the same state.  Their spectral records come filled, factorised as one
    batch: one stacked call per matrix shape when ``count`` > 1.
    """
    draws, by_size = [], {}
    for _ in range(count):
        top_degree, max_cells, rank = shape(rng)
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
        dims = [a + b for a, b in zip([0] + ranks, ranks + [0])]
        slots = []                      # (size, index in that size's stack)
        for n in dims:
            slots.append((n, len(by_size.setdefault(n, []))))
            by_size[n].append(ginibre(rng, n))
        svals = [rng.uniform(0.5, 2.0, size=m) for m in ranks]
        draws.append((ranks, dims, slots, svals))
    unitaries = {n: phase_fixed_qr(np.stack(by_size.pop(n))) for n in list(by_size)}
    out = []
    for ranks, dims, slots, svals in draws:
        us = [unitaries[n][i] for n, i in slots]
        diffs = []
        for k, (m, s) in enumerate(zip(ranks, svals)):
            left = us[k + 1][:, :m]
            right = us[k][:, dims[k] - m:]
            diffs.append(left @ np.diag(s) @ right.conj().T)
        out.append(TwistedComplex(diffs))
    _spectra(out)
    return out


def random_twisted_complex(rng: np.random.Generator, top_degree: int = 3,
                           max_cells: int = 4, rank: int = 1) -> TwistedComplex:
    """Random acyclic twisted complex with controlled conditioning.

    Dimensions are cells-per-degree times the twist rank; the differentials
    are random unitary mixtures with singular values in [0.5, 2], so every
    generated complex is exactly acyclic and well conditioned.  The batch of
    one of ``random_twisted_complexes``; its callers draw matrices at most
    2 * max_cells * rank wide, where a stack of one costs nothing measurable.
    """
    return random_twisted_complexes(rng, 1, lambda _: (top_degree, max_cells, rank))[0]


# -- file format ---------------------------------------------------------------

def _word_to_str(word: Word, names: Dict[int, str]) -> str:
    return ".".join(names[letter] for letter in word) or "1"


def _entry_to_str(entry: Entry, names: Dict[int, str]) -> str:
    if not entry:
        return "0"
    parts = []
    for coeff, word, cut in entry:
        sign = "+" if coeff >= 0 else "-"
        parts.append(f"{sign}{abs(coeff)}*{_word_to_str(word[:cut], names)}")
    return " ".join(parts)


def write_complex_file(path, cc: CellComplex, rep: UnitaryRep,
                       grams: Optional[Sequence[Optional[np.ndarray]]] = None,
                       self_dual: Optional[bool] = None):
    """Canonical writer for the twisted-complex text format (bit-exact).

    ``self_dual`` is the header's declaration; it defaults to the one that
    ``build_twisted_complex(cc, rep, grams)`` makes, so a file with Gram
    blocks is declared self-dual only when the caller says so.  Reeb pairs
    take one ``reeb k cell:base ...`` line per degree k >= 1.
    """
    if self_dual is None:
        self_dual = cc.self_dual and _unit_metric(grams)
    lines = [f"complex top={cc.top_degree} rank={rep.rank}"
             + (" self_dual=1" if self_dual else "")]
    lines.append("counts " + " ".join(str(c) for c in cc.counts))
    lines.append("generators " + " ".join(cc.generators))
    names = {}                                  # signed letter -> its text
    for i, name in enumerate(cc.generators, start=1):
        names[i], names[-i] = name, name + "'"
    for word in cc.relators:
        lines.append("relator " + _word_to_str(word, names))
    for k, block in enumerate(cc.coboundaries):
        lines.append(f"boundary {k}")
        for row in block:
            lines.append("  " + " ; ".join(_entry_to_str(e, names) for e in row))
    for k, pairs in enumerate((cc.suspension or ())[1:], start=1):
        lines.append(" ".join([f"reeb {k}"] + [f"{i}:{j}" for i, j in pairs]))
    matrices = [(f"rep {name}", rep.images[name]) for name in cc.generators]
    matrices += [(f"gram {k}", g) for k, g in enumerate(grams or ()) if g is not None]
    for header, mat in matrices:
        lines.append(header)
        for row in np.asarray(mat, dtype=complex):
            lines.append("  " + " ".join(f"{g17(z.real)},{g17(z.imag)}" for z in row))
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


def _square_matrix(what: str, header: int, rows: List[Tuple[int, str]], n: int) -> np.ndarray:
    """The n x n complex matrix of a ``rep`` or ``gram`` block's (line, text)
    rows of re,im pairs: a ParseError at a bad pair's line, or at the block's
    header line for the wrong size."""
    mat = []
    for lineno, text in rows:
        row = []
        for tok in text.split():
            if "," not in tok:
                raise ParseError(lineno, f"expected re,im pair, got {tok!r}")
            re_s, im_s = tok.split(",", 1)
            try:
                row.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ParseError(lineno, f"bad float in {tok!r}")
        mat.append(row)
    if len(mat) != n or any(len(r) != n for r in mat):
        raise ParseError(header, f"{what}: expected a {n}x{n} matrix")
    return np.array(mat, dtype=complex)


def read_complex_file(path):
    """Parse the twisted-complex format; returns (CellComplex, UnitaryRep, grams).
    A repeated directive, block, generator name or Reeb degree is a ParseError
    at its line that names the line of the first, as is a block that is never
    read: a boundary degree outside 0..top-1, a gram degree outside 0..top,
    or a rep of a name outside the generators.  ``reeb`` lines set the
    cell complex's ``suspension``.  A ``self_dual=1`` header declares the
    complex self-dual at the file's metric, Gram blocks included: pass
    ``cc.self_dual`` on as ``build_twisted_complex``'s ``poincare_self_dual``
    (and ``write_complex_file``'s ``self_dual``) to keep that declaration."""
    top = rank = None
    self_dual = False
    counts: Optional[Tuple[int, ...]] = None
    generators: List[str] = []
    relator_words: List[Tuple[int, str]] = []          # (line, word)
    reeb: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}   # degree -> (line, pairs)
    blocks: Dict[Tuple[str, object], tuple] = {}   # (directive, argument) -> (line, rows)
    first_lines: Dict[str, int] = {}      # "counts", "rep t", "generator a", ... -> line
    rows = None                           # the open block's rows

    def once(what: str, lineno: int):
        if what in first_lines:
            raise ParseError(lineno, f"repeated {what!r}, first at line {first_lines[what]}")
        first_lines[what] = lineno

    for lineno, line in content_lines(path):
        stripped = line.strip()
        if line.startswith((" ", "\t")):
            if rows is None:
                raise ParseError(lineno, "data row outside any block")
            rows.append((lineno, stripped))
            continue
        fields = stripped.split()
        key, rows = fields[0], None         # a directive closes the open block
        if key in ("complex", "counts", "generators"):
            once(key, lineno)
        if key == "complex":
            for f in fields[1:]:
                once(f"header field {f.partition('=')[0]}", lineno)
                if f.startswith("top="):
                    top = _integer(f[4:], lineno, "top")
                elif f.startswith("rank="):
                    rank = _integer(f[5:], lineno, "rank")
                elif f == "self_dual=1":
                    self_dual = True
                else:
                    raise ParseError(lineno, f"unknown header field {f!r}")
        elif key == "counts":
            counts = tuple(_integer(x, lineno, "counts") for x in fields[1:])
        elif key == "generators":
            generators = list(fields[1:])
            for name in generators:
                once(f"generator {name}", lineno)
        elif key == "label":        # checked, then ignored: generators names them
            idx, colon, _ = _argument(fields, lineno).partition(":")
            if not colon:
                raise ParseError(lineno, "label must read index:name")
            _integer(idx, lineno, "label index")
        elif key == "relator":
            relator_words.append((lineno, _argument(fields, lineno)))
        elif key == "reeb":         # reeb k cell:base ...
            k = _integer(fields[1] if len(fields) > 1 else "", lineno, "reeb degree")
            once(f"reeb {k}", lineno)
            pairs = [tok.split(":") for tok in fields[2:]]
            if any(len(pair) != 2 for pair in pairs):
                raise ParseError(lineno, "a reeb pair must read cell:base")
            reeb[k] = (lineno, tuple(tuple(_integer(x, lineno, "reeb cell") for x in pair)
                                     for pair in pairs))
        elif key in ("boundary", "rep", "gram"):     # blocks of a degree or a generator
            arg = _argument(fields, lineno)
            if key != "rep":
                arg = _integer(arg, lineno, f"{key} degree")
            once(f"{key} {arg}", lineno)
            rows = []
            blocks[key, arg] = (lineno, rows)
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")

    if top is None or rank is None or counts is None or not generators:
        raise ParseError(None, "missing complex header, counts or generators")
    if len(counts) != top + 1:
        raise ParseError(first_lines["counts"],
                         f"counts has {len(counts)} entries, expected {top + 1}")

    gen_index = {name: i + 1 for i, name in enumerate(generators)}
    # every block must be one that is read below
    last = {"boundary": top - 1, "gram": top}
    for (kind, arg), (header, _) in blocks.items():
        if kind == "rep" and arg not in gen_index:
            raise ParseError(header, f"rep {arg}: {arg!r} is not a generator")
        if kind != "rep" and not 0 <= arg <= last[kind]:
            raise ParseError(header, f"{kind} {arg}: degree outside 0..{last[kind]}")
    cobs = []
    for k in range(top):
        if ("boundary", k) not in blocks:
            raise ParseError(None, f"missing boundary {k} block")
        header, rows = blocks["boundary", k]
        cob = []
        for lineno, row in rows:
            entries = [_parse_entry(cell, gen_index, lineno) for cell in row.split(";")]
            if len(entries) != counts[k]:
                raise ParseError(lineno, f"expected {counts[k]} entries per row")
            cob.append(tuple(entries))
        if len(cob) != counts[k + 1]:
            raise ParseError(header, f"boundary {k}: expected {counts[k + 1]} rows")
        cobs.append(tuple(cob))

    for k, (lineno, pairs) in reeb.items():
        if not _reeb_fits(counts, k, pairs):
            raise ParseError(lineno, f"reeb {k}: degree or cell index out of range")
    suspension = tuple(reeb.get(k, (0, ()))[1] for k in range(top + 1)) if reeb else None

    images = {}
    for name in generators:
        if ("rep", name) not in blocks:
            raise ParseError(None, f"missing rep block for generator {name!r}")
        header, rows = blocks["rep", name]
        mat = _square_matrix(f"rep {name}", header, rows, rank)
        try:
            images.update(UnitaryRep(rank, {name: mat}).images)
        except ValueError as exc:
            raise ParseError(header, str(exc))

    relators = tuple(_parse_word(w, gen_index, lineno) for lineno, w in relator_words)
    cc = CellComplex(counts=counts, coboundaries=tuple(cobs),
                     generators=tuple(generators), relators=relators, name="file",
                     self_dual=self_dual, suspension=suspension)
    rep = UnitaryRep(rank, images)

    grams = None
    gram_blocks = [(k, block) for (kind, k), block in blocks.items() if kind == "gram"]
    if gram_blocks:
        grams = [None] * (top + 1)
        for k, (header, rows) in gram_blocks:
            n = counts[k] * rank
            grams[k] = _square_matrix(f"gram {k}", header, rows, n)
            try:
                _gram_root(grams[k], n)
            except ValueError as exc:
                raise ParseError(header, f"gram {k}: {exc}")
    return cc, rep, grams
