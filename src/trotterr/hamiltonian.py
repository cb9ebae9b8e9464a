"""Molecular Hamiltonians: FCIDUMP ingestion and Trotter fragment sequences.

The electronic Hamiltonian handled throughout is

    H = sum_pq h_pq a_p^+ a_q + 1/2 sum_pqrs h_pqrs a_p^+ a_q^+ a_r a_s

over spin orbitals, with real integrals.  ``h_pqrs`` follows the physicist
index convention in which electron 1 pairs (p, s) and electron 2 pairs
(q, r).

A :class:`MolecularSystem` stores the integrals once, over *spatial*
orbitals, as an FCIDUMP file holds them: the one-electron matrix ``h1`` and
the chemist two-electron array ``eri[i, j, k, l] = (ij|kl)``.  Spin
orbitals are formed only where the operator terms are built
(``_integral_terms``): spatial orbital ``i`` (zero-based) expands to spin
orbitals ``2i`` (alpha) and ``2i + 1`` (beta), and both kinds of integral
are spin diagonal,

    h_pq   = h1[P, Q]        when spin(p) == spin(q),
    h_pqrs = (P S | Q R)     when spin(p) == spin(s) and spin(q) == spin(r),

with capital letters the spatial parts, and zero otherwise.  Every term
therefore conserves the number of electrons of each spin.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FcidumpError, ResourceLimitError, ValidationError
from .fermion import (
    _MASK_ORBITALS,
    DEFAULT_DROP_TOLERANCE,
    NormalOrderedOperator,
    _accumulate,
    _combine,
    _hermitian_defects,
    _rank,
    _require_hermitian,
    operator_sum,
)

# Integral magnitudes below this are treated as absent (hartree).
TERM_DROP_THRESHOLD = 1e-10


@dataclass
class MolecularSystem:
    """Spatial-orbital integrals plus bookkeeping for one molecule/basis pair:
    ``h1`` is ``(norb, norb)`` and ``eri`` the ``(norb,)*4`` chemist array."""

    n_electrons: int
    h1: np.ndarray
    eri: np.ndarray
    core_energy: float = 0.0
    ms2: int = 0
    basis_label: str = ""
    orbital_kind: str = "unspecified"
    z_max: int = 0

    @property
    def n_spin_orbitals(self) -> int:
        return 2 * len(self.h1)

    def validate(self) -> None:
        if self.h1.ndim != 2 or not len(self.h1) or self.h1.shape[0] != self.h1.shape[1]:
            raise ValidationError(f"h1 shape {self.h1.shape} is not (norb, norb), norb >= 1")
        norb = len(self.h1)
        if self.eri.shape != (norb,) * 4:
            raise ValidationError(f"eri shape {self.eri.shape} != {(norb,) * 4}")
        problem = _electron_count_problem(self.n_electrons, self.ms2, norb)
        if problem:
            raise ValidationError(problem)
        if not np.all(np.abs(self.h1 - self.h1.T) <= 1e-12):
            raise ValidationError("h1 is not symmetric")
        # electron relabeling and real orbitals
        for symmetry, axes in (("(ij|kl) = (kl|ij)", (2, 3, 0, 1)),
                               ("(ij|kl) = (ji|lk)", (1, 0, 3, 2))):
            if not np.all(np.abs(self.eri - self.eri.transpose(axes)) <= 1e-10):
                raise ValidationError(f"eri symmetry {symmetry} violated")

    def hamiltonian(self) -> NormalOrderedOperator:
        """The second-quantized operator without the scalar core energy,
        which only shifts every eigenvalue.

        Terms are listed in order of first appearance over the spin-orbital
        one-body scan (row by row, ascending ``(p, q)``), then two-body terms
        ascending by spin ``(p, q, r, s)``.
        """
        cre, ann, val, _ = _integral_terms(self)
        # one-body terms come first; ascending (cre, ann) is the row scan
        n_one = int(np.count_nonzero(np.bitwise_count(cre) == 1))
        order = np.concatenate(
            [np.lexsort((ann[:n_one], cre[:n_one])), np.arange(n_one, len(val))]
        )
        return _combine(
            cre[order], ann[order], val[order], DEFAULT_DROP_TOLERANCE, first_seen=True
        )


# ---------------------------------------------------------------------------
# FCIDUMP parsing.
# ---------------------------------------------------------------------------


def _electron_count_problem(nelec: int, ms2: int, norb: int) -> str | None:
    """Why ``nelec`` electrons with spin excess ``ms2`` cannot occupy
    ``norb`` spatial orbitals, or None when they can."""
    if not 0 <= nelec <= 2 * norb:
        return f"NELEC={nelec} impossible for NORB={norb}"
    if abs(ms2) > nelec or (ms2 - nelec) % 2:
        return f"MS2={ms2} inconsistent with NELEC={nelec}"
    n_major = (nelec + abs(ms2)) // 2
    if n_major > norb:
        return f"MS2={ms2} puts {n_major} electrons of one spin in NORB={norb} orbitals"
    return None


def _parse_namelist(lines: list[str]) -> tuple[dict[str, str], int]:
    """Return header key/value pairs and the index of the first record line."""
    if not lines or "&" not in lines[0]:
        raise FcidumpError("missing &FCI namelist header", line=1)
    header_parts: list[str] = []
    end = None
    for idx, line in enumerate(lines):
        stripped = line.strip()
        header_parts.append(stripped)
        if "&END" in stripped.upper() or stripped.endswith("/"):
            end = idx
            break
    if end is None:
        raise FcidumpError("namelist header never terminated (&END or /)", line=len(lines))
    # namelist names are case-insensitive
    text = re.sub("&(FCI|END)", " ", " ".join(header_parts), flags=re.IGNORECASE)
    text = text.rstrip("/ ")
    fields: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            # continuation of a comma-separated array value (e.g. ORBSYM)
            continue
        key, _, value = chunk.partition("=")
        fields[key.strip().upper()] = value.strip()
    return fields, end + 1


def parse_fcidump(
    text: str,
    *,
    basis_label: str = "",
    orbital_kind: str = "unspecified",
) -> MolecularSystem:
    """Parse FCIDUMP text into a :class:`MolecularSystem`.

    Recognized records, each ``value i j k l`` with one-based spatial
    indices: two-electron ``(ij|kl)`` when all indices are positive,
    one-electron when ``k == l == 0``, the core energy when all four are
    zero.  Orbital-energy records (``i > 0``, ``j == k == l == 0``) are
    skipped.  Anything else, and any non-finite value, raises with its line
    number.  The header is checked before any record is read: a NORB whose
    spin orbitals exceed the operator mask width raises
    :class:`ResourceLimitError`, and an impossible NELEC or MS2 raises with
    line 1.
    """
    lines = text.splitlines()
    fields, first_record = _parse_namelist(lines)
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2", "0").rstrip(","))
    except KeyError as exc:
        raise FcidumpError(f"namelist missing required key {exc}", line=1) from None
    except ValueError as exc:
        raise FcidumpError(f"bad namelist integer: {exc}", line=1) from None
    if norb <= 0:
        raise FcidumpError(f"NORB must be positive, got {norb}", line=1)
    if 2 * norb > _MASK_ORBITALS:
        raise ResourceLimitError(
            f"NORB={norb} gives {2 * norb} spin orbitals, beyond the "
            f"{_MASK_ORBITALS}-orbital mask width"
        )
    problem = _electron_count_problem(nelec, ms2, norb)
    if problem:
        raise FcidumpError(problem, line=1)

    h1 = np.zeros((norb, norb))
    eri = np.zeros((norb,) * 4)
    core_energy = 0.0

    for offset, raw in enumerate(lines[first_record:], start=first_record + 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(
                f"expected 'value i j k l', got {len(parts)} fields", line=offset
            )
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpError(f"unparseable record {line!r}", line=offset) from None
        if not math.isfinite(value):
            raise FcidumpError(f"non-finite value in {line!r}", line=offset)
        if min(i, j, k, l) < 0 or max(i, j, k, l) > norb:
            raise FcidumpError(
                f"orbital index out of range 1..{norb} in {line!r}", line=offset
            )
        if i == j == k == l == 0:
            core_energy = value
        elif k == 0 and l == 0 and i > 0 and j > 0:
            h1[i - 1, j - 1] = value
            h1[j - 1, i - 1] = value
        elif j == 0 and k == 0 and l == 0 and i > 0:
            continue  # orbital energy record; not used
        elif min(i, j, k, l) > 0:
            for key in _chemist_orbit(i - 1, j - 1, k - 1, l - 1):
                eri[key] = value
        else:
            raise FcidumpError(f"unclassifiable index pattern in {line!r}", line=offset)

    system = MolecularSystem(
        n_electrons=nelec,
        h1=h1,
        eri=eri,
        core_energy=core_energy,
        ms2=ms2,
        basis_label=basis_label,
        orbital_kind=orbital_kind,
    )
    system.validate()
    return system


def load_fcidump(path, **kwargs) -> MolecularSystem:
    """:func:`parse_fcidump` over the contents of ``path``.

    The file stem doubles as the default ``basis_label`` so downstream
    reports can name their input without extra plumbing.
    """
    p = Path(path)
    kwargs.setdefault("basis_label", p.stem)
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise FcidumpError(f"{p}: not a text file ({exc})") from None
    return parse_fcidump(text, **kwargs)


def _chemist_orbit(i: int, j: int, k: int, l: int) -> set[tuple[int, int, int, int]]:
    """The eightfold symmetry orbit of a real chemist integral (ij|kl)."""
    return {
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    }


# ---------------------------------------------------------------------------
# Trotter fragment sequences.
# ---------------------------------------------------------------------------

ORDERINGS = ("lexicographic", "magnitude-descending", "flat-lexicographic")
GRANULARITIES = ("integral", "term")


@dataclass
class TrotterSequence:
    """An ordered list of Hermitian Hamiltonian fragments H_alpha.

    The product formula advances one step by applying all fragments at half
    step in reverse order, then all fragments at half step in forward order.
    """

    fragments: list[NormalOrderedOperator]
    ordering: str
    granularity: str
    n_spin_orbitals: int

    @property
    def ordering_label(self) -> str:
        if self.ordering == "flat-lexicographic":
            return f"{self.ordering}/{self.granularity}"
        return f"diagonal-first-{self.ordering}/{self.granularity}"

    def __len__(self) -> int:
        return len(self.fragments)

    def total(self) -> NormalOrderedOperator:
        return operator_sum(self.fragments)


def build_trotter_sequence(
    system: MolecularSystem,
    ordering: str = "lexicographic",
    *,
    granularity: str = "integral",
) -> TrotterSequence:
    """Split the Hamiltonian into an ordered list of Hermitian fragments.

    granularity "integral" (default) groups every spin expansion of one
    distinct spatial integral (one-body pair or chemist symmetry class)
    into a single fragment; "term" makes one fragment per canonical
    normal-ordered term paired with its Hermitian conjugate.

    The default sequence structure hoists all diagonal fragments (those
    built purely from number operators) into a leading block.  They commute
    with one another, so their internal order provably cannot change the
    product formula or its error operator, and placing them first matches
    the circuit convention of applying the cheap phase rotations together.
    The ``ordering`` strategy then arranges the off-diagonal tail:

      lexicographic         by fragment label, one-body before two-body
                            (default)
      magnitude-descending  by descending coefficient one-norm, label as
                            tie-break
      flat-lexicographic    no diagonal hoisting at all: every fragment
                            in label order, one-body block first

    At granularity "integral" a fragment's label is the one
    ``_integral_terms`` gives its terms, ascending by the spatial index
    tuple ``(i, j)`` of a one-body pair, then ``(i, j, k, l)`` of a chemist
    class.  At granularity "term" it is the rank of
    ``(popcount(cre), min(cre, ann), max(cre, ann))``: one-body before
    two-body, then by the pair's lesser key.  For masks with one bit count
    integer order is the order of their descending orbital tuples, so this
    is the order of the creation-then-annihilation index tuples.

    Every fragment is built in one pass: the terms are summed per
    ``(label, cre, ann)`` in order of first appearance, pruned at
    ``DEFAULT_DROP_TOLERANCE`` and stably sorted by label.  A fragment
    therefore lists its terms in order of first appearance among the
    Hamiltonian's terms (one-body pairs row by row, then two-body terms
    ascending by spin ``(p, q, r, s)``), and one whose terms all cancel is
    left out.  Each fragment is Hermitian and the fragments sum to the
    Hamiltonian.
    """
    if ordering not in ORDERINGS:
        raise ValidationError(f"unknown ordering {ordering!r}; use one of {ORDERINGS}")
    if granularity not in GRANULARITIES:
        raise ValidationError(
            f"unknown granularity {granularity!r}; use one of {GRANULARITIES}"
        )
    cre, ann, val, label = _integral_terms(system)
    if granularity == "term":
        label = _rank(np.bitwise_count(cre), np.minimum(cre, ann), np.maximum(cre, ann))
    rows = np.arange(0)
    if len(val):
        rows, val = _accumulate((label, cre, ann), val, first_seen=True)
        keep = np.abs(val) >= DEFAULT_DROP_TOLERANCE
        rows, val = rows[keep], val[keep]
    by_label = np.argsort(label[rows], kind="stable")
    rows, val = rows[by_label], val[by_label]
    cre, ann, label = cre[rows], ann[rows], label[rows]
    head = np.diff(label, prepend=-1) != 0  # each fragment's first term
    fragment = np.cumsum(head) - 1
    starts = np.flatnonzero(head)
    order = np.arange(len(starts))
    # each fragment's coefficient one-norm, added in term order from 0.0
    l1 = np.bincount(fragment, np.abs(val), len(starts))
    if ordering != "flat-lexicographic":
        # diagonal fragments first; lexsort is stable, so the label breaks ties
        off_diagonal = np.bincount(fragment, cre != ann, len(starts)) > 0
        tail = np.zeros(len(starts))
        if ordering == "magnitude-descending":
            tail = np.where(off_diagonal, -l1, 0.0)
        order = np.lexsort((tail, off_diagonal))
    # the first fragment in sequence order that is not Hermitian is named
    defect = _hermitian_defects(fragment, cre, ann, val, len(starts))
    _require_hermitian(defect[order], l1[order], "fragment not Hermitian")
    pieces = list(zip(*(np.split(x, starts[1:]) for x in (cre, ann, val))))
    return TrotterSequence(
        fragments=[NormalOrderedOperator._from_arrays(*pieces[f]) for f in order.tolist()],
        ordering=ordering,
        granularity=granularity,
        n_spin_orbitals=system.n_spin_orbitals,
    )


def _integral_terms(system):
    """Every Hamiltonian term as packed ``(cre, ann, val, label)`` arrays,
    the one place spin orbitals are formed from the integrals.

    One-body terms come first: each spin pair ``p <= q`` with
    ``|h1[p//2, q//2]| > TERM_DROP_THRESHOLD`` and equal spins, row by row,
    followed by its mirror ``a+_q a_p`` when ``p != q``; both carry the
    upper-triangle value, so every pair is exactly Hermitian (the two halves
    of ``h1`` agree exactly for parsed and generated systems; ``validate``
    allows them to differ by 1e-12).  Then each chemist entry
    ``|eri[i, j, k, l]| > TERM_DROP_THRESHOLD`` in its four spin assignments
    ``(p, q, r, s) = (2i+a, 2k+b, 2l+b, 2j+a)``, ascending by ``(p, q, r, s)``:
    ``a+_p a+_q a_r a_s`` has masks ``cre = 1<<p | 1<<q``,
    ``ann = 1<<r | 1<<s`` and value
    ``(0.5 * (ij|kl)) * (-1)^[p<q] * (-1)^[r<s]``, the sign of sorting each
    half descending, and vanishes when ``p == q`` or ``r == s``.  Values
    below the operator drop tolerance are left out, as reducing each term on
    its own would.

    ``label`` names the term's integral fragment as one integer, and label
    order is sequence order (see :func:`build_trotter_sequence`):
    ``i * norb + j`` for the one-body spatial pair ``i <= j`` and
    ``norb**2`` plus the base-``norb`` digits of the chemist class
    representative ``(ij|kl)`` for a two-body term, so labels ascend with
    ``(i, j)``, one-body first, then with ``(i, j, k, l)``.
    """
    norb = len(system.h1)
    h1 = np.kron(system.h1, np.eye(2))
    p, q = np.nonzero(np.triu(np.abs(h1) > TERM_DROP_THRESHOLD))
    mirror = p != q
    one_cre = np.stack([p, q], axis=1).ravel()
    one_ann = np.stack([q, p], axis=1).ravel()
    one_val = np.repeat(h1[p, q], 2)
    one_label = np.repeat((p // 2) * norb + q // 2, 2)
    one_keep = np.stack([np.ones_like(mirror), mirror], axis=1).ravel()

    i, j, k, l = np.nonzero(np.abs(system.eri) > TERM_DROP_THRESHOLD)
    # electron 1 pairs (i, j), electron 2 pairs (k, l): the class of (ij|kl)
    elec1 = np.minimum(i, j) * norb + np.maximum(i, j)
    elec2 = np.minimum(k, l) * norb + np.maximum(k, l)
    two_label = norb * norb + np.minimum(
        elec1 * norb * norb + elec2, elec2 * norb * norb + elec1
    )
    # each entry in its four spin assignments (a, b), ascending by (p, q, r, s)
    a, b = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    p, q, r, s = (
        (2 * x[:, None] + spin).ravel()
        for x, spin in ((i, a), (k, b), (l, b), (j, a))
    )
    order = np.lexsort((s, r, q, p))
    p, q, r, s = p[order], q[order], r[order], s[order]
    value = np.repeat(system.eri[i, j, k, l], 4)[order]
    two_label = np.repeat(two_label, 4)[order]
    flips = (p < q).astype(np.int64) + (r < s)
    two_val = (0.5 * value) * (1.0 - 2.0 * (flips & 1))

    bit = np.int64(1)
    cre = np.concatenate([bit << one_cre, (bit << p) | (bit << q)])
    ann = np.concatenate([bit << one_ann, (bit << r) | (bit << s)])
    val = np.concatenate([one_val, two_val])
    label = np.concatenate([one_label, two_label])
    keep = np.concatenate([one_keep, (p != q) & (r != s)])
    keep &= np.abs(val) >= DEFAULT_DROP_TOLERANCE
    return cre[keep], ann[keep], val[keep], label[keep]
