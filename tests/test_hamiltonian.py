"""Integral file parsing, spin expansion, and fragment sequence assembly."""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (
    dense_operator,
    loop_integral_terms,
    ordered_fragments,
    per_integral_fragments_by_integral,
    per_integral_fragments_by_term,
    per_integral_hamiltonian,
)
from trotterr.errors import FcidumpError, ResourceLimitError, ValidationError
from trotterr.fermion import NormalOrderedOperator
from trotterr.hamiltonian import (
    GRANULARITIES,
    ORDERINGS,
    MolecularSystem,
    TrotterSequence,
    _integral_terms,
    build_trotter_sequence,
    parse_fcidump,
    load_fcidump,
)
from trotterr.synthetic import random_system

ONE_ORBITAL = """&FCI NORB=1,NELEC=2,MS2=0,
  ORBSYM=1,
  ISYM=1,
 &END
  0.6744887663568382  1  1  1  1
 -1.2524635735648981  1  1  0  0
  0.7137758743754461  0  0  0  0
"""


class TestParser:
    def test_one_orbital_fields(self):
        sys1 = parse_fcidump(ONE_ORBITAL)
        assert sys1.n_spin_orbitals == 2
        assert sys1.n_electrons == 2
        assert sys1.core_energy == pytest.approx(0.7137758743754461, abs=0)
        # spatial integrals, stored once
        assert sys1.h1.shape == (1, 1)
        assert sys1.h1[0, 0] == pytest.approx(-1.2524635735648981, abs=0)
        assert sys1.eri.shape == (1, 1, 1, 1)
        assert sys1.eri[0, 0, 0, 0] == pytest.approx(0.6744887663568382, abs=0)

    def test_one_orbital_ground_state_energy(self):
        # doubly occupied level: E = 2 h11 + (11|11)
        from trotterr.fock import SectorBasis, ground_state

        sys1 = parse_fcidump(ONE_ORBITAL)
        basis = SectorBasis.sector(2, 2)
        energy, _ = ground_state(sys1.hamiltonian(), basis)
        assert energy == pytest.approx(2 * -1.2524635735648981 + 0.6744887663568382,
                                       rel=1e-14)

    def test_slash_terminator_and_d_notation(self):
        text = "&FCI NORB=1,NELEC=2,MS2=0 /\n 5.0D-01 1 1 0 0\n 0.0 0 0 0 0\n"
        sys1 = parse_fcidump(text)
        assert sys1.h1[0, 0] == pytest.approx(0.5, abs=0)

    @pytest.mark.parametrize("name", ["Fci", "fCI"])
    def test_mixed_case_namelist_name(self, name):
        # Fortran namelist names are case-insensitive, &END's too
        text = f"&{name} NORB=1,NELEC=2,MS2=0,\n &End\n 0.5 1 1 0 0\n"
        sys1 = parse_fcidump(text)
        assert sys1.n_electrons == 2
        assert sys1.h1[0, 0] == pytest.approx(0.5, abs=0)

    def test_orbital_energy_records_skipped(self):
        text = (
            "&FCI NORB=1,NELEC=2,MS2=0 /\n"
            " -0.5 1 0 0 0\n"
            " -1.0 1 1 0 0\n"
            " 0.0 0 0 0 0\n"
        )
        sys1 = parse_fcidump(text)
        assert sys1.h1[0, 0] == pytest.approx(-1.0, abs=0)

    def test_missing_header(self):
        with pytest.raises(FcidumpError):
            parse_fcidump(" 1.0 1 1 0 0\n")

    def test_index_out_of_range_reports_line(self):
        text = "&FCI NORB=1,NELEC=2,MS2=0 /\n 1.0 2 1 0 0\n"
        with pytest.raises(FcidumpError, match="line 2"):
            parse_fcidump(text)

    def test_malformed_value_reports_line(self):
        text = "&FCI NORB=1,NELEC=2,MS2=0 /\n abc 1 1 0 0\n"
        with pytest.raises(FcidumpError, match="line 2"):
            parse_fcidump(text)

    def test_bad_electron_count(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=1,NELEC=5,MS2=0 /\n 0.0 0 0 0 0\n")

    def test_ms2_parity_mismatch(self):
        with pytest.raises(FcidumpError):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=1 /\n 0.0 0 0 0 0\n")

    @pytest.mark.parametrize("ms2", [2, -2])
    def test_one_spin_beyond_the_orbitals(self, ms2):
        # 3 electrons of one spin and 1 of the other in 2 spatial orbitals
        text = f"&FCI NORB=2,NELEC=4,MS2={ms2} /\n 0.5 1 1 1 1\n -1.0 1 1 0 0\n"
        with pytest.raises(FcidumpError, match=f"line 1: MS2={ms2} puts 3 electrons"):
            parse_fcidump(text)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("NORB=2,NELEC=99,MS2=0", "NELEC=99 impossible for NORB=2"),
            ("NORB=2,NELEC=2,MS2=1", "MS2=1 inconsistent with NELEC=2"),
            ("NORB=2,NELEC=4,MS2=2", "MS2=2 puts 3 electrons of one spin"),
        ],
    )
    def test_header_is_checked_before_the_records(self, header, message):
        # the record on line 2 is unparseable too; the header error wins
        text = f"&FCI {header} /\n abc 1 1 0 0\n"
        with pytest.raises(FcidumpError, match=f"^line 1: {message}"):
            parse_fcidump(text)

    def test_non_integer_ms2_is_fcidump_error(self):
        with pytest.raises(FcidumpError, match="line 1"):
            parse_fcidump("&FCI NORB=1,NELEC=2,MS2=x /\n 0.0 0 0 0 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("indices", ["1 1 1 1", "1 1 0 0", "0 0 0 0"])
    def test_non_finite_value_reports_line(self, value, indices):
        text = f"&FCI NORB=1,NELEC=2,MS2=0 /\n 0.5 1 1 1 1\n {value} {indices}\n"
        with pytest.raises(FcidumpError, match="line 3"):
            parse_fcidump(text)

    def test_norb_beyond_mask_width_rejected_before_records(self):
        # 64 spin orbitals; the record is out of range and would be a parse
        # error if it were read
        text = "&FCI NORB=32,NELEC=2,MS2=0 /\n 1.0 99 1 0 0\n"
        with pytest.raises(ResourceLimitError, match="NORB=32"):
            parse_fcidump(text)
        with pytest.raises(ResourceLimitError, match="mask width"):
            parse_fcidump("&FCI NORB=1000000000,NELEC=2,MS2=0 /\n")

    def test_norb_at_mask_width_accepted(self):
        syst = parse_fcidump("&FCI NORB=31,NELEC=2,MS2=0 /\n 0.5 31 31 31 31\n")
        assert syst.n_spin_orbitals == 62
        assert syst.eri[30, 30, 30, 30] == 0.5
        assert np.count_nonzero(syst.eri) == 1

    def test_widest_one_record_file_is_quick(self):
        # the dense (norb,)*4 array makes parsing O(norb**4); at NORB=31
        # that is tens of milliseconds (best of three, against jitter)
        text = "&FCI NORB=31,NELEC=2,MS2=0 /\n 0.5 31 31 31 31\n"
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            parse_fcidump(text).hamiltonian()
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.2

    def test_eightfold_unfolding(self, fixture_dir):
        text = (fixture_dir / "h2_sto6g_local.fcidump").read_text()
        syst = parse_fcidump(text)
        syst.validate()
        # each record fills its whole orbit: (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij)
        for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            assert np.array_equal(syst.eri, syst.eri.transpose(axes))


# Tokens that move the parser between its branches: digits, signs,
# exponents, non-finite spellings and the namelist punctuation.
_TOKEN = st.text(alphabet="0123456789.-+eEdDnaifNORB&/=,x", max_size=6)


def _mostly(data, choices: list[str]) -> str:
    """One of ``choices``, or a random token about one time in ten."""
    if data.draw(st.integers(0, 9)) == 5:  # hypothesis favours the ends
        return data.draw(_TOKEN)
    return data.draw(st.sampled_from(choices))


def _mutated(line: str, data) -> str:
    """``line``, or three times in ten with one field replaced or dropped or
    a random token inserted."""
    fields = line.split()
    i = data.draw(st.integers(0, len(fields)))
    action = data.draw(st.sampled_from(["keep"] * 7 + ["replace", "drop", "insert"]))
    if action == "replace" and i < len(fields):
        fields[i] = data.draw(_TOKEN)
    elif action == "drop" and i < len(fields):
        del fields[i]
    elif action == "insert":
        fields.insert(i, data.draw(_TOKEN))
    return " ".join(fields)


def _fcidump_text(data, records: list[str]) -> str:
    """An H2-like FCIDUMP file with header values and records garbled."""
    fields = {
        "NORB": _mostly(data, ["2", "1", "3", "0", "-1", "32", "2000", "1000000000"]),
        "NELEC": _mostly(data, ["2", "0", "1", "3", "4", "7", "-1"]),
        "MS2": _mostly(data, ["0", "1", "-1", "2", "3"]),
    }
    for key in data.draw(st.sets(st.sampled_from(["ORBSYM", "ISYM", "UHF"]))):
        fields[key] = _mostly(data, ["1", "1,1", "0"])
    if data.draw(st.integers(0, 9)) == 5:
        del fields[data.draw(st.sampled_from(sorted(fields)))]
    header = (
        _mostly(data, ["&FCI ", "&fci "])
        + ",".join(f"{k}={v}" for k, v in fields.items())
        + _mostly(data, [",\n &END", " /", ",\n&end"])
    )
    lines = data.draw(st.lists(st.sampled_from(records), max_size=10))
    lines = [_mutated(line, data) for line in lines]
    return "\n".join([header, *lines]) + "\n"


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parse_fcidump_validates_or_raises_documented_errors(fixture_dir, data):
    text = (fixture_dir / "h2_sto6g_local.fcidump").read_text()
    records = [line for line in text.splitlines() if "&" not in line and "=" not in line]
    try:
        syst = parse_fcidump(_fcidump_text(data, records))
    except (FcidumpError, ResourceLimitError):
        return
    syst.validate()
    assert syst.n_spin_orbitals <= 62


class TestValidate:
    """The symmetry and shape contract of the stored integrals.  Spin
    conservation needs no check: spatial integrals cannot express a
    spin-mixing term."""

    @staticmethod
    def _system():
        return random_system(np.random.default_rng(0), 3)

    def test_generated_system_passes(self):
        self._system().validate()

    @pytest.mark.parametrize(
        "symmetry, touched",
        [
            # each perturbation is closed under the other symmetry
            ("(ij|kl) = (kl|ij)", [(0, 1, 2, 2), (1, 0, 2, 2)]),
            ("(ij|kl) = (ji|lk)", [(0, 1, 2, 2), (2, 2, 0, 1)]),
        ],
        ids=["electron-relabeling", "real-orbitals"],
    )
    def test_rejects_each_broken_symmetry(self, symmetry, touched):
        syst = self._system()
        for index in touched:
            syst.eri[index] += 1e-6
        with pytest.raises(ValidationError, match=re.escape(symmetry)):
            syst.validate()

    def test_rejects_one_spin_beyond_the_orbitals(self):
        syst = self._system()  # 3 spatial orbitals
        syst.n_electrons, syst.ms2 = 4, 4
        with pytest.raises(ValidationError, match="MS2=4 puts 4 electrons of one spin"):
            syst.validate()

    def test_rejects_misshapen_eri(self):
        syst = self._system()
        syst.eri = syst.eri[:, :, :, :2]
        with pytest.raises(ValidationError, match="eri shape"):
            syst.validate()

    def test_rejects_asymmetric_or_misshapen_h1(self):
        # the second pair is within numpy's default relative tolerance
        for upper, lower in ((0.1, 0.0), (1.0 + 4e-6, 1.0)):
            syst = self._system()
            syst.h1[0, 1], syst.h1[1, 0] = upper, lower
            with pytest.raises(ValidationError, match="h1 is not symmetric"):
                syst.validate()
        syst.h1 = syst.h1[:, :2]
        with pytest.raises(ValidationError, match="h1 shape"):
            syst.validate()


class TestSpinExpansion:
    """Spin orbitals are formed from the spatial integrals only by
    ``_integral_terms``."""

    def test_spin_blocks(self):
        h1 = np.array([[1.0, 0.25], [0.25, -1.0]])
        cre, ann, val, _ = _integral_terms(MolecularSystem(2, h1, np.zeros((2,) * 4)))
        orbitals = [(c.bit_length() - 1, a.bit_length() - 1)
                    for c, a in zip(cre.tolist(), ann.tolist())]
        assert dict(zip(orbitals, val.tolist())) == {
            (0, 0): 1.0, (0, 2): 0.25, (2, 0): 0.25, (1, 1): 1.0,
            (1, 3): 0.25, (3, 1): 0.25, (2, 2): -1.0, (3, 3): -1.0,
        }

    def test_two_body_spin_pairing(self):
        # the Coulomb integral (11|22): electron 1 stays in spin orbital 0 or
        # 1, electron 2 in 2 or 3, in all four spin combinations
        eri = np.zeros((2,) * 4)
        eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = 2.0
        cre, ann, val, _ = _integral_terms(MolecularSystem(2, np.zeros((2, 2)), eri))
        assert cre.tolist() == ann.tolist()
        assert sorted(cre.tolist()) == [0b0101, 0b0101, 0b0110, 0b0110,
                                        0b1001, 0b1001, 0b1010, 0b1010]
        assert val.tolist() == [-1.0] * 8

    def test_every_term_conserves_each_spin(self, fixture_dir):
        alpha = sum(1 << p for p in range(0, 8, 2))
        syst = load_fcidump(fixture_dir / "h4_sto6g_local.fcidump")
        cre, ann, _, _ = _integral_terms(syst)
        assert np.array_equal(np.bitwise_count(cre & alpha), np.bitwise_count(ann & alpha))
        assert np.array_equal(np.bitwise_count(cre), np.bitwise_count(ann))

    @pytest.mark.parametrize(
        "source",
        [
            "h2_sto6g_local",
            "h2_sto6g_canonical",
            "h2_sto6g_natural",
            "h4_sto6g_local",
            *((n, seed, 1.0) for n in range(1, 6) for seed in (0, 1)),
            (4, 2, 0.5),
        ],
        ids=str,
    )
    def test_matches_quadruple_scan(self, fixture_dir, source):
        # the arrays' order becomes the Hamiltonian's term order, so they
        # must come out in the scan's order, bit for bit
        if isinstance(source, tuple):
            n, seed, density = source
            syst = random_system(np.random.default_rng(seed), n, density=density)
        else:
            syst = parse_fcidump((fixture_dir / f"{source}.fcidump").read_text())
        got, want = _integral_terms(syst), loop_integral_terms(syst)
        assert len(want[0])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestSequences:
    def test_one_orbital_default_gives_two_fragments(self):
        sys1 = parse_fcidump(ONE_ORBITAL)
        seq = build_trotter_sequence(sys1)
        assert len(seq) == 2
        total = seq.total() + sys1.hamiltonian().scaled(-1.0)
        assert total.max_abs_coefficient() <= 1e-12

    def test_term_granularity_one_orbital(self):
        sys1 = parse_fcidump(ONE_ORBITAL)
        seq = build_trotter_sequence(sys1, granularity="term")
        assert len(seq) == 3

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_no_term_system_gives_empty_sequence(self, ordering, granularity):
        # a core-energy line alone is a valid file with no operator terms
        core_only = ONE_ORBITAL.splitlines()[:4] + [" 0.7  0  0  0  0", ""]
        system = parse_fcidump("\n".join(core_only))
        seq = build_trotter_sequence(system, ordering, granularity=granularity)
        assert len(seq) == 0 and not seq.total()

    def test_unknown_strategy(self):
        sys1 = parse_fcidump(ONE_ORBITAL)
        with pytest.raises(ValidationError):
            build_trotter_sequence(sys1, "alphabetical")
        with pytest.raises(ValidationError):
            build_trotter_sequence(sys1, granularity="atom")

    @pytest.mark.parametrize("ordering", ["lexicographic", "magnitude-descending",
                                          "flat-lexicographic"])
    @pytest.mark.parametrize("granularity", ["integral", "term"])
    def test_fragments_sum_to_hamiltonian(self, fixture_dir, ordering, granularity):
        syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
        seq = build_trotter_sequence(syst, ordering, granularity=granularity)
        h = syst.hamiltonian()
        defect = (seq.total() + h.scaled(-1.0)).max_abs_coefficient()
        assert defect <= 1e-10
        for frag in seq.fragments:
            assert frag.hermitian_defect() <= 1e-10

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_non_hermitian_fragment_is_refused(self, granularity):
        # (01|22) no longer equals (10|22): the term and its adjoint differ
        # by 0.5e-3 in the fragment that holds both
        syst = random_system(np.random.default_rng(0), 3)
        syst.eri[0, 1, 2, 2] += 1e-3
        with pytest.raises(ValidationError, match=re.escape(
            "fragment not Hermitian (defect 5.000e-04)"
        )):
            build_trotter_sequence(syst, granularity=granularity)

    def test_diagonal_block_leads_default(self, fixture_dir):
        syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
        seq = build_trotter_sequence(syst)
        diag_flags = [
            all(c == a for c, a in frag.terms) for frag in seq.fragments
        ]
        first_off = diag_flags.index(False)
        assert all(not f for f in diag_flags[first_off:])

    def test_flat_ordering_one_body_first(self, fixture_dir):
        syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
        seq = build_trotter_sequence(syst, "flat-lexicographic")
        sizes = [max(len(c) for c, _ in f.terms) for f in seq.fragments]
        first_two_body = sizes.index(2)
        assert all(s == 2 for s in sizes[first_two_body:])

    def test_magnitude_descending_off_diagonal(self, fixture_dir):
        syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
        seq = build_trotter_sequence(syst, "magnitude-descending")
        off = [f for f in seq.fragments if not all(c == a for c, a in f.terms)]
        norms = [f.coefficient_l1() for f in off]
        assert norms == sorted(norms, reverse=True)

    def test_ordering_label(self, fixture_dir):
        syst = parse_fcidump((fixture_dir / "h2_sto6g_local.fcidump").read_text())
        assert build_trotter_sequence(syst).ordering_label == \
            "diagonal-first-lexicographic/integral"
        assert build_trotter_sequence(
            syst, "flat-lexicographic", granularity="term"
        ).ordering_label == "flat-lexicographic/term"

    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
    def test_random_systems_reconstruct(self, seed, n):
        rng = np.random.default_rng(seed)
        syst = random_system(rng, n)
        h = syst.hamiltonian()
        for granularity in ("integral", "term"):
            seq = build_trotter_sequence(syst, granularity=granularity)
            defect = (seq.total() + h.scaled(-1.0)).max_abs_coefficient()
            assert defect <= 1e-10

    def test_sequence_matches_dense(self):
        rng = np.random.default_rng(11)
        syst = random_system(rng, 2)
        seq = build_trotter_sequence(syst)
        n = syst.n_spin_orbitals
        total = sum(dense_operator(n, f) for f in seq.fragments)
        href = dense_operator(n, syst.hamiltonian())
        assert np.max(np.abs(total - href)) <= 1e-10


INTEGRAL_SYSTEMS = ["h2_sto6g_canonical", "h2_sto6g_local", "h2_sto6g_natural",
                    "h4_sto6g_local"] + [
    f"random-{n}-{density}" for n in range(1, 6) for density in (1.0, 0.5)
]


def _integral_system(name, fixture_dir):
    if name.startswith("random"):
        _, n, density = name.split("-")
        return random_system(np.random.default_rng(int(n)), int(n), density=float(density))
    return load_fcidump(fixture_dir / f"{name}.fcidump")


def _hex_terms(op):
    """Key order and exact values of an operator."""
    return [(key, float(v).hex()) for key, v in op.terms.items()]


class TestIntegralTerms:
    """The array construction of the Hamiltonian and its fragments against
    reducing every integral with ``normal_order``: same keys, same order,
    same bits."""

    @pytest.mark.parametrize("name", INTEGRAL_SYSTEMS)
    def test_hamiltonian_matches_per_integral(self, name, fixture_dir):
        syst = _integral_system(name, fixture_dir)
        assert _hex_terms(syst.hamiltonian()) == _hex_terms(per_integral_hamiltonian(syst))

    @pytest.mark.parametrize("name", INTEGRAL_SYSTEMS)
    def test_fragments_match_per_integral(self, name, fixture_dir):
        syst = _integral_system(name, fixture_dir)
        references = {
            "integral": per_integral_fragments_by_integral(syst),
            "term": per_integral_fragments_by_term(syst),
        }
        for g in GRANULARITIES:
            for o in ORDERINGS:
                seq = build_trotter_sequence(syst, o, granularity=g)
                assert [_hex_terms(f) for f in seq.fragments] == [
                    _hex_terms(f) for f in ordered_fragments(references[g], o)
                ], (g, o)

    def test_vanishing_and_signed_terms(self):
        # (11|11) on one spatial orbital: same-spin pairs vanish, the two
        # opposite-spin ones flip once; (12|21): every assignment flips twice
        eri = np.zeros((2,) * 4)
        eri[0, 0, 0, 0] = 3.0
        eri[0, 1, 1, 0] = 1.0
        syst = MolecularSystem(2, np.zeros((2, 2)), eri)
        cre, ann, val, label = _integral_terms(syst)
        # (p, q, r, s) ascending: (0,1,1,0) (0,2,0,2) (0,3,1,2) (1,0,0,1)
        # (1,2,0,3) (1,3,1,3)
        assert cre.tolist() == [0b0011, 0b0101, 0b1001, 0b0011, 0b0110, 0b1010]
        assert ann.tolist() == [0b0011, 0b0101, 0b0110, 0b0011, 0b1001, 0b1010]
        assert val.tolist() == [-1.5, 0.5, 0.5, -1.5, 0.5, 0.5]
        # norb**2 plus the class digits: (11|11) is 0, (12|12) is 0101 in base 2
        assert label.tolist() == [4, 9, 9, 4, 9, 9]
