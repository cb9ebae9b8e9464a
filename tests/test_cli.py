"""Command-line surface: outputs, determinism, and the exit-code map."""

import argparse
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from trotterr.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_USAGE,
    build_parser,
    main,
)

H2 = "h2_sto6g_local.fcidump"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def h2_path(fixture_dir):
    return str(fixture_dir / H2)


class TestAnalyzeCommand:
    def test_writes_report_json(self, tmp_path, h2_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys,
            "analyze",
            "--fcidump",
            h2_path,
            "--basis-kind",
            "local",
            "--out",
            str(out),
        )
        assert code == EXIT_OK
        assert stdout == ""
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["orbital_kind"] == "local"
        assert payload["ratio"] == pytest.approx(0.2038, abs=0.002)
        assert len(payload["source_sha256"]) == 64

    def test_stdout_default(self, h2_path, capsys):
        code, stdout, _ = run(capsys, "analyze", "--fcidump", h2_path)
        assert code == EXIT_OK
        assert json.loads(stdout)["n_spin_orbitals"] == 4

    def test_reruns_are_byte_identical(self, tmp_path, h2_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys, "analyze", "--fcidump", h2_path, "--out", str(p)
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lanczos_reruns_are_byte_identical(
        self, fixture_dir, capsys, fresh_python, set_dense_limit
    ):
        # dimension 70 > 20: the ground state, the norm and the doubles level
        # take the Lanczos path, whose start vector must not vary per run
        argv = ["analyze", "--fcidump", str(fixture_dir / "h4_sto6g_local.fcidump")]
        script = f"""
            import sys
            import trotterr.fock
            from trotterr.cli import main
            trotterr.fock.DENSE_LIMIT = 20
            sys.exit(main({argv!r}))
            """
        runs = [fresh_python(script) for _ in range(2)]
        set_dense_limit(20)
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert runs == [stdout, stdout]

    def test_ci_level_selection(self, h2_path, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--fcidump", h2_path, "--ci-levels", "0,2"
        )
        assert code == EXIT_OK
        levels = [c["level"] for c in json.loads(stdout)["ci_results"]]
        assert levels == [0, 2]

    def test_bad_ci_levels_is_usage(self, h2_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--fcidump", h2_path, "--ci-levels", "0,two"
        )
        assert code == EXIT_USAGE
        assert "ci-levels" in err

    def test_missing_file_is_io_and_names_path(self, capsys):
        code, _, err = run(capsys, "analyze", "--fcidump", "no/such/file.fcidump")
        assert code == EXIT_IO
        assert "no/such/file.fcidump" in err

    def test_malformed_fixture_is_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("this is not an integral file\n")
        code, _, err = run(capsys, "analyze", "--fcidump", str(bad))
        assert code == EXIT_PARSE
        assert "error" in err

    def test_undecodable_file_is_parse(self, tmp_path, capsys):
        bad = tmp_path / "binary.fcidump"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "analyze", "--fcidump", str(bad))
        assert code == EXIT_PARSE
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "not a text file" in err

    def test_non_integer_ms2_is_parse(self, tmp_path, capsys):
        bad = tmp_path / "ms2.fcidump"
        bad.write_text("&FCI NORB=1,NELEC=2,MS2=x /\n 0.5 1 1 1 1\n")
        code, _, err = run(capsys, "analyze", "--fcidump", str(bad))
        assert code == EXIT_PARSE
        assert "line 1" in err

    def test_one_spin_beyond_the_orbitals_is_parse(self, tmp_path, capsys):
        # NELEC=4, MS2=2: 3 alpha electrons in 2 spatial orbitals, refused by
        # every command that reads the file
        bad = tmp_path / "ms2.fcidump"
        bad.write_text("&FCI NORB=2,NELEC=4,MS2=2 /\n 0.5 1 1 1 1\n -1.0 1 1 0 0\n")
        for argv in (["analyze"], ["analyze", "--ci-levels="], ["spectrum"],
                     ["prep-cost", "--delta", "1e-3", "--ci-vector"]):
            code, _, err = run(capsys, argv[0], "--fcidump", str(bad), *argv[1:])
            assert (code, err) == (
                EXIT_PARSE,
                "trotterr: parse error: line 1: MS2=2 puts 3 electrons of one spin "
                "in NORB=2 orbitals\n",
            ), argv

    def test_bad_header_over_a_bad_record_is_parse_of_line_1(self, tmp_path, capsys):
        bad = tmp_path / "nelec.fcidump"
        bad.write_text("&FCI NORB=2,NELEC=99,MS2=0 /\n abc 1 1 0 0\n")
        code, _, err = run(capsys, "analyze", "--fcidump", str(bad))
        assert (code, err) == (
            EXIT_PARSE,
            "trotterr: parse error: line 1: NELEC=99 impossible for NORB=2\n",
        )

    def test_ci_levels_off_the_parity_ms2_are_usage(self, tmp_path, fixture_dir, capsys):
        triplet = tmp_path / "triplet.fcidump"
        triplet.write_text((fixture_dir / H2).read_text().replace("MS2=0,", "MS2=2,", 1))
        code, _, err = run(capsys, "analyze", "--fcidump", str(triplet))
        assert code == EXIT_USAGE
        assert "MS2=2" in err
        code, out, _ = run(
            capsys, "analyze", "--fcidump", str(triplet), "--ci-levels", ""
        )
        assert code == EXIT_OK
        assert json.loads(out)["ci_results"] == []

    def test_oversized_norb_is_resource(self, tmp_path, fixture_dir, capsys):
        text = (fixture_dir / H2).read_text()
        assert "NORB=2," in text
        big = tmp_path / "norb32.fcidump"
        big.write_text(text.replace("NORB=2,", "NORB=32,", 1))
        code, _, err = run(capsys, "analyze", "--fcidump", str(big))
        assert code == EXIT_RESOURCE
        assert "NORB=32" in err

    def test_lanczos_no_convergence_is_numerical(
        self, h2_path, capsys, monkeypatch, set_dense_limit
    ):
        import scipy.sparse.linalg

        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        set_dense_limit(1)
        code, _, err = run(capsys, "analyze", "--fcidump", h2_path)
        assert code == EXIT_NUMERICAL
        assert "Lanczos did not converge" in err

    def test_out_of_memory_is_resource(self, h2_path, capsys, monkeypatch):
        import trotterr.analysis

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(trotterr.analysis, "build_error_operator", exhausted)
        code, stdout, err = run(capsys, "analyze", "--fcidump", h2_path)
        assert code == EXIT_RESOURCE
        assert stdout == ""
        assert err == "trotterr: resource error: out of memory in analyze\n"

    def test_unknown_flag_value_is_argparse_usage(self, h2_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--fcidump", h2_path, "--ordering", "bogus"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


# Malformed or extreme inputs and the documented exit code each must map to,
# with a one-line message and no traceback.
EDGE_CASES = [
    (["analyze", "--dt", "1e160"], EXIT_NUMERICAL),
    (["spectrum", "--dt", "1e160"], EXIT_NUMERICAL),
    (["haar", "--dt", "1e160"], EXIT_NUMERICAL),
    (["marginals", "--dt", "1e160"], EXIT_NUMERICAL),
    (["analyze", "--dt", "1e154"], EXIT_NUMERICAL),
    (["haar", "--dt", "1e100", "--samples", "100"], EXIT_NUMERICAL),
    (["analyze", "--dt", "1e-170"], EXIT_NUMERICAL),
    (["spectrum", "--dt", "1e-170"], EXIT_NUMERICAL),
    (["haar", "--dt", "1e-170"], EXIT_NUMERICAL),
    (["marginals", "--dt", "1e-170"], EXIT_NUMERICAL),
    (["prep-cost", "--delta", "1e-300"], EXIT_OK),
    (["analyze", "--time", "nan"], EXIT_USAGE),
    (["analyze", "--time", "inf"], EXIT_USAGE),
    (["analyze", "--target-delta", "nan"], EXIT_USAGE),
    (["analyze", "--target-delta", "inf"], EXIT_USAGE),
]


@pytest.mark.parametrize(
    "argv, expected", EDGE_CASES, ids=[" ".join(argv) for argv, _ in EDGE_CASES]
)
def test_edge_input_exit_codes(h2_path, capsys, argv, expected):
    code, _, err = run(capsys, argv[0], "--fcidump", h2_path, *argv[1:])
    assert code == expected, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == (expected != EXIT_OK)


@pytest.mark.parametrize("flag", ["--time", "--target-delta"])
def test_bad_time_is_rejected_before_any_work(h2_path, capsys, monkeypatch, flag):
    import trotterr.analysis

    def unreachable(*args, **kwargs):
        raise AssertionError("fragment sequence built for a rejected input")

    monkeypatch.setattr(trotterr.analysis, "build_trotter_sequence", unreachable)
    code, _, err = run(capsys, "analyze", "--fcidump", h2_path, flag, "nan")
    assert code == EXIT_USAGE, err
    assert "positive and finite" in err


# Inputs refused without the error operator, with the dense limit (None:
# the default), exit code and message; each is refused before V is built.
REFUSED_BEFORE_V = [
    (["spectrum"], 3, EXIT_RESOURCE,
     "resource error: dense matrix of dim 6 exceeds limit 3"),
    (["haar", "--samples", "1"], None, EXIT_USAGE,
     "usage error: need n_samples >= 2, got 1"),
    (["haar", "--seed", "-1"], None, EXIT_USAGE,
     "usage error: seed must be a 64-bit unsigned integer, got -1"),
    (["haar", "--full-fock"], 10, EXIT_RESOURCE,
     "resource error: dense matrix of dim 16 exceeds limit 10"),
    (["analyze", "--ci-levels", "3"], None, EXIT_USAGE,
     "usage error: CI level 3: level 3 exceeds N - n = 2"),
    (["analyze", "--ci-levels=-1"], None, EXIT_USAGE,
     "usage error: CI level -1: truncation level must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, limit, expected, message",
    REFUSED_BEFORE_V,
    ids=[
        " ".join(argv) + ("" if limit is None else f" DENSE_LIMIT={limit}")
        for argv, limit, _, _ in REFUSED_BEFORE_V
    ],
)
def test_refused_before_the_error_operator_is_built(
    h2_path, capsys, monkeypatch, set_dense_limit, argv, limit, expected, message
):
    import trotterr.analysis
    import trotterr.trotter

    def unreachable(*args, **kwargs):
        raise AssertionError("error operator built for a refused input")

    # the commands look the builder up here at call time, analyze in analysis
    monkeypatch.setattr(trotterr.trotter, "build_error_operator", unreachable)
    monkeypatch.setattr(trotterr.analysis, "build_error_operator", unreachable)
    if limit is not None:
        set_dense_limit(limit)
    code, _, err = run(capsys, argv[0], "--fcidump", h2_path, *argv[1:])
    assert (code, err) == (expected, f"trotterr: {message}\n")


# 28 spin orbitals, 14 electrons: the dense refusal of each basis's state
# count, comb(28, 14) and 2^28, without a state listed
OVERSIZED_BASES = [
    ("spectrum", "--sector", 40_116_600),
    ("haar", "--sector", 40_116_600),
    ("spectrum", "--full-fock", 1 << 28),
    ("haar", "--full-fock", 1 << 28),
]


@pytest.mark.parametrize(
    "command, space, dim",
    OVERSIZED_BASES,
    ids=[f"{command} {space}" for command, space, _ in OVERSIZED_BASES],
)
def test_oversized_basis_is_refused_before_any_state_is_listed(
    tmp_path, capsys, monkeypatch, command, space, dim
):
    from trotterr.fock import DENSE_LIMIT, SectorBasis

    def unreachable(*args, **kwargs):
        raise AssertionError("states listed for a refused basis")

    monkeypatch.setattr(SectorBasis, "sector", unreachable)
    monkeypatch.setattr(SectorBasis, "full", unreachable)
    path = tmp_path / "norb14.fcidump"
    path.write_text("&FCI NORB=14,NELEC=14,MS2=0 /\n -1.0 1 1 0 0\n 0.5 0 0 0 0\n")
    code, stdout, err = run(capsys, command, "--fcidump", str(path), space)
    assert (code, stdout) == (EXIT_RESOURCE, "")
    limit = f"dense matrix of dim {dim} exceeds limit {DENSE_LIMIT}"
    assert err == f"trotterr: resource error: {limit}\n"


@pytest.mark.parametrize("granularity", ["integral", "term"])
def test_analyze_system_without_terms(tmp_path, capsys, granularity):
    path = tmp_path / "core_only.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n 1.5 0 0 0 0\n")
    code, out, err = run(
        capsys, "analyze", "--fcidump", str(path), "--granularity", granularity
    )
    assert code == EXIT_OK, err
    report = json.loads(out)
    assert report["n_fragments"] == 0 and report["error_term_count"] == 0


# 1e308 * 1e308 overflows inside the V build at any step; inf * 0 and
# inf - inf then leave NaN, which no drop tolerance may pass over as small
OVERFLOWING_PRODUCT = "&FCI NORB=2,NELEC=2 /\n 1e308 1 1 1 1\n 1e308 2 2 2 2\n 0.5 1 1 0 0\n"


@pytest.mark.parametrize(
    "dt, integrals",
    [("1e-170", None), ("1e160", None), ("1.0", OVERFLOWING_PRODUCT)],
    ids=["underflow", "overflow", "overflowing-product"],
)
def test_error_operator_failure_reads_the_same_in_every_subcommand(
    h2_path, tmp_path, capsys, dt, integrals
):
    # the message names the operator once, whichever subcommand built it,
    # and no numpy warning comes before it
    path = h2_path
    if integrals is not None:
        path = tmp_path / "overflow.fcidump"
        path.write_text(integrals)
    lines = set()
    for command in ("analyze", "spectrum", "haar", "marginals"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, command, "--fcidump", str(path), "--dt", dt)
        assert code == EXIT_NUMERICAL == 5
        lines.add(err)
    assert len(lines) == 1
    (err,) = lines
    assert err.count("\n") == 1 and err.count("error operator") == 1
    assert f"delta_t={float(dt)!r}" in err


class TestSpectrumCommand:
    def test_csv_header_and_ascending_zero_sum(self, h2_path, capsys):
        code, stdout, _ = run(capsys, "spectrum", "--fcidump", h2_path)
        assert code == EXIT_OK
        lines = stdout.strip().split("\n")
        assert lines[0].startswith("#")
        values = [float(v) for v in lines[1:]]
        assert len(values) == 6
        assert values == sorted(values)
        assert abs(sum(values)) <= 1e-8 * sum(abs(v) for v in values)

    def test_full_fock_switch(self, h2_path, capsys):
        code, stdout, _ = run(
            capsys, "spectrum", "--fcidump", h2_path, "--full-fock"
        )
        assert code == EXIT_OK
        assert len(stdout.strip().split("\n")) == 17

    def test_dense_limit_maps_to_resource_exit(self, h2_path, capsys, set_dense_limit):
        set_dense_limit(3)
        code, _, err = run(capsys, "spectrum", "--fcidump", h2_path)
        assert code == EXIT_RESOURCE
        assert "resource" in err


class TestHaarCommand:
    def test_seeded_reruns_identical(self, tmp_path, h2_path, capsys):
        outs = [tmp_path / "x.json", tmp_path / "y.json"]
        for out in outs:
            code, _, _ = run(
                capsys,
                "haar",
                "--fcidump",
                h2_path,
                "--samples",
                "3000",
                "--seed",
                "11",
                "--out",
                str(out),
            )
            assert code == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        payload = json.loads(outs[0].read_text())
        assert payload["n_samples"] == 3000
        assert payload["seed"] == 11
        assert payload["mean_within_three_stderr"] is True
        assert payload["space"] == "sector"

    def test_seed_changes_samples(self, h2_path, capsys):
        results = []
        for seed in ("1", "2"):
            code, stdout, _ = run(
                capsys,
                "haar",
                "--fcidump",
                h2_path,
                "--samples",
                "2000",
                "--seed",
                seed,
            )
            assert code == EXIT_OK
            results.append(json.loads(stdout)["empirical_mean"])
        assert results[0] != results[1]


class TestMarginalsCommand:
    def test_matches_library_matrix(self, h2_path, capsys):
        from trotterr.analysis import orbital_marginals
        from trotterr.hamiltonian import build_trotter_sequence, load_fcidump
        from trotterr.trotter import build_error_operator

        code, stdout, _ = run(capsys, "marginals", "--fcidump", h2_path)
        assert code == EXIT_OK
        lines = stdout.strip().split("\n")
        assert lines[0].startswith("#")
        parsed = np.array(
            [[float(v) for v in row.split(",")] for row in lines[1:]]
        )
        system = load_fcidump(h2_path)
        expected = orbital_marginals(
            build_error_operator(build_trotter_sequence(system), 1.0)
        )
        assert np.array_equal(parsed, expected)
        assert np.array_equal(parsed, parsed.T)


class TestFitCommand:
    def test_exact_power_law(self, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text(
            "# x, y\n" + "\n".join(f"{z},{2.5 * z**6}" for z in range(1, 10)) + "\n"
        )
        code, stdout, _ = run(capsys, "fit", "--csv", str(data))
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["exponent"] == pytest.approx(6.0, abs=1e-10)
        assert payload["prefactor"] == pytest.approx(2.5, rel=1e-10)
        assert payload["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert payload["n_points"] == 9

    def test_whitespace_columns_accepted(self, tmp_path, capsys):
        data = tmp_path / "points.txt"
        data.write_text("1 1\n2 8\n3 27\n")
        code, stdout, _ = run(capsys, "fit", "--csv", str(data))
        assert code == EXIT_OK
        assert json.loads(stdout)["exponent"] == pytest.approx(3.0, abs=1e-12)

    def test_nonpositive_data_is_usage(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,1\n2,-8\n3,27\n")
        code, _, err = run(capsys, "fit", "--csv", str(data))
        assert code == EXIT_USAGE
        assert "positive" in err

    def test_degenerate_x_is_numerical(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text("2,1\n2,2\n2,3\n")
        code, _, err = run(capsys, "fit", "--csv", str(data))
        assert code == EXIT_NUMERICAL
        assert "singular" in err

    def test_missing_csv_is_io(self, capsys):
        code, _, _ = run(capsys, "fit", "--csv", "absent.csv")
        assert code == EXIT_IO

    def test_undecodable_csv_is_usage(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, "fit", "--csv", str(data))
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "not a text file" in err

    def test_junk_line_is_usage_with_location(self, tmp_path, capsys):
        data = tmp_path / "junk.csv"
        data.write_text("1,1\nwat\n3,27\n")
        code, _, err = run(capsys, "fit", "--csv", str(data))
        assert code == EXIT_USAGE
        assert ":2:" in err


class TestPrepCostCommand:
    def test_report_fields(self, h2_path, capsys):
        code, stdout, _ = run(
            capsys, "prep-cost", "--fcidump", h2_path, "--delta", "1e-3"
        )
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["support_dim"] == 6
        assert payload["qubit_count"] == 9
        assert payload["k"] >= 1
        assert payload["t_count"] == (22 * payload["k"] + 64 * 2) * 7
        assert payload["support_from_solved_vector"] is False

    def test_solved_vector_shrinks_support(self, h2_path, capsys):
        code, stdout, _ = run(
            capsys,
            "prep-cost",
            "--fcidump",
            h2_path,
            "--delta",
            "1e-3",
            "--ci-vector",
        )
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert 1 <= payload["support_dim"] < 6
        assert payload["support_from_solved_vector"] is True

    @pytest.mark.parametrize("header", ["NELEC=3,MS2=1,", "NELEC=4,MS2=0,"])
    def test_solved_vector_under_two_virtual_spin_orbitals(
        self, header, tmp_path, fixture_dir, capsys
    ):
        # N - n < 2: the doubles space is the whole sector, solved at N - n
        path = tmp_path / "crowded.fcidump"
        text = (fixture_dir / "h2_sto6g_canonical.fcidump").read_text()
        path.write_text(text.replace("NELEC=2,MS2=0,", header, 1))
        code, stdout, err = run(
            capsys, "prep-cost", "--fcidump", str(path), "--delta", "1e-3", "--ci-vector"
        )
        assert code == EXIT_OK, err
        payload = json.loads(stdout)
        assert payload["support_dim"] >= 1
        assert payload["support_from_solved_vector"] is True


BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class TestThreadCap:
    def test_flag_caps_blas_pools(self, h2_path, capsys, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        code, _, _ = run(
            capsys, "spectrum", "--fcidump", h2_path, "--threads", "2"
        )
        assert code == EXIT_OK
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_env_var_fallback(self, h2_path, capsys, monkeypatch):
        monkeypatch.setenv("TROTTERR_THREADS", "3")
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        code, _, _ = run(capsys, "spectrum", "--fcidump", h2_path)
        assert code == EXIT_OK
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_invalid_env_var_is_usage(self, h2_path, capsys, monkeypatch):
        monkeypatch.setenv("TROTTERR_THREADS", "many")
        code, _, err = run(capsys, "spectrum", "--fcidump", h2_path)
        assert code == EXIT_USAGE
        assert "TROTTERR_THREADS" in err

    def test_cap_is_set_before_numpy_loads(self, h2_path, fresh_python):
        # the cap only works if importing the CLI and parsing the arguments
        # leave numpy (and with it BLAS) unloaded
        fresh_python(
            f"""
            import os, sys
            import trotterr.cli
            assert "numpy" not in sys.modules and "scipy" not in sys.modules
            argv = ["spectrum", "--fcidump", {h2_path!r}, "--threads", "2"]
            assert trotterr.cli.main(argv) == 0
            assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
            assert "numpy" in sys.modules and "scipy" not in sys.modules
            """,
            drop=BLAS_VARS + ("TROTTERR_THREADS",),
        )

    def test_nonpositive_flag_is_usage(self, h2_path, capsys):
        code, _, _ = run(
            capsys, "spectrum", "--fcidump", h2_path, "--threads", "0"
        )
        assert code == EXIT_USAGE


# Every subcommand variant run on every fixture; stdout SHA-256 values are
# pinned in REPORT_HASHES.  Dense LAPACK reductions depend on the BLAS
# thread count, so the hashes hold for single-threaded BLAS; their last bits
# also depend on the numpy and BLAS builds and on the CPU kernels BLAS picks,
# so the file records that numerical stack next to the hashes.
REPORT_VARIANTS = {
    "analyze": ["analyze"],
    "analyze-full": ["analyze", "--space", "full"],
    "analyze-term": ["analyze", "--granularity", "term"],
    "analyze-magnitude": ["analyze", "--ordering", "magnitude-descending"],
    "analyze-flat": ["analyze", "--ordering", "flat-lexicographic", "--dt", "0.5"],
    "analyze-lanczos": ["analyze", "--ci-levels", "0,1"],
    "spectrum": ["spectrum"],
    "spectrum-full": ["spectrum", "--full-fock"],
    "haar": ["haar", "--samples", "10000", "--seed", "3"],
    "haar-full-real": ["haar", "--full-fock", "--samples", "10000", "--ensemble", "real"],
    "marginals": ["marginals"],
    "prep-cost": ["prep-cost", "--delta", "1e-3"],
    "prep-cost-ci": ["prep-cost", "--delta", "1e-3", "--ci-vector"],
}

# variants run with fock.DENSE_LIMIT set to this; the others use the default
REPORT_DENSE_LIMITS = {"analyze-lanczos": 4}

REPORT_HASHES = Path(__file__).resolve().parent / "cli_stdout_sha256.json"


def test_report_bytes_are_pinned(fixture_dir, fresh_python):
    fixtures = sorted(str(p) for p in fixture_dir.glob("*.fcidump"))
    stdout = fresh_python(
        f"""
        import os
        for var in {BLAS_VARS!r}:
            os.environ[var] = "1"
        import contextlib, hashlib, io, json
        from pathlib import Path
        import numpy as np
        import trotterr.fock
        from trotterr.cli import main

        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        stack = {{
            "numpy": np.__version__,
            "blas": f"{{blas['name']}} {{blas['version']}}",
            "cpu_simd": config["SIMD Extensions"]["found"],
        }}
        hashes = {{}}
        default_limit = trotterr.fock.DENSE_LIMIT
        for path in {fixtures!r}:
            for name, argv in {REPORT_VARIANTS!r}.items():
                trotterr.fock.DENSE_LIMIT = {REPORT_DENSE_LIMITS!r}.get(name, default_limit)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv[:1] + ["--fcidump", path] + argv[1:])
                assert code == 0, (path, name, code)
                key = f"{{Path(path).stem}} {{name}}"
                hashes[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        print(json.dumps({{"stack": stack, "sha256": hashes}}))
        """,
        drop=("TROTTERR_THREADS",),
    )
    got = json.loads(stdout)
    pinned = json.loads(REPORT_HASHES.read_text())
    expected = pinned["sha256"]
    assert len(got["sha256"]) == len(fixtures) * len(REPORT_VARIANTS) == len(expected)
    changed = sorted(k for k in expected if got["sha256"].get(k) != expected[k])
    if changed and got["stack"] != pinned["stack"]:
        pytest.fail(
            f"the hashes were pinned on a different numerical stack "
            f"({pinned['stack']}, here {got['stack']}); a mismatch there need "
            f"not be a code change: {changed}"
        )
    assert not changed, "report bytes changed on the pinned numerical stack"


README = Path(__file__).resolve().parent.parent / "README.md"


def _unaccepted_readme_flags(readme: str) -> list[str]:
    """``"command --flag"`` for every flag that README's "Command line"
    synopsis names for a subcommand whose parser does not accept it."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    seen, unaccepted = set(), []
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "trotterr":
            command = words[1]  # continuation lines belong to it
            seen.add(command)
        accepted = subparsers.choices[command]._option_string_actions
        unaccepted += [
            f"{command} {flag}"
            for flag in re.findall(r"--[a-z][a-z-]*", line)
            if flag not in accepted
        ]
    assert seen == set(subparsers.choices), seen
    return unaccepted


def test_readme_synopsis_names_only_accepted_flags():
    readme = README.read_text()
    assert _unaccepted_readme_flags(readme) == []
    stale = readme.replace("[--target-delta D]", "[--target-delta D] [--dense-limit L]", 1)
    assert _unaccepted_readme_flags(stale) == ["analyze --dense-limit"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out
