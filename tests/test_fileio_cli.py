import json

import numpy as np
import pytest

import qdiscord as qd
from qdiscord import fileio
from qdiscord.cli import main
from qdiscord.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStateFiles:
    def test_roundtrip_bit_exact_catalog(self, tmp_path):
        states = [
            qd.bell_state(0),
            qd.bell_diagonal_state([0.3, -0.2, 0.1]),
            qd.facet_state(1, -1, 1),
            qd.four_nonorthogonal_state(),
            qd.random_density_matrix(2, 3, 99),
        ]
        for i, rho in enumerate(states):
            path = tmp_path / f"state_{i}.json"
            fileio.save_state(rho, path)
            back = fileio.load_state(path)
            assert np.array_equal(back.mat, rho.mat)
            assert (back.dim_a, back.dim_b) == (rho.dim_a, rho.dim_b)

    def test_rejects_wrong_trace(self, tmp_path):
        doc = fileio.state_document(qd.bell_state(0)).replace("[0.5, 0.0]", "[0.45, 0.0]", 1)
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(qd.ValidationError, match="trace"):
            fileio.load_state(path)

    def test_truncated_document_names_position(self, tmp_path):
        doc = fileio.state_document(qd.bell_state(0))
        path = tmp_path / "trunc.json"
        path.write_text(doc[: len(doc) // 2])
        with pytest.raises(qd.ParseError, match="line"):
            fileio.load_state(path)

    def test_dims_mismatch(self, tmp_path):
        doc = fileio.state_document(qd.bell_state(0)).replace("[2, 2]", "[2, 3]")
        path = tmp_path / "dims.json"
        path.write_text(doc)
        with pytest.raises(qd.DimensionError):
            fileio.load_state(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(qd.ParseError):
            fileio.load_state(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("[true, 0.0]", "entry (0, 0) must be a number, got true"),
            ("[0.5, false]", "entry (0, 0) must be a number, got false"),
            ("[NaN, 0.0]", "entry (0, 0) must be finite, got NaN"),
            ("[0.5, -Infinity]", "entry (0, 0) must be finite, got -Infinity"),
            ("[1" + "0" * 399 + ", 0.0]", "entry (0, 0) must be finite, got 1" + "0" * 39),
            ('["0.5", 0.0]', 'entry (0, 0) must be a number, got "0.5"'),
            ("[null, 0.0]", "entry (0, 0) must be a number, got null"),
            ("[0.5, 0.0, 0.0]", "entry (0, 0) must be an [re, im] pair"),
            ("[0.5, 0.0], [0.0, 0.0]", "row 0 must hold 4 entries"),
        ],
    )
    def test_bad_entries_keep_their_messages(self, entry, message):
        doc = fileio.state_document(qd.bell_state(0)).replace("[0.5, 0.0]", entry, 1)
        with pytest.raises(qd.ParseError) as err:
            fileio.parse_state_document(doc)
        assert str(err.value) == f"state file: {message}"

    def test_fast_and_checked_parse_agree_bit_for_bit(self):
        u = qd.random_unitary(8, 4)
        u[0, 0] = complex(-0.0, -0.0)
        u[1, 2] = complex(3, -0.0)
        doc = fileio.unitary_document(u)
        fast = fileio.parse_unitary_document(doc)
        # a boolean anywhere in the text sends the matrix through the checked loop
        checked = fileio.parse_unitary_document(doc.replace("{", '{"checked": true,', 1))
        for got in (fast, checked):
            assert got.dtype == complex and got.shape == (8, 8)
            assert np.array_equal(got.view(float).view(np.int64), u.view(float).view(np.int64))


class TestRowsFiles:
    def test_roundtrip(self, tmp_path):
        cm = qd.correlation_matrix(qd.bell_state(0))
        rows = [(n, cm.r[n]) for n in (0, 1, 2)]
        path = tmp_path / "rows.json"
        fileio.save_rows(2, 2, rows, path)
        dim_a, dim_b, back = fileio.load_rows(path)
        assert (dim_a, dim_b) == (2, 2)
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(rows, back))

    @pytest.mark.parametrize(
        "entry",
        ['{"a_index": true, "values": [1, 0, 0, 0]}', '{"a_index": 0, "values": [1, "a", 0, 0]}'],
    )
    def test_bad_row_entries(self, tmp_path, entry):
        path = tmp_path / "rows.json"
        path.write_text('{"dims": [2, 2], "rows": [' + entry + "]}")
        with pytest.raises(qd.ParseError, match="row 0"):
            fileio.load_rows(path)

    def test_bad_row_length(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text('{"dims": [2, 2], "rows": [{"a_index": 0, "values": [1.0]}]}')
        with pytest.raises(qd.ParseError):
            fileio.load_rows(path)


class TestCliAnalyze:
    def test_bell_report(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        fileio.save_state(qd.bell_state(0), path)
        code, out, _ = _run(capsys, ["analyze", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["rank_L"] == 4
        assert doc["witness_triggered"] is True
        assert doc["is_zero_discord"] is False
        assert doc["geometric_discord"] == pytest.approx(0.5, abs=1e-12)
        assert doc["entropic_discord"]["value"] == pytest.approx(1.0, abs=1e-4)
        assert doc["mutual_information"] == pytest.approx(2.0, abs=1e-10)

    def test_product_state_report(self, capsys, tmp_path, product_mixed):
        path = tmp_path / "prod.json"
        fileio.save_state(product_mixed, path)
        code, out, _ = _run(capsys, ["analyze", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert doc["is_zero_discord"] is True
        assert doc["geometric_discord"] <= 1e-6
        assert doc["entropic_discord"]["value"] <= 1e-6

    def test_qubit_a_side_reports_geometric(self, capsys, tmp_path):
        path = tmp_path / "s23.json"
        fileio.save_state(qd.random_density_matrix(2, 3, 4), path)
        code, out, _ = _run(capsys, ["analyze", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert doc["geometric_discord"] == qd.geometric_discord_2q(fileio.load_state(path)).value
        assert "is_zero_discord" in doc
        assert "entropic_discord" in doc
        path = tmp_path / "s32.json"
        fileio.save_state(qd.random_density_matrix(3, 2, 4), path)
        code, out, _ = _run(capsys, ["analyze", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert "geometric_discord" not in doc
        assert "is_zero_discord" in doc

    def test_reports_are_stable(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        fileio.save_state(qd.bell_state(0), path)
        _, out1, _ = _run(capsys, ["analyze", str(path)])
        _, out2, _ = _run(capsys, ["analyze", str(path)])
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timings")
        d2.pop("timings")
        assert d1 == d2

    def test_validation_failure_exits_2(self, capsys, tmp_path):
        doc = fileio.state_document(qd.bell_state(0)).replace("[0.5, 0.0]", "[0.4, 0.0]", 1)
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, _, err = _run(capsys, ["analyze", str(path)])
        assert code == 2
        assert "trace" in err

    def test_one_dimensional_subsystem_exits_2_naming_the_dims(self, capsys, tmp_path):
        rho = qd.DensityMatrix(np.eye(2) / 2, 1, 2)
        with pytest.raises(qd.DimensionError, match=r"state dims \(1, 2\)"):
            qd.zero_discord_test(rho)
        path = tmp_path / "d12.json"
        fileio.save_state(rho, path)
        code, _, err = _run(capsys, ["analyze", str(path)])
        assert code == 2
        assert "(1, 2)" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = _run(capsys, ["analyze", "/nonexistent/state.json"])
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "entry, message",
        [("[NaN, 0.0]", "must be finite, got NaN"), ("[true, 0.0]", "must be a number, got true")],
    )
    def test_bad_entry_exits_2_naming_it(self, capsys, tmp_path, entry, message):
        doc = fileio.state_document(qd.bell_state(0)).replace("[0.5, 0.0]", entry, 1)
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(qd.ParseError, match=r"entry \(0, 0\)"):
            fileio.load_state(path)
        code, _, err = _run(capsys, ["analyze", str(path)])
        assert code == 2
        assert "entry (0, 0)" in err and message in err

    def test_internal_fault_exits_1(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("qdiscord.cli.zero_discord_test", broken)
        path = tmp_path / "bell.json"
        fileio.save_state(qd.bell_state(0), path)
        code, out, err = _run(capsys, ["analyze", str(path)])
        assert code == 1
        assert out == ""
        assert "internal error: LinAlgError" in err

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--ent-grid", "64", "--ent-refine", "10"], ["entropic", "--grid", "64"]],
    )
    def test_mutual_information_computed_once(self, capsys, tmp_path, monkeypatch, argv):
        rho = qd.random_density_matrix(2, 2, 8)
        calls = []

        def counting(state):
            calls.append(state)
            return qd.mutual_information(state)

        monkeypatch.setattr("qdiscord.cli.mutual_information", counting)
        path = tmp_path / "s22.json"
        fileio.save_state(rho, path)
        code, out, _ = _run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["mutual_information"] == qd.mutual_information(rho)

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        fileio.save_state(qd.bell_state(0), path)
        with pytest.raises(SystemExit) as exc:
            main(["geometric", str(path), "--oracle", "--seed", "-1"])
        assert exc.value.code == 2


class TestCliWitness:
    def test_bell_rows_prove(self, capsys, tmp_path):
        cm = qd.correlation_matrix(qd.bell_state(0))
        path = tmp_path / "rows.json"
        fileio.save_rows(2, 2, [(n, cm.r[n]) for n in (0, 1, 2)], path)
        code, out, _ = _run(capsys, ["witness", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert doc["discord_proven"] is True
        assert doc["independent_count"] == 3
        assert sorted(doc["certifying_rows"]) == [0, 1, 2]

    def test_product_rows_do_not_prove(self, capsys, tmp_path, product_mixed):
        cm = qd.correlation_matrix(product_mixed)
        path = tmp_path / "rows.json"
        fileio.save_rows(2, 2, [(n, cm.r[n]) for n in range(4)], path)
        code, out, _ = _run(capsys, ["witness", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert doc["discord_proven"] is False
        assert "certifying_rows" not in doc


class TestCliDqc1:
    def test_random_unitary_run(self, capsys):
        code, out, _ = _run(
            capsys,
            ["dqc1", "--random-n", "3", "--seed", "1", "--alpha", "1", "--samples", "100000"],
        )
        doc = json.loads(out)
        assert code == 0
        exact = complex(*doc["exact_tau"])
        sampled = complex(*doc["tau_hat"])
        assert abs(sampled - exact) <= 4 * doc["std_error"]
        assert doc["classicality"]["zero_discord"] is False

    def test_hadamard_file_is_classical(self, capsys, tmp_path):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        path = tmp_path / "hadamard.json"
        fileio.save_unitary(h, path)
        code, out, _ = _run(capsys, ["dqc1", "--unitary", str(path), "--alpha", "0.5"])
        doc = json.loads(out)
        assert code == 0
        assert doc["classicality"]["zero_discord"] is True
        assert doc["exact_tau"] == [0.0, 0.0]

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_geometric_discord_matches_the_output_state(self, capsys, tmp_path, n, alpha):
        """alpha^2 (1 - |Tr U^2|/2^n)/2^(n+2) against the closed form on the built state."""
        rng = np.random.default_rng(n)
        phased_pauli = np.exp(1j * rng.uniform(-np.pi, np.pi)) * np.eye(1)
        for k in rng.integers(1, 4, n):
            phased_pauli = np.kron(phased_pauli, [np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z][k])
        path = tmp_path / "pauli.json"
        fileio.save_unitary(phased_pauli, path)
        runs = [
            (["--random-n", str(n), "--seed", "4"], qd.random_unitary(2**n, 4)),
            (["--unitary", str(path)], fileio.load_unitary(path)),
        ]
        docs = []
        for source, u in runs:
            code, out, err = _run(capsys, ["dqc1", *source, "--alpha", str(alpha)])
            assert code == 0, err
            docs.append(json.loads(out))
            inst = qd.Dqc1Instance(n=n, alpha=alpha, unitary=u)
            expected = qd.geometric_discord_2q(qd.dqc1_output_state(inst)).value
            assert abs(docs[-1]["geometric_discord"] - expected) <= 1e-15
        haar, pauli = docs
        assert haar["classicality"]["zero_discord"] is False
        assert haar["geometric_discord"] > 1e-15
        assert pauli["classicality"]["zero_discord"] is True
        assert abs(pauli["geometric_discord"]) <= 1e-15

    def test_geometric_discord_is_not_negative_at_the_unitarity_tolerance(self, capsys, tmp_path):
        # c 1 with ||(c^2 - 1) 1||_F = 0.99e-9 passes the check, and |Tr U^2| = 2c^2 > 2
        u = np.sqrt(1.0 + 0.7e-9) * np.eye(2)
        path = tmp_path / "scaled.json"
        fileio.save_unitary(u, path)
        code, out, err = _run(capsys, ["dqc1", "--unitary", str(path), "--alpha", "0.5"])
        assert code == 0, err
        inst = qd.Dqc1Instance(n=1, alpha=0.5, unitary=u)
        assert qd.geometric_discord_2q(qd.dqc1_output_state(inst)).value == 0.0
        assert json.loads(out)["geometric_discord"] == 0.0

    def test_builds_no_output_state(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("no output state should be built")

        monkeypatch.setattr(qd.dqc1, "dqc1_output_state", forbidden)
        monkeypatch.setattr(qd.dqc1, "DensityMatrix", forbidden)
        code, out, err = _run(capsys, ["dqc1", "--random-n", "4", "--seed", "3", "--alpha", "0.7"])
        assert code == 0, err
        doc = json.loads(out)
        tau = np.trace(qd.random_unitary(16, 3)) / 16
        assert abs(complex(*doc["exact_tau"]) - tau) <= 1e-15
        assert abs(complex(*doc["tau_hat"]) - tau) <= 4 * doc["std_error"]

    def test_checks_unitarity_once(self, capsys, monkeypatch):
        calls = []
        check = qd.dqc1._check_unitary

        def counted(u, *args, **kwargs):
            calls.append(np.shape(u))
            return check(u, *args, **kwargs)

        monkeypatch.setattr(qd.dqc1, "_check_unitary", counted)
        code, _, err = _run(capsys, ["dqc1", "--random-n", "3"])
        assert code == 0, err
        assert calls == [(8, 8)]  # in Dqc1Instance; the classicality check reuses it

    def test_alpha_zero_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["dqc1", "--random-n", "2", "--alpha", "0"])
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("alpha", ["2", "nan", "-0.5"])
    def test_alpha_outside_range_exits_before_drawing_u(self, capsys, monkeypatch, alpha):
        def forbidden(*args, **kwargs):
            raise AssertionError("alpha must be refused before U is drawn")

        monkeypatch.setattr("qdiscord.cli.random_unitary", forbidden)
        code, _, err = _run(capsys, ["dqc1", "--random-n", "11", "--alpha", alpha])
        assert code == 2
        assert "(0, 1]" in err

    def test_internal_inconsistency_exits_1(self, capsys, tmp_path, monkeypatch):
        def faulty(u):
            raise RuntimeError("internal inconsistency")

        monkeypatch.setattr("qdiscord.cli.dqc1_classicality_check", faulty)
        path = tmp_path / "hadamard.json"
        fileio.save_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2), path)
        code, _, err = _run(capsys, ["dqc1", "--unitary", str(path), "--alpha", "0.5"])
        assert code == 1
        assert "internal error: RuntimeError" in err

    def test_unitary_and_random_conflict(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        fileio.save_unitary(np.eye(2), path)
        with pytest.raises(SystemExit) as exc:
            main(["dqc1", "--unitary", str(path), "--random-n", "2"])
        assert exc.value.code == 2


class TestCliCatalog:
    def test_bell_roundtrips_through_analyze(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["catalog", "bell", "0"])
        assert code == 0
        rho = fileio.parse_state_document(out)
        assert np.array_equal(rho.mat, qd.bell_state(0).mat)

    def test_bell_diagonal(self, capsys):
        code, out, _ = _run(capsys, ["catalog", "bell-diagonal", "0.33,0.33,0.33"])
        assert code == 0
        rho = fileio.parse_state_document(out)
        assert np.diag(qd.bloch_triple(rho).corr) == pytest.approx([0.33, 0.33, 0.33])

    def test_unphysical_bell_diagonal_exits_2(self, capsys):
        code, _, err = _run(capsys, ["catalog", "bell-diagonal", "2,0,0"])
        assert code == 2
        assert "tetrahedron" in err

    @pytest.mark.parametrize("argv", [["bell", "x"], ["bell", "7"], ["facet", "1,2,1"]])
    def test_bad_parameters_exit_2(self, capsys, argv):
        code, _, err = _run(capsys, ["catalog", *argv])
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_state_exits_2(self, capsys):
        code, _, err = _run(capsys, ["catalog", "werner"])
        assert code == 2
        assert "unknown" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "facet.json"
        code, _, _ = _run(capsys, ["catalog", "facet", "1,-1,1", "-o", str(path)])
        assert code == 0
        assert fileio.load_state(path).dim_a == 2


class TestCliGeometricEntropic:
    def test_geometric_with_oracle(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        fileio.save_state(qd.bell_state(0), path)
        code, out, _ = _run(
            capsys, ["geometric", str(path), "--oracle", "--restarts", "8", "--seed", "1"]
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] == pytest.approx(0.5, abs=1e-12)
        assert doc["oracle"]["value"] == pytest.approx(0.5, abs=1e-6)

    def test_geometric_on_qubit_qutrit(self, capsys, tmp_path):
        path = tmp_path / "s23.json"
        fileio.save_state(qd.random_density_matrix(2, 3, 0), path)
        code, out, _ = _run(capsys, ["geometric", str(path)])
        assert code == 0
        assert json.loads(out)["value"] == qd.geometric_discord_2q(fileio.load_state(path)).value
        # the oracle searches the two-qubit zero-discord family only
        code, out, err = _run(capsys, ["geometric", str(path), "--oracle"])
        assert code == 2
        assert out == ""
        assert "need a 2x2 bipartite state, got dims (2, 3)" in err

    def test_oracle_refuses_before_the_closed_form(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "bell.json"
        fileio.save_state(qd.bell_state(0), path)
        code, out, _ = _run(capsys, ["geometric", str(path), "--oracle", "--restarts", "4"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["e_star", "k_max", "oracle", "value"]  # printed sorted
        assert list(doc["oracle"]) == ["restarts", "seed", "value"]

        def forbidden(rho):
            raise AssertionError("the closed form must not run before the oracle refuses")

        monkeypatch.setattr("qdiscord.cli.geometric_discord_2q", forbidden)
        fileio.save_state(qd.random_density_matrix(2, 3, 0), path)
        code, out, err = _run(capsys, ["geometric", str(path), "--oracle"])
        assert code == 2
        assert out == ""
        assert "need a 2x2 bipartite state, got dims (2, 3)" in err

    def test_entropic(self, capsys, tmp_path, classical_bits):
        path = tmp_path / "cq.json"
        fileio.save_state(classical_bits, path)
        code, out, _ = _run(capsys, ["entropic", str(path)])
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] <= 1e-6
        assert doc["classical_correlation"] == pytest.approx(1.0, abs=1e-4)
        assert doc["measurement_class"].startswith("projective")
