import dataclasses
import json
from pathlib import Path

import pytest

import corpus
from centrallift import cli, engines, lifting, modlinalg


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def c4_files(tmp_path):
    pres = write(tmp_path, "c4.grp", corpus.C4)
    phi = write(tmp_path, "phi.img", "image: x\n")
    return pres, phi


def test_solve_c4(c4_files, tmp_path, capsys):
    pres, phi = c4_files
    out = str(tmp_path / "report.json")
    code = cli.main(["solve", pres, phi, "--out", out])
    assert code == 0
    payload = json.loads(Path(out).read_text())
    assert payload["lift_count"] == 2
    assert payload["kind"] == "homomorphic"


def test_auto_c4(c4_files, capsys):
    pres, phi = c4_files
    assert cli.main(["auto", pres, phi]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lift_count"] == 2
    assert all(lift["automorphic"] for lift in payload["lifts"])


def test_auto_c6(tmp_path, capsys):
    pres = write(tmp_path, "c6.grp", corpus.C6)
    phi = write(tmp_path, "phi.img", "image: x\n")
    assert cli.main(["auto", pres, phi]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lift_count"] == 2


def test_auto_labels_non_cyclic_targets_by_the_images_of_n(tmp_path, capsys):
    # one target per ordered pair of distinct involutions generating <a, b>,
    # labelled by the shortest words of the images of a and b
    pres = write(tmp_path, "c2c2c4.grp", corpus.C2C2C4_AB)
    phi = write(tmp_path, "phi.img", "image: a\nimage: b\nimage: c\n")
    assert cli.main(["auto", pres, phi]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [t["label"] for t in payload["targets"]] == [
        "images=a,b",
        "images=a,a*b",
        "images=b,a",
        "images=b,a*b",
        "images=a*b,a",
        "images=a*b,b",
    ]


def test_existence_only(tmp_path, capsys):
    pres = write(tmp_path, "c6.grp", corpus.C6_FULL)
    phi = write(tmp_path, "phi.img", "image: 1\n")
    assert cli.main(["auto", pres, phi, "--existence-only"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"kind": "existence", "lift_exists": True}


def test_existence_only_rejects_non_squarefree(tmp_path, capsys):
    pres = write(tmp_path, "c4full.grp", corpus.C4_FULL)
    phi = write(tmp_path, "phi.img", "image: 1\n")
    assert cli.main(["auto", pres, phi, "--existence-only"]) == 1
    assert "squarefree" in capsys.readouterr().err


def test_solve_no_lift_exit_2(tmp_path, capsys):
    # C4 x C2 mod <x^2>: swapping the quotient factors has no lift
    pres = write(tmp_path, "c4c2.grp", corpus.C4C2)
    phi = write(tmp_path, "phi.img", "image: y\nimage: x\n")
    code = cli.main(["solve", pres, phi])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["lift_count"] == 0
    # an unsolvable block enumerates no solutions, so no lift is built
    problem = cli._load_problem(cli.build_parser().parse_args(["solve", pres, phi]))
    report = lifting.solve_hom_lifts(problem)
    assert [t.count for t in report.targets] == [0]
    assert report.lifts == ()
    assert lifting.squarefree_existence(problem) is False
    assert cli.main(["auto", pres, phi]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["lift_count"] == 0
    assert len(payload["targets"]) == len(problem.context.aut_system.targets)
    assert [t["count"] for t in payload["targets"]] == ["0"] * len(payload["targets"])


def test_malformed_word_exit_1(tmp_path, capsys):
    pres = write(tmp_path, "bad.grp", "generators: x\nrelator: x^\ncentral: x\n")
    phi = write(tmp_path, "phi.img", "image: x\n")
    assert cli.main(["solve", pres, phi]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_1(tmp_path, capsys):
    phi = write(tmp_path, "phi.img", "image: x\n")
    assert cli.main(["solve", str(tmp_path / "nope.grp"), phi]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_out_exit_1(c4_files, tmp_path, capsys):
    pres, phi = c4_files
    out = str(tmp_path / "no" / "such" / "dir" / "r.json")
    assert cli.main(["solve", pres, phi, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_missing_central_section_exit_1(tmp_path, capsys):
    pres = write(tmp_path, "nocentral.grp", "generators: x\nrelator: x^4\n")
    phi = write(tmp_path, "phi.img", "image: x\n")
    assert cli.main(["solve", pres, phi]) == 1
    assert "central" in capsys.readouterr().err


def test_verify_corpus_exit_0(tmp_path, capsys):
    for name, text in corpus.CORPUS:
        if name == "metacyclic34_mod_x9":
            continue  # slower; covered by the API corpus test
        pres = write(tmp_path, f"{name}.grp", text)
        assert cli.main(["verify", pres]) == 0, name
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True


def test_verify_single_phi(tmp_path, capsys):
    pres = write(tmp_path, "c6.grp", corpus.C6)
    phi = write(tmp_path, "phi.img", "image: x\n")
    assert cli.main(["verify", pres, "--phi", phi]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi_count"] == 1


def test_verify_mismatch_exit_3(tmp_path, capsys, monkeypatch):
    pres = write(tmp_path, "c6.grp", corpus.C6)
    real = lifting.solve_aut_lifts

    def broken(problem, hom):
        report = real(problem, hom)
        return dataclasses.replace(report, lifts=report.lifts[:-1])

    monkeypatch.setattr(lifting, "solve_aut_lifts", broken)
    assert cli.main(["verify", pres]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is False
    assert payload["report"]["counterexample"]["side"] == "oracle_only"


def test_verify_budget_exit_1(tmp_path, capsys):
    pres = write(tmp_path, "heis.grp", corpus.HEISENBERG)
    assert cli.main(["verify", pres, "--lift-budget", "2"]) == 1
    assert "budget" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    # argparse alone exits 2, which a script would read as "no lift exists"
    assert cli.main(["solve"]) == 1
    assert capsys.readouterr().err.startswith("error: centrallift solve: ")
    assert cli.main(["demo", "--p", "3"]) == 1
    assert "--n" in capsys.readouterr().err
    assert cli.main(["demo", "--p", "x", "--n", "4"]) == 1
    assert cli.main(["frobnicate"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0


def test_budgets_are_verify_options(c4_files, capsys):
    # only verify runs the oracle, so only verify takes its budgets
    pres, phi = c4_files
    for command in ("solve", "auto"):
        for flag in ("--lift-budget", "--aut-budget"):
            assert cli.main([command, pres, phi, flag, "5"]) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(["verify", pres, "--aut-budget", "100", "--lift-budget", "100"]) == 0


def test_demo_rejects_bad_parameters(capsys):
    assert cli.main(["demo", "--p", "2", "--n", "4"]) == 1
    assert "odd" in capsys.readouterr().err
    assert cli.main(["demo", "--p", "3", "--n", "3"]) == 1
    assert "n must be" in capsys.readouterr().err
    # refused by the budget before p is trial-divided or p^n is formed
    for p, n in (("2305843009213693951", "4"), ("3", "100000000")):
        assert cli.main(["demo", "--p", p, "--n", n]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_json_reports_are_byte_identical(c4_files, tmp_path):
    pres, phi = c4_files
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert cli.main(["solve", pres, phi, "--out", out1]) == 0
    assert cli.main(["solve", pres, phi, "--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_text_format(c4_files, capsys):
    pres, phi = c4_files
    assert cli.main(["solve", pres, phi, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "lift_count: 2" in out


def test_verify_decomposes_each_matrix_once(tmp_path, capsys, monkeypatch):
    # Heisenberg-27 has 48 phis but only two matrices: M and M extended
    # by the z-word's row
    pres = write(tmp_path, "heis.grp", corpus.HEISENBERG)
    real = modlinalg.smith
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(modlinalg, "smith", counting)
    assert cli.main(["verify", pres]) == 0
    assert json.loads(capsys.readouterr().out)["phi_count"] == 48
    assert len(calls) <= 2


def test_verify_builds_the_quotient_once(tmp_path, capsys, monkeypatch):
    # verify enumerates G, then G/N once, in its LiftContext; the oracle's
    # Aut(G/N) search reads G/N from there instead of building its own
    pres = write(tmp_path, "heis.grp", corpus.HEISENBERG)
    orders = []
    real = engines.todd_coxeter

    def counting(*args, **kwargs):
        engine = real(*args, **kwargs)
        orders.append(engine.order())
        return engine

    monkeypatch.setattr(engines, "todd_coxeter", counting)
    assert cli.main(["verify", pres]) == 0
    assert json.loads(capsys.readouterr().out)["phi_count"] == 48
    assert orders == [27, 9]


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    pres = write(tmp_path, "c6.grp", corpus.C6)

    def broken(problem):
        raise lifting.SolverConsistencyError("injected")

    monkeypatch.setattr(lifting, "solve_hom_lifts", broken)
    assert cli.main(["verify", pres]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: SolverConsistencyError: injected\n"


def test_internal_assertion_exit_4(tmp_path, capsys, monkeypatch):
    # an engine invariant (raise AssertionError) is an internal error too
    pres = write(tmp_path, "c6.grp", corpus.C6)

    def broken(npoints, actions):
        raise AssertionError("injected")

    monkeypatch.setattr(engines, "_regular_steps", broken)
    assert cli.main(["verify", pres]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: injected\n"


def test_bad_input_still_exit_1(tmp_path, capsys):
    phi = write(tmp_path, "phi.img", "image: x\nimage: y\n")
    s3 = write(
        tmp_path,
        "s3.grp",
        "generators: x y\nrelator: x^3\nrelator: y^2\nrelator: x*y*x*y\ncentral: y\n",
    )
    assert cli.main(["solve", s3, phi]) == 1
    assert "is not central" in capsys.readouterr().err
    c4 = write(tmp_path, "c4.grp", corpus.C4)
    c4_phi = write(tmp_path, "x.img", "image: x\n")
    assert cli.main(["solve", c4, c4_phi, "--max-cosets", "0"]) == 1
    assert "--max-cosets" in capsys.readouterr().err
    # a relator longer than a full coset table is refused before expansion
    long = write(tmp_path, "long.grp", "generators: x\nrelator: x^1000000000\ncentral: x\n")
    assert cli.main(["solve", long, c4_phi]) == 1
    assert "--max-cosets" in capsys.readouterr().err
    # a file that is not UTF-8 is bad input too, not a traceback
    bad = tmp_path / "bad.grp"
    bad.write_bytes(b"\xffgenerators: x\n")
    assert cli.main(["solve", str(bad), c4_phi]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")


def test_programming_error_is_not_an_input_error(c4_files, monkeypatch):
    # a plain ValueError from inside the program is a bug, not bad input:
    # it escapes instead of being reported as "error: ..." with exit 1
    pres, phi = c4_files

    def broken(problem):
        raise ValueError("injected")

    monkeypatch.setattr(lifting, "solve_hom_lifts", broken)
    with pytest.raises(ValueError, match="injected"):
        cli.main(["solve", pres, phi])
