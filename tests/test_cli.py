import time
from pathlib import Path

import pytest

from escalier.cli import run
from escalier.crypto import parse_ciphertext, parse_public_key
from escalier.polynomials import parse_ideal_file, parse_polynomial
from escalier.staircase import parse_result

EX51 = """ring n=2 p=32003 order=deglex
X1^2*X2^2
X1*X2^3
X1^4*X2
X2^8
"""

KEYRING = """ring n=2 p=32003 order=deglex
X1^2 + X2
X2^2 + 1
"""

# completed in a fraction of a second under deglex, slowly under lex
SLOW_UNDER_LEX = """ring n=3 p=3 order=deglex
X1^3*X2^3*X3^2 + X1^3*X2^2 + X1*X3^2 + X1*X3 + X1
2*X2^3*X3^3
2*X1^3*X2^3*X3^3 + 2*X2^2*X3^2 + X2^3
2*X1^2*X2^2*X3^3 + X1^2*X2*X3^2 + 2*X1*X2*X3 + 2*X1*X2
X1^2*X2^3*X3^2 + X1^2*X3^3 + 2*X2^3 + 2*X3
2*X1^3*X2^6*X3^5 + 2*X1^3*X2^5*X3^3 + 2*X1*X2^3*X3^5 + 2*X1*X2^3*X3^4 + 2*X1*X2^3*X3^3
"""

NC_PRIVATE = """free n=2 p=32003
X1*X2
X2*X1
"""

NC_PUBLIC = """free n=2 p=32003
X1*X1*X2*X2 + 3*X2*X1
2*X2*X2*X1
"""


@pytest.fixture()
def ex51(tmp_path):
    path = tmp_path / "ex51.ideal"
    path.write_text(EX51)
    return path


class TestRecon:
    def test_golden(self, ex51, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = run(["recon", "--ideal", str(ex51), "--bound", "8", "--out", str(out)])
        assert code == 0
        res = parse_result(out.read_text())
        assert res.generators == {(2, 2), (1, 3), (4, 1), (0, 8)}
        assert res.queries_used < 81

    def test_zero_ideal(self, tmp_path, capsys):
        path = tmp_path / "zero.ideal"
        path.write_text("ring n=2 p=32003 order=deglex\n0\n")
        code = run(["recon", "--ideal", str(path), "--bound", "5"])
        assert code == 0
        res = parse_result(capsys.readouterr().out)
        assert res.generators == frozenset()

    def test_bad_flags(self):
        assert run(["recon", "--bound", "4"]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["recon", "--ideal", str(tmp_path / "no.ideal"), "--bound", "4"]) == 2

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("not a header\nX1\n")
        assert run(["recon", "--ideal", str(path), "--bound", "4"]) == 2

    def test_binary_search_flag(self, ex51, capsys):
        code = run(["recon", "--ideal", str(ex51), "--bound", "8", "--binary-search"])
        assert code == 0
        res = parse_result(capsys.readouterr().out)
        assert res.generators == {(2, 2), (1, 3), (4, 1), (0, 8)}


class TestVerifyGb:
    def test_pass(self, ex51, capsys):
        assert run(["verify-gb", "--ideal", str(ex51)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fail(self, tmp_path, capsys):
        path = tmp_path / "notgb.ideal"
        path.write_text("ring n=2 p=32003 order=deglex\nX1^2 + X2\nX1^3\n")
        assert run(["verify-gb", "--ideal", str(path)]) == 1
        assert "remainder" in capsys.readouterr().out

    EXACT = [
        ([], "pair (0,1): remainder 32002*X2^2 + X1\npair (0,2): remainder 1\n"
             "pair (1,2): remainder X2\n"),
        (["--order", "lex"], "pair (0,1): remainder 1\npair (0,2): ok 0\n"
                             "pair (1,2): remainder 32002*X1^2\n"),
    ]

    @pytest.mark.parametrize("flags, want", EXACT)
    def test_exact_output(self, flags, want, tmp_path, capsys):
        # the 0 line forms no pair, and the pair indices skip it
        path = tmp_path / "notgb.ideal"
        path.write_text("ring n=2 p=32003 order=deglex\nX1^2 + X2\n0\nX1*X2 + 1\nX1^3\n")
        assert run(["verify-gb", "--ideal", str(path)] + flags) == 1
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("flags, want", EXACT)
    def test_ring_file_is_read_once(self, flags, want, tmp_path, capsys, monkeypatch):
        # the kind and the basis come from one read, --order applied to it
        path = tmp_path / "notgb.ideal"
        path.write_text("ring n=2 p=32003 order=deglex\nX1^2 + X2\n0\nX1*X2 + 1\nX1^3\n")
        reads, read_text = [], Path.read_text

        def counted(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        assert run(["verify-gb", "--ideal", str(path)] + flags) == 1
        assert capsys.readouterr() == (want, "")
        assert reads == [path]

    def test_nc_file(self, tmp_path, capsys):
        path = tmp_path / "nc.free"
        path.write_text(NC_PRIVATE)
        assert run(["verify-gb", "--ideal", str(path)]) == 0

    @pytest.mark.parametrize("flags", [["--order", "lex"]])
    def test_nc_file_refuses_ring_flags(self, flags, tmp_path, capsys):
        # a free-algebra file has one word order
        path = tmp_path / "nc.free"
        path.write_text(NC_PRIVATE)
        assert run(["verify-gb", "--ideal", str(path)] + flags) == 2
        _one_error_line(capsys)

    def test_nc_file_opening_with_a_comment(self, tmp_path, capsys):
        # the kind is read from the first content line, as nc-recon reads it
        path = tmp_path / "nc.free"
        path.write_text("# a verified basis\n\n" + NC_PRIVATE)
        assert run(["verify-gb", "--ideal", str(path)]) == 0
        assert capsys.readouterr().out == "ambiguities resolve: True\n"


class TestCryptoCommands:
    def test_full_cycle(self, tmp_path, capsys):
        ring = tmp_path / "key.ideal"
        ring.write_text(KEYRING)
        priv = tmp_path / "priv.ideal"
        pub = tmp_path / "pub.key"
        assert (
            run(
                [
                    "keygen",
                    "--ideal",
                    str(ring),
                    "--seed",
                    "7",
                    "--out-private",
                    str(priv),
                    "--out-public",
                    str(pub),
                ]
            )
            == 0
        )
        pk = parse_public_key(pub.read_text())
        n, p, order, basis = parse_ideal_file(priv.read_text())
        assert len(basis) == 2

        cipher = tmp_path / "c.txt"
        assert (
            run(
                [
                    "encrypt",
                    "--public",
                    str(pub),
                    "--message",
                    "3*X1 + 5*X1*X2 + 2",
                    "--seed",
                    "9",
                    "--out",
                    str(cipher),
                ]
            )
            == 0
        )
        parse_ciphertext(cipher.read_text())
        capsys.readouterr()
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher)]) == 0
        said = capsys.readouterr().out.strip()
        assert parse_polynomial(said, pk.n, pk.p) == parse_polynomial(
            "3*X1 + 5*X1*X2 + 2", pk.n, pk.p
        )

    def test_keygen_deterministic(self, tmp_path):
        ring = tmp_path / "key.ideal"
        ring.write_text(KEYRING)
        outs = []
        for tag in ("a", "b"):
            priv = tmp_path / f"priv{tag}"
            pub = tmp_path / f"pub{tag}"
            assert (
                run(
                    [
                        "keygen",
                        "--ideal",
                        str(ring),
                        "--seed",
                        "11",
                        "--out-private",
                        str(priv),
                        "--out-public",
                        str(pub),
                    ]
                )
                == 0
            )
            outs.append(priv.read_bytes() + pub.read_bytes())
        assert outs[0] == outs[1]

    def test_attack(self, tmp_path, capsys):
        ring = tmp_path / "key.ideal"
        ring.write_text(KEYRING)
        priv = tmp_path / "priv.ideal"
        pub = tmp_path / "pub.key"
        run(
            [
                "keygen",
                "--ideal",
                str(ring),
                "--seed",
                "3",
                "--out-private",
                str(priv),
                "--out-public",
                str(pub),
            ]
        )
        capsys.readouterr()
        assert run(["attack", "--private", str(priv), "--public", str(pub)]) == 0
        res = parse_result(capsys.readouterr().out)
        assert res.generators == {(2, 0), (0, 2)}


class TestPinnedBytes:
    """Seeded outputs recorded before keygen, encrypt and nc-probe summed
    their noise in one dict: a change to a draw, to the order of the
    draws or to the sum shows here as a changed byte."""

    PUBLIC_11 = (
        "publickey n=2 p=32003 order=deglex dbound=1 delta=4\n"
        "g 6051*X1*X2^2 + 28019*X2^2 + 18343*X1^2 + 18343*X2 + 6051*X1 + 28019\n"
        "g 9942*X1^2*X2 + 27594*X2^2 + 20119*X1^2 + 20119*X2 + 17652\n"
        "t 1\nt X1\nt X2\nt X1*X2\n"
    )
    CIPHER_9 = (
        "cipher n=2 p=32003 delta=4\n"
        "27261*X1^2*X2^2 + 22265*X1^3*X2 + 22842*X2^3 + 22679*X1*X2^2 + 24181*X1^2*X2"
        " + 6426*X1^3 + 19566*X2^2 + 6431*X1*X2 + 22097*X1^2 + 17678*X2 + 417*X1 + 27390\n"
    )

    def test_keygen_encrypt_and_probe(self, tmp_path, capsys):
        ring, priv, pub, cipher = (tmp_path / f for f in ("key.ideal", "priv", "pub", "c.txt"))
        ring.write_text(KEYRING)
        argv = ["keygen", "--ideal", str(ring), "--seed", "11"]
        assert run(argv + ["--out-private", str(priv), "--out-public", str(pub)]) == 0
        assert priv.read_text() == KEYRING and pub.read_text() == self.PUBLIC_11
        argv = ["encrypt", "--public", str(pub), "--message", "3*X1 + 5*X1*X2 + 2", "--seed", "9"]
        assert run(argv + ["--out", str(cipher)]) == 0
        assert cipher.read_text() == self.CIPHER_9
        nc_priv, nc_pub = tmp_path / "nc.free", tmp_path / "pub.free"
        nc_priv.write_text(NC_PRIVATE)
        nc_pub.write_text(NC_PUBLIC)
        capsys.readouterr()
        argv = ["nc-probe", "--private", str(nc_priv), "--public", str(nc_pub)]
        assert run(argv + ["--trials", "8", "--seed", "2"]) == 0
        assert capsys.readouterr().out == "trials 8 successes 8 failures 0 basis 2\n"


class TestForge:
    def test_demo(self, tmp_path, capsys):
        path = tmp_path / "j.ideal"
        path.write_text("ring n=2 p=32003 order=degrevlex\nX1^2\n")
        assert run(["forge", "--j", str(path), "--delta", "3", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "outputs differ: True" in out

    def test_writes_both_ideal_files(self, tmp_path, capsys):
        path = tmp_path / "j.ideal"
        path.write_text("ring n=2 p=32003 order=degrevlex\nX1^2\n")
        stem = tmp_path / "pair"
        assert run(["forge", "--j", str(path), "--delta", "3", "--out", str(stem)]) == 0
        for suffix in (".shifted.ideal", ".extended.ideal"):
            emitted = Path(f"{stem}{suffix}")
            n, p, order, polys = parse_ideal_file(emitted.read_text())
            assert polys
            # the emitted oracle ideals are honest bases
            assert run(["verify-gb", "--ideal", str(emitted)]) == 0

    def test_delta_too_small_exit_2(self, tmp_path, capsys):
        path = tmp_path / "j.ideal"
        path.write_text("ring n=2 p=32003 order=degrevlex\nX1^2\n")
        assert run(["forge", "--j", str(path), "--delta", "1"]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize(
        "text", ["ring n=2 p=32003 order=deglex\n", "ring n=1 p=32003 order=deglex\nX1^2\n"]
    )
    def test_refusals_exit_2(self, text, tmp_path, capsys):
        # an ideal without generators, or in one variable
        path = tmp_path / "j.ideal"
        path.write_text(text)
        assert run(["forge", "--j", str(path), "--delta", "3"]) == 2
        _one_error_line(capsys)

    def test_delta_past_the_scan_limit(self, tmp_path, capsys, monkeypatch):
        # 2 * (2,000,000 + 2) scanned terms, refused before any completion
        monkeypatch.setattr("escalier.forge.buchberger", None)
        path = tmp_path / "j.ideal"
        path.write_text("ring n=2 p=32003 order=deglex\nX1^2 + X2\n")
        assert run(["forge", "--j", str(path), "--delta", "2000000", "--demo"]) == 2
        assert capsys.readouterr().err == (
            "error: the forge scan of n * (delta + 2) terms exceeds the limit of 10^6 terms\n"
        )

    def test_large_delta(self, tmp_path, capsys):
        # the cap lead comes from the basis leads, not from listing the
        # 1,503 * 1,502 / 2 terms of degree 1501
        path = tmp_path / "j.ideal"
        path.write_text("ring n=3 p=32003 order=deglex\nX1^2 - X3\nX2^2 + X1\n")
        assert run(["forge", "--j", str(path), "--delta", "1500", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "cap element X1^1501 + 32002*X1*X3^750\n" in out
        assert "outputs differ: True\n" in out


class TestPinnedQueryLines:
    """Whole stdout, query lines included, of the commands that print a
    ledger, on fixed inputs. Every byte was recorded before the attacks
    shared one session per oracle, except the forge demo's bound + 1 count,
    which now charges its new queries only (12 before, 3 now)."""

    THREE = "ring n=3 p=7 order=degrevlex\nX1^2 + X2*X3\nX2^2 - X1\nX3^3 + 1\n"
    EX51_RESULT = (
        "generators k=4 D=8 n=2 p=32003\nX1*X2^3\nX1^2*X2^2\nX1^4*X2\nX2^8\n"
        "basis\nX1*X2^3\nX1^2*X2^2\nX1^4*X2\nX2^8\n"
    )
    KEY_RESULT = "basis\nX2^2 + 1\nX1^2 + X2\nqueries 9\nqueries 9\n"

    @pytest.mark.parametrize("binary,queries", [(False, 23), (True, 25)])
    def test_recon_monomial(self, ex51, capsys, binary, queries):
        argv = ["recon", "--ideal", str(ex51), "--bound", "8", "--queries"]
        assert run(argv + ["--binary-search"] * binary) == 0
        assert capsys.readouterr().out == self.EX51_RESULT + f"queries {queries}\n" * 2

    def test_recon_three_variables(self, tmp_path, capsys):
        path = tmp_path / "three.ideal"
        path.write_text(self.THREE)
        assert run(["recon", "--ideal", str(path), "--bound", "4", "--queries"]) == 0
        assert capsys.readouterr().out == (
            "generators k=6 D=4 n=3 p=7\nX2*X3\nX2^2\nX3^3\nX1^2*X2\nX1^2*X3^2\nX1^4\n"
            "basis\nX2*X3 + X1^2\nX2^2 + 6*X1\nX3^3 + 1\nX1^2*X2 + X1*X3\n"
            "X1^2*X3^2 + 6*X2\nX1^4 + 6*X1*X3^2\nqueries 33\nqueries 33\n"
        )

    def test_decrypt_and_attack(self, tmp_path, capsys):
        ring, priv, pub, cipher = (tmp_path / f for f in ("key.ideal", "priv", "pub", "c.txt"))
        ring.write_text(KEYRING)
        argv = ["keygen", "--ideal", str(ring), "--seed", "1"]
        assert run(argv + ["--out-private", str(priv), "--out-public", str(pub)]) == 0
        argv = ["encrypt", "--public", str(pub), "--message", "3 + 5*X1", "--seed", "2"]
        assert run(argv + ["--out", str(cipher)]) == 0
        capsys.readouterr()
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher), "--queries"]) == 0
        assert capsys.readouterr().out == "5*X1 + 3\nqueries 11\n"
        argv = ["attack", "--private", str(priv), "--public", str(pub), "--queries"]
        for bound, flag in ((4, []), (2, ["--bound", "2"])):
            assert run(argv + flag) == 0
            head = f"generators k=2 D={bound} n=2 p=32003\nX2^2\nX1^2\n"
            assert capsys.readouterr().out == head + self.KEY_RESULT

    def test_nc_recon(self, tmp_path, capsys):
        priv, pub = tmp_path / "nc.free", tmp_path / "pub.free"
        priv.write_text(NC_PRIVATE)
        pub.write_text(NC_PUBLIC)
        assert run(["nc-recon", "--ideal", str(priv), "--public", str(pub), "--queries"]) == 0
        assert capsys.readouterr().out == (
            "free n=2 p=32003\nX1*X2\nX2*X1\n"
            "# round 1: peeled X2*X1, residual supports 3\n"
            "# round 2: peeled X1*X2, residual supports 1\nqueries 9\n"
        )

    def test_forge_demo(self, tmp_path, capsys):
        path = tmp_path / "j.ideal"
        path.write_text("ring n=2 p=7 order=deglex\nX1^2 + X2\n")
        assert run(["forge", "--j", str(path), "--delta", "3", "--demo"]) == 0
        assert capsys.readouterr().out == (
            "agree degree 3\ncap element X1^4 + 6*X2^2\n"
            "extended set is a Groebner basis: True\nclosed form matches: True\n"
            "bound 3: generators X1^2*X2 (queries 9)\n"
            "bound 4: generators X1^2*X2, X1^4 (queries 3)\n"
            "small bound matches shifted ideal: True\nbig bound matches extended ideal: True\n"
            "outputs differ: True\n"
        )


class TestNcCommands:
    def test_nc_recon(self, tmp_path, capsys):
        priv = tmp_path / "nc.free"
        priv.write_text(NC_PRIVATE)
        pub = tmp_path / "pub.free"
        pub.write_text(NC_PUBLIC)
        assert run(["nc-recon", "--ideal", str(priv), "--public", str(pub)]) == 0
        out = capsys.readouterr().out
        assert "X1*X2" in out and "X2*X1" in out and "round 1:" in out
        # the trace rides along as comments, so the output stays parseable
        from escalier.nc_polynomials import parse_free_file

        n, p, polys = parse_free_file(out)
        assert len(polys) == 2

    def test_nc_probe(self, tmp_path, capsys):
        priv = tmp_path / "nc.free"
        priv.write_text(NC_PRIVATE)
        pub = tmp_path / "pub.free"
        pub.write_text(NC_PUBLIC)
        assert (
            run(
                [
                    "nc-probe",
                    "--private",
                    str(priv),
                    "--public",
                    str(pub),
                    "--trials",
                    "8",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trials 8" in out and "failures 0" in out

    @pytest.mark.parametrize("n,code", [(999, 0), (1000, 2)], ids=["at-cap", "past-cap"])
    def test_probe_noise_cap(self, tmp_path, capsys, n, code):
        # one trial of the public member X1*X2*X1 multiplies (n + 1)^2 draw
        # pairs: 10^6 at n = 999, the cap, and 1,002,001 at n = 1000
        priv, pub = tmp_path / "nc.free", tmp_path / "pub.free"
        priv.write_text(f"free n={n} p=32003\nX1*X2\n")
        pub.write_text(f"free n={n} p=32003\nX1*X2*X1\n")
        start = time.perf_counter()
        argv = ["nc-probe", "--private", str(priv), "--public", str(pub), "--trials", "1"]
        assert run(argv) == code
        if code:
            assert time.perf_counter() - start < 1
            _one_error_line(capsys)
        else:
            assert capsys.readouterr().out == "trials 1 successes 1 failures 0 basis 1\n"


class TestBench:
    def test_counts(self, ex51, capsys):
        assert run(["bench-queries", "--ideal", str(ex51), "--bound", "8"]) == 0
        out = capsys.readouterr().out
        assert "brute force queries 81" in out
        assert "agree True" in out


def _one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


class TestInputValidation:
    def test_public_key_with_composite_modulus(self, tmp_path, capsys):
        pub = tmp_path / "pub.key"
        pub.write_text(
            "publickey n=2 p=32004 order=deglex dbound=1 delta=4\n"
            "g X1^2 + X2\nt 1\nt X1\n"
        )
        assert run(["encrypt", "--public", str(pub), "--message", "X1 + 2"]) == 2
        _one_error_line(capsys)

    def test_ciphertext_with_composite_modulus(self, tmp_path, capsys):
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        cipher = tmp_path / "c.txt"
        cipher.write_text("cipher n=2 p=32004 delta=4\nX1 + 2\n")
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher)]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("text", ["", "cipher n=2 p=32003 delta=4\n"])
    def test_ciphertext_without_a_polynomial(self, text, tmp_path, capsys):
        # the line count is checked before the header, so an empty file is
        # refused for its missing lines, not for a bad header
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        cipher = tmp_path / "c.txt"
        cipher.write_text(text)
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher)]) == 2
        want = "error: ciphertext file needs a header and one polynomial\n"
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize("command", ["recon", "attack", "bench-queries"])
    def test_negative_bound(self, command, ex51, tmp_path, capsys):
        argv = [command, "--ideal", str(ex51)]
        if command == "attack":
            ring = tmp_path / "key.ideal"
            ring.write_text(KEYRING)
            priv = tmp_path / "priv.ideal"
            pub = tmp_path / "pub.key"
            run(["keygen", "--ideal", str(ring), "--out-private", str(priv), "--out-public", str(pub)])
            capsys.readouterr()
            argv = ["attack", "--private", str(priv), "--public", str(pub)]
        assert run(argv + ["--bound", "-1"]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", "--public-count", "0"],
            ["keygen", "--noise-degree", "-1"],
            ["keygen", "--message-terms", "-2"],
            ["nc-probe", "--trials", "-1"],
            ["nc-probe", "--trials", "1000001"],
            ["nc-probe", "--trials", "1000000000"],
        ],
    )
    def test_bad_counts(self, argv, tmp_path, capsys, monkeypatch):
        # refused before any work: a key, oracle or probe run would fail here
        monkeypatch.setattr("escalier.crypto.keygen", None)
        monkeypatch.setattr("escalier.crypto.nc_attack_probe", None)
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        ring, priv, pub = (tmp_path / name for name in ("key.ideal", "nc.free", "pub.free"))
        ring.write_text(KEYRING)
        priv.write_text(NC_PRIVATE)
        pub.write_text(NC_PUBLIC)
        if argv[0] == "keygen":
            files = ["--ideal", str(ring), "--out-private", str(tmp_path / "priv.ideal")]
            files += ["--out-public", str(tmp_path / "pub.key")]
        else:
            files = ["--private", str(priv), "--public", str(pub)]
        assert run(argv + files) == 2
        _one_error_line(capsys)

    def test_encrypt_off_alphabet_message(self, tmp_path, capsys):
        # refused before any noise is drawn, as a usage error
        pub = tmp_path / "pub.key"
        pub.write_text("publickey n=2 p=32003 order=deglex dbound=1 delta=4\ng X1^2 + X2\nt 1\nt X1\n")
        assert run(["encrypt", "--public", str(pub), "--message", "X1^2*X2^2"]) == 2
        assert capsys.readouterr().err == "error: message uses terms outside the public alphabet\n"

    def test_encrypt_with_generator_free_key(self, tmp_path, capsys):
        pub = tmp_path / "pub.key"
        pub.write_text("publickey n=2 p=32003 order=deglex dbound=1 delta=2\nt 1\nt X1\n")
        argv = ["encrypt", "--public", str(pub), "--message", "3*X1 + 2"]
        assert run(argv) == 2
        _one_error_line(capsys)

    def test_decrypt_cipher_over_its_cap(self, tmp_path, capsys):
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        cipher = tmp_path / "c.txt"
        cipher.write_text("cipher n=2 p=32003 delta=1\nX1^3 + 2\n")
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher)]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("ring", ["n=3 p=32003", "n=2 p=7"])
    def test_decrypt_cipher_from_another_ring(self, ring, tmp_path, capsys, monkeypatch):
        # refused before any oracle exists: building one would fail here
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        cipher = tmp_path / "c.txt"
        cipher.write_text(f"cipher {ring} delta=2\nX1 + 2\n")
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher)]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("ring", ["n=3 p=32003", "n=2 p=7"])
    def test_attack_public_key_from_another_ring(self, ring, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        pub = tmp_path / "pub.key"
        pub.write_text(f"publickey {ring} order=deglex dbound=1 delta=2\ng X1^2 + X2\nt 1\n")
        assert run(["attack", "--private", str(priv), "--public", str(pub)]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["nc-recon", "nc-probe"])
    @pytest.mark.parametrize("algebra", ["n=3 p=32003", "n=2 p=7"])
    def test_free_files_from_two_algebras(self, command, algebra, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        priv = tmp_path / "nc.free"
        priv.write_text(NC_PRIVATE)
        pub = tmp_path / "pub.free"
        pub.write_text(f"free {algebra}\nX1*X2\n")
        flag = "--ideal" if command == "nc-recon" else "--private"
        assert run([command, flag, str(priv), "--public", str(pub)]) == 2
        _one_error_line(capsys)

    def test_encrypt_oversized_key_noise(self, tmp_path, capsys):
        # C(100003, 3) terms per draw: refused before any noise is drawn,
        # as keygen refuses the same noise
        pub = tmp_path / "pub.key"
        pub.write_text("publickey n=3 p=32003 order=deglex dbound=100000 delta=4\ng X1^2 + X2\nt 1\n")
        out = tmp_path / "c.txt"
        start = time.perf_counter()
        assert run(["encrypt", "--public", str(pub), "--message", "2", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: the key noise exceeds the limit of 10^6 terms\n"
        assert not out.exists()

    def test_keygen_noise_counted_by_its_products(self, tmp_path, capsys, monkeypatch):
        # C(1000, 2) = 499,500 noise terms per draw pass as a count of
        # draws (two basis elements), but each multiplies a basis element
        # of two terms: 1,998,000 products, refused before any draw
        monkeypatch.setattr("escalier.crypto._drawer", None)
        ring = tmp_path / "key.ideal"
        ring.write_text(KEYRING)
        argv = ["keygen", "--ideal", str(ring), "--noise-degree", "998", "--public-count", "1"]
        argv += ["--out-private", str(tmp_path / "priv"), "--out-public", str(tmp_path / "pub")]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: the key noise exceeds the limit of 10^6 terms\n"
        assert not (tmp_path / "pub").exists()

    def test_encrypt_noise_counted_by_its_products(self, tmp_path, capsys, monkeypatch):
        # the same noise on a key of two public members of two terms each
        monkeypatch.setattr("escalier.crypto._drawer", None)
        pub = tmp_path / "pub.key"
        pub.write_text(
            "publickey n=2 p=32003 order=deglex dbound=998 delta=1000\n"
            "g X1^2 + X2\ng X2^2 + 1\nt 1\n"
        )
        out = tmp_path / "c.txt"
        assert run(["encrypt", "--public", str(pub), "--message", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: the key noise exceeds the limit of 10^6 terms\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recon", "keygen"])
    def test_degree_past_the_limit_refused_at_parse(self, command, tmp_path, capsys):
        # completing X1^N - 1 by X1^2 - 1 takes time and memory linear in N
        ideal = tmp_path / "deep.ideal"
        ideal.write_text("ring n=1 p=7 order=deglex\nX1^1000000000 - 1\nX1^2 - 1\n")
        argv = {
            "recon": ["recon", "--ideal", str(ideal), "--bound", "1"],
            "keygen": ["keygen", "--ideal", str(ideal), "--out-private", str(tmp_path / "priv"),
                       "--out-public", str(tmp_path / "pub")],
        }[command]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: a term exceeds the limit of 10^6 in degree\n"

    @pytest.mark.parametrize(
        "line, what",
        [
            ("X1^600000*X1^600000", "a monomial"),
            ("X1^500000*X2^500001 + 1", "a monomial"),
            ("3*X1^1000001", "a term"),
        ],
    )
    def test_degree_is_checked_per_monomial(self, line, what, tmp_path, capsys):
        # a factor is a term and is checked alone; a product of factors
        # that each pass is checked as a monomial
        ideal = tmp_path / "deep.ideal"
        ideal.write_text(f"ring n=2 p=7 order=deglex\n{line}\n")
        assert run(["recon", "--ideal", str(ideal), "--bound", "1"]) == 2
        assert capsys.readouterr().err == f"error: {what} exceeds the limit of 10^6 in degree\n"

    def test_degree_of_a_public_key_term_refused(self, tmp_path, capsys):
        pub = tmp_path / "pub.key"
        pub.write_text(
            "publickey n=2 p=32003 order=deglex dbound=1 delta=4\ng X1^2 + X2\nt X1^999999*X1^2\n"
        )
        assert run(["encrypt", "--public", str(pub), "--message", "2"]) == 2
        assert capsys.readouterr().err == "error: a term exceeds the limit of 10^6 in degree\n"

    def test_degree_at_the_limit_parses(self):
        n, p, order, (f, g) = parse_ideal_file("ring n=1 p=7 order=deglex\nX1^1000000 - 1\nX1^2 - 1\n")
        assert f.degree() == 10**6 and g.degree() == 2
        assert parse_polynomial("X1^400000*X2^600000", 2, 7).degree() == 10**6

    @pytest.mark.parametrize(
        "text",
        [
            "ring n=\u0662 p=7 order=deglex\nX1\n",
            "ring n=2 p=\u0667 order=deglex\nX1\n",
            "ring n=2 p=7 order=deglex\n\u0663*X1\n",
            "ring n=2 p=7 order=deglex\nX\u0661^2 + X2\n",
            "ring n=2 p=7 order=deglex\nX1^\uff12\n",
            "free n=\u0968 p=7\nX1\n",
            "free n=2 p=\u0667\nX1\n",
            "free n=2 p=7\nX1*X\u0662\n",
        ],
        ids=["ring-n", "ring-p", "coefficient", "index", "exponent", "free-n", "free-p", "letter"],
    )
    def test_non_ascii_digits_refused(self, text, tmp_path, capsys):
        # every other script's digits are refused where ASCII ones are read
        path = tmp_path / "file"
        path.write_text(text)
        argv = ["recon", "--ideal", str(path), "--bound", "2"]
        if text.startswith("free"):
            argv = ["nc-recon", "--ideal", str(path), "--public", str(path)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: digits must be ASCII 0-9, got '") and err.count("\n") == 1

    def test_non_ascii_digits_in_key_and_cipher_headers(self, tmp_path, capsys):
        pub = tmp_path / "pub.key"
        pub.write_text("publickey n=2 p=32003 order=deglex dbound=\u0661 delta=4\ng X1^2 + X2\nt 1\n")
        assert run(["encrypt", "--public", str(pub), "--message", "2"]) == 2
        assert capsys.readouterr().err == "error: digits must be ASCII 0-9, got '\u0661'\n"
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        cipher = tmp_path / "c.txt"
        cipher.write_text("cipher n=2 p=32003 delta=\u0662\nX1 + 2\n")
        assert run(["decrypt", "--private", str(priv), "--cipher", str(cipher)]) == 2
        assert capsys.readouterr().err == "error: digits must be ASCII 0-9, got '\u0662'\n"

    def test_keygen_oversized_noise(self, tmp_path, capsys, monkeypatch):
        # refused before any noise is drawn
        monkeypatch.setattr("escalier.crypto._drawer", None)
        ring = tmp_path / "key.ideal"
        ring.write_text(KEYRING)
        argv = ["keygen", "--ideal", str(ring), "--noise-degree", "5000", "--public-count", "1"]
        argv += ["--out-private", str(tmp_path / "priv"), "--out-public", str(tmp_path / "pub")]
        assert run(argv) == 2
        _one_error_line(capsys)
        assert not (tmp_path / "pub").exists()

    def test_no_flag_prefixes(self, tmp_path, capsys):
        # flags are matched whole: --public is not read as --public-count
        ring = tmp_path / "key.ideal"
        ring.write_text(KEYRING)
        argv = ["keygen", "--ideal", str(ring), "--public", "7"]
        argv += ["--out-private", str(tmp_path / "priv"), "--out-public", str(tmp_path / "pub")]
        assert run(argv) == 2
        assert not (tmp_path / "pub").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--bound", "3", "--public", "3"],  # an unknown flag
            ["--bound", "3", "--order", "lexx"],  # a bad choice
            ["--bound", "x"],  # not an integer
            [],  # --bound missing
        ],
    )
    def test_usage_errors_are_one_line(self, flags, ex51, capsys):
        assert run(["recon", "--ideal", str(ex51)] + flags) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["recon", "--ideal", "r", "--bound"], "--bound"),
            (["bench-queries", "--ideal", "r", "--bound"], "--bound"),
            (["attack", "--private", "r", "--public", "k", "--bound"], "--bound"),
            (["forge", "--j", "r", "--delta"], "--delta"),
            (["keygen", "--ideal", "r", "--out-private", "a", "--out-public", "b", "--public-count"],
             "--public-count"),
            (["keygen", "--ideal", "r", "--out-private", "a", "--out-public", "b", "--noise-degree"],
             "--noise-degree"),
            (["keygen", "--ideal", "r", "--out-private", "a", "--out-public", "b", "--message-terms"],
             "--message-terms"),
            (["keygen", "--ideal", "r", "--out-private", "a", "--out-public", "b", "--seed"], "--seed"),
            (["encrypt", "--public", "k", "--message", "1", "--seed"], "--seed"),
            (["nc-probe", "--private", "f", "--public", "g", "--trials"], "--trials"),
            (["nc-probe", "--private", "f", "--public", "g", "--seed"], "--seed"),
        ],
    )
    def test_integer_flags_take_ascii_digits_only(self, argv, flag, capsys, monkeypatch):
        # refused while the flags are read, before any file is opened
        monkeypatch.setattr("escalier.cli.Path", None)
        for value, why in [
            ("\u0662", "digits must be ASCII 0-9, got '\u0662'"),
            ("-\u0662", "digits must be ASCII 0-9, got '\u0662'"),
            ("+2", "invalid int value: '+2'"),
            ("2_0", "invalid int value: '2_0'"),
            (" 2", "invalid int value: ' 2'"),
            ("2.0", "invalid int value: '2.0'"),
            ("9" * 5000, "an integer has more digits than Python converts"),
        ]:
            assert run(argv + [value]) == 2
            assert capsys.readouterr() == ("", f"error: argument {flag}: {why}\n")

    def test_recon_bound_in_another_script(self, ex51, capsys):
        # an Arabic-Indic two is not read as 2
        assert run(["recon", "--ideal", str(ex51), "--bound", "\u0662"]) == 2
        assert capsys.readouterr().err == "error: argument --bound: digits must be ASCII 0-9, got '\u0662'\n"
        assert run(["recon", "--ideal", str(ex51), "--bound", "2"]) == 0

    def test_nc_probe_trials_in_another_script(self, tmp_path, capsys):
        priv, pub = tmp_path / "nc.free", tmp_path / "pub.free"
        priv.write_text(NC_PRIVATE)
        pub.write_text(NC_PUBLIC)
        argv = ["nc-probe", "--private", str(priv), "--public", str(pub), "--trials"]
        assert run(argv + ["\u0662"]) == 2
        _one_error_line(capsys)
        assert run(argv + ["2"]) == 0
        assert capsys.readouterr().out == "trials 2 successes 2 failures 0 basis 2\n"

    def test_missing_command_is_one_line(self, capsys):
        assert run([]) == 2
        _one_error_line(capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["recon", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_keygen_walk_refused_before_listing_it(self, tmp_path, capsys):
        # 2,001 normal terms up to degree 1; degree 2 alone holds 2,001,000
        ring = tmp_path / "wide.ideal"
        ring.write_text("ring n=2000 p=32003 order=deglex\nX1^2\n")
        argv = ["keygen", "--ideal", str(ring), "--message-terms", "3000"]
        argv += ["--out-private", str(tmp_path / "priv"), "--out-public", str(tmp_path / "pub")]
        assert run(argv) == 2
        _one_error_line(capsys)
        assert not (tmp_path / "pub").exists()

    def test_forge_refuses_lex_before_completion(self, tmp_path, capsys, monkeypatch):
        # completing this basis under lex is slow; it must not start
        monkeypatch.setattr("escalier.forge.buchberger", None)
        ring = tmp_path / "slow.ideal"
        ring.write_text(SLOW_UNDER_LEX)
        assert run(["forge", "--j", str(ring), "--delta", "20", "--order", "lex"]) == 2
        _one_error_line(capsys)

    def test_keygen_refuses_lex_before_completion(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("escalier.crypto.buchberger", None)
        ring = tmp_path / "slow.ideal"
        ring.write_text(SLOW_UNDER_LEX)
        argv = ["keygen", "--ideal", str(ring), "--order", "lex"]
        argv += ["--out-private", str(tmp_path / "priv"), "--out-public", str(tmp_path / "pub")]
        assert run(argv) == 2
        _one_error_line(capsys)

    def test_bench_queries_oversized_box(self, tmp_path, capsys, monkeypatch):
        # refused before any oracle exists: building one would fail here
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        ideal = tmp_path / "three.ideal"
        ideal.write_text("ring n=3 p=32003 order=deglex\nX1*X2*X3\n")
        assert run(["bench-queries", "--ideal", str(ideal), "--bound", "100000"]) == 2
        _one_error_line(capsys)

    def test_recon_oversized_box(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        ideal = tmp_path / "x3.ideal"
        ideal.write_text("ring n=2 p=32003 order=deglex\nX1^3\n")
        assert run(["recon", "--ideal", str(ideal), "--bound", "200000"]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize("bound", [[], ["--bound", "1000000000"]])
    def test_attack_oversized_box(self, bound, tmp_path, capsys, monkeypatch):
        # without --bound the public degree cap, here 2000, is the bound
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        priv = tmp_path / "priv.ideal"
        priv.write_text(KEYRING)
        pub = tmp_path / "pub.key"
        pub.write_text(
            "publickey n=2 p=32003 order=deglex dbound=1 delta=2000\n"
            "g X1^2 + X2\nt 1\nt X1\n"
        )
        argv = ["attack", "--private", str(priv), "--public", str(pub)]
        assert run(argv + bound) == 2
        _one_error_line(capsys)

    def _refused_by_size(self, capsys, what):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} exceeds the limit of 10^6 terms\n"

    def test_recon_box_of_thousands_of_digits(self, tmp_path, capsys, monkeypatch):
        # 11^5000 terms: a size Python will not format as a decimal
        monkeypatch.setattr("escalier.cli.CanOracle", None)
        ideal = tmp_path / "wide.ideal"
        ideal.write_text("ring n=5000 p=7 order=deglex\nX1\n")
        assert run(["recon", "--ideal", str(ideal), "--bound", "10"]) == 2
        self._refused_by_size(capsys, "the box [0, bound]^n")

    def test_keygen_noise_of_thousands_of_digits(self, tmp_path, capsys, monkeypatch):
        # C(103000, 3000) terms per public polynomial, refused before any draw
        monkeypatch.setattr("escalier.crypto._drawer", None)
        ideal = tmp_path / "wide.ideal"
        ideal.write_text("ring n=3000 p=7 order=deglex\nX1^2\n")
        argv = ["keygen", "--ideal", str(ideal), "--noise-degree", "100000"]
        argv += ["--out-private", str(tmp_path / "priv"), "--out-public", str(tmp_path / "pub")]
        assert run(argv) == 2
        self._refused_by_size(capsys, "the key noise")

    @pytest.mark.parametrize(
        "argv",
        [
            ["recon", "--ideal", "ring", "--bound", "2"],
            ["bench-queries", "--ideal", "ring", "--bound", "2"],
            ["verify-gb", "--ideal", "ring"],
            ["verify-gb", "--ideal", "free"],
            ["nc-recon", "--ideal", "free", "--public", "free"],
            ["encrypt", "--public", "pub", "--message", "3"],
            ["decrypt", "--private", "ring", "--cipher", "cipher"],
        ],
    )
    def test_zero_variables(self, argv, tmp_path, capsys):
        files = {
            "ring": "ring n=0 p=7 order=deglex\n",
            "free": "free n=0 p=7\n",
            "pub": "publickey n=0 p=7 order=deglex dbound=1 delta=2\ng 1\n",
            "cipher": "cipher n=0 p=7 delta=0\n3\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run([str(tmp_path / a) if a in files else a for a in argv]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize(
        "head",
        [
            "ring n=10001 p=7 order=deglex",
            "ring n=4000000 p=7 order=deglex",
            "free n=10001 p=7",
            "free n=4000000 p=7",
            "ring n=1 p=2147483659 order=deglex",
            "ring n=1 p=10000000000000000000009 order=deglex",
            "free n=1 p=10000000000000000000009",
        ],
    )
    def test_oversized_header_refused_at_once(self, head, tmp_path, capsys):
        path = tmp_path / "big"
        path.write_text(head + "\nX1\n")
        argv = ["recon", "--ideal", str(path), "--bound", "0"]
        if head.startswith("free"):
            argv = ["nc-recon", "--ideal", str(path), "--public", str(path)]
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["nc-recon", "nc-probe"])
    @pytest.mark.parametrize(
        "basis, message",
        [
            ("", "free-algebra oracle needs a nonempty basis"),
            ("0\n", "free-algebra oracle needs a nonempty basis"),
            ("1\n", "basis generates the whole free algebra (a lead is 1)"),
            ("X1*X2\n3\n", "basis generates the whole free algebra (a lead is 1)"),
        ],
        ids=["empty", "zero", "unit", "constant"],
    )
    def test_free_private_file_refused(self, command, basis, message, tmp_path, capsys):
        # refused like keygen and forge refuse such a ring file: exit 2
        priv = tmp_path / "priv.free"
        priv.write_text("free n=2 p=32003\n" + basis)
        pub = tmp_path / "pub.free"
        pub.write_text(NC_PUBLIC)
        flag = "--ideal" if command == "nc-recon" else "--private"
        assert run([command, flag, str(priv), "--public", str(pub)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["nc-recon", "nc-probe"])
    def test_free_basis_failing_confluence_exit_1(self, command, tmp_path, capsys):
        # a well-formed basis whose ambiguities do not resolve: a math failure
        priv = tmp_path / "priv.free"
        priv.write_text("free n=2 p=32003\nX1*X1 - X2\n")
        pub = tmp_path / "pub.free"
        pub.write_text(NC_PUBLIC)
        flag = "--ideal" if command == "nc-recon" else "--private"
        assert run([command, flag, str(priv), "--public", str(pub)]) == 1
        assert capsys.readouterr().err == "error: basis fails the overlap confluence check\n"

    def test_directory_as_input_exit_2(self, tmp_path, capsys):
        assert run(["recon", "--ideal", str(tmp_path), "--bound", "3"]) == 2
        _one_error_line(capsys)

    def test_directory_as_output_exit_2(self, ex51, tmp_path, capsys):
        assert run(["recon", "--ideal", str(ex51), "--bound", "3", "--out", str(tmp_path)]) == 2
        _one_error_line(capsys)

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.ideal"
        path.write_bytes(b"ring n=2 p=32003 order=deglex\nX1 # na\xefve\n")
        assert run(["recon", "--ideal", str(path), "--bound", "3"]) == 2
        _one_error_line(capsys)

    @pytest.mark.parametrize(
        "head", ["ring n=2 p=32003 order=deglex", "free n=2 p=32003"], ids=["ring", "free"]
    )
    @pytest.mark.parametrize(
        "line", ["X1^{}", "X{}", "{}*X1"], ids=["exponent", "index", "coefficient"]
    )
    def test_integers_past_the_digit_limit(self, head, line, tmp_path, capsys):
        # exponent, variable index and coefficient of 5,000 digits; a word
        # has no exponents, so X1^... is a bad word factor there, echoed clipped
        digits = "9" * 5000
        path = tmp_path / "long"
        path.write_text(f"{head}\n{line.format(digits)}\n")
        argv = ["recon", "--ideal", str(path), "--bound", "3"]
        if head.startswith("free"):
            argv = ["nc-recon", "--ideal", str(path), "--public", str(path)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert digits not in err

    @pytest.mark.parametrize(
        "text, want",
        [
            ("ring n=2 p=32003 order=deglex\nX1^{}x\n", "error: bad term factor 'X1^999"),
            ("ring n={0}{0} p=32003 order=deglex\nX1\n", "error: an integer has more digits"),
            ("ring n={} p=32003 order=deglex\nX1\n", "error: ring header has n=999"),
            ("ring n=2 p={} order=deglex\nX1\n", "error: modulus 999"),
            ("ring n=2 p=32003 order={}\nX1\n", "error: unknown order kind '999"),
            ("ring n=2 p=32003 order=deglex {}\nX1\n", "error: bad ring header: 'ring n=2"),
        ],
        ids=["factor", "past-python", "variables", "modulus", "order", "header"],
    )
    def test_refusals_clip_long_input(self, text, want, tmp_path, capsys):
        # 3,000 digits, under Python's limit on int conversion; 6,000 past it
        digits = "9" * 3000
        path = tmp_path / "long.ideal"
        path.write_text(text.format(digits))
        assert run(["recon", "--ideal", str(path), "--bound", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(want) and err.count("\n") == 1 and len(err) < 150

    @pytest.mark.parametrize("digits", [4000, 5000], ids=["under-python", "past-python"])
    def test_long_flag_value_is_clipped(self, digits, ex51, capsys):
        # 4,000 digits reach the least-value check; 5,000 fail argparse's int()
        assert run(["recon", "--ideal", str(ex51), "--bound", "-" + "9" * digits]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 250

    def test_long_public_key_line_is_clipped(self, tmp_path, capsys):
        pub = tmp_path / "pub.key"
        junk = "x" * 3000
        pub.write_text(f"publickey n=2 p=32003 order=deglex dbound=1 delta=4\ng X1^2 + X2\n{junk}\n")
        assert run(["encrypt", "--public", str(pub), "--message", "X1 + 2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad public key line: '{junk[:60]}...'\n"

    def test_runtime_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(oracle, publics, trace=None):
            raise RuntimeError("peeled a generator that was already reduced away")

        monkeypatch.setattr("escalier.cli.covering_basis", broken)
        priv = tmp_path / "nc.free"
        priv.write_text(NC_PRIVATE)
        pub = tmp_path / "pub.free"
        pub.write_text(NC_PUBLIC)
        assert run(["nc-recon", "--ideal", str(priv), "--public", str(pub)]) == 1
        _one_error_line(capsys)
