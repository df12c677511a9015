from percforge.audit import run_audit


def test_audit_passes():
    report = run_audit(deep=False)
    failed = [row for row in report["rows"] if not row["ok"]]
    assert failed == []
    assert report["pass"] is True
    assert report["counts"]["failed"] == 0
    assert report["counts"]["total"] == len(report["rows"]) >= 30


def test_audit_rows_are_self_describing():
    report = run_audit(deep=False)
    for row in report["rows"]:
        assert set(row) == {"check", "instance", "expected", "got", "ok"}
        assert row["ok"] == (row["expected"] == row["got"])


def test_failed_support_certification_is_a_failed_row(monkeypatch, capsys):
    import json

    from percforge.cli import main
    from percforge.linalg import CertificationError, SupportSubspace

    real = SupportSubspace.certify
    calls = []

    def failing(space):
        calls.append((space.ambient, space.codim))
        if (space.ambient, space.codim) == (7, 5):
            raise CertificationError("injected failure")
        return real(space)

    monkeypatch.setattr(SupportSubspace, "certify", failing)
    report = run_audit(deep=False)
    rows = [row for row in report["rows"] if row["check"] == "support-certification"]
    assert [row["ok"] for row in rows] == [False]
    assert report["pass"] is False and report["counts"]["failed"] == 1
    # the row certifies each (k, l) once; each of the six rank certificates
    # certifies its root subspace once
    grid = {(k, l) for k in range(1, 11) for l in range(min(k, 5) + 1)}
    assert grid <= set(calls) and len(calls) == len(grid) + 6
    capsys.readouterr()
    assert main(["audit"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is False and "Traceback" not in err
