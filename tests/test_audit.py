import pytest

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


_SUPPORT_ROW = ("support-certification", "k<=10, l<=5")


# a failed root certification fails the support row, and also the rank row
# whose root it is: (8, 3) is the root of Q4 at r = 3
@pytest.mark.parametrize(
    "root, failed",
    [((7, 5), [_SUPPORT_ROW]), ((8, 3), [("rank-certificate", "2x2x2x2 r=3"), _SUPPORT_ROW])],
    ids=["7-5", "8-3"],
)
def test_failed_support_certification_is_a_failed_row(monkeypatch, capsys, root, failed):
    import json

    from percforge.cli import main
    from percforge.linalg import CertificationError, SupportSubspace

    real = SupportSubspace.certify
    calls = []

    def failing(space):
        calls.append((space.ambient, space.codim))
        if (space.ambient, space.codim) == root:
            raise CertificationError("injected failure")
        return real(space)

    monkeypatch.setattr(SupportSubspace, "certify", failing)
    report = run_audit(deep=False)
    assert [(row["check"], row["instance"]) for row in report["rows"] if not row["ok"]] == failed
    assert report["pass"] is False and report["counts"]["failed"] == len(failed)
    # the row certifies each (k, l) once; each of the six rank certificates
    # certifies its root subspace once
    grid = {(k, l) for k in range(1, 11) for l in range(min(k, 5) + 1)}
    assert grid <= set(calls) and len(calls) == len(grid) + 6
    capsys.readouterr()
    assert main(["audit"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is False and "Traceback" not in err
