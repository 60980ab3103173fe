"""The verdict checker flags failures and undecided records, and allows
extra records."""

import json

from perfbench.checker import check_report, load_expected, record_key


def _rec(suite, family, payload, status, method="symbolic-reduce", context=""):
    return {"suite": suite, "family": family, "payload": payload,
            "anchor": "", "method": method, "context": context,
            "status": status, "witness": ""}


GOOD = [_rec("lemmas", "dd", "1,2,3,4", "proved-zero"),
        _rec("lemmas", "dd", "1,2,3,4", "zero-on-window",
             "representation-eval", "generic"),
        _rec("symmetry", "group_order", "d5=10", "proved-zero"),
        _rec("symmetry", "group_order", "p4=24", "proved-zero"),
        _rec("symmetry", "group_order", "combined=120", "proved-zero")]
EXPECTED = frozenset(record_key(r) for r in GOOD)


def _check(records, exit_code=0):
    data = json.dumps({"instances": records}).encode()
    return check_report("t", exit_code, data, EXPECTED)


def test_clean_report():
    v = _check(GOOD)
    assert (v.failed, v.inconclusive, v.decided, v.records) == (0, 0, 5, 5)
    assert v.attempted == 1 + 3 + 5      # exit code, group orders, records


def test_planted_failed_record():
    recs = [dict(r) for r in GOOD]
    recs[1]["status"] = "FAILED"
    v = _check(recs, exit_code=1)
    assert v.failed == 2                 # the record and the exit code
    assert any("FAILED" in p for p in v.problems)


def test_dropped_record():
    v = _check(GOOD[1:])
    assert v.failed == 1
    assert v.records == 5
    assert "missing" in v.problems[0]


def test_inconclusive_record_is_undecided_not_failed():
    recs = [dict(r) for r in GOOD]
    recs[0]["status"] = "inconclusive"
    v = _check(recs)
    assert (v.failed, v.inconclusive, v.decided) == (0, 1, 4)


def test_extra_records_are_allowed():
    extra = _rec("lemmas", "dd", "1,2,3,4", "zero-on-window",
                 "representation-eval", "casimir-backend")
    v = _check(GOOD + [extra])
    assert v.failed == 0 and v.records == 6


def test_wrong_group_order():
    recs = [dict(r) for r in GOOD]
    recs[3]["payload"] = "p4=12"
    v = _check(recs)
    # the wrong order, and the expected p4=24 record missing
    assert v.failed == 2


def test_unreadable_report():
    v = check_report("t", 0, b"not json", EXPECTED)
    assert v.failed == 1 + len(EXPECTED)


def test_expected_record_counts():
    assert len(load_expected("verify-r4")) == 2487
    assert (len(load_expected("symbolic-r5r6-jacobi"))
            + len(load_expected("symbolic-r5r6-theorem_rn"))) == 240
    assert 16 * len(load_expected("sweep-r4")) == 944
