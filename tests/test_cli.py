"""End-to-end CLI coverage: payloads, formats, exit codes, determinism."""

import json
import xml.etree.ElementTree as ET

import pytest

from cellassoc import pair_association, schemes
from cellassoc.cli import main
from cellassoc.schemes import MAX_SCHEME_K


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_assoc(tmp_path, assoc, name="assoc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(assoc.to_json()))
    return str(path)


def test_scheme_avg(capsys):
    code, out, _ = run(capsys, "scheme", "--k", "12", "--nc", "2", "--type", "avg")
    assert code == 0
    data = json.loads(out)
    assert data["claimed_dl_dof"] == "8"
    assert data["claimed_ul_dof"] == "12"
    assert data["assoc"]["k"] == 12


def test_scheme_downlink(capsys):
    code, out, _ = run(capsys, "scheme", "--k", "7", "--nc", "3", "--type", "downlink")
    assert code == 0
    data = json.loads(out)
    assert data["claimed_dl_dof"] == "6"
    assert data["dl_silent_bs"] == [7]
    assert 4 not in data["dl_active_users"]


def test_scheme_fixed_budget_types(capsys):
    code, out, _ = run(capsys, "scheme", "--k", "6", "--type", "pair")
    assert code == 0
    assert json.loads(out)["assoc"]["nc"] == 2
    code, out, _ = run(capsys, "scheme", "--k", "6", "--type", "ncone")
    assert code == 0
    assert json.loads(out)["assoc"]["nc"] == 1
    code, _, err = run(capsys, "scheme", "--k", "6", "--nc", "3", "--type", "pair")
    assert code == 2 and "pair" in err
    code, _, err = run(capsys, "scheme", "--k", "6", "--type", "avg")
    assert code == 2 and "--nc" in err


def test_eval_average(tmp_path, capsys):
    path = write_assoc(tmp_path, pair_association(6))
    code, out, err = run(capsys, "eval", path)
    assert code == 0
    data = json.loads(out)
    assert data["avg"] == "5/6"
    assert data["dl"]["sum_dof"] == 4 and data["dl"]["exact"]
    assert data["ul"]["sum_dof"] == 6 and data["ul"]["exact"]
    assert data["warnings"] == 0
    assert "warning" not in err


def test_eval_single_sessions(tmp_path, capsys):
    path = write_assoc(tmp_path, pair_association(4))
    code, out, _ = run(capsys, "eval", path, "--session", "down")
    data = json.loads(out)
    assert code == 0 and data["ul"] is None and data["dl"]["sum_dof"] == 3
    code, out, _ = run(capsys, "eval", path, "--session", "up")
    data = json.loads(out)
    assert code == 0 and data["dl"] is None and data["ul"]["sum_dof"] == 4


def test_eval_cap_is_rejected(tmp_path, capsys):
    # Evaluation is exact at every size, so there is no limit to set.
    path = write_assoc(tmp_path, pair_association(6))
    with pytest.raises(SystemExit) as exc:
        main(["eval", path, "--cap", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_eval_exact_beyond_former_limits(tmp_path, capsys):
    path = write_assoc(tmp_path, pair_association(30))
    code, out, _ = run(capsys, "eval", path)
    assert code == 0
    data = json.loads(out)
    assert data["dl"]["exact"] is True and data["dl"]["sum_dof"] == 20
    assert data["ul"]["exact"] is True and data["ul"]["sum_dof"] == 30


def test_eval_bad_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "eval", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, err = run(capsys, "eval", str(garbage))
    assert code == 2 and "not valid JSON" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 3, "nc": 1, "cells": [[1, 2], [], []]}))
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 2 and "invalid association" in err


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--nc", "1", "--window", "1")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "2/3"
    assert data["best_index"] == 5
    assert data["candidates"] == 36


def test_search_csv(capsys):
    code, out, _ = run(
        capsys, "search", "--k", "3", "--nc", "1", "--window", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "assoc_id,dl_dof,ul_dof,avg_num,avg_den,bound_num,bound_den"
    assert len(lines) == 1 + 36
    assert lines[1] == "0,0,0,0,1,2,3"
    assert lines[6] == "5,2,2,2,3,2,3"


def test_search_cap_exit_code(capsys):
    code, _, err = run(
        capsys, "search", "--k", "6", "--nc", "2", "--window", "1", "--cap", "100"
    )
    assert code == 3 and "cap" in err


def test_scheme_size_limit_exit_code(capsys, monkeypatch):
    def never(*_args):
        raise AssertionError("an association was built")

    # The refusal must come before any construction work.
    monkeypatch.setattr(schemes, "association", never)
    for kind in ("avg", "downlink"):
        code, out, err = run(
            capsys, "scheme", "--type", kind, "--nc", "3", "--k", str(MAX_SCHEME_K + 1)
        )
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


def test_search_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 3, "nc": 1, "window": 1}))
    code, out, _ = run(capsys, "search", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["value"] == "2/3"
    # Flags override config values.
    code, out, _ = run(capsys, "search", "--config", str(cfg), "--objective", "ul")
    assert code == 0
    assert json.loads(out)["objective"] == "ul"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 3, "nc": 1, "mystery": True}))
    code, _, err = run(capsys, "search", "--config", str(bad))
    assert code == 2 and "unknown config keys" in err


def test_search_requires_k_and_nc(capsys):
    code, _, err = run(capsys, "search", "--k", "3")
    assert code == 2 and "needs k and nc" in err


def test_bound_all(tmp_path, capsys):
    path = write_assoc(tmp_path, pair_association(6))
    code, out, _ = run(capsys, "bound", path)
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert set(certs) == {"lemma2_chain", "dl_reconstruction", "avg_counting"}
    assert certs["avg_counting"]["per_user"] == "5/6"


def test_bound_single_kind(tmp_path, capsys):
    from cellassoc import downlink_optimal

    path = write_assoc(tmp_path, downlink_optimal(5, 2).assoc)
    code, out, _ = run(capsys, "bound", path, "--kind", "lemma2")
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert list(certs) == ["lemma2_chain"]
    assert certs["lemma2_chain"]["value"] == "3"
    assert certs["lemma2_chain"]["flagged"] == [1, 2, 3, 4]


def test_bound_single_budget(tmp_path, capsys):
    from cellassoc import association

    path = write_assoc(tmp_path, association(6, 1, [[i] for i in range(1, 7)]))
    code, out, _ = run(capsys, "bound", path)
    assert code == 0
    certs = json.loads(out)["certificates"]
    # No reconstruction certificate at nc = 1; counting falls back to the
    # asymptotic single-budget bound.
    assert set(certs) == {"lemma2_chain", "avg_counting"}
    code, _, err = run(capsys, "bound", path, "--kind", "reconstruction")
    assert code == 2 and "nc >= 2" in err


def test_render_ascii(tmp_path, capsys):
    path = write_assoc(tmp_path, pair_association(4))
    code, out, _ = run(capsys, "render", path)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("MT ")) == 4
    assert sum(1 for l in lines if l.startswith("BS ")) == 4
    assert sum(1 for l in lines if "--" in l) == 2 * 4 - 1


def test_render_plan_markers(tmp_path, capsys):
    code, out, _ = run(
        capsys, "scheme", "--k", "7", "--nc", "3", "--type", "downlink",
        "--out", str(tmp_path / "plan.json"),
    )
    assert code == 0
    code, out, _ = run(capsys, "render", str(tmp_path / "plan.json"))
    assert code == 0
    assert "[inactive]" in out and "[silent]" in out
    mt4 = next(l for l in out.splitlines() if l.startswith("MT 4"))
    assert "[inactive]" in mt4
    bs7 = next(l for l in out.splitlines() if l.startswith("BS 7"))
    assert "[silent]" in bs7


def test_render_svg(tmp_path, capsys):
    path = write_assoc(tmp_path, pair_association(3))
    code, out, _ = run(capsys, "render", path, "--format", "svg")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_report(capsys):
    code, out, _ = run(capsys, "report")
    assert code == 0
    rows = json.loads(out)
    assert [r["nc"] for r in rows] == [1, 2, 3, 4]
    assert rows[1]["tau"] == "5/6"
    assert rows[0]["relation_holds"] is None
    code, out, _ = run(capsys, "report", "--nc", "1,3", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("nc")
    assert any("9/10" in l for l in lines)
    code, _, err = run(capsys, "report", "--nc", "one")
    assert code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["tau"] == "2/3"


def test_byte_determinism(capsys):
    first = run(capsys, "scheme", "--k", "20", "--nc", "3", "--type", "avg")
    second = run(capsys, "scheme", "--k", "20", "--nc", "3", "--type", "avg")
    assert first == second
    s1 = run(capsys, "search", "--k", "4", "--nc", "2", "--window", "1")
    s2 = run(capsys, "search", "--k", "4", "--nc", "2", "--window", "1")
    assert s1 == s2
