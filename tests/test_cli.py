"""End-to-end CLI coverage: payloads, formats, exit codes, determinism."""

import argparse
import builtins
import contextlib
import csv
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellassoc import InternalCheckError, _kernels, cli, pair_association, schemes, search
from cellassoc.cli import main
from cellassoc.schemes import MAX_SCHEME_K


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exits(capsys, *argv):
    """Run a call that ends in SystemExit (usage errors, --help)."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    """Drop the cached parser, so the first call of the test builds it."""
    cli._build_parser.cache_clear()


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


def test_scheme_avg_huge_budget(capsys):
    # The cells are clipped to the line before listing, so nc costs nothing.
    code, out, _ = run(capsys, "scheme", "--type", "avg", "--nc", "1000000000000", "--k", "5")
    assert code == 0
    full = [1, 2, 3, 4, 5]
    assert json.loads(out)["assoc"]["cells"] == [full, full, full[1:], full[2:], full[3:]]


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


def test_non_str_argv_items_are_usage_errors(capsys):
    # A path or an int in argv is refused with argparse's usage error, not
    # a TypeError traceback, whichever command and position it takes.
    for argv in (
        ("eval", pathlib.Path("x.json")),
        ("scheme", "--type", "avg", "--nc", 2, "--k", "5"),
    ):
        code, out, err = exits(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: ") and err.endswith("error: every argument must be a str\n")


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


MALFORMED_FILES = {
    # json.load raises ValueError past 4300 digits, not JSONDecodeError.
    "long_integer": b'{"k": 2, "nc": 1, "cells": [[1], [' + b"1" * 4301 + b"]]}",
    "bad_utf8": b'{"k": 2, "nc": 1, "cells": [[1], [\xff]]}',
}


@pytest.mark.parametrize("command", ["eval", "bound", "render", "search --config"])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_files_exit_2(tmp_path, capsys, command, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(MALFORMED_FILES[name])
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")


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


@pytest.mark.parametrize("family", [(6, 2, 1), (5, 3, 1)], ids=["6-2-1", "5-3-1"])
def test_search_csv_is_written_as_csv_writer_writes_it(tmp_path, family):
    # (6, 2, 1): 38,416 rows span several pieces of text; (5, 3, 1): its
    # 8,192 rows fill exactly one.  The bytes must not show the pieces, and
    # no piece may be empty or hold more than its rows.
    out = tmp_path / "rows.csv"
    argv = ["search", "--k", str(family[0]), "--nc", str(family[1]), "--window", str(family[2])]
    assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
    result = search.exhaustive_search(*family)
    sums = reference_sums(*family)
    assert len(sums) > 4 * cli._CSV_CHUNK_ROWS or len(sums) == cli._CSV_CHUNK_ROWS
    # Compared row by row: pytest's diff of two whole texts takes minutes.
    expected = csv_writer_text(result, sums).encode()
    assert out.read_bytes().splitlines(True) == expected.splitlines(True)
    chunks = list(cli._csv_chunks(result))[1:]  # after the header
    assert len(chunks) == -(-len(sums) // cli._CSV_CHUNK_ROWS)
    assert all(0 < chunk.count("\n") <= cli._CSV_CHUNK_ROWS for chunk in chunks)


def reference_sums(k, nc, window):
    """Each candidate's (dl, ul) in enumeration order, from its own two maximizers.

    The candidates are the product of search._user_options, and the sums
    are the sizes of _kernels.dl_max_active and ul_max_active, so no pass
    over the family graph is read.
    """
    return [
        (len(_kernels.dl_max_active(k, combo)), len(_kernels.ul_max_active(combo)))
        for combo in itertools.product(*search._user_options(k, nc, window))
    ]


def csv_writer_text(result, sums):
    """The CSV that csv.writer writes for a search's header and the rows of sums."""
    bound = result.bound.per_user
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(
        ["assoc_id", "dl_dof", "ul_dof", "avg_num", "avg_den", "bound_num", "bound_den"]
    )
    for index, (dl, ul) in enumerate(sums):
        avg = Fraction(dl + ul, 2 * result.k)
        writer.writerow([index, dl, ul, avg.numerator, avg.denominator,
                         bound.numerator, bound.denominator])
    return expected.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(0, 3)).filter(
        lambda family: search.count_associations(*family) <= 6000
    ),
    st.sampled_from([1, 2, 3, 10, 64, 512]),
    st.integers(1, 20),
)
@example((5, 2, 1), 512, 16)  # 3,136 rows: the texts of depths 4, 3 and 2 are joined
@example((1, 1, 0), 512, 16)  # k = 1
@example((2, 1, 1), 512, 16)  # 9 rows, fewer than one subtree holds: d = 0
@example((4, 2, 1), 3, 1)  # the last user's 4 options pass 3 rows a subtree: d = k
def test_csv_text_is_csv_writers_text(family, block_rows, blocks_a_piece):
    # Whatever depth the subtrees start at and however many fill a piece,
    # the CLI writes csv.writer's text over the reference rows, under
    # every objective, and no piece is empty or holds more than its rows.
    k, nc, window = family
    chunk_rows = block_rows * blocks_a_piece
    argv = ["search", "--k", str(k), "--nc", str(nc), "--window", str(window), "--format", "csv"]
    sums = reference_sums(*family)  # the rows do not depend on the objective
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows), \
            mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows):
        for objective in ("avg", "ul", "dl"):
            result = search.exhaustive_search(*family, objective)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--objective", objective]) == 0
            expected = csv_writer_text(result, sums)
            assert out.getvalue().splitlines(True) == expected.splitlines(True)  # row by row
            pieces = list(cli._csv_chunks(result))[1:]  # after the header
            assert all(0 < piece.count("\n") <= chunk_rows for piece in pieces)
            assert sum(piece.count("\n") for piece in pieces) == result.candidates


def test_csv_search_needs_no_more_memory_than_its_lists(tmp_path):
    # A CSV search lists no candidate: it keeps one text per distinct
    # layer pair of the depths it joins, the pairs its depth-d prefixes
    # end in, and the piece of text it writes (about 4.7 bytes per
    # candidate on this family of 147,456 candidates, against about 16
    # when it listed every candidate's last pair, and 170 when every row
    # was kept).  A JSON search walks distinct layer pairs and lists no
    # candidate at all.
    argv = ["search", "--k", "9", "--nc", "1", "--window", "1", "--cap", "200000"]
    main(["search", "--k", "3", "--nc", "1", "--window", "1", "--out", str(tmp_path / "warm")])
    peaks = {}
    for fmt in ("json", "csv"):
        tracemalloc.start()
        try:
            assert main(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["csv"] <= 8 * 147_456 and peaks["json"] <= 10**6, peaks


def test_search_cap_exit_code(capsys):
    code, _, err = run(
        capsys, "search", "--k", "6", "--nc", "2", "--window", "1", "--cap", "100"
    )
    assert code == 3 and "cap" in err


def test_search_cap_below_one_exits_2(tmp_path, capsys):
    base = ("search", "--k", "5", "--nc", "2", "--window", "1")
    for cap in ("0", "-1"):
        code, out, err = run(capsys, *base, "--cap", cap)
        assert code == 2 and out == ""
        assert err == f"error: cap must be at least 1, got {cap}\n"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 5, "nc": 2, "window": 1, "cap": -3}))
    code, out, err = run(capsys, "search", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: cap must be at least 1, got -3\n"


def test_search_refuses_huge_family_before_listing_options(capsys, monkeypatch):
    def never(*_args):
        raise AssertionError("options were listed")

    # About 10^4800 candidates: the refusal must neither list an option nor
    # print the count, whose decimal form Python refuses to build.
    monkeypatch.setattr(search, "_user_options", never)
    code, out, err = run(capsys, "search", "--k", "2383", "--nc", "3", "--window", "3")
    assert code == 3 and out == ""
    assert err == "error: the family has more than 100000 candidates (the cap); " \
        "raise cap explicitly to proceed\n"


def test_search_refuses_families_above_the_ceiling_whatever_the_cap(capsys, monkeypatch):
    def never(*_args):
        raise AssertionError("the family was listed")

    # 4,519,603,984 candidates, about 72 GB of CSV rows at 16 bytes each.
    # Neither the max-plus pass (JSON and CSV) nor the text pass (CSV rows)
    # may start.
    monkeypatch.setattr(search, "family_best", never)
    monkeypatch.setattr(search, "family_texts", never)
    monkeypatch.setattr(cli, "family_texts", never)
    argv = ("search", "--k", "12", "--nc", "2", "--window", "1", "--cap", "10000000000")
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 3 and out == ""
        assert err == "error: the family has more than 10000000 candidates, " \
            "the most any search lists\n"


def test_search_huge_window_is_clipped(capsys):
    # Any window of at least k - 1 offers every base station to every user.
    code, out, _ = run(capsys, "search", "--k", "2", "--nc", "1", "--window", "100000000")
    assert code == 0
    data = json.loads(out)
    assert data["candidates"] == 9 and data["window"] == 100000000
    code, same, _ = run(capsys, "search", "--k", "2", "--nc", "1", "--window", "1")
    assert {**json.loads(same), "scope": None, "window": None} == {
        **data, "scope": None, "window": None
    }


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


def test_scheme_entry_limit_exit_code(capsys, monkeypatch):
    def never(*_args):
        raise AssertionError("an association was built")

    monkeypatch.setattr(schemes, "association", never)
    for kind in ("avg", "downlink"):
        code, out, err = run(
            capsys, "scheme", "--type", kind, "--nc", str(MAX_SCHEME_K), "--k", str(MAX_SCHEME_K)
        )
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "association entries" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "scheme", "--type", "avg", "--nc", str(10**12), "--k", "5")
    assert code == 0 and json.loads(out)["claimed_ul_dof"] == "5"


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    def refuse(*_args):
        raise InternalCheckError("decoding order failed re-verification")

    monkeypatch.setattr(schemes, "certify_uplink", refuse)
    code, out, err = run(capsys, "scheme", "--type", "avg", "--nc", "2", "--k", "5")
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: decoding order failed re-verification"]


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


def test_report_refuses_targets_too_long_to_write(tmp_path, capsys):
    # 4,300 digits is the longest integer Python reads from a string, and
    # tau's numerator has one more digit than nc, more than it writes.
    nc = "9" * 4300
    target = tmp_path / "report.json"
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "report", "--nc", nc, "--format", fmt)
        assert code == 3 and out == ""
        assert err == "error: a value has more digits than Python writes as a decimal string\n"
        code, out, _ = run(capsys, "report", "--nc", nc, "--format", fmt, "--out", str(target))
        assert code == 3 and out == "" and not target.exists()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["tau"] == "2/3"


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "report", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")


# --out rewrites its file in place (cli._emit): no truncation when it opens,
# a cut at the end of what was written.


def test_out_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, capsys):
    _, text, _ = run(capsys, "report")
    target = tmp_path / "report.json"
    target.write_bytes(b"x" * (10 * len(text)))
    assert run(capsys, "report", "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == text.encode()


def test_out_keeps_the_file_its_links_and_a_new_files_mode(tmp_path, capsys):
    _, text, _ = run(capsys, "report")
    target = tmp_path / "report.json"
    assert run(capsys, "report", "--out", str(target)) == (0, "", "")
    mask = os.umask(0)
    os.umask(mask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~mask
    target.write_bytes(b"old " * 1000)
    inode = target.stat().st_ino
    symlink, hardlink = tmp_path / "via-symlink.json", tmp_path / "via-hardlink.json"
    symlink.symlink_to(target)
    os.link(target, hardlink)
    assert run(capsys, "report", "--out", str(symlink)) == (0, "", "")
    assert symlink.is_symlink() and os.readlink(symlink) == str(target)
    assert target.stat().st_ino == hardlink.stat().st_ino == inode
    assert target.read_bytes() == hardlink.read_bytes() == text.encode()


def test_out_to_a_device_is_written_without_a_cut(capsys):
    assert run(capsys, "report", "--out", os.devnull) == (0, "", "")


def test_a_failing_write_leaves_no_old_bytes_and_no_open_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old text, longer than the first chunk\n" * 20)
    opened, real_os_open = [], os.open

    def recording_open(*args):
        opened.append(real_os_open(*args))
        return opened[-1]

    monkeypatch.setattr(os, "open", recording_open)

    def chunks():
        yield "first chunk\n"
        raise InternalCheckError("fails after the first chunk")

    with pytest.raises(InternalCheckError):
        cli._emit(chunks(), str(target))
    monkeypatch.undo()
    assert target.read_text() == "first chunk\n"
    assert len(opened) == 1
    with pytest.raises(OSError):
        os.fstat(opened[0])  # closed


def test_no_out_file_is_opened_for_truncation(tmp_path, capsys, monkeypatch):
    # A truncate to zero followed by a rewrite makes ext4 start writeback
    # at close(), several times the cost of the write itself.  Every
    # command writes over an existing --out file, and no open of that path
    # by name may truncate it: os.open with O_TRUNC, or open() in "w" mode.
    assoc = write_assoc(tmp_path, pair_association(6))
    commands = [
        ["scheme", "--k", "9", "--nc", "2", "--type", "avg"],
        ["eval", assoc],
        ["bound", assoc],
        ["search", "--k", "3", "--nc", "1", "--window", "1"],
        ["search", "--k", "3", "--nc", "1", "--window", "1", "--format", "csv"],
        ["report", "--format", "text"],
    ]
    calls = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *rest, **kw):
        calls.append((os.fspath(path), "os.open", flags & os.O_TRUNC != 0))
        return real_os_open(path, flags, *rest, **kw)

    def builtin_open(file, mode="r", *rest, **kw):
        if not isinstance(file, int):
            calls.append((os.fspath(file), "open", "w" in mode))
        return real_open(file, mode, *rest, **kw)

    for n, argv in enumerate(commands):
        _, text, _ = run(capsys, *argv)
        target = tmp_path / f"out{n}"
        target.write_bytes(b"stale " * len(text))
        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", builtin_open)
        try:
            assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        finally:
            monkeypatch.undo()
        assert target.read_bytes() == text.encode(), argv
        assert any(path == str(target) for path, _, _ in calls), argv
    assert [call for call in calls if call[2]] == []


def test_byte_determinism(capsys):
    first = run(capsys, "scheme", "--k", "20", "--nc", "3", "--type", "avg")
    second = run(capsys, "scheme", "--k", "20", "--nc", "3", "--type", "avg")
    assert first == second
    s1 = run(capsys, "search", "--k", "4", "--nc", "2", "--window", "1")
    s2 = run(capsys, "search", "--k", "4", "--nc", "2", "--window", "1")
    assert s1 == s2


# main reuses one parser per process; no call may leave state in it.


def test_cached_parser_keeps_no_repeated_flag(fresh_parser, capsys):
    plain = ("search", "--k", "3", "--nc", "1")
    first = run(capsys, *plain)
    seeded = run(capsys, *plain, "--seed", "7", "--seed", "8")
    assert json.loads(seeded[1])["dl"]["seeds"] == [7, 8]
    assert json.loads(first[1])["dl"]["seeds"] != [7, 8]
    assert run(capsys, *plain) == first


def test_usage_error_leaves_the_cached_parser_clean(fresh_parser, capsys):
    plain = ("search", "--k", "3", "--nc", "1")
    first = run(capsys, *plain)
    # --seed is parsed before --format fails.
    code, out, err = exits(capsys, "search", "--seed", "7", "--k", "3", "--format", "xml")
    assert code == 2 and out == "" and "invalid choice: 'xml'" in err
    assert run(capsys, *plain) == first


def test_help_text_is_the_same_from_the_cached_parser(fresh_parser, capsys):
    for argv in (("--help",), ("eval", "--help")):
        first = exits(capsys, *argv)
        assert first[0] == 0 and first[1].startswith("usage: cellassoc")
        assert exits(capsys, *argv) == first


def test_parser_is_built_once_per_process(fresh_parser, capsys):
    for argv in (("report",), ("report", "--nc", "1"), ("search", "--k", "2", "--nc", "1")):
        assert run(capsys, *argv)[0] == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# --- the plain argv reader ---------------------------------------------------

# Values an option or positional may take: the action's choices, or ints
# for an int flag, or text (paths, comma lists) for the rest; and near
# misses of each.  No path names an existing file, so a command run on
# one fails fast, and relative --out paths land in a fresh directory.
INT_TEXTS = ("1", "2", "3", " 2", "+1", "003") * 3 + ("1_0", "\u0663", "x", "-1")
PLAIN_TEXTS = ("a.json", "1,2", os.devnull, "/dev/null/a.json", "", "-o")
NEAR_MISSES = ("--k=5", "--ou", "-h", "--", "-5", "1_0", "")


def command_parsers():
    parser, _ = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def values_for(action):
    if action.choices:
        return st.sampled_from([*action.choices] * 3 + ["xml", "-5"])
    return st.sampled_from(INT_TEXTS if action.type else PLAIN_TEXTS)


@st.composite
def cli_argvs(draw):
    """A command's positionals and options in any order, with a few near misses.

    Each option is left out, given once or given twice, and so is each
    positional (rarely); a near miss is one of NEAR_MISSES, or an option
    string with no value.  The command itself is sometimes not one.
    """
    parsers = command_parsers()
    name = draw(st.sampled_from([*parsers] * 4 + ["", "nope", "-h"]))
    actions = parsers[name]._actions if name in parsers else []
    pieces = []
    for action in actions:
        if not action.option_strings:
            for _ in range(draw(st.sampled_from([1] * 8 + [0, 2]))):
                pieces.append([draw(values_for(action))])
        elif action.nargs != 0:  # not -h
            for _ in range(draw(st.sampled_from([1, 1, 0, 2] if action.required else [0, 1, 2]))):
                pieces.append([draw(st.sampled_from(action.option_strings)), draw(values_for(action))])
    pieces = draw(st.permutations(pieces))
    misses = [*NEAR_MISSES, *(s for a in actions for s in a.option_strings)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(misses))])
    return [name, *(token for piece in pieces for token in piece)]


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv), run in a fresh working directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as where, contextlib.chdir(where):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def parsed(argv):
    """vars(parse_args(argv)), or the exit code of a usage error or help."""
    parser, _ = cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(list(argv)))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
@example(["scheme", "--type", "avg", "--k", "4", "--nc", "2", "--format", "xml"])
@example(["scheme", "--k", "4", "--type", "avg", "--k", "5", "--nc", "2"])
@example(["eval", "--seed", "1", "a.json", "--seed", "2", "--session", "up"])
@example(["search", "--k", "1_2", "--nc", "1"])
@example(["scheme", "--k", "4", "--nc", "2"])
@example(["report", "--out", "-o"])
@example(["report", "--nc", ""])
def test_plain_reader_reads_what_parse_args_reads(argv):
    # The reader either declines or gives exactly parse_args's Namespace.
    # A declined argv runs through main as it did before the reader: the
    # same exit code, stdout and stderr as with the reader switched off.
    _, commands = cli._build_parser()
    values = cli._plain_args(commands, argv)
    if values is not None:
        assert values == parsed(argv)
    else:
        with mock.patch.object(cli, "_plain_args", return_value=None):
            before = outcome(argv)
        assert outcome(argv) == before


def test_main_reads_sys_argv_on_both_paths(monkeypatch, capsys):
    for argv in (["report", "--nc", "2"], ["report", "--nc=2"]):  # plain, then argparse's
        monkeypatch.setattr("sys.argv", ["cellassoc", *argv])
        assert main() == 0
        assert [row["nc"] for row in json.loads(capsys.readouterr().out)] == [2]


# --- the indented JSON writer -------------------------------------------------

json_strs = st.text(
    st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600') | st.characters(),
    max_size=6,
)
json_ints = st.integers(-(2**70), 2**70)  # past 2**64 on both sides
json_trees = st.recursive(
    st.none() | st.booleans() | json_ints | json_strs | st.floats(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(json_strs, inner, max_size=4)
        | st.dictionaries(json_ints, inner, max_size=4)
    ),
    max_leaves=40,
)


def dumps_or_error(write, obj):
    try:
        return write(obj)
    except TypeError:
        return TypeError


def reference_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=400, deadline=None)
@given(json_trees)
# Lists of int lists (a plan's cells) are written with one % over their ints.
@example({"cells": [[1, 2], [], [-3]], "k": [[4]]})
def test_json_writer_matches_json_dumps(tree):
    assert cli._json_text(tree) == reference_dumps(tree)


def test_json_writer_refuses_ints_too_long_to_write_as_json_dumps_does():
    long = 10**4300  # 4,301 digits, one past what Python writes as a str
    for doc in ([[1, 2], [long]], {"cells": [[long]]}, [long]):
        with pytest.raises(ValueError, match="4300 digits"):
            reference_dumps(doc)
        with pytest.raises(ValueError, match="4300 digits"):
            cli._json_text(doc)


# Flat records (str keys; None, bool, int or str values) in a list or in a
# dict's values, one or two levels down, as precoders, decoding steps and
# block flags are written.
flat_records = st.dictionaries(
    json_strs, st.none() | st.booleans() | json_ints | json_strs, min_size=1, max_size=4
)
record_groups = st.lists(flat_records, max_size=4) | st.dictionaries(
    json_strs, flat_records, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(record_groups | st.dictionaries(json_strs, record_groups, max_size=3))
@example([{"b": 1, "a": None}, {}, {"x": 0.5}])
@example({"p": {"1": {"3": 0, "2": 1}, "4": {"\u00e9": "\u2028", "b": True}}})
def test_json_writer_matches_json_dumps_on_flat_records(doc):
    assert cli._json_text(doc) == reference_dumps(doc)


@settings(max_examples=100, deadline=None)
@given(
    st.recursive(
        json_ints | json_strs | st.sampled_from([object(), {1, 2}, b"x", 1j]),
        lambda inner: (
            st.lists(inner, max_size=3)
            | st.dictionaries(json_strs | json_ints | st.tuples(json_ints), inner, max_size=3)
        ),
        max_leaves=10,
    )
)
def test_json_writer_fails_where_json_dumps_fails(tree):
    # Unsupported values, keys that are neither str nor int, and dicts that
    # mix str and int keys (which sort_keys cannot order) raise TypeError.
    assert dumps_or_error(cli._json_text, tree) == dumps_or_error(reference_dumps, tree)


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # Records define no generated code, so start-up loads neither module.
    src = pathlib.Path(cli.__file__).parents[1]
    probe = "import sys, cellassoc.cli; print(sorted({'dataclasses', 'inspect'} & {*sys.modules}))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
