"""End-to-end CLI behaviour via in-process main(argv)."""

import csv
import json
import io
import time
from dataclasses import replace

import pytest

from intervallabel import (
    IntervalOrderRep,
    Labeling,
    derive_graph,
    gen_instance,
    parse_labeling,
    serialize_instance,
)
from intervallabel import cli, verify
from intervallabel.cli import ENV_SEED, main
from intervallabel.reps import REP_KINDS


def _write_instance(tmp_path, rep, name="inst.json"):
    path = tmp_path / name
    path.write_bytes(serialize_instance(rep))
    return str(path)


def _p3_instance(tmp_path):
    from intervallabel import IntervalRep

    return _write_instance(tmp_path, IntervalRep(((0, 1), (1, 2), (2, 3))))


def _scaled_labeler(factor):
    """A stand-in for ``label_instance`` that multiplies every label by
    ``factor``: 0 gives an invalid all-zero labeling, a large factor a
    valid labeling far above any bound."""
    real = cli.label_instance

    def label(rep, params):
        lab = real(rep, params)
        return replace(lab, labels=tuple(factor * f for f in lab.labels))

    return label


SCALED_FAILURES = [
    (0, "labeler produced an invalid labeling"),
    (1000, "bound violated: span {span} > {bound}"),
]


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_named_files(tmp_path, capsys):
    out = tmp_path / "a"
    rc = main(
        ["gen", "--class", "interval", "--n", "4", "--seed", "9", "--count", "2",
         "--out", str(out)]
    )
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["interval-9-0.json", "interval-9-1.json"]
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].endswith("interval-9-0.json")
    assert (out / "interval-9-0.json").read_bytes() == serialize_instance(
        gen_instance("interval", 4, 9)
    )
    assert (out / "interval-9-1.json").read_bytes() == serialize_instance(
        gen_instance("interval", 4, 10)
    )


def test_gen_requires_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    rc = main(["gen", "--class", "interval", "--n", "3", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "no seed" in capsys.readouterr().err


def test_gen_seed_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "5")
    out = tmp_path / "env"
    assert main(["gen", "--class", "interval", "--n", "3", "--out", str(out)]) == 0
    assert (out / "interval-5-0.json").exists()


def test_gen_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "5")
    out = tmp_path / "flag"
    rc = main(
        ["gen", "--class", "interval", "--n", "3", "--seed", "8", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "interval-8-0.json").exists()


def test_gen_rejects_bad_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "soon")
    rc = main(["gen", "--class", "interval", "--n", "3", "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "not an integer" in capsys.readouterr().err


# Spellings int() reads as an integer but str() never prints.
NON_CANONICAL = (" 5", "5 ", "+5", "05", "-0", "1_0", "\u0665", "\u0663")


def test_gen_rejects_non_canonical_n_and_seed(tmp_path, capsys):
    """n = 3 and seed 10 were once read from these and written to
    interval-10-0.json with exit 0."""
    out = tmp_path / "nc"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--class", "interval", "--n", "\u0663", "--seed", " 1_0",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid canonical_int value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n", "--seed", "--count", "--k"])
@pytest.mark.parametrize("text", NON_CANONICAL)
def test_gen_rejects_non_canonical_integer_flags(tmp_path, capsys, flag, text):
    values = {"--n": "3", "--seed": "1", "--count": "1", "--k": "3", flag: text}
    argv = [arg for item in values.items() for arg in item]
    out = tmp_path / "nc"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--class", "interval_k", *argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid canonical_int value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_gen_rejects_non_canonical_env_seed(tmp_path, capsys, monkeypatch, text):
    monkeypatch.setenv(ENV_SEED, text)
    out = tmp_path / "nc"
    assert main(["gen", "--class", "interval", "--n", "3", "--out", str(out)]) == 2
    assert "not an integer" in capsys.readouterr().err
    assert not out.exists()


def test_canonical_integers_are_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "-3")
    out = tmp_path / "c"
    assert main(["gen", "--class", "interval", "--n", "10", "--out", str(out)]) == 0
    assert (out / "interval--3-0.json").read_bytes() == serialize_instance(
        gen_instance("interval", 10, -3)
    )


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize("command", ["gen", "bench", "claims"])
def test_non_positive_count_is_a_usage_error(tmp_path, capsys, command, count):
    """gen once wrote an empty directory and bench and claims printed an
    empty sweep, all with exit 0."""
    out = tmp_path / "d"
    argv = [command, "--class", "interval", "--n", "3", "--seed", "1",
            "--count", count, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--count must be positive, got {count}" in captured.err
    assert captured.out == "" and not out.exists()


# Spellings float() reads as a number but a plain decimal never has.
NON_PLAIN_DECIMAL = (" 0.5", "0.5 ", "+0.5", "0.5_0", ".5", "5.", "00.5", "5e-1",
                     "nan", "inf", "\u0660.5", "0.\u0665")


@pytest.mark.parametrize("text", NON_PLAIN_DECIMAL)
def test_density_must_be_a_plain_decimal(tmp_path, capsys, text):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--class", "interval", "--n", "5", "--seed", "1",
              "--density", text, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --density: invalid plain_decimal value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, density", [("1", 1), ("0.5", 0.5), ("0.05", 0.05)])
def test_plain_decimal_densities_are_accepted(tmp_path, text, density):
    out = tmp_path / "d"
    assert main(["gen", "--class", "interval", "--n", "5", "--seed", "1",
                 "--density", text, "--out", str(out)]) == 0
    assert (out / "interval-1-0.json").read_bytes() == serialize_instance(
        gen_instance("interval", 5, 1, density=density)
    )


def test_gen_containment_range_too_small(tmp_path, capsys):
    rc = main(
        ["gen", "--class", "containment", "--n", "50", "--seed", "0",
         "--endpoint-range", "0", "10", "--out", str(tmp_path / "z")]
    )
    assert rc == 2
    assert "fewer than 100 integer points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "10", "--endpoint-range", "0", "19", "--density", "0.01"],
        ["bench", "--n", "6", "--endpoint-range", "0", "11", "--density", "0.05",
         "--pq", "2,1"],
    ],
    ids=["gen", "bench"],
)
def test_containment_without_room_for_a_draw_exits_2(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "d")] if argv[0] == "gen" else []
    assert main([*argv, "--class", "containment", "--seed", "0", *out]) == 2
    err = capsys.readouterr().err
    assert "no two free points within length 1" in err
    assert err.count("\n") == 1


def test_unknown_class_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--class", "tree", "--n", "3", "--seed", "0",
              "--out", str(tmp_path / "t")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# label


def test_label_writes_valid_labeling(tmp_path):
    inst = _p3_instance(tmp_path)
    out = tmp_path / "lab.json"
    report = tmp_path / "report.json"
    rc = main(
        ["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(out),
         "--report", str(report)]
    )
    assert rc == 0
    lab = parse_labeling(out.read_bytes())
    assert (lab.p, lab.q) == (2, 1)
    assert lab.span == 4
    (doc,) = json.loads(report.read_text())
    assert doc["class"] == "interval"
    assert doc["holds"] is True
    assert doc["span"] == 4 and doc["bound"] == 4


def test_label_defaults_to_stdout(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    assert main(["label", "--in", inst, "--p", "1", "--q", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"labeling", "report"}
    assert doc["labeling"]["span"] == 2
    assert doc["report"]["holds"] is True


def test_label_report_only_failure_exits_zero(tmp_path, capsys):
    inst = _write_instance(
        tmp_path, IntervalOrderRep(((0, 1), (2, 4), (3, 5), (2, 5)))
    )
    out = tmp_path / "lab.json"
    report = tmp_path / "rep.json"
    rc = main(
        ["label", "--in", inst, "--p", "1", "--q", "5", "--out", str(out),
         "--report", str(report)]
    )
    assert rc == 0
    (doc,) = json.loads(report.read_text())
    assert doc["holds"] is False
    assert doc["report_only"] is True
    assert "report-only" in doc["note"]


def test_label_arc_over_construction_bound_exits_one(tmp_path, capsys):
    """The paper bound holds, but the arc labeler exceeds its own split
    construction bound; check, which validates labelings from elsewhere,
    does not enforce that bound."""
    inst = _write_instance(tmp_path, gen_instance("circular_arc", 24, 118, density=0.2))
    out = tmp_path / "lab.json"
    report = tmp_path / "rep.json"
    rc = main(
        ["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(out),
         "--report", str(report)]
    )
    assert rc == 1
    (doc,) = json.loads(report.read_text())
    assert (doc["span"], doc["construction_bound"], doc["holds"]) == (20, 18, True)
    assert "construction bound exceeded: span 20 > 18" in capsys.readouterr().err
    assert main(["check", "--in", inst, "--labeling", str(out)]) == 0


@pytest.mark.parametrize("factor, line", SCALED_FAILURES)
def test_label_failure_exits_one(tmp_path, capsys, monkeypatch, factor, line):
    monkeypatch.setattr(cli, "label_instance", _scaled_labeler(factor))
    inst = _p3_instance(tmp_path)
    assert main(["label", "--in", inst, "--p", "2", "--q", "1"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)["report"]
    assert (report["class"], report["report_only"]) == ("interval", False)
    assert captured.err == line.format(**report) + "\n"


def test_label_names_every_failure_in_order(tmp_path, capsys, monkeypatch):
    """An invalid labeling over both the paper bound and the split
    construction's bound gets all three lines, in that order."""
    rep = gen_instance("circular_arc", 24, 118, density=0.2)
    inst = _write_instance(tmp_path, rep)
    labels = (0,) * (rep.n - 1) + (10**6,)
    monkeypatch.setattr(
        cli, "label_instance", lambda rep, params: Labeling(labels, params.p, params.q)
    )
    assert main(["label", "--in", inst, "--p", "2", "--q", "1"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)["report"]
    assert captured.err.splitlines() == [
        "labeler produced an invalid labeling",
        f"bound violated: span 1000000 > {report['bound']}",
        f"construction bound exceeded: span 1000000 > {report['construction_bound']}",
    ]


@pytest.mark.parametrize("pq", [(10**18, 1), (3, 10**18)], ids=["p", "q"])
@pytest.mark.parametrize("kind", REP_KINDS)
def test_label_huge_separations(tmp_path, capsys, kind, pq):
    """No labeler walks label values or builds a window as wide as p or q."""
    inst = _write_instance(tmp_path, gen_instance(kind, 40, 5))
    t0 = time.perf_counter()
    rc = main(["label", "--in", inst, "--p", str(pq[0]), "--q", str(pq[1])])
    assert time.perf_counter() - t0 < 1
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labeling"]["p"] == pq[0]


def test_label_report_stats_keys(tmp_path):
    inst = _p3_instance(tmp_path)
    report = tmp_path / "report.json"
    assert main(["label", "--in", inst, "--p", "2", "--q", "1", "--report", str(report)]) == 0
    (doc,) = json.loads(report.read_text())
    assert set(doc["stats"]) == {
        "n", "m", "max_degree", "min_degree", "multiplicity", "is_connected", "omega"
    }


def test_label_missing_file(tmp_path, capsys):
    rc = main(["label", "--in", str(tmp_path / "nope.json"), "--p", "1", "--q", "1"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_label_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"class": "interval", "vertices": [{"id": 0, "l": 4, "r": 1}]}')
    rc = main(["label", "--in", str(bad), "--p", "1", "--q", "1"])
    assert rc == 2
    assert "invalid interval instance" in capsys.readouterr().err


def _unwritable_argv(tmp_path, command):
    """argv for ``command`` whose output path cannot be written: gen's
    --out names an existing file, every other path is in a missing
    directory."""
    inst = _p3_instance(tmp_path)
    missing = str(tmp_path / "missing" / "out.json")
    if command == "gen":
        (tmp_path / "file").write_text("")
        return ["gen", "--class", "interval", "--n", "4", "--seed", "1",
                "--out", str(tmp_path / "file")]
    if command.startswith("label"):
        flag = command.split()[1]
        return ["label", "--in", inst, "--p", "2", "--q", "1", flag, missing]
    if command == "check":
        lab = tmp_path / "lab.json"
        assert main(["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(lab)]) == 0
        return ["check", "--in", inst, "--labeling", str(lab), "--out", missing]
    return ["bench", "--class", "interval", "--n", "6", "--seed", "3", "--count", "2",
            "--pq", "2,1", "--out", missing]


@pytest.mark.parametrize(
    "command", ["gen", "label --out", "label --report", "check", "bench"]
)
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    argv = _unwritable_argv(tmp_path, command)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), lines
    assert "Traceback" not in captured.err + captured.out


# ---------------------------------------------------------------------------
# check


def test_check_round_trip(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    main(["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(lab)])
    capsys.readouterr()
    rc = main(["check", "--in", inst, "--labeling", str(lab)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == []
    assert doc["report"]["holds"] is True


def test_check_flags_corrupted_labeling(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    lab.write_text(
        json.dumps({"p": 2, "q": 1, "labels": {"0": 0, "1": 2, "2": 0}}) + "\n"
    )
    rc = main(["check", "--in", inst, "--labeling", str(lab)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert [v["kind"] for v in doc["violations"]] == ["distance2"]
    assert doc["violations"][0] == {
        "kind": "distance2", "u": 0, "v": 2, "required": 1, "observed": 0,
    }


def test_check_params_must_come_in_pairs(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    main(["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(lab)])
    rc = main(["check", "--in", inst, "--labeling", str(lab), "--p", "3"])
    assert rc == 2
    assert "must be given together" in capsys.readouterr().err


def test_check_override_tightens(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    main(["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(lab)])
    rc = main(
        ["check", "--in", inst, "--labeling", str(lab), "--p", "3", "--q", "1"]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert all(v["kind"] == "adjacent" and v["required"] == 3
               for v in doc["violations"])
    assert doc["violations"]


def test_check_variant_l3(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    main(["label", "--in", inst, "--p", "2", "--q", "1", "--out", str(lab)])
    rc = main(
        ["check", "--in", inst, "--labeling", str(lab), "--variant", "L3"]
    )
    assert rc == 0


def test_check_size_mismatch(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"p": 2, "q": 1, "labels": {"0": 0}}) + "\n")
    rc = main(["check", "--in", inst, "--labeling", str(lab)])
    assert rc == 2
    assert "covers 1 vertices, instance has 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [{"p": 2.7}, {"q": True}, {"p": "3"}, {"ordering": ["0"]}],
)
def test_check_rejects_non_integer_fields(tmp_path, capsys, change):
    inst = _p3_instance(tmp_path)
    doc = {"p": 2, "q": 1, "labels": {"0": 0, "1": 2, "2": 4}, "ordering": [2, 1, 0]}
    doc.update(change)
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps(doc) + "\n")
    rc = main(["check", "--in", inst, "--labeling", str(lab)])
    assert rc == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["01", " 0", "+1", "0_2", "-0", "\u0661"])
def test_check_rejects_non_canonical_label_keys(tmp_path, capsys, key):
    inst = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"p": 2, "q": 1, "labels": {"0": 0, key: 2, "2": 4}}))
    rc = main(["check", "--in", inst, "--labeling", str(lab)])
    assert rc == 2
    assert "is not a vertex id" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc_pq, flags, step, kind",
    [
        ((10**18, 1), [], 10**6, "adjacent"),
        ((2, 10**18), [], 10**6, "distance2"),
        ((2, 1), ["--p", str(10**18), "--q", "1"], 10**6, "adjacent"),
        ((2, 1), ["--p", "1", "--q", str(10**18)], 10**6, "distance2"),
        ((2, 1), [], 10**30, None),
        ((10**18, 10**18), [], 10**30, None),
    ],
    ids=["p-in-doc", "q-in-doc", "p-flag", "q-flag", "labels-apart", "all-huge"],
)
def test_check_huge_separations_and_labels(tmp_path, capsys, doc_pq, flags, step, kind):
    """p or q of 10**18, from the document or the flags, and labels 10**30
    apart: the answer comes at once, without a walk over label values.
    A huge p (q) flags every edge (distance-2 pair); labels 10**30 apart
    violate nothing but exceed the span bound.  Both exit 1."""
    rep = gen_instance("interval", 60, 3)
    g = derive_graph(rep)
    inst = _write_instance(tmp_path, rep)
    lab = tmp_path / "lab.json"
    labels = {str(v): v * step for v in range(g.n)}
    lab.write_text(json.dumps({"p": doc_pq[0], "q": doc_pq[1], "labels": labels}))
    t0 = time.perf_counter()
    rc = main(["check", "--in", inst, "--labeling", str(lab)] + flags)
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    expected = {
        "adjacent": g.m,
        "distance2": sum(mk.bit_count() for mk in g.dist2_masks()) // 2,
        None: 0,
    }[kind]
    assert rc == 1
    assert {v["kind"] for v in doc["violations"]} == ({kind} if kind else set())
    assert len(doc["violations"]) == expected
    assert doc["report"]["holds"] is (kind is not None)
    assert elapsed < 1.0


@pytest.mark.parametrize("name", ["non-utf8", "long-int", "deep"])
@pytest.mark.parametrize("where", ["label", "check-instance", "check-labeling"])
def test_hostile_json_is_an_input_error(tmp_path, capsys, hostile_json, name, where):
    """Undecodable bytes, over-long integer literals and deep nesting exit
    2 with the file named, never 1 (which means a violation was found)."""
    good = _p3_instance(tmp_path)
    lab = tmp_path / "lab.json"
    main(["label", "--in", good, "--p", "2", "--q", "1", "--out", str(lab)])
    bad = tmp_path / "bad.json"
    bad.write_bytes(hostile_json[name])
    argv = {
        "label": ["label", "--in", str(bad), "--p", "2", "--q", "1"],
        "check-instance": ["check", "--in", str(bad), "--labeling", str(lab)],
        "check-labeling": ["check", "--in", good, "--labeling", str(bad)],
    }[where]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{bad}: invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_reports_lambda(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    rc = main(["oracle", "--in", inst, "--p", "2", "--q", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "class": "interval",
        "n": 3,
        "p": 2,
        "q": 1,
        "lambda": 3,
        "greedy_span": 4,
    }


def test_oracle_cap_suggests_flag(tmp_path, capsys):
    rep = gen_instance("interval", 14, 0)
    inst = _write_instance(tmp_path, rep)
    rc = main(["oracle", "--in", inst, "--p", "1", "--q", "1"])
    assert rc == 2
    assert "raise --cap" in capsys.readouterr().err
    assert main(["oracle", "--in", inst, "--p", "1", "--q", "1", "--cap", "14"]) == 0


def _complete_square_instance(tmp_path):
    """26 intervals crowded into [0, 10]: the square of the graph is complete."""
    rep = gen_instance("interval", 26, 3, endpoint_range=(0, 10), density=1)
    return _write_instance(tmp_path, rep)


@pytest.mark.parametrize("command", ["oracle", "bench"])
def test_cap_above_ceiling_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    def no_search(*args, **kwargs):
        raise AssertionError("exact search started")

    monkeypatch.setattr(cli, "exact_lambda", no_search)
    if command == "oracle":
        argv = ["oracle", "--in", _complete_square_instance(tmp_path), "--p", "2", "--q", "1"]
    else:
        argv = ["bench", "--class", "interval", "--n", "26", "--seed", "3",
                "--endpoint-range", "0", "10", "--density", "1", "--pq", "2,1"]
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", "30"])
    assert time.perf_counter() - t0 < 1
    assert exc.value.code == 2
    assert "--cap 30 is above the exact-search ceiling 14" in capsys.readouterr().err


def test_oracle_beyond_ceiling_suggests_no_cap(tmp_path, capsys):
    inst = _complete_square_instance(tmp_path)
    for cap in ("12", "14"):
        t0 = time.perf_counter()
        rc = main(["oracle", "--in", inst, "--p", "2", "--q", "1", "--cap", cap])
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert rc == 2
        assert f"n=26 > cap={cap}; exact search stops at n=14" in err
        assert "raise --cap" not in err
    inst = _write_instance(tmp_path, gen_instance("interval", 13, 0), "small.json")
    assert main(["oracle", "--in", inst, "--p", "1", "--q", "1"]) == 2
    assert "raise --cap (at most 14)" in capsys.readouterr().err


def test_oracle_beyond_separation_ceiling_suggests_no_cap(tmp_path, capsys):
    """A separation above the ceiling is refused before any search, which
    would otherwise face labels around 2 * 10**10."""
    from intervallabel import IntervalRep

    rep = IntervalRep(((0, 4), (2, 6), (5, 9), (1, 3), (8, 12)))
    inst = _write_instance(tmp_path, rep)
    t0 = time.perf_counter()
    rc = main(["oracle", "--in", inst, "--p", "10000000000", "--q", "1"])
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert rc == 2
    assert f"max(p,q)=10000000000 > ceiling={verify._EXACT_SEP_CEILING}" in err
    assert "--cap" not in err


# ---------------------------------------------------------------------------
# bench


def _bench_rows(argv, capsys):
    rc = main(argv)
    raw = capsys.readouterr().out
    return rc, list(csv.DictReader(io.StringIO(raw)))


def _strip_timings(rows):
    return [{k: v for k, v in row.items() if not k.endswith("_us")} for row in rows]


def test_bench_empty_grid_is_header_only(capsys):
    rc = main(["bench", "--class", "interval", "--n", "5", "--seed", "0",
               "--count", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "class,seed,n,p,q,max_degree,multiplicity,omega,span,bound,holds,"
        "lambda_exact,runtime_us,report_us,validate_us"
    ]


def test_bench_csv_rows(capsys):
    rc, rows = _bench_rows(
        ["bench", "--class", "interval", "--n", "6", "--seed", "3", "--count", "4",
         "--pq", "2,1", "--pq", "1,2"],
        capsys,
    )
    assert rc == 0
    assert len(rows) == 8
    seeds = {row["seed"] for row in rows}
    assert seeds == {"3", "4", "5", "6"}
    for row in rows:
        assert row["class"] == "interval"
        assert row["holds"] == "true"
        assert int(row["span"]) <= int(row["bound"])
        assert int(row["lambda_exact"]) <= int(row["span"])


def test_bench_deterministic_modulo_runtime(capsys):
    argv = ["bench", "--class", "containment", "--n", "6", "--seed", "1",
            "--count", "3", "--pq", "2,1"]
    _, a = _bench_rows(argv, capsys)
    _, b = _bench_rows(argv, capsys)
    assert _strip_timings(a) == _strip_timings(b)


def test_bench_jobs_match_serial(capsys):
    base = ["bench", "--class", "interval_k", "--n", "6", "--seed", "2",
            "--count", "6", "--pq", "2,1"]
    _, serial = _bench_rows(base + ["--jobs", "1"], capsys)
    _, parallel = _bench_rows(base + ["--jobs", "2"], capsys)
    assert _strip_timings(serial) == _strip_timings(parallel)


def test_bench_json_format(capsys):
    rc = main(["bench", "--class", "interval", "--n", "5", "--seed", "4",
               "--count", "2", "--pq", "1,1", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(list(row) == list(cli.BENCH_COLUMNS) for row in rows)
    assert all(isinstance(row["lambda_exact"], int) for row in rows)
    assert all(row["holds"] for row in rows)


def test_bench_report_only_failures_exit_zero(capsys):
    rc, rows = _bench_rows(
        ["bench", "--class", "interval_order", "--n", "6", "--seed", "0",
         "--count", "40", "--pq", "1,5"],
        capsys,
    )
    assert rc == 0
    assert any(row["holds"] == "false" for row in rows)


@pytest.mark.parametrize(
    "cls, seed, pq",
    [("containment", "0", "2,1"), ("interval_k", "3", "1,1")],
)
def test_bench_max_degree_one_is_report_only(capsys, cls, seed, pq):
    """Bounds evaluated at max degree <= 1 (outside the paper's hypotheses)
    are reported, not counted as violations."""
    rc, rows = _bench_rows(
        ["bench", "--class", cls, "--n", "2", "--seed", seed, "--count", "1",
         "--pq", pq],
        capsys,
    )
    assert rc == 0
    (row,) = rows
    assert int(row["max_degree"]) <= 1
    assert row["holds"] == "false"


def _fake_pool(monkeypatch, cpus):
    """Replace the process pool by one that records ``max_workers`` and
    maps in this process, on a machine with ``cpus`` CPUs."""
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    return seen


def test_map_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    seen = _fake_pool(monkeypatch, 8)
    assert cli._map_tasks(abs, [-1, -2], 5000) == [1, 2]
    assert cli._map_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert cli._map_tasks(abs, [-4], 5000) == [4]
    assert cli._map_tasks(abs, [], 5000) == []
    assert seen == [2, 2]


def test_map_tasks_starts_no_more_workers_than_cpus(monkeypatch, capsys):
    """--jobs 100000 once asked the pool for one worker per task."""
    argv = ["bench", "--class", "interval", "--n", "5", "--seed", "1",
            "--count", "5", "--pq", "2,1"]
    _, serial = _bench_rows(argv, capsys)
    seen = _fake_pool(monkeypatch, 3)
    _, pooled = _bench_rows(argv + ["--jobs", "100000"], capsys)
    assert seen == [3]
    assert _strip_timings(pooled) == _strip_timings(serial)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: serial
    _, unknown = _bench_rows(argv + ["--jobs", "100000"], capsys)
    assert seen == [3]
    assert _strip_timings(unknown) == _strip_timings(serial)


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["bench", "claims"])
def test_non_positive_jobs_is_a_usage_error(monkeypatch, capsys, command, jobs):
    """Both commands once ran serially on --jobs 0 or below."""
    seen = _fake_pool(monkeypatch, 8)
    argv = [command, "--class", "interval", "--n", "3", "--seed", "1",
            "--count", "2", "--jobs", jobs]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"--jobs must be positive, got {jobs}" in captured.err
    assert captured.out == "" and seen == []


def test_bench_skips_oracle_beyond_cap(capsys):
    rc, rows = _bench_rows(
        ["bench", "--class", "interval", "--n", "15", "--seed", "0",
         "--count", "2", "--pq", "1,1"],
        capsys,
    )
    assert rc == 0
    assert all(row["lambda_exact"] == "" for row in rows)


def test_bench_leaves_lambda_blank_beyond_separation_ceiling(capsys):
    p = verify._EXACT_SEP_CEILING + 1
    rc, rows = _bench_rows(
        ["bench", "--class", "interval", "--n", "5", "--seed", "0",
         "--count", "2", "--pq", f"{p},1", "--pq", "2,1"],
        capsys,
    )
    assert rc == 0
    assert [row["lambda_exact"] == "" for row in rows] == [True, False] * 2


def test_bench_arc_exact_omega_beyond_64(capsys):
    """At n = 200 and q > p the bound uses the exact omega 11 (47), not the
    cut clique, which gave 37 below the span 38."""
    rc = main(["bench", "--class", "circular_arc", "--n", "200", "--density", "0.05",
               "--seed", "1", "--count", "1", "--pq", "1,2", "--format", "json"])
    assert rc == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["omega"], row["span"], row["bound"], row["holds"]) == (11, 38, 47, True)


@pytest.mark.parametrize(
    "density, omegas",
    [([], ["178", "162", "181"]), (["--density", "0.05"], ["14", "17", "15"])],
)
def test_bench_arc_omega_column_is_pinned(capsys, density, omegas):
    """The exact arc omega of three n-300 instances, dense and sparse."""
    rc, rows = _bench_rows(
        ["bench", "--class", "circular_arc", "--n", "300", "--seed", "3",
         "--count", "3", "--pq", "2,1", *density],
        capsys,
    )
    assert rc == 0
    assert [row["omega"] for row in rows] == omegas


def test_bench_arc_construction_bound_fails_run(capsys):
    """With exact omega 38 the paper bound 250 holds; the run fails only
    because the span exceeds the split construction's own bound 198."""
    rc = main(["bench", "--class", "circular_arc", "--n", "1000", "--density", "0.05",
               "--seed", "75", "--count", "1", "--pq", "2,1", "--format", "json"])
    assert rc == 1
    captured = capsys.readouterr()
    (row,) = json.loads(captured.out)
    assert (row["omega"], row["span"], row["bound"], row["holds"]) == (38, 204, 250, True)
    assert "construction bound exceeded: span 204 > 198" in captured.err


@pytest.mark.parametrize("factor, line", SCALED_FAILURES)
def test_bench_failure_exits_one_and_is_named(capsys, monkeypatch, factor, line):
    monkeypatch.setattr(cli, "label_instance", _scaled_labeler(factor))
    rc = main(["bench", "--class", "interval", "--n", "6", "--seed", "3",
               "--count", "2", "--pq", "2,1", "--format", "json"])
    assert rc == 1
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert [row["seed"] for row in rows] == [3, 4]
    assert captured.err.splitlines() == [
        f"seed {row['seed']} (2,1): " + line.format(**row) for row in rows
    ]


def test_bench_bad_pq(capsys):
    rc = main(["bench", "--class", "interval", "--n", "5", "--seed", "0",
               "--pq", "2:1"])
    assert rc == 2
    assert "bad --pq value" in capsys.readouterr().err


@pytest.mark.parametrize("text", NON_CANONICAL)
@pytest.mark.parametrize("pattern", ["{},1", "2,{}"])
def test_bench_rejects_non_canonical_pq(capsys, text, pattern):
    pq = pattern.format(text)
    rc = main(["bench", "--class", "interval", "--n", "5", "--seed", "0", f"--pq={pq}"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert f"bad --pq value {pq!r}" in err and out == ""


# ---------------------------------------------------------------------------
# claims


def test_claims_sweep_aggregates(capsys):
    rc = main(["claims", "--class", "interval_order", "--n", "5", "--seed", "0",
               "--count", "25"])
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["claim"] for r in reports] == [
        "cointerval-equivalence",
        "order-min-adjacency",
        "order-min-cover",
    ]
    for r in reports:
        assert r["checked"] == 25
        assert r["violations"] == []
        assert 0 <= r["applicable"] <= 25
    assert reports[1]["applicable"] == 25


def test_claims_single_claim(capsys):
    rc = main(["claims", "--class", "interval", "--n", "6", "--seed", "2",
               "--count", "10", "--claim", "interval-dominator"])
    assert rc == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["claim"] == "interval-dominator"
    assert report["checked"] == 10


def test_claims_class_mismatch(capsys):
    rc = main(["claims", "--class", "interval", "--n", "5", "--seed", "0",
               "--claim", "order-min-cover"])
    assert rc == 2
    assert "not applicable to class 'interval'" in capsys.readouterr().err


def test_claims_parallel_matches_serial(capsys):
    base = ["claims", "--class", "containment", "--n", "6", "--seed", "1",
            "--count", "8"]
    assert main(base + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
