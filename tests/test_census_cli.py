import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gencayley
import gencayley.census as census_module
import gencayley.cli as cli_module
import gencayley.codes as codes_module
import gencayley.groups as groups_module
import gencayley.verify as verify_module
from gencayley import (
    alpha_context,
    decide_subgroup_pc,
    decide_subgroup_tpc,
    enumerate_involutory_automorphisms,
    enumerate_subgroups,
)
from gencayley._bits import perm_mask
from gencayley.groups import abelian_group
from gencayley.census import CSV_COLUMNS, CensusRecord, catalog, census_records, emit_report
from gencayley.cli import build_parser, main
from gencayley.verify import SUITES, SuiteResult, run_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_small():
    ids = [g.id for g in catalog(8)]
    assert ids == ["Z1", "Z2", "Z3", "Z2xZ2", "Z4", "Z5", "D3", "S3", "Z6", "Z7", "D4", "Z2xZ2xZ2", "Z2xZ4", "Z8"]


def test_catalog_default_contains_required_groups():
    ids = {g.id for g in catalog(24)}
    for required in ("S3", "S4", "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "D12", "Z24", "Z2xZ2xZ6"):
        assert required in ids
    assert len(ids) == len(catalog(24))  # no duplicate isomorphism labels


def test_census_z6_records():
    records = [r for r in census_records(6) if r.group_id == "Z6"]
    assert len(records) == 4  # 4 subgroups x 1 involutory automorphism
    by_sub = {r.subgroup: r for r in records}
    assert by_sub[(0,)].is_pc is False
    assert by_sub[(0, 3)].is_pc is True and by_sub[(0, 3)].pc_witness == (1, 5)
    assert by_sub[(0, 2, 4)].is_pc is True
    assert by_sub[(0, 1, 2, 3, 4, 5)].is_pc is True
    assert by_sub[(0, 3)].is_tpc is True and by_sub[(0, 3)].tpc_witness == (1, 3, 5)
    assert by_sub[(0, 2, 4)].is_tpc is False


def test_census_keeps_no_context(monkeypatch):
    # fresh groups, so that no other test has filled their caches: the
    # census builds each task's context itself and keeps none of them
    built = {}

    def fresh(spec):
        if spec not in built:
            built[spec] = groups_module.build_group.__wrapped__(spec)
        return built[spec]

    monkeypatch.setattr(census_module, "build_group", fresh)
    assert census_records(8)
    assert len(built) == 14
    assert all(g.cache.involutions is not None for g in built.values())
    assert all(g.cache.contexts == {} for g in built.values())


def test_census_trivial_group_placeholder():
    records = census_records(1)
    assert len(records) == 1
    assert records[0].note == "no-involutory-automorphisms"
    assert records[0].alpha_index is None


def test_emit_report_empty_csv():
    text = emit_report([], fmt="csv")
    assert text.splitlines() == [
        "group,order,alpha,subgroup,alpha_preserves_subgroup,is_pc,pc_witness,"
        "pc_witness_size,pc_refutation,is_tpc,tpc_witness,tpc_witness_size,"
        "tpc_refutation,note"
    ]
    assert emit_report([], fmt="jsonl") == ""
    with pytest.raises(ValueError, match="format must be 'jsonl' or 'csv', got 'xml'"):
        emit_report([], fmt="xml")


def test_emit_report_jsonl_fields():
    records = census_records(6)
    lines = emit_report(records, fmt="jsonl").splitlines()
    assert len(lines) == len(records)
    payload = json.loads(lines[-1])
    assert set(payload) == {
        "group", "order", "alpha", "subgroup", "alpha_preserves_subgroup",
        "is_pc", "pc_witness", "pc_witness_size", "pc_refutation",
        "is_tpc", "tpc_witness", "tpc_witness_size", "tpc_refutation", "note",
    }


def test_workers_do_not_change_bytes():
    one = emit_report(census_records(8, workers=1))
    two = emit_report(census_records(8, workers=2))
    assert one == two


def test_optimize_flag_does_not_change_bytes():
    # -O strips assert statements; no check of the package depends on one,
    # so the report is the same in both interpreters
    code = (
        "import sys, gencayley;"
        "sys.stdout.write(gencayley.emit_report(gencayley.census_records(12)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gencayley.__file__).parent.parent))
    outputs = [
        subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, check=True
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0] == emit_report(census_records(12)).encode()
    # the witnesses themselves are pinned: a decider that finds another
    # valid witness changes these bytes
    assert len(outputs[0].splitlines()) == 831
    assert len(outputs[0]) == 235_810
    assert hashlib.sha256(outputs[0]).hexdigest() == (
        "fef5c695561dab7d796fa352af390781f31686d83e6f272fe0728a497b5a1088"
    )


def test_census_24_report_is_pinned():
    # census-12 never reaches order 16, where Z2^4 gives most records
    data = emit_report(census_records(24)).encode()
    assert len(data.splitlines()) == 27_483
    assert len(data) == 8_203_955
    assert hashlib.sha256(data).hexdigest() == (
        "407d4f3bd15f9c34eccef12b2c2d81b72fe8e97af4edc5b74b5c4eb6031ec91d"
    )


# ---------------------------------------------------------------------------
# the report writer and the record transport


def hand_built_records():
    """Records whose strings need json's escaping: a quote, a backslash,
    control characters, non-ASCII text."""
    base = census_records(6)[-1]
    texts = [
        'quo"te\\back',
        "tab\tbell\x07nul\x00",
        "\u010daj \u2615 \U0001d11e",
        "line\nbreak\u2028",
    ]
    return [
        dataclasses.replace(base, group_id=text, note=text, pc_refutation=text)
        for text in texts
    ]


def expected_jsonl(records) -> str:
    return "".join(
        json.dumps(r.payload(), sort_keys=True, separators=(",", ":")) + "\n" for r in records
    )


def test_jsonl_lines_equal_json_dumps():
    records = census_records(12) + hand_built_records()
    assert emit_report(records) == expected_jsonl(records)


def test_jsonl_repeated_tuples_equal_json_dumps():
    # the writer formats each distinct element tuple once per call: a tuple
    # repeats across records and across the fields of one record
    base = census_records(6)[-1]
    a, b = (0, 2, 4), (0, 3)
    first = [
        dataclasses.replace(base, subgroup=a, pc_witness=b, tpc_witness=b),
        dataclasses.replace(base, subgroup=b, pc_witness=a, tpc_witness=None),
        dataclasses.replace(base, subgroup=a, pc_witness=a, tpc_witness=()),
        dataclasses.replace(base, subgroup=(0,), pc_witness=(), tpc_witness=a),
    ]
    second = [
        dataclasses.replace(base, subgroup=b, pc_witness=(1, 5), tpc_witness=(1, 3, 5)),
        dataclasses.replace(base, subgroup=(1, 5), pc_witness=b, tpc_witness=None),
    ]
    # two calls in one process: nothing of the first shows in the second
    text = emit_report(first)
    assert text == expected_jsonl(first)
    assert emit_report(second) == expected_jsonl(second)
    assert emit_report(first) == text


def test_jsonl_placeholder_record_unchanged():
    assert emit_report(census_records(1)) == (
        '{"alpha":null,"alpha_preserves_subgroup":null,"group":"Z1","is_pc":null,'
        '"is_tpc":null,"note":"no-involutory-automorphisms","order":1,'
        '"pc_refutation":null,"pc_witness":null,"pc_witness_size":null,'
        '"subgroup":null,"tpc_refutation":null,"tpc_witness":null,"tpc_witness_size":null}\n'
    )


def test_csv_report_unchanged():
    text = emit_report(census_records(8), fmt="csv").encode()
    assert len(text) == 36_904
    assert hashlib.sha256(text).hexdigest() == (
        "7e4e488b6a74580e2d7e2ecfb051c4ad56476b85ffb52268cfdad72a4a7fa6b4"
    )


def record_fields(record, skip=()):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record) if f.name not in skip)


def test_records_pickle_every_field():
    records = census_records(8)
    assert any(r.decide_pc_ms is not None for r in records)
    back = pickle.loads(pickle.dumps(records))
    assert [record_fields(r) for r in back] == [record_fields(r) for r in records]


def test_pool_records_equal_serial_records():
    timings = ("decide_pc_ms", "decide_tpc_ms")
    serial = [record_fields(r, timings) for r in census_records(8, workers=1)]
    assert [record_fields(r, timings) for r in census_records(8, workers=2)] == serial


def test_task_records_equal_keyword_built_records(monkeypatch):
    # task_records returns each record's fields as a plain row, in field
    # order; a record built by keyword from the same decisions pins that
    # order against dataclasses.fields. The clock reads 0, 0.25 and 0.75 s
    # around each pair's two decisions, so the pc and tpc timings differ too
    ticks = itertools.cycle([0.0, 0.25, 0.75])
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(census_module, "time", clock)
    pairs = placeholders = 0
    for group in catalog(8):
        alphas = enumerate_involutory_automorphisms(group)
        if not alphas:
            (row,) = census_module.task_records((group, None, None, ()))
            record = CensusRecord(*row)
            expected = CensusRecord(
                group_id=group.id, group_order=group.order, note="no-involutory-automorphisms"
            )
            assert record_fields(record) == record_fields(expected)
            placeholders += 1
            continue
        subgroups = enumerate_subgroups(group)
        for idx, alpha in enumerate(alphas):
            ctx = alpha_context(group, alpha)
            rows = census_module.task_records((group, idx, alpha.perm, subgroups))
            records = [CensusRecord(*row) for row in rows]
            assert len(records) == len(subgroups)
            for record, sub in zip(records, subgroups):
                pc, tpc = decide_subgroup_pc(sub, ctx), decide_subgroup_tpc(sub, ctx)
                expected = CensusRecord(
                    group_id=group.id,
                    group_order=group.order,
                    alpha_index=idx,
                    subgroup=sub.elements,
                    alpha_preserves_subgroup=tpc.alpha_preserves_subgroup,
                    is_pc=pc.success,
                    pc_witness=pc.subset.elements if pc.success else None,
                    pc_refutation=pc.refutation,
                    is_tpc=tpc.success,
                    tpc_witness=tpc.subset.elements if tpc.success else None,
                    tpc_refutation=tpc.refutation,
                    decide_pc_ms=250.0,
                    decide_tpc_ms=500.0,
                )
                assert record_fields(record) == record_fields(expected), (group.id, idx, sub)
                pairs += 1
    assert (pairs, placeholders) == (len(census_records(8)) - 2, 2)


def test_census_record_is_slotted():
    # no attribute dict: a misspelled field cannot be set by mistake
    record = CensusRecord("Z1", 1)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.is_pcc = True
    assert [f.name for f in dataclasses.fields(CensusRecord)] == list(CensusRecord.__slots__)


def test_task_images_match_direct_perm_masks(monkeypatch):
    # task_records computes alpha(H) once per pair {H, alpha(H)}; every
    # context's images must still map each subgroup to the task's own
    # handle of its image
    contexts = []

    def recording(group, alpha):
        contexts.append(alpha_context(group, alpha))
        return contexts[-1]

    monkeypatch.setattr(census_module, "alpha_context", recording)
    records = census_records(24)
    pairs = 0
    for ctx in contexts:
        subs = enumerate_subgroups(ctx.group)
        assert len(ctx.images) == len(subs)
        for sub in subs:
            image = ctx.images[sub.mask]
            assert image.mask == perm_mask(ctx.alpha.perm, sub.mask)
            assert any(image is s for s in subs)
            pairs += 1
    assert pairs == len(records) - sum(r.note is not None for r in records) == 27481


def test_pool_chunk_reuses_task_handles(monkeypatch):
    # a pool worker receives a chunk of tasks as one pickle, so its tasks
    # share one group and one list of subgroup handles, outside the
    # unpickled group's subgroup cache; alpha(H) must come from that list
    group = abelian_group([2, 2, 2, 2])
    subgroups = enumerate_subgroups(group)
    alphas = enumerate_involutory_automorphisms(group)[:40]
    chunk = pickle.loads(
        pickle.dumps([(group, i, a.perm, subgroups) for i, a in enumerate(alphas)])
    )
    calls = {}

    def counting(name, fn):
        calls[name] = 0

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module, name in (
        (groups_module, "_decompose"),
        (codes_module, "image_subgroup"),
        (codes_module, "alpha_preserves"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    rows = [row for task in chunk for row in census_module.task_records(task)]
    assert len(subgroups) == 67 and len(rows) == 40 * 67
    assert calls == {"_decompose": 67, "image_subgroup": 0, "alpha_preserves": 0}


def test_pool_never_starts_idle_workers(monkeypatch):
    # a stand-in pool that runs in this process; no worker is started
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(census_module, "ProcessPoolExecutor", InlinePool)
    assert emit_report(census_records(2, workers=64)) == emit_report(census_records(2))
    assert emit_report(census_records(6, workers=3)) == emit_report(census_records(6))
    # order 2 is two tasks (Z1 and Z2, neither with an involution)
    assert requested == [2, 3]


# the types a pool row may carry: element tuples hold ints only
_ROW_SCALARS = (str, int, bool, float, type(None))


def _is_plain_row(row):
    return type(row) is tuple and all(
        type(v) in _ROW_SCALARS or (type(v) is tuple and all(type(e) is int for e in v))
        for v in row
    )


def test_pool_transport_carries_plain_rows(monkeypatch):
    # a stand-in pool that runs in this process and passes each chunk's
    # results through pickle, as a worker's return does; no process is
    # started. Only plain rows may cross, never a CensusRecord
    requested, crossed = [], []

    class PicklingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            tasks = list(iterable)
            for i in range(0, len(tasks), chunksize):
                results = pickle.loads(pickle.dumps([fn(t) for t in tasks[i : i + chunksize]]))
                crossed.append(results)
                yield from results

    timings = ("decide_pc_ms", "decide_tpc_ms")
    serial = census_records(8)
    monkeypatch.setattr(census_module, "ProcessPoolExecutor", PicklingPool)
    pooled = census_records(8, workers=2)
    assert [record_fields(r, timings) for r in pooled] == [
        record_fields(r, timings) for r in serial
    ]
    # order 2 is two tasks (Z1 and Z2, neither with an involution)
    assert emit_report(census_records(2, workers=5)) == emit_report(census_records(2))
    assert requested == [2, 2]
    rows = [row for results in crossed for rows in results for row in rows]
    assert len(rows) == len(serial) + 2 and len(crossed) > 2
    width = len(dataclasses.fields(CensusRecord))
    assert all(_is_plain_row(row) and len(row) == width for row in rows)


def test_cli_decide_example(capsys):
    code, out, _ = run_cli(
        capsys, "decide", "pc", "--group", "cyclic:6", "--alpha", "inv", "--subgroup", "0,3"
    )
    assert code == 0
    assert "result=code witness={1,5} witness_size=2" in out


def test_cli_check_example(capsys):
    code, out, _ = run_cli(
        capsys, "check", "pc", "--group", "cyclic:6", "--alpha", "inv",
        "--S", "1", "--X", "0,2,4",
    )
    assert code == 0
    assert "result=true" in out


def test_cli_census_max_order_one(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-order", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["note"] == "no-involutory-automorphisms"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-order", "0"],
        ["census", "--max-order", "0"],
        ["census", "--workers", "0"],
        ["census", "--workers", "-2"],
        ["group", "list", "--max-order", "-3"],
    ],
    ids=" ".join,
)
def test_cli_rejects_sizes_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be at least 1, got {argv[-1]}" in err


@pytest.mark.parametrize(
    "call",
    [
        lambda: catalog(0),
        lambda: catalog(-3),
        lambda: census_records(0),
        lambda: census_records(4, workers=0),
        lambda: census_records(4, workers=-2),
        lambda: run_suites(max_order=0),  # at the call, before any suite runs
    ],
    ids=["catalog-0", "catalog-neg", "census-0", "workers-0", "workers-neg", "run_suites-0"],
)
def test_library_rejects_sizes_below_one(call):
    with pytest.raises(ValueError, match="must be at least 1"):
        call()


def test_cli_element_names(capsys):
    code, out, _ = run_cli(
        capsys, "decide", "pc", "--group", "dihedral:3", "--alpha", "0",
        "--subgroup", "e,r1,r2",
    )
    assert code == 0
    assert "subgroup={0,1,2}" in out


def test_cli_sets_without_involutions(capsys):
    code, out, _ = run_cli(capsys, "sets", "--group", "cyclic:2")
    assert code == 0
    assert "no involutory automorphisms" in out


def test_cli_aut_list_rank_five(capsys):
    # |Aut(Z2^5)| is almost 10^7; the listing searches for involutions only
    code, out, _ = run_cli(capsys, "aut", "list", "--group", "abelian:2,2,2,2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(" involutory_automorphisms=6975")
    assert len(lines) == 1 + 6975


def test_cli_threshold_exit_code(capsys):
    code, _, err = run_cli(capsys, "aut", "list", "--group", "cyclic:99")
    assert code == 3
    assert "threshold" in err


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "decide", "pc", "--group", "cyclic:6", "--alpha", "7", "--subgroup", "0"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "decide", "pc", "--group", "dihedral:3", "--alpha", "inv", "--subgroup", "0"
    )
    assert code == 2
    assert "nonabelian" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--group", "cyclic:6", "--group-file", "z6.json"],
            "error: pass either --group or --group-file, not both",
        ),
        ([], "error: a group is required (--group or --group-file)"),
        (["--group", "Z0"], "error: cyclic group order must be >= 1, got 0"),
        (["--group", "D2"], "error: dihedral parameter must be >= 3, got 2"),
    ],
    ids=["group-and-file", "no-group", "Z0", "D2"],
)
def test_cli_group_options_are_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, "group", "describe", *argv)
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        # other scripts' digits and superscripts: str.isdigit() takes them
        (["--alpha", "\u0661"], "--alpha \u0661: "),
        (["--alpha", "\u00b2"], "--alpha \u00b2: "),
        (
            ["--group", "cyclic:\u0661\u0662"],
            "group spec 'cyclic:\u0661\u0662': '\u0661\u0662' is not",
        ),
        (["--group", "D\u00b3"], "unsupported group spec 'D\u00b3'"),
        (["--subgroup", "0,\u00b2"], "--subgroup: unknown element '\u00b2' in Z6"),
        (["--subgroup", "0,--3"], "--subgroup: unknown element '--3' in Z6"),
        (["--group", "cyclic:+6"], "group spec 'cyclic:+6': '+6' is not"),
        (["--group", "abelian:2, 3"], "group spec 'abelian:2, 3': ' 3' is not"),
    ],
    ids=["alpha-arabic-indic", "alpha-superscript", "group-arabic-indic", "group-superscript",
         "subgroup-superscript", "subgroup-double-minus", "group-plus", "group-space"],
)
def test_cli_numeric_tokens_are_ascii_decimal_digits(capsys, argv, fragment):
    # a token that is not ASCII decimal digits is never read as a number,
    # and the error names its option or spec instead of int()'s message
    args = {"--group": "cyclic:6", "--alpha": "inv", "--subgroup": "0"}
    args[argv[0]] = argv[1]
    code, out, err = run_cli(capsys, "decide", "pc", *itertools.chain(*args.items()))
    assert code == 2 and out == ""
    assert fragment in err and "invalid literal" not in err


@pytest.mark.parametrize("value", ["\u0661\u0662", "\u00b2", "+3", "1_0", " 4", "--3"])
def test_cli_sizes_are_ascii_decimal_digits(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["census", f"--max-order={value}"])
    assert exc.value.code == 2
    assert f"argument --max-order: invalid int value: {value!r}" in capsys.readouterr().err


def test_cli_reads_an_element_with_a_minus_as_a_number(capsys):
    # one leading minus is read as a number, which the range check rejects
    code, _, err = run_cli(
        capsys, "decide", "pc", "--group", "cyclic:6", "--alpha", "inv", "--subgroup", "0,-3"
    )
    assert code == 2 and "element -3 is not an int in 0..5" in err


def test_cli_export_dot(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    code, out, _ = run_cli(
        capsys, "graph", "build", "--group", "cyclic:6", "--alpha", "inv",
        "--S", "1", "--export-dot", str(dot),
    )
    assert code == 0
    text = dot.read_text()
    assert "0 -- 1;" in text and text.count("--") == 3


def test_cli_group_file(tmp_path, capsys):
    from gencayley import build_group

    z6 = build_group("cyclic:6")
    path = tmp_path / "z6.json"
    path.write_text(
        json.dumps({"name": "my-z6", "order": 6, "table": [list(r) for r in z6.table]})
    )
    code, out, _ = run_cli(
        capsys, "decide", "pc", "--group-file", str(path), "--alpha", "inv",
        "--subgroup", "0,3",
    )
    assert code == 0
    assert "group=my-z6" in out
    code, _, err = run_cli(capsys, "sets", "--group-file", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize(
    "flag, payload, fragment",
    [
        # int() would truncate 5.9 and parse "4", giving the inversion of Z6
        ("--alpha", {"perm": [0, 5.9, "4", 3, 2, 1]}, "field 'perm': entry 1 = 5.9 is not"),
        ("--group-file", {"name": "b", "order": True, "table": [[False]]}, "'order' must"),
        (
            "--group-file",
            {"name": "b", "order": 2, "table": [[0, True], [True, 0]]},
            "field 'table' entry [0][1] = True is not",
        ),
    ],
    ids=["perm-float-and-string", "order-bool", "table-entry-bool"],
)
def test_cli_rejects_non_integer_file_fields(tmp_path, capsys, flag, payload, fragment):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    group = ["--group", "cyclic:6"] if flag == "--alpha" else []
    code, out, err = run_cli(capsys, "sets", *group, flag, str(path))
    assert code == 2 and out == ""
    assert fragment in err


Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "payload, fragment",
    [
        # str() once made these group "['x']" with elements 'None' and 'True'
        (
            {"name": ["x"], "order": 2, "table": Z2_TABLE, "names": ["e", "a"]},
            "field 'name' must be a string, got ['x']",
        ),
        (
            {"name": "x", "order": 2, "table": Z2_TABLE, "names": [None, True]},
            "field 'names' entry 0 = None is not a string",
        ),
        (
            {"name": "x", "order": 2, "table": Z2_TABLE, "names": ["e", True]},
            "field 'names' entry 1 = True is not a string",
        ),
    ],
    ids=["name-list", "names-null", "names-bool"],
)
def test_cli_rejects_non_string_file_names(tmp_path, capsys, payload, fragment):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        capsys, "graph", "build", "--group-file", str(path), "--alpha", "0", "--S", "True"
    )
    assert code == 2 and out == ""
    assert fragment in err


def test_cli_reports_malformed_and_missing_automorphism_files(tmp_path, capsys):
    # the group loader's cases are in test_groups and test_cli_group_file
    bad = tmp_path / "bad.json"
    bad.write_text('{"perm": [0, 5,')
    code, out, err = run_cli(capsys, "sets", "--group", "cyclic:6", "--alpha", str(bad))
    assert code == 2 and out == ""
    assert f"{bad}: line 1, column 16:" in err
    missing = tmp_path / "nope.json"
    code, out, err = run_cli(capsys, "sets", "--group", "cyclic:6", "--alpha", str(missing))
    assert code == 2 and out == ""
    assert f"{missing}: " in err and "No such file" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("census", "--max-order", "4", "--out"), "x.jsonl"),
        (("graph", "build", "--group", "cyclic:6", "--alpha", "inv", "--S", "1", "--export-dot"),
         "x.dot"),
    ],
)
def test_cli_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, argv, name):
    # the output is opened before the census sweeps or a graph is printed
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output was opened")

    monkeypatch.setattr(cli_module, "census_records", no_sweep)
    path = tmp_path / "missing" / name
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "No such file" in err


@pytest.mark.parametrize("spec", ["Z2x", "xZ3", "Z2xxZ3", "abelian:2,x", "abelian:2,,3"])
def test_cli_refuses_empty_spec_parts(capsys, spec):
    # these once built Z2, Z3, Z2xZ3, Z2 and Z2xZ3 without a word
    code, out, err = run_cli(capsys, "decide", "pc", "--group", spec, "--alpha", "0",
                             "--subgroup", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and repr(spec) in err


def z3_named_file(tmp_path, names):
    path = tmp_path / "z3named.json"
    path.write_text(
        json.dumps(
            {"name": "Z3n", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
             "names": names}
        )
    )
    return str(path)


def test_cli_refuses_a_token_that_is_an_index_and_another_name(tmp_path, capsys):
    # "2" is the index of element 2 and the name of element 1; it once
    # silently took element 2
    path = z3_named_file(tmp_path, ["e", "2", "1"])
    code, out, err = run_cli(
        capsys, "decide", "tpc", "--group-file", path, "--alpha", "0", "--subgroup", "2"
    )
    assert code == 2 and out == ""
    assert err == (
        "error: --subgroup: '2' is both the index of element 2 and the name of"
        " element 1 in Z3n\n"
    )
    code, _, err = run_cli(
        capsys, "graph", "build", "--group-file", path, "--alpha", "0", "--S", "0,1"
    )
    assert code == 2 and "--S: '1' is both the index of element 1 and the name of element 2" in err


@pytest.mark.parametrize(
    "names, token, elements",
    [
        (["e", "2", "1"], "0", "{0}"),  # a plain index, not a name
        (["e", "2", "1"], "e", "{0}"),  # a non-digit name
        (["0", "a", "b"], "0", "{0}"),  # a digit name equal to its own index
        (["e", "a", "b"], "0", "{0}"),  # an index in a group without digit names
        (["e", "2", "1"], "e,0", "{0}"),  # a name and an index of one element
    ],
)
def test_cli_element_tokens_that_stay_unambiguous(tmp_path, capsys, names, token, elements):
    path = z3_named_file(tmp_path, names)
    code, out, _ = run_cli(
        capsys, "decide", "tpc", "--group-file", path, "--alpha", "0", "--subgroup", token
    )
    assert code == 0 and f"subgroup={elements} kind=tpc" in out


def test_cli_digit_name_past_the_order_is_a_name(tmp_path):
    # "7" is no index of Z3, so it can only mean the element named "7"
    group = groups_module.load_group_file(z3_named_file(tmp_path, ["e", "a", "7"]))
    assert cli_module._parse_elements(group, "7,a", "--S") == (1, 2)


def test_cli_rejects_duplicate_element_names(tmp_path, capsys):
    # with the last name winning, --S a would parse as element 2
    path = tmp_path / "z3dup.json"
    path.write_text(
        json.dumps(
            {"name": "Z3dup", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
             "names": ["e", "a", "a"]}
        )
    )
    code, out, err = run_cli(
        capsys, "graph", "build", "--group-file", str(path), "--alpha", "0", "--S", "a"
    )
    assert code == 2 and out == ""
    assert "field 'names' repeats 'a' at indexes 1 and 2" in err


def test_element_lists_give_back_every_product_name():
    # a list splits only at commas outside parentheses, so the names that
    # direct products build, nested ones included, come back one token each
    groups = catalog(24) + [
        gencayley.build_group(spec) for spec in ("S3xS3", "D4xZ2", "Z2xZ2xZ2", "D3xZ6", "S4xZ2")
    ]
    named = [g for g in groups if g.names is not None]
    assert len(named) == len(groups) == 54
    assert sum(len(g.names) for g in named) == 815
    assert "((0,0),0)" in groups[-3].names
    for group in named:
        assert cli_module._split_elements(",".join(group.names)) == list(group.names), group.id
        assert all(cli_module._is_token(name) for name in group.names), group.id
        assert cli_module._parse_elements(group, ", ".join(group.names), "--S") == tuple(
            range(group.order)
        )


def test_cli_selects_product_elements_by_name(capsys):
    # "(0" was once taken as the first token of the list
    code, out, _ = run_cli(
        capsys, "decide", "pc", "--group", "Z2xZ2", "--alpha", "0", "--subgroup", "(0,0),(1,0)"
    )
    assert code == 0
    assert out.splitlines()[0] == "group=Z2xZ2 alpha=0 subgroup={0,2} kind=pc"


def test_cli_selects_file_names_with_commas_inside_parentheses(tmp_path, capsys):
    path = z3_named_file(tmp_path, ["e", "(a,b)", "(b,a)"])
    code, out, _ = run_cli(
        capsys, "decide", "tpc", "--group-file", path, "--alpha", "0",
        "--subgroup", "e, (a,b),(b,a)",
    )
    assert code == 0 and "subgroup={0,1,2} kind=tpc" in out
    code, out, _ = run_cli(
        capsys, "check", "pc", "--group-file", path, "--alpha", "0", "--S", "",
        "--X", "(b,a) ,(a,b)",
    )
    assert code == 0 and "S={} X={1,2}" in out


@pytest.mark.parametrize(
    "names, entry",
    [
        (["e", "a,b", " c"], 1),  # a comma outside parentheses
        (["e", "a", " c"], 2),  # surrounding whitespace
        (["e", "a ", "c"], 1),
        (["e", "", "c"], 1),  # an empty name
        (["e", "(a", "c"], 1),  # unbalanced parentheses
        (["e", "a", "b)"], 2),
        (["e", ")a(", "c"], 1),
        (["e", "(a),b", "c"], 1),
    ],
)
def test_cli_refuses_file_names_an_element_list_cannot_give(tmp_path, capsys, names, entry):
    # such an element was listed by group describe but could never be selected
    path = z3_named_file(tmp_path, names)
    for argv in (
        ("group", "describe", "--group-file", path),
        ("decide", "tpc", "--group-file", path, "--alpha", "0", "--subgroup", "e"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(
            f"error: {path}: field 'names' entry {entry} = {names[entry]!r} is not one"
            " element-list token"
        )


def test_census_refuses_orders_past_the_automorphism_limit_before_building(monkeypatch, capsys):
    # the catalog holds a cyclic group of every order, so the sweep would
    # fail at order 49 after building every table up to max_order
    def no_catalog(*args):
        raise AssertionError("catalog built")

    monkeypatch.setattr(census_module, "catalog", no_catalog)
    for max_order in (49, 120, 1000):
        with pytest.raises(gencayley.ThresholdError) as exc:
            census_records(max_order, workers=2)
        assert str(exc.value) == (
            f"census limited to max_order <= 48 by automorphism enumeration, got {max_order}"
        )
    code, out, err = run_cli(capsys, "census", "--max-order", "1000")
    assert code == 3 and out == ""
    assert err == (
        "threshold exceeded: census limited to max_order <= 48 by automorphism"
        " enumeration, got 1000\n"
    )


def test_catalog_refuses_orders_past_the_subgroup_limit_before_building(monkeypatch, capsys):
    # no command can use a catalog group above the subgroup limit, and
    # building every table up to max_order 3000 does not finish
    def no_build(*args):
        raise AssertionError("group built")

    monkeypatch.setattr(census_module, "build_group", no_build)
    for max_order in (65, 3000, 2**70):
        with pytest.raises(gencayley.ThresholdError) as exc:
            catalog(max_order)
        assert str(exc.value) == (
            f"catalog limited to max_order <= 64 by subgroup enumeration, got {max_order}"
        )
    code, out, err = run_cli(capsys, "group", "list", "--max-order", "3000")
    assert code == 3 and out == ""
    assert err == (
        "threshold exceeded: catalog limited to max_order <= 64 by subgroup"
        " enumeration, got 3000\n"
    )
    monkeypatch.undo()
    assert max(g.order for g in catalog(64)) == 64


def test_cli_census_has_no_timings_flag(capsys):
    # reports never carry timings, so no flag can make them non-reproducible
    with pytest.raises(SystemExit) as exc:
        main(["census", "--max-order", "1", "--timings"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timings" in capsys.readouterr().err


def test_report_columns_are_the_payload_keys():
    keys = list(CensusRecord("", 0).payload())
    assert CSV_COLUMNS == keys
    assert build_parser().epilog == "census CSV columns: " + ",".join(keys)


@pytest.mark.parametrize("spec", ["cyclic:6", "V4"])
@pytest.mark.parametrize("flag", [[], ["--include-identity"]], ids=["plain", "with-identity"])
def test_aut_list_indexes_are_alpha_indexes(capsys, spec, flag):
    code, out, _ = run_cli(capsys, "aut", "list", "--group", spec, *flag)
    assert code == 0
    listed = re.findall(r"^alpha\[(\d+)\] (perm=\[.*\])$", out, re.M)
    assert [int(k) for k, _ in listed] == list(range(len(listed))) and listed
    assert bool(flag) == ("\nidentity perm=" in out)
    for k, perm in listed:
        code, sets_out, _ = run_cli(capsys, "sets", "--group", spec, "--alpha", k)
        assert code == 0
        assert f"alpha[{k}] {perm}\n" in sets_out


def test_cli_census_csv_out(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    code, out, _ = run_cli(
        capsys, "census", "--max-order", "6", "--format", "csv", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("group,order,alpha")
    assert any(line.startswith("Z6,6,0,") for line in lines)


def test_cli_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "6")
    assert code == 0
    assert "ok   pc-oracle" in out


def test_cli_verify_times_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert all(re.fullmatch(r"ok   [a-z-]+ \(\d+ cases, \d+\.\d\d s\)", line) for line in lines), out


def test_cli_group_list(capsys):
    code, out, _ = run_cli(capsys, "group", "list", "--max-order", "6")
    assert code == 0
    assert out.splitlines() == [
        "Z1 order=1 abelian",
        "Z2 order=2 abelian",
        "Z3 order=3 abelian",
        "Z2xZ2 order=4 abelian",
        "Z4 order=4 abelian",
        "Z5 order=5 abelian",
        "D3 order=6 nonabelian",
        "S3 order=6 nonabelian",
        "Z6 order=6 abelian",
    ]


def test_cli_group_describe(capsys):
    code, out, _ = run_cli(capsys, "group", "describe", "--group", "symmetric:3")
    assert code == 0
    assert out.splitlines() == [
        "group=S3 order=6 abelian=false",
        "elements: 0=() 1=(1 2) 2=(0 1) 3=(0 1 2) 4=(0 2 1) 5=(0 2)",
        "subgroups: 6",
        "  {0}",
        "  {0,1}",
        "  {0,2}",
        "  {0,5}",
        "  {0,3,4}",
        "  {0,1,2,3,4,5}",
    ]


def test_cli_enumerate_total_codes(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "codes", "--group", "cyclic:6", "--alpha", "inv",
        "--S", "1,3,5", "--kind", "tpc",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group=Z6 alpha=inv S={1,3,5} kind=tpc codes=9"
    assert lines[1:] == [
        "{0,1}", "{1,2}", "{0,3}", "{2,3}", "{1,4}", "{3,4}", "{0,5}", "{2,5}", "{4,5}"
    ]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: catalog(24.0), "max_order must be an int, got 24.0"),
        (lambda: catalog("8"), "max_order must be an int, got '8'"),
        (lambda: census_records(4, workers=1.5), "workers must be an int, got 1.5"),
        (lambda: census_records(4, workers="2"), "workers must be an int, got '2'"),
        (lambda: census_records(4.5), "max_order must be an int, got 4.5"),
        (lambda: run_suites(max_order=30.5), "max_order must be an int, got 30.5"),
        (lambda: run_suites(max_order="8"), "max_order must be an int, got '8'"),
        (lambda: catalog(False), "max_order must be at least 1, got False"),
    ],
    ids=[
        "catalog-float", "catalog-str", "workers-float", "workers-str",
        "census-float", "run_suites-float", "run_suites-str", "catalog-false",
    ],
)
def test_library_rejects_sizes_that_are_not_ints(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_a_bool_size_counts_as_one():
    assert [g.id for g in catalog(True)] == ["Z1"]
    assert emit_report(census_records(2, workers=True)) == emit_report(census_records(2))


def test_run_suites_lists_every_suite_in_order():
    results = list(run_suites(max_order=4))
    assert [r.name for r in results] == [
        "group-axioms",
        "subgroup-oracle",
        "coset-partitions",
        "alpha-invariants",
        "graph-laws",
        "mode-agreement",
        "pc-oracle",
        "abelian-criterion",
        "census-audits",
        "transports",
        "product-identities",
        "product-codes",
        "tpc-oracle",
        "odd-order-in-omega",
        "characteristic-criterion",
    ]
    assert len(results) == len(SUITES)
    assert all(r.ok and r.cases > 0 for r in results)
    # the name a suite that raises is reported under
    assert [r.name for r in results] == [verify_module._suite_name(fn) for fn in SUITES]


def test_cli_check_total_code(capsys):
    code, out, _ = run_cli(
        capsys, "check", "tpc", "--group", "cyclic:6", "--alpha", "inv",
        "--S", "1,3,5", "--X", "0,3",
    )
    assert code == 0
    assert out.splitlines() == ["group=Z6 alpha=inv S={1,3,5} X={0,3} kind=tpc", "result=true"]


def test_cli_verify_reports_a_failed_suite(monkeypatch, capsys):
    failed = SuiteResult("pc-oracle", 3, ["group=Z2 alpha=0 H={0}: decide=True oracle=False"])
    monkeypatch.setattr(cli_module, "run_suites", lambda max_order: iter([failed]))
    code, out, _ = run_cli(capsys, "verify", "--max-order", "2")
    assert code == 1
    assert out.splitlines() == [
        "FAIL pc-oracle (3 cases, 0.00 s)",
        "     counterexample: group=Z2 alpha=0 H={0}: decide=True oracle=False",
    ]


def test_cli_verify_reports_a_suite_that_raises_and_runs_the_rest(monkeypatch, capsys):
    clean = run_cli(capsys, "verify", "--max-order", "4")[1].splitlines()

    printed = []

    def broken(g1, g2):
        printed.append(sys.stdout.getvalue())  # the lines out before this suite ran
        raise RuntimeError("no product")

    monkeypatch.setattr(verify_module, "direct_product", broken)
    code, out, _ = run_cli(capsys, "verify", "--max-order", "4")
    assert code == 1
    lines = out.splitlines()
    fails = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert len(fails) == 1
    i = fails[0]
    assert re.fullmatch(r"FAIL product-identities \(0 cases, \d+\.\d\d s\)", lines[i])
    assert lines[i + 1] == "     counterexample: suite raised RuntimeError: no product"
    # the other 14 suites still run, in their places, with their cases
    others = lines[:i] + lines[i + 2 :]
    assert len(others) == 14
    times = re.compile(r", \d+\.\d\d s\)$")
    assert [times.sub(")", line) for line in others] == [
        times.sub(")", line) for line in clean if "product-identities" not in line
    ]
    # each line is out as its suite finishes
    assert printed == ["".join(line + "\n" for line in lines[:i])]
