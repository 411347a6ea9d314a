"""Command-line dispatcher: exit codes, JSON determinism, input grammars."""

import io
import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gieseker import category_o, partitions
from gieseker.cli import _build_parser, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, (argv, err)
    return json.loads(out)


# ------------------------------------------------------------ exit codes


def test_exit_zero_on_success():
    code, out, _ = run(["diagnose", "2", "1", "1/2"])
    assert code == 0 and out


def test_exit_two_on_regime_violation():
    code, _, err = run(["supports", "2", "1", "3", "--sigma", "2"])
    assert code == 2
    assert "out of regime" in err
    code, _, err = run(["generic", "2", "0,0;0"])
    assert code == 2


def test_exit_one_on_parse_error():
    for argv in (
        ["diagnose", "2", "1", "0.5"],  # decimals are not exact input
        ["diagnose", "x", "1", "1/2"],
        ["nosuchcommand"],
        ["diagnose", "2", "1", "1/2", "--bogus"],
        ["supports", "2", "1", "1/2", "--sigma", "1,2"],  # not a partition
    ):
        code, _, _ = run(argv)
        assert code == 1, argv


def test_invalid_choice_lists_the_choices_quoted():
    # the same text on every Python build; later 3.12 and 3.13 releases of
    # argparse drop the quotes
    code, _, err = run(["frobnicate", "1"])
    assert code == 1 and err == (
        "error: argument subcommand: invalid choice: 'frobnicate' (choose from "
        "'diagnose', 'walls', 'generic', 'poincare', 'supports', 'block', "
        "'ideal-lattice', 'leaves', 'model-block')\n"
    )
    code, _, err = run(["ideal-lattice", "2", "--op", "union"])
    assert code == 1 and err.startswith(
        "error: argument --op: invalid choice: 'union' (choose from 'count', 'normalize', "
    )


def test_lists_of_walls_above_the_named_limit_exit_one():
    for argv, count in (
        (["walls", "2000", "40"], 3119221),
        (["generic", "100000", "5,5;0"], 200000),
    ):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.endswith(f" has {count} walls, above MAX_LISTED_WALLS = 150000\n"), err


def test_closed_stdout_ends_without_a_traceback():
    # a reader that stops after a few bytes, as `| head -c 100` does: the
    # command exits 1 and prints no traceback, at the write or at exit
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "gieseker.cli", "leaves", "300", "1", "--lambda", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and b"Traceback" not in err, err


def test_leaf_lists_above_the_named_limit_exit_one():
    code, out, err = run(["leaves", "27", "2"])
    assert (code, out) == (1, "")
    assert err.endswith(" number at least 14742, above MAX_LISTED_LEAVES = 12000\n"), err


def test_largest_leaf_list_prints_less_than_the_largest_wall_list():
    # the leaves limits bound the printed size as well as the count: the
    # 11,732 leaves of n = 26 print 1.79 MB at r = 2 and 1.80 MB at r = 20,
    # and 2.10 MB at the largest r whose dimensions print 34 digits each,
    # under the 2.22 MB of walls 304 20; r = 10**1000 printed 11.1 MB
    walls = len(run(["walls", "304", "20"])[1])
    largest = str((10**34 - 1) // 52)  # 2rn < 10**34 at n = 26
    for extra in (["2"], ["20"], [largest], [largest, "--unreduced", "--lambda", "1"]):
        code, out, _ = run(["leaves", "26", *extra])
        assert code == 0 and len(json.loads(out)["leaves"]) == 11_732
        assert len(out) < walls, (extra, len(out), walls)
    code, out, err = run(["leaves", "26", str(10**1000)])
    assert (code, out) == (1, "")
    assert err.endswith(" more than 34 digits, above MAX_LISTED_DIGITS = 400000 in all\n"), err


def test_longest_chain_prints_less_than_the_largest_leaf_list():
    # each part of a chain leaf prints on an indented line of 13 bytes at
    # m = 1: the longest chain, n = 554, prints 2.05 MB, under the 2.09 MB of
    # the largest leaf list (n = 26 at the largest r whose dimensions print
    # 34 digits); n = 893, allowed by the former digit count, printed 5.27 MB
    largest = str((10**34 - 1) // 52)
    leaves = len(run(["leaves", "26", largest])[1].encode())
    code, out, _ = run(["leaves", "554", "1", "--lambda", "1"])
    assert code == 0 and len(json.loads(out)["chain"]["entries"]) == 554
    assert len(out.encode()) < leaves, (len(out.encode()), leaves)
    for n in ("555", "893"):
        code, out, err = run(["leaves", n, "1", "--lambda", "1"])
        assert (code, out) == (1, "")
        assert err.endswith(" each, above MAX_CHAIN_BYTES = 2000000\n"), err


def test_model_block_reports_above_the_named_limit_exit_one(monkeypatch):
    # N = 223 prints 2,215,935 B with --verify and 455,153 B without, under
    # the 2,218,560 B of walls 304 20, the largest listed arrangement; N = 224
    # and N = 99999999999, once killed for memory, exit 1 before any algebra
    from gieseker import quiver_engine

    walls = len(run(["walls", "304", "20"])[1].encode())
    for flags in ([], ["--verify"]):
        code, out, _ = run(["model-block", "223", *flags])
        assert code == 0 and json.loads(out)["n_vertices"] == 223
        assert len(out.encode()) < walls, (flags, len(out.encode()), walls)
    def no_algebra(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(quiver_engine.ModelAlgebra, "__init__", no_algebra)
    for flags in ([], ["--verify"]):
        for n in ("224", "99999999999"):
            code, out, err = run(["model-block", n, *flags])
            assert (code, out) == (1, "")
            assert err == f"error: a report on N = {n} vertices is above MAX_REPORTED_VERTICES = 223\n"


def test_cartan_lists_above_the_named_limit_exit_one():
    # diagnose 200 3 printed 9.7 MB and diagnose 1 200 480 KB; the limit is
    # checked before any composition is enumerated and cached
    cached = partitions._compositions.cache_info().currsize
    for n, r in (("200", "3"), ("2", "2000"), ("1", "200"), ("100", "10"),
                 ("99999999999", "99999999999"), ("2", str(10**20))):
        code, out, err = run(["diagnose", n, r, "1/2", "--cartan"])
        assert (code, out) == (1, "")
        assert err == (f"error: the Cartan summands at n = {n}, r = {r} would print "
                       "more than MAX_CARTAN_BYTES = 2000000 bytes\n"), err
    assert partitions._compositions.cache_info().currsize == cached


def test_largest_cartan_list_prints_less_than_the_largest_wall_list():
    # the largest n accepted at each r, the last with a parameter of 4,000
    # digits, which every factor prints: each prints 0.1-2.0 MB, under the
    # 2,218,560 B of walls 304 20, and n + 1 is refused
    walls = len(run(["walls", "304", "20"])[1].encode())
    long = "-1" + "0" * 3998 + "1/3"
    for n, r, lam in ((4114, 2, "1/2"), (72, 3, "1/2"), (21, 4, "1/2"), (4, 10, "1/2"),
                      (1, 90, "1/2"), (234, 2, long)):
        code, out, _ = run(["diagnose", str(n), str(r), lam, "--cartan"])
        summands = json.loads(out)["cartan_summands"]
        assert code == 0 and len(summands) == len(partitions.enumerate_compositions(n, r))
        assert len(out.encode()) < walls, (n, r, len(out.encode()), walls)
        code, out, err = run(["diagnose", str(n + 1), str(r), lam, "--cartan"])
        assert (code, out) == (1, "") and err.endswith(" MAX_CARTAN_BYTES = 2000000 bytes\n")


def _spread(n, r):
    # a dominant cocharacter of rank r, generic at n
    return ",".join(str((r - i) * 2 * (n + 1)) for i in range(r)) + ";1"


def test_hooks_blocks_above_the_named_limit_exit_one(monkeypatch):
    # block 2000 1 1/2000 printed 4,021,290 B, and block 2 1000 1/2 4.0 MB:
    # the limit is checked before any hook is built
    def no_hooks(*args):
        raise AssertionError("a hook was built")

    monkeypatch.setattr(category_o, "hooks", no_hooks)
    for n, r, nu, bound in ((2000, 1, "0;1", 4022000), (2, 1000, _spread(2, 1000), 4016000)):
        code, out, err = run(["block", str(n), str(r), f"1/{n}", "--nu", nu])
        assert (code, out) == (1, "")
        assert err == (f"error: the {r * n} hooks at n = {n}, r = {r} would print up to "
                       f"{bound} bytes, above MAX_HOOKS_BYTES = 2000000\n"), err


def test_largest_hooks_block_prints_less_than_the_largest_wall_list():
    # the largest n accepted at each r prints 1.85-2.00 MB, under the
    # 2,218,560 B of walls 304 20, and n + 1 is refused
    walls = len(run(["walls", "304", "20"])[1].encode())
    for n, r in ((1408, 1), (993, 2), (432, 10), (10, 300)):
        code, out, _ = run(["block", str(n), str(r), f"1/{n}", "--nu", _spread(n, r)])
        assert code == 0 and len(json.loads(out)["labels"]) == r * n
        assert len(out.encode()) < walls, (n, r, len(out.encode()), walls)
        code, out, err = run(["block", str(n + 1), str(r), f"1/{n + 1}", "--nu", _spread(n + 1, r)])
        assert (code, out) == (1, "") and err.endswith(" above MAX_HOOKS_BYTES = 2000000\n")


def test_largest_pinned_wall_list_is_printed_without_its_walls():
    # 115,331 labels: the list of strings and the encoder's chunks, written
    # to the sink as they come; a list of walls or the whole text held as one
    # string would pass 12 MB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["walls", "304", "20"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 12 * 2**20, peak


def test_negative_fraction_positional():
    # "-1/2" must parse as a value, not be eaten as a flag
    payload = run_json(["diagnose", "2", "1", "-1/2"])
    assert payload["lambda"] == "-1/2"
    assert payload["finite_global_dim"] is False


def test_negative_cocharacter_positional():
    payload = run_json(["generic", "2", "-3,0;1"])
    assert payload["generic"] is True


# ------------------------------------------------------------ documented outputs


def test_diagnose_fields():
    payload = run_json(["diagnose", "2", "1", "-1/2"])
    assert payload["n"] == 2 and payload["r"] == 1
    assert payload["denominator"] == 2
    assert payload["finite_global_dim"] is False
    assert payload["has_findim_rep"] is False
    assert payload["ideal_count"] == "simple"
    assert "hypothesis" in payload


def test_diagnose_irrational():
    payload = run_json(["diagnose", "3", "2", "irrational"])
    assert payload["denominator"] == "infinite"
    assert payload["finite_global_dim"] is True


def test_poincare_output():
    payload = run_json(["poincare", "2", "2"])
    assert payload["polynomial"] == "1 + t + 2t^2 + t^3"
    assert payload["coefficients"] == [1, 1, 2, 1]


def test_poincare_computes_the_polynomial_once(monkeypatch):
    # the top-degree check reads the printed coefficients; the report used
    # to compute the whole polynomial a second time for it
    calls = []
    poly = category_o.poincare_polynomial

    def counted(n, r):
        calls.append((n, r))
        return poly(n, r)

    monkeypatch.setattr(category_o, "poincare_polynomial", counted)
    payload = run_json(["poincare", "16", "3"])
    assert calls == [(16, 3)] and payload["top_cohomology_check"] is True
    assert payload["top_degree"] == 47 and category_o.top_cohomology_check(16, 3)


def test_supports_output():
    payload = run_json(["supports", "4", "1", "1/2", "--sigma", "4"])
    assert payload["support_dim"] == 2
    assert payload["annihilator_index"] == 2
    assert payload["sigma"] == "4"


def test_walls_output():
    payload = run_json(["walls", "2", "2"])
    assert payload["count"] == 4
    assert "k=0" in payload["walls"]


def test_block_output():
    payload = run_json(["block", "2", "1", "1/2", "--nu", "5;1"])
    assert payload["kind"] == "hooks_block"
    assert payload["labels"] == ["1,1", "2"]
    assert payload["finite_dim_label"] == "2"


def test_block_regime_exit():
    code, _, err = run(["block", "2", "1", "2", "--nu", "5;1"])
    assert code == 2 and "out of regime" in err


def test_block_non_generic_cocharacter_messages():
    # the zero cocharacter lies on no named wall; say what is_generic says
    code, _, err = run(["block", "2", "1", "1/2", "--nu", "0;0"])
    assert code == 2
    assert err == "out of regime: the zero cocharacter is never generic\n"
    code, _, err = run(["block", "3", "2", "1/3", "--nu", "1,1;1"])
    assert code == 2
    assert err == "out of regime: cocharacter is not generic (lies on wall d1-d2=0)\n"


def test_leaves_output():
    payload = run_json(["leaves", "2", "2"])
    assert len(payload["leaves"]) == 4
    assert payload["leaves"][0] == {"collection": [], "dimension": 6}
    assert payload["dimension_convention"] == "reduced"


def test_leaves_checks_n_and_r_below_r_2_too():
    # r < 2 lists no leaves, yet a bad n or r exits 1 as with the chain and
    # as every other (n, r) subcommand does; r = 1 keeps its note
    for argv in (["0", "1"], ["-2", "1"], ["3", "0"], ["3", "-1"], ["3", "0", "--lambda", "1/2"]):
        assert run(["leaves", *argv]) == (1, "", "error: need n >= 1 and r >= 1\n"), argv
    payload = run_json(["leaves", "3", "1"])
    assert payload["leaves"] is None and payload["note"] == "leaf classification requires r >= 2"


def test_ideal_lattice_count():
    payload = run_json(["ideal-lattice", "3", "--op", "count"])
    assert payload["result"] == 20


def test_ideal_lattice_ops():
    payload = run_json(
        ["ideal-lattice", "2", "--op", "intersect", "--a", "[[1]]", "--b", "[[2]]"]
    )
    assert payload["result"] == [[1], [2]]
    payload = run_json(
        ["ideal-lattice", "2", "--op", "sum", "--a", "[[1]]", "--b", "[[2]]"]
    )
    assert payload["result"] == [[1, 2]]
    payload = run_json(
        ["ideal-lattice", "2", "--op", "sum-form", "--a", "[[1],[2]]"]
    )
    assert payload["result"] == [[1, 2]]
    payload = run_json(
        ["ideal-lattice", "2", "--op", "contains", "--a", "[[]]", "--b", "[[1]]"]
    )
    assert payload["result"] is True


def test_ideal_lattice_sum_form_of_forty_singletons():
    # the transversals are built member by member, not by a scan of 2^40 subsets
    singletons = json.dumps([[i] for i in range(1, 41)])
    payload = run_json(["ideal-lattice", "40", "--op", "sum-form", "--a", singletons])
    assert payload["result"] == [list(range(1, 41))]
    assert payload["form"] == "sum"


def test_ideal_lattice_every_op_writes_result_and_form():
    base = ["ideal-lattice", "3", "--a", "[[1, 2], [3]]"]
    for op, extra, result, form in (
        ("normalize", ["--form", "sum"], [[3], [1, 2]], "sum"),
        ("intersect", ["--b", "[[1]]"], [[1], [3]], "intersection"),
        ("product", ["--b", "[[1]]"], [[1], [3]], "intersection"),
        ("sum", ["--b", "[[1]]"], [[1, 2], [1, 3]], "intersection"),
        ("sum-form", [], [[1, 3], [2, 3]], "sum"),
        ("from-sum-form", [], [[1, 3], [2, 3]], "intersection"),
    ):
        payload = run_json([*base, "--op", op, *extra])
        assert (payload["result"], payload["form"]) == (result, form), op
    payload = run_json([*base, "--op", "contains", "--b", "[[1, 2, 3]]"])
    assert payload["result"] is True and "form" not in payload


def test_ideal_lattice_missing_operand_errors_in_order():
    code, _, err = run(["ideal-lattice", "2", "--op", "sum"])
    assert code == 1 and "--a is required" in err
    code, _, err = run(["ideal-lattice", "2", "--op", "sum", "--a", "[[1]]"])
    assert code == 1 and "--b is required" in err
    # --a is parsed before --b is asked for
    code, _, err = run(["ideal-lattice", "2", "--op", "sum", "--a", "[[3]]"])
    assert code == 1 and "1..2" in err


def test_model_block_summary():
    payload = run_json(["model-block", "2"])
    assert payload["algebra_dim"] == 5
    payload = run_json(["model-block", "3", "--verify"])
    assert payload["all_pass"] is True


# ------------------------------------------------------------ determinism


def test_json_byte_stable():
    for argv in (
        ["diagnose", "5", "2", "-7/3", "--cartan"],
        ["walls", "3", "2"],
        ["poincare", "3", "2"],
        ["model-block", "3", "--verify"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0


def test_json_keys_sorted():
    _, out, _ = run(["diagnose", "2", "1", "1/2"])
    payload = json.loads(out)
    assert list(payload) == sorted(payload)


def test_every_payload_names_its_hypothesis():
    # and main alone writes it: a subcommand's handler returns its report and
    # writes nothing, and main prints that report as JSON
    for argv in (
        ["diagnose", "2", "1", "1/2"],
        ["walls", "2", "2"],
        ["generic", "2", "3,0;1"],
        ["poincare", "2", "2"],
        ["supports", "4", "1", "1/2", "--sigma", "4"],
        ["block", "2", "1", "1/2", "--nu", "5;1"],
        ["ideal-lattice", "2", "--op", "count"],
        ["leaves", "2", "2"],
        ["model-block", "2"],
    ):
        args = _build_parser().parse_args(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            payload = args.func(args)
        assert (out.getvalue(), err.getvalue()) == ("", ""), argv
        assert isinstance(payload, dict) and payload.get("hypothesis"), argv
        assert run(argv) == (0, json.dumps(payload, sort_keys=True, indent=2) + "\n", ""), argv


# ------------------------------------------------------------ pinned bytes

CLI_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "cli_pool.json"


def test_pinned_cli_pool_replays_in_one_process():
    # every pinned invocation (exit code and the sha256 of both streams, taken
    # once in a process per invocation) replayed in one process in a seeded
    # order, so later reports run with what earlier ones left in the process
    entries = json.loads(CLI_POOL.read_text())["entries"]
    random.Random(216).shuffle(entries)
    for e in entries:
        code, *streams = run(e["argv"])
        digests = [hashlib.sha256(x.encode()).hexdigest() for x in streams]
        assert [code, *digests] == [e["exit"], e["stdout_sha256"], e["stderr_sha256"]], e["argv"]
    assert len(entries) == 216
