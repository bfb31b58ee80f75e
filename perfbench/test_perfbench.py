"""Tests of the benchmark itself: the oracle against crucialis on exhaustive
small inputs, the brute-force reference, failure accounting, tracing, and the
metric lists in BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import types

import pytest

import oracle
import reference
import run
from layers import PER_LAYER, Tracer
from workloads import (
    END_TO_END,
    MIN_N2K4,
    ROOT,
    Context,
    Group,
    Op,
    cell_op,
    load_reference,
)

C = run.load_program()


def all_words(n: int, max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


@pytest.mark.parametrize("n,k,max_len", [(2, 2, 10), (3, 2, 7), (2, 3, 10), (3, 3, 7), (2, 4, 9)])
def test_oracle_agrees_with_crucialis_exhaustively(n, k, max_len):
    for letters in all_words(n, max_len):
        w = C.words.Word(letters, n)
        assert oracle.power_free(letters, n, k) == C.powers.is_abelian_power_free(w, k), letters
        assert oracle.is_crucial(letters, n, k) == C.cruciality.is_crucial(w, k), letters
        got = C.powers.suffix_abelian_power(w, k)
        assert oracle.suffix_block(oracle.counts(letters, n), len(letters), k) == got, letters


def test_oracle_on_textbook_cases():
    assert oracle.blocks_equal((1, 2, 2, 1, 2, 1, 1, 2), 0, 4, 2)  # 1221|2112
    assert not oracle.blocks_equal((1, 2, 2, 1, 1, 2), 0, 3, 2)  # 122|112 differ in counts
    assert not oracle.power_free((1, 2, 2, 1, 1, 2), 2, 2)  # but 22 and 21|12 are squares
    assert oracle.is_crucial((2, 1, 2, 1, 1), 2, 3)
    assert oracle.is_canonical((1, 1, 2, 1, 3)) and not oracle.is_canonical((1, 3, 2))
    with pytest.raises(ValueError):
        oracle.counts((1, 4), 3)


def test_brute_force_reproduces_committed_reference():
    ref = load_reference()
    assert reference.minimal(2, 4) == ref["minimal"]["n2k4"]
    assert reference.minimal(3, 3) == ref["minimal"]["n3k3"]
    assert reference.enumeration(3, 3, 11) == ref["enumerate"]["n3k3L11"]


def test_wrong_result_counts_as_failed_operation(tmp_path):
    ctx = Context(C, 7, tmp_path)
    good = cell_op(ctx, MIN_N2K4, "min_search_s")
    wrong = dataclasses.replace(good, name="wrong", call=lambda: dataclasses.replace(good.call(), minimal_length=12), verified=[])
    res = run.run_rounds([Group([good, wrong])], seconds=0)
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)
    assert len(res["times"][good.name]) == 1 and not res["times"][wrong.name]


def test_raising_call_is_failed_and_leaves_its_metric_out():
    def boom():
        raise RuntimeError("refused")

    groups = [Group([Op("boom", ("min_search_s",), boom, lambda out: None),
                     Op("fine", ("min_search_s", "certify_s"), lambda: 1, lambda out: None)])]
    res = run.run_rounds(groups, seconds=0)
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, True)
    # a metric missing one of its operations is left out, not under-counted
    values, incomplete = run.end_to_end(groups, res["times"])
    assert incomplete == {"min_search_s"} and set(values) == {"certify_s"}


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace(__name__="m")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "powers")
    tracer.wrap(mod, "outer", "cruciality")
    tracer.active = True
    assert mod.outer() == 2
    tracer.active = False
    assert mod.outer() == 2  # inactive: no spans
    assert [s[0] for s in tracer.spans] == ["cruciality", "powers", "powers"]
    assert [s[4] for s in tracer.spans] == [-1, 0, 0]
    summary = tracer.summary(1)
    (_, _, s0, e0, _), (_, _, s1, e1, _), (_, _, s2, e2, _) = tracer.spans
    assert summary["cruciality.self_s"] == pytest.approx(((e0 - s0) - (e1 - s1) - (e2 - s2)) / 1e9)
    assert summary["powers.calls"] == 2
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    assert bench["command"] == ["python3", "perfbench/run.py"]
