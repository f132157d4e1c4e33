"""The verification harness itself: determinism and checks that `-O` keeps."""

import functools
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from prymlab import prym, run_suite, verify
from prymlab.verify import SUITE_NAMES, check_group_closure, sample_etas_for_k
from prymlab import standard_curve

SEARCH_CLAIMS = (
    "search-matches-closed",
    "zero-iff-k1",
    "bound-attained",
    "dimension-pairs",
    "witness-base-disjoint",
    "iota",
)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus", 2)
    with pytest.raises(ValueError):
        run_suite("scroll", 1)


def test_suite_names_all_runnable_small():
    for name in SUITE_NAMES:
        if name == "all":
            continue
        suite = run_suite(name, 2)
        assert suite.failed == 0, [c for c in suite.checks if c.status == "fail"]
        assert suite.genus_max == 2


@pytest.mark.parametrize("name, genus_max", [("two-torsion", 2), ("prym-clifford", 3)])
def test_two_runs_give_identical_reports(name, genus_max):
    first = run_suite(name, genus_max)
    second = run_suite(name, genus_max)
    assert first.checks == second.checks


def test_each_class_is_searched_once_per_run(monkeypatch):
    # both bindings are counted: a claim that searched through prym rather
    # than through verify's table would show up as a second call
    calls = []
    real = prym.search_report

    def counted(curve, eta, *args, **kwargs):
        calls.append((curve.genus, eta))
        return real(curve, eta, *args, **kwargs)

    monkeypatch.setattr(verify, "search_report", counted)
    monkeypatch.setattr(prym, "search_report", counted)
    suite = run_suite("prym-clifford", 3)
    assert suite.failed == 0
    # one search per (genus, class): 15 classes at genus 2, 63 at genus 3
    assert len(calls) == len(set(calls)) == 15 + 63


def test_each_class_is_probed_once_per_run(monkeypatch):
    # zero-iff-k1 and base-points-k1 read the same k = 1 classes, k2-shape
    # and base-points-k1 share sampled k = 2 classes: one probe each
    calls = []
    real = prym.geometry_probes

    def counted(curve, eta):
        calls.append((curve.genus, eta))
        return real(curve, eta)

    monkeypatch.setattr(verify, "geometry_probes", counted)
    monkeypatch.setattr(prym, "geometry_probes", counted)
    suite = run_suite("all", 4)
    assert suite.failed == 0
    assert len(calls) == len(set(calls)) == 94


def test_iota_searches_no_class_beyond_the_search_claim(monkeypatch):
    # genus 5 samples three classes per k; iota searches the middle one,
    # which search-matches-closed has already put in the run's cache
    calls = []
    real = prym.search_report

    def counted(curve, eta, *args, **kwargs):
        calls.append(eta)
        return real(curve, eta, *args, **kwargs)

    monkeypatch.setattr(verify, "search_report", counted)
    monkeypatch.setattr(prym, "search_report", counted)
    search = functools.cache(counted)
    verify.check_search_matches_closed_form(5, search)
    searched = len(calls)
    verify.check_iota(5, search)
    assert len(calls) == searched


# park_parameters replaced by a wrapper that still raises ValueError where the
# real function does and otherwise reports nu = 99
PLANTED_PARK_UNDER_O = """
import json, sys
from prymlab import verify
real = verify.park_parameters
def planted(genus, k):
    _, p, regularity = real(genus, k)
    return 99, p, regularity
verify.park_parameters = planted
suite = verify.run_suite("scroll", 2)
print(json.dumps({"optimize": sys.flags.optimize, "checks": [[c.claim, c.status, c.detail] for c in suite.checks]}))
"""


def test_planted_park_table_fails_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_PARK_UNDER_O],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimize"] == 1
    assert report["checks"] == [["park-table", "fail", "k=3: nu 99"]]


# a clean run, then class_h0 planted one too high: every claim that reads
# the search reports must fail again, so no report may outlive its run
PLANTED_H0_UNDER_O = """
import json, sys
from prymlab import prym, verify
clean = verify.run_suite("prym-clifford", 3)
real = prym.class_h0
prym.class_h0 = lambda *args: real(*args) + 1
planted = verify.run_suite("prym-clifford", 3)
print(json.dumps({
    "optimize": sys.flags.optimize,
    "clean": [[c.claim, c.status, c.detail] for c in clean.checks],
    "planted": {c.claim: c.status for c in planted.checks},
}))
"""


def test_planted_wrong_h0_fails_every_search_claim_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_H0_UNDER_O],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimize"] == 1
    assert all(status == "pass" for _, status, _ in report["clean"]), report["clean"]
    for g in (2, 3):
        for claim in SEARCH_CLAIMS:
            assert report["planted"][f"{claim}-g{g}"] == "fail", (claim, g)


def test_eta_sampling_is_deterministic_and_spread():
    c = standard_curve(5)
    a = sample_etas_for_k(c, 3, 3)
    b = sample_etas_for_k(c, 3, 3)
    assert a == b
    assert len(a) == 3
    assert len({e.subset for e in a}) == 3
    assert all(e.k == 3 for e in a)


def test_unrank_pair_lists_the_pairs_of_combinations():
    for n in range(2, 61):
        pairs = list(itertools.combinations(range(n), 2))
        assert [verify._unrank_pair(n, index) for index in range(len(pairs))] == pairs, n


def test_group_closure_samples_pairs_in_bounded_memory():
    # genus 7 has 16,383 classes: the list of all their pairs alone would
    # take about 8.8 GB, so the sampled pairs must be drawn without it
    tracemalloc.start()
    try:
        detail = check_group_closure(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert detail == "16383 involutions, 150 composition pairs"
    assert peak < 100 * 2**20
