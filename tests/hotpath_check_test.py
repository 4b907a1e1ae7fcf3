#!/usr/bin/env python3
"""Self-test for scripts/hotpath_check.py.

Each fixture TU in tests/hotpath_fixtures/ is (a) compiled with the
project's C++ standard to prove it is real code, and (b) fed through the
analyzer, asserting the exact findings/suppressions it must produce:

  direct_alloc.cc         seeded allocating hot function -> reported
  indirect_alloc.cc       alloc behind a helper          -> reported, with path
  virtual_propagation.cc  alloc in an un-annotated override of an
                          annotated virtual               -> reported
  allow_suppression.cc    alloc with kge-hotpath: allow  -> suppressed
  clean.cc                clean root + cold allocator    -> silent
  nondet.cc               rand() + unordered_map         -> reported
  throwing.cc             throw path                     -> reported
  quantize_score.cc       cold quantize + hot int8 score -> silent
  pipeline_stage.cc       timed trampoline + hot stage   -> silent
  serve_batch.cc          cold assembler + hot batch
                          score/top-k reduce             -> silent
  pruned_scan.cc          cold tile-bound preparer + hot
                          strided multi-query pruned walk -> silent

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "scripts", "hotpath_check.py")
FIXTURES = os.path.join(ROOT, "tests", "hotpath_fixtures")

_failures = []


def check(cond, label):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {label}")
    if not cond:
        _failures.append(label)


def compiler():
    for cxx in (os.environ.get("CXX"), "c++", "g++", "clang++"):
        if cxx and shutil.which(cxx):
            return cxx
    return None


def compile_fixture(cxx, path):
    proc = subprocess.run(
        [cxx, "-std=c++20", "-fsyntax-only", "-I", os.path.join(ROOT, "src"),
         path],
        capture_output=True, text=True)
    check(proc.returncode == 0,
          f"{os.path.basename(path)} compiles ({cxx})")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)


def run_checker(paths, tmpdir, tag):
    report = os.path.join(tmpdir, tag + ".json")
    proc = subprocess.run(
        [sys.executable, CHECKER, *paths, "--report", report],
        capture_output=True, text=True)
    if proc.returncode == 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"analyzer infrastructure error on {tag}")
    with open(report, encoding="utf-8") as f:
        return proc.returncode, json.load(f)


def main():
    cxx = compiler()
    fixtures = sorted(os.listdir(FIXTURES))
    check(len(fixtures) == 11, "all 11 fixtures present")

    if cxx is None:
        print("  [skip] no C++ compiler found; skipping syntax checks")
    else:
        for name in fixtures:
            compile_fixture(cxx, os.path.join(FIXTURES, name))

    tmpdir = tempfile.mkdtemp(prefix="hotpath_check_test.")
    try:
        fx = lambda name: os.path.join(FIXTURES, name)

        print("direct_alloc: a seeded allocating hot function is caught")
        rc, rep = run_checker([fx("direct_alloc.cc")], tmpdir, "direct")
        check(rc == 1, "exit code 1")
        check(len(rep["findings"]) == 1, "exactly one finding")
        f = rep["findings"][0]
        check(f["kind"] == "alloc", "kind is alloc")
        check(f["function"].endswith("HotDirectAlloc"),
              "reported in HotDirectAlloc")

        print("indirect_alloc: alloc behind a helper, with a witness path")
        rc, rep = run_checker([fx("indirect_alloc.cc")], tmpdir, "indirect")
        check(rc == 1, "exit code 1")
        check(len(rep["findings"]) == 1, "exactly one finding")
        f = rep["findings"][0]
        check(f["function"].endswith("AppendScore"),
              "reported in the helper")
        check(f["path"] == ["fixture::HotIndirect", "fixture::AppendScore"],
              "path is root -> helper")

        print("virtual_propagation: un-annotated override inherits the root")
        rc, rep = run_checker([fx("virtual_propagation.cc")], tmpdir,
                              "virtual")
        check(rc == 1, "exit code 1")
        check(any(f["kind"] == "alloc" and
                  f["function"] == "fixture::AllocatingScorer::ScoreBatch"
                  for f in rep["findings"]),
              "override's alloc reported")
        check("fixture::AllocatingScorer::ScoreBatch" in rep["roots"],
              "override became a root by propagation")

        print("allow_suppression: escape hatch suppresses, with a reason")
        rc, rep = run_checker([fx("allow_suppression.cc")], tmpdir, "allow")
        check(rc == 0, "exit code 0")
        check(len(rep["findings"]) == 0, "no findings")
        check(len(rep["suppressions"]) == 1, "one suppression")
        check(rep["suppressions"][0]["allow"] == "high-water growth",
              "suppression reason recorded")

        print("clean: clean root passes; cold allocations are not reported")
        rc, rep = run_checker([fx("clean.cc")], tmpdir, "clean")
        check(rc == 0, "exit code 0")
        check(len(rep["findings"]) == 0, "no findings")
        check(len(rep["suppressions"]) == 0, "no suppressions")
        check("fixture::HotClean" in rep["roots"], "root was recognized")

        print("nondet: clocks/rand/unordered iteration are flagged")
        rc, rep = run_checker([fx("nondet.cc")], tmpdir, "nondet")
        check(rc == 1, "exit code 1")
        kinds = {f["kind"] for f in rep["findings"]}
        check(kinds == {"nondet"}, "all findings are nondet")
        details = " ".join(f["detail"] for f in rep["findings"])
        check("rand" in details, "rand() flagged")
        check("unordered" in details, "unordered container flagged")

        print("throwing: throw expressions are flagged")
        rc, rep = run_checker([fx("throwing.cc")], tmpdir, "throw")
        check(rc == 1, "exit code 1")
        check(any(f["kind"] == "throw" for f in rep["findings"]),
              "throw finding present")

        print("quantize_score: cold quantize allocs OK, hot int8 root clean")
        rc, rep = run_checker([fx("quantize_score.cc")], tmpdir, "quantize")
        check(rc == 0, "exit code 0")
        check(len(rep["findings"]) == 0, "no findings")
        check("fixture::HotQuantizedScore" in rep["roots"],
              "hot scoring root was recognized")

        print("pipeline_stage: clock in trampoline OK, hot stage body clean")
        rc, rep = run_checker([fx("pipeline_stage.cc")], tmpdir, "pipeline")
        check(rc == 0, "exit code 0")
        check(len(rep["findings"]) == 0, "no findings")
        check("fixture::PipelineStageBody" in rep["roots"],
              "stage root was recognized")
        check("fixture::PipelineStageTrampoline" not in rep["roots"],
              "timed trampoline stays outside the hot set")

        print("serve_batch: alloc in assembler OK, hot batch root clean")
        rc, rep = run_checker([fx("serve_batch.cc")], tmpdir, "serve")
        check(rc == 0, "exit code 0")
        check(len(rep["findings"]) == 0, "no findings")
        check("fixture::ServeBatchScoreAndReduce" in rep["roots"],
              "batch score/reduce root was recognized")
        check("fixture::AssembleAndDispatch" not in rep["roots"],
              "allocating assembler stays outside the hot set")

        print("pruned_scan: lane preparer allocs OK, strided walk root clean")
        rc, rep = run_checker([fx("pruned_scan.cc")], tmpdir, "pruned")
        check(rc == 0, "exit code 0")
        check(len(rep["findings"]) == 0, "no findings")
        check("fixture::StridedTopKWalkRoot" in rep["roots"],
              "strided walk root was recognized")
        check("fixture::PrepareLaneWalk" not in rep["roots"],
              "allocating lane preparer stays outside the hot set")

        print("multi-file: helper alloc found across TU boundary")
        rc, rep = run_checker([fx("indirect_alloc.cc"), fx("clean.cc")],
                              tmpdir, "multi")
        check(rc == 1, "exit code 1")
        check(len(rep["findings"]) == 1, "still exactly one finding")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if _failures:
        print(f"\nhotpath_check_test: {len(_failures)} FAILURE(S)")
        for label in _failures:
            print(f"  - {label}")
        return 1
    print("\nhotpath_check_test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
