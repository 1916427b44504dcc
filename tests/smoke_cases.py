"""The packaging smoke cases: one run of the ``selfcite`` program per case,
each with its expected exit code.

Run them from an empty directory against a program given as its command
words, for example the installed console script:

    python path/to/tests/smoke_cases.py selfcite

or ``python path/to/tests/smoke_cases.py python -m selfcite.cli`` with the
package on ``PYTHONPATH``. The synth configs are written into the working
directory first, and every ``--out`` directory is made there. A failed case
prints one line, and the exit status is 1 if any case failed.

The cases that must fail: ``validate`` refuses a paper that cites itself, a
year past the int-string digit limit and a line holding a no-break space
(not JSON whitespace), with exit code 2, and an empty ``--authors`` path,
with exit code 1; ``synth`` refuses a config field of the wrong type, a
Poisson rate above 700 and a negative seed, with exit code 2. None of them
may leave its ``--out`` directory behind. Every other case must pass, among
them ``simil`` on an abstract holding a run of 1,200 y letters and
``report`` into a fresh directory, with no ``classify`` before it. Each
passing run that reads a corpus must record the papers file's digest as
:mod:`hashlib` computes it, so the CI matrix checks the package's builtin
SHA-256 against it on every Python version.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"

#: Config files the synth cases read, by file name.
CONFIGS = {
    "bad-synth.json": {"n_authors": "20"},
    "fast-rate-synth.json": {"n_authors": 1, "refs_per_paper_end": 1000},
    "negative-seed-synth.json": {"n_authors": 5, "seed": -1},
    "synth.json": {"n_authors": 20, "seed": 1},
}

_FIX1 = ["--papers", "{data}/fix1_papers.jsonl", "--authors", "{data}/fix1_authors.jsonl"]

#: (arguments, expected exit code, whether --out may exist afterwards);
#: ``{data}`` stands for the testdata directory.
CASES = [
    (["--version"], 0, True),
    (["validate", "--papers", "{data}/self_citing_papers.jsonl", "--out", "smoke-bad"], 2, False),
    (["validate", "--papers", "{data}/oversized_integer_papers.jsonl", "--out", "smoke-bad"],
     2, False),
    (["validate", "--papers", "{data}/nbsp_line_papers.jsonl", "--out", "smoke-bad"], 2, False),
    (["validate", "--papers", "{data}/fix1_papers.jsonl", "--authors", "", "--out", "smoke-bad"],
     1, False),
    (["synth", "--config", "bad-synth.json", "--out", "smoke-bad-synth"], 2, False),
    (["synth", "--config", "fast-rate-synth.json", "--out", "smoke-bad-synth"], 2, False),
    (["synth", "--config", "negative-seed-synth.json", "--out", "smoke-bad-synth"], 2, False),
    (["validate", *_FIX1, "--out", "smoke"], 0, True),
    (["classify", *_FIX1, "--out", "smoke"], 0, True),
    (["metrics", *_FIX1, "--out", "smoke", "--min-pubs", "0"], 0, True),
    (["hindex", *_FIX1, "--out", "smoke", "--min-pubs", "0"], 0, True),
    (["simil", *_FIX1, "--out", "smoke", "--min-pubs", "0"], 0, True),
    (["simil", "--papers", "{data}/long_y_run_papers.jsonl", "--out", "smoke-long-y",
      "--min-pubs", "0"], 0, True),
    (["report", *_FIX1, "--out", "smoke-report", "--min-pubs", "0"], 0, True),
    (["synth", "--config", "synth.json", "--out", "smoke-synth"], 0, True),
]


def run_cases(command: list[str], cwd: Path, data: Path = TESTDATA) -> list[str]:
    """Run every case with ``command`` in ``cwd``; one line per failed case.

    Besides its exit code and its ``--out`` directory, a passing run that
    reads a corpus must write a manifest whose first stage is ``load`` and
    whose digest of the papers file is :func:`hashlib.sha256`'s."""
    cwd = Path(cwd)
    for name, config in CONFIGS.items():
        (cwd / name).write_text(json.dumps(config), encoding="utf-8")
    failures = []
    for args, expected, out_may_exist in CASES:
        argv = [arg.format(data=data) for arg in args]
        shown = " ".join(argv)
        code = subprocess.run(command + argv, cwd=cwd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        out = cwd / argv[argv.index("--out") + 1] if "--out" in argv else None
        if code != expected:
            failures.append(f"{shown}: exit {code}, expected {expected}")
        elif out is not None and not out_may_exist and out.exists():
            failures.append(f"{shown}: left {out.name} behind")
        elif code == 0 and "--papers" in argv:
            manifest = json.loads((out / "run_manifest.json").read_text())
            stages = manifest["stages"]
            papers = argv[argv.index("--papers") + 1]
            expected_digest = hashlib.sha256((cwd / papers).read_bytes()).hexdigest()
            if stages[0]["name"] != "load":
                failures.append(f"{shown}: first manifest stage is {stages[0]['name']}")
            elif manifest["inputs"].get(str(Path(papers))) != expected_digest:
                failures.append(f"{shown}: manifest digest of {papers} is not its SHA-256")
    return failures


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python smoke_cases.py PROGRAM [ARGS...]")
    failed = run_cases(sys.argv[1:], Path.cwd())
    for line in failed:
        print(f"smoke case failed: {line}", file=sys.stderr)
    sys.exit(1 if failed else 0)
