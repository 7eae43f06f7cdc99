"""The CLI reports on the benchmark's seeded corpus stay byte-identical.

``bench/cli_corpus.py`` generates one document corpus per seed covering
all eleven commands.  This test builds the seed-7 corpus in a temporary
directory, runs every entry once in-process through ``ordalg.cli.main``
with the checkout root as the working directory (the entries name their
documents relative to it), and checks two things: each verdict agrees
with the decision the benchmark takes from the library directly, and the
reports hash to the digest pinned below.  A change that moves any byte of
any report fails here.
"""

import hashlib
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ENTRIES = 19
# sha256 of the 19 stdout reports at seed 7, concatenated in corpus order:
# the same bytes as the files ``bench/run.py --workload cli-corpus --seed 7
# --dump-reports DIR`` writes, read in file-name order.
REPORTS_SHA256 = "811bec0e2f847a59c21ac233bf4298ee87598344651d02c6cba5f7c579496045"


def test_cli_corpus_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    corpus = importlib.import_module("cli_corpus").CliCorpus(str(ROOT), str(tmp_path / "corpus"))
    importlib.import_module("ordalg.cli")
    corpus.setup(importlib.import_module("ordalg"), SEED)
    try:
        assert corpus.capture_references() == []
    finally:
        corpus.close()
    assert len(corpus.reference) == ENTRIES
    digest = hashlib.sha256(b"".join(stdout for _, stdout in corpus.reference)).hexdigest()
    assert digest == REPORTS_SHA256
