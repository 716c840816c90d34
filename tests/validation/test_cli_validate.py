"""`repro-experiments validate` CLI surface."""

from __future__ import annotations

import pytest

from repro.cli import _seed_spec, _seeds, build_parser, main

from .conftest import CORPUS_DIR


def test_seed_spec_accepts_plain_int():
    assert _seed_spec("7") == 7


def test_seed_spec_accepts_inclusive_range():
    assert _seeds(_seed_spec("3..6")) == [3, 4, 5, 6]


def test_seed_spec_rejects_garbage():
    for bad in ("x", "3..", "5..2", "1..2..3"):
        with pytest.raises(Exception):
            _seed_spec(bad)


def test_seeds_normalises_plain_int():
    assert _seeds(7) == [7]


def test_parser_default_seed_still_int():
    # argparse does not pass non-string defaults through `type`; the
    # other experiments rely on args.seed being a plain int.
    args = build_parser().parse_args(["stats"])
    assert args.seed == 7


def test_validate_seed_passes(tmp_path, capsys):
    rc = main(["validate", "--seed", "0", "--no-shrink", "-q",
               "--artifact-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 0: pass" in out


def test_validate_corpus_mode(capsys):
    rc = main(["validate", "--corpus", str(CORPUS_DIR), "-q"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count(": pass") >= 5


def test_validate_replay_mode(capsys):
    artifact = sorted(CORPUS_DIR.glob("*.json"))[0]
    rc = main(["validate", "--replay", str(artifact), "-q"])
    assert rc == 0
    assert f"replay {artifact}" in capsys.readouterr().out


def test_validate_missing_corpus_dir_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["validate", "--corpus", str(tmp_path / "nope"), "-q"])


def test_all_does_not_include_validate():
    import repro.cli as cli

    assert "validate" in cli.EXPERIMENTS  # registered...
    # ...but 'all' runs the paper artefacts only; guarded here so a
    # refactor of main() keeps the exclusion.
    assert "validate" not in cli.PAPER_ARTEFACTS
    assert set(cli.PAPER_ARTEFACTS) <= set(cli.EXPERIMENTS)
