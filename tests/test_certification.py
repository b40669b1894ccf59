"""Guards the committed full-registry certification artifact
(CORRECTNESS_SELF_r5.json, produced by scripts/certify.py at sf0.01): it must
cover every registry query, record zero failures, and stay in sync with the
live registry so a new query can't ship uncertified."""

import json
import os

import pytest

ARTIFACT = os.path.join(os.path.dirname(__file__), "..",
                        "CORRECTNESS_SELF_r5.json")


@pytest.fixture(scope="module")
def artifact():
    if not os.path.exists(ARTIFACT):
        pytest.fail(
            "CORRECTNESS_SELF_r5.json missing — run "
            "`python scripts/certify.py` and commit the output"
        )
    with open(ARTIFACT) as f:
        return json.load(f)


def test_artifact_covers_full_registry(artifact):
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
    import __ray_entry__ as e

    qs = set(e.queries())
    rows = set(artifact) - {"_meta"}
    assert qs == rows, (
        f"registry/artifact drift: only-in-registry={sorted(qs - rows)} "
        f"only-in-artifact={sorted(rows - qs)}"
    )


def test_artifact_zero_failures(artifact):
    meta = artifact["_meta"]
    assert meta["n_fail"] == 0
    failures = {
        k: v for k, v in artifact.items()
        if k != "_meta"
        and (v["hash_match"] is False
             or v["err"] not in (None, "no_oracle"))
    }
    assert not failures, failures


def test_artifact_oracle_coverage_matches(artifact):
    """Every oracle-faced query has a hash-green row; every no-oracle query
    is explicitly marked so (and really has no SQL face). Checked over the
    live registry as well as the artifact rows, so a registered query with no
    row fails here too."""
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
    import __ray_entry__ as e

    oracles = set(e.oracle_sql())
    names = (set(e.queries()) | set(artifact)) - {"_meta"}
    for name in sorted(names):
        assert name in artifact, (
            f"{name} is registered but has no row in CORRECTNESS_SELF_r5.json"
            " — re-run `python scripts/certify.py` and commit the output"
        )
        row = artifact[name]
        if name in oracles:
            assert row["hash_match"] is True, (name, row)
        else:
            assert row["err"] == "no_oracle", (name, row)
            assert row["spark_rows"] is not None and row["spark_rows"] >= 0
