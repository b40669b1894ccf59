"""Full-registry certification sweep: the builder-side equivalent of the
driver's CORRECTNESS_r{N}.json, covering EVERY query in the registry (the
driver artifact caps at 50 rows; this one does not).

Row schema matches the driver file exactly:

    {"rows_match": bool|null, "schema_match": bool|null, "hash_match":
     bool|null, "spark_rows": int, "oracle_rows": int|null, "err": str|null}

``hash_match`` is computed over a canonical form: columns sorted by name,
every cell normalised (floats rounded to 9 significant digits, NaN -> "nan",
everything else str()), rows sorted, then sha256 over the joined text. The
same canonicalisation is applied to the Ray result and the DuckDB result, so
hash equality implies value equality at float tolerance ~1e-9 relative.

Usage:
    python scripts/certify.py [--sf-dir /root/testdata/sf0.01] \
        [--out CORRECTNESS_SELF_r5.json]

The checkout certified is the one this script lives in (its parent's parent
directory), whatever the current directory; the default ``--out`` is written
at that checkout's root.

Owns its Ray session (guarded init), per the repo convention that only
bench.py / CLI entry points / the test fixture initialise Ray.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _canon_df(result):
    """-> (sorted column list, sorted canonical row strings)."""
    import pandas as pd
    import pyarrow as pa
    from ray.data import Dataset

    if isinstance(result, Dataset):
        df = result.to_pandas()
    elif isinstance(result, pa.Table):
        df = result.to_pandas()
    else:
        df = result
    df = df[sorted(df.columns)]
    rows = []
    for tup in df.itertuples(index=False):
        cells = []
        for v in tup:
            if isinstance(v, float):
                if math.isnan(v):
                    cells.append("nan")
                else:
                    cells.append(format(v, ".9g"))
            else:
                cells.append(str(v))
        rows.append("\x1f".join(cells))
    rows.sort()
    return list(df.columns), rows


def _value_hash(rows):
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode("utf-8", "surrogatepass"))
        h.update(b"\x1e")
    return h.hexdigest()


def certify(sf_dir: str) -> dict:
    import duckdb

    sys.path.insert(0, str(REPO_ROOT))
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )

    out = {}
    for name in sorted(qs):
        t0 = time.time()
        row = {
            "rows_match": None, "schema_match": None, "hash_match": None,
            "spark_rows": None, "oracle_rows": None, "err": None,
        }
        try:
            got_cols, got_rows = _canon_df(qs[name](sf_dir))
            row["spark_rows"] = len(got_rows)
            if name in oracles:
                want_cols, want_rows = _canon_df(
                    con.execute(oracles[name]).fetchdf()
                )
                row["oracle_rows"] = len(want_rows)
                row["rows_match"] = len(got_rows) == len(want_rows)
                row["schema_match"] = got_cols == want_cols
                row["hash_match"] = (
                    row["schema_match"]
                    and _value_hash(got_rows) == _value_hash(want_rows)
                )
            else:
                row["err"] = "no_oracle"
        except Exception as exc:  # noqa: BLE001 — recorded, not swallowed
            row["err"] = f"{type(exc).__name__}: {exc}"[:300]
        row["sec"] = round(time.time() - t0, 3)
        out[name] = row
        status = (
            "PASS" if row["hash_match"]
            else ("no_oracle" if row["err"] == "no_oracle" else "FAIL")
        )
        print(f"  {name}: {status} ({row['sec']}s)", flush=True)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--out",
                    default=str(REPO_ROOT / "CORRECTNESS_SELF_r5.json"))
    args = ap.parse_args()

    import ray

    # Ray workers import dedup_ray by name; make this checkout importable to
    # them even when the script is run from another directory.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT), os.environ.get("PYTHONPATH")) if p
    )
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True)
    t0 = time.time()
    rows = certify(args.sf_dir)
    total = {
        "_meta": {
            "sf_dir": args.sf_dir,
            "n_queries": len(rows),
            "n_pass": sum(1 for r in rows.values() if r["hash_match"]),
            "n_no_oracle": sum(
                1 for r in rows.values() if r["err"] == "no_oracle"
            ),
            "n_fail": sum(
                1 for r in rows.values()
                if r["err"] not in (None, "no_oracle")
                or r["hash_match"] is False
            ),
            "wall_sec": round(time.time() - t0, 1),
        },
    }
    total.update(rows)
    with open(args.out, "w") as f:
        json.dump(total, f, indent=1)
    print(json.dumps(total["_meta"]))
    ray.shutdown()
    return 0 if total["_meta"]["n_fail"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
