"""Operator surface vs DuckDB oracles at sf0.001 (the driver repeats this
at sf0.01 via __ray_entry__)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"

SQL_CHECKED = [
    "filter_project",
    "agg_pricing",
    "groupby_count",
    "join_broadcast",
    "join_partitioned",
    "join_native",
    "sort_topk",
    "topk_per_group",
    "distinct",
    "anti_join",
    "semi_join",
    "cumsum",
    "count_distinct",
    "doc_category",
    "window_hourly",
    "window_sliding",
    "quantiles",
    "corr",
    "sessionize",
    "dedup_exact",
    "text_stats",
    "ann_topk",
    "count_lineitem",
    "minmax_agg",
    "json_extract",
    "top_revenue_orders",
    "union_distinct",
    "embedding_stats",
    "asof_join",
    "ngram_jaccard",
    "dedup_clusters",
    "langid",
    "quality",
    "curate",
    # round 4
    "mm_segments",
    "mm_media_dedup",
    "mm_pack",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def _to_pandas(res):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(ray_session, con, name):
    import __ray_entry__ as e

    mine = _norm(_to_pandas(e.queries()[name](SF)))
    oracle = _norm(con.execute(e.oracle_sql()[name]).df())
    assert sorted(mine.columns) == sorted(oracle.columns)
    assert len(mine) == len(oracle)
    pd.testing.assert_frame_equal(
        mine, oracle[mine.columns.tolist()], check_dtype=False,
        check_exact=False, rtol=1e-9, atol=1e-9,
    )


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as e

    qs = e.queries()
    for name in ("dedup_simhash", "dedup_minhash"):
        df = _to_pandas(qs[name](SF))
        # empty results lose their schema through Ray's empty-block drop
        assert len(df) == 0 or len(df.columns) >= 2, name


def test_every_sql_entry_has_query(ray_session):
    import __ray_entry__ as e

    assert set(e.oracle_sql()) <= set(e.queries())


def test_query_surface_is_gate_plus_system():
    """queries() is the correctness gate (CORRECTNESS_r05.json's keys, in
    order) plus the crawl pipelines and the oracle-checked operators the
    export and train-bpe call — nothing else."""
    import json
    import os

    import __ray_entry__ as e

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "CORRECTNESS_r05.json")) as f:
        gate = list(json.load(f))
    names = list(e.queries())
    assert names[:50] == gate
    assert set(names) == set(gate) | {
        "crawl_fetched", "crawl_stats", "crawl_media_features",
        "crawl_page", "mm_pack", "langid", "quality",
        "quality_above_median", "curate", "bpe_audit", "bpe_encode",
        "dedup_incremental_audit", "shuffle_shards",
    }


def test_grouped_agg_partitioned_merge_matches_coalesced(ray_session):
    """The hash-partitioned merge branch (high-cardinality keys) must
    produce exactly the coalesced merge's result."""
    from crawler_service_ray.functions.relational import (
        grouped_agg,
        read_table,
    )

    ds = read_table(SF, "orders", columns=["o_custkey", "o_totalprice"])
    aggs = {"n": ("o_totalprice", "count"),
            "rev": ("o_totalprice", "sum"),
            "mx": ("o_totalprice", "max")}
    a = grouped_agg(ds, ["o_custkey"], aggs).to_pandas()
    b = grouped_agg(ds, ["o_custkey"], aggs, merge_partitions=8).to_pandas()
    a = a.sort_values("o_custkey").reset_index(drop=True)
    b = b.sort_values("o_custkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns.tolist()])


def test_distinct_partitioned_merge_matches_coalesced(ray_session):
    from crawler_service_ray.functions.relational import distinct, read_table

    ds = read_table(SF, "orders", columns=["o_custkey"])
    a = distinct(ds, ["o_custkey"]).to_pandas()
    b = distinct(ds, ["o_custkey"], merge_partitions=8).to_pandas()
    assert sorted(a["o_custkey"]) == sorted(b["o_custkey"])


def test_semi_anti_join_survives_dtype_widening(ray_session):
    """Equal keys must co-locate even when one side's int key column is
    physically float (null-padding/widening) — the partition hash
    canonicalizes numerics."""
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import semi_anti_join

    left = pd.DataFrame({"k": np.arange(20, dtype="int64"),
                         "v": list("abcdefghijklmnopqrst")})
    right = pd.DataFrame({"k": np.arange(0, 20, 2).astype("float64")})
    semi = semi_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                          on="k", anti=False).to_pandas()
    anti = semi_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                          on="k", anti=True).to_pandas()
    assert sorted(semi["k"]) == list(range(0, 20, 2))
    assert sorted(anti["k"]) == list(range(1, 20, 2))


def test_quantiles_sketch_accuracy(ray_session):
    """The histogram sketch must land within one bin width of the exact
    quantile, and be identical across partitioning choices."""
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        grouped_quantiles,
        grouped_quantiles_sketch,
    )

    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {
            "g": np.repeat(["a", "b"], 20000),
            "v": np.concatenate(
                [rng.normal(100, 15, 20000), rng.exponential(50, 20000)]
            ),
        }
    )
    ds = rd.from_pandas(df)
    exact = grouped_quantiles(ds, ["g"], "v", [0.5, 0.95]).to_pandas()
    approx = grouped_quantiles_sketch(
        ds, ["g"], "v", [0.5, 0.95], bins=2048
    ).to_pandas()
    e = exact.set_index("g")
    a = approx.set_index("g")
    for g in ("a", "b"):
        rng_width = (df[df.g == g]["v"].max() - df[df.g == g]["v"].min())
        tol = rng_width / 2048 + 1e-9
        assert abs(a.loc[g, "q50"] - e.loc[g, "q50"]) <= tol
        assert abs(a.loc[g, "q95"] - e.loc[g, "q95"]) <= tol
    # determinism across block layouts
    approx2 = grouped_quantiles_sketch(
        rd.from_pandas(df).repartition(13), ["g"], "v", [0.5, 0.95],
        bins=2048,
    ).to_pandas().set_index("g")
    for g in ("a", "b"):
        assert approx2.loc[g, "q50"] == a.loc[g, "q50"]
        assert approx2.loc[g, "q95"] == a.loc[g, "q95"]


def test_bucketed_join_salt_matches_unsalted(ray_session):
    """Salted join (hot-key spreading) must equal the unsalted result,
    and the hot key's left rows must actually spread across buckets."""
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        _key_hash,
        bucketed_hash_join,
    )

    rng = np.random.default_rng(4)
    # 90% of left rows share one hot key
    k = np.where(rng.random(5000) < 0.9, 7, rng.integers(0, 50, 5000))
    left = pd.DataFrame({"k": k.astype("int64"),
                         "lv": np.arange(5000, dtype="int64")})
    right = pd.DataFrame({"k": np.arange(50, dtype="int64"),
                          "rv": np.arange(50, dtype="int64") * 10})
    plain = bucketed_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k",
        num_buckets=16,
    ).to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    salted = bucketed_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k",
        num_buckets=16, salt=8,
    ).to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(salted[plain.columns], plain)

    # bucket balance: replicate the tag math for the hot key's rows
    hot = left[left.k == 7]
    h = _key_hash(hot, ["k"])
    s = (pd.util.hash_array(np.arange(len(hot), dtype=np.uint64)) ^ h) % np.uint64(8)
    buckets = (h ^ (s * np.uint64(0x9E3779B97F4A7C15))) % 16
    assert len(np.unique(buckets)) >= 6  # spread, not pinned to one

    with pytest.raises(ValueError):
        bucketed_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                           on="k", salt=4, how="outer")


def test_joins_tolerate_null_right_keys(ray_session):
    """ADVICE r2: null right-side keys must behave as non-matching (SQL
    IN semantics), not crash the partition task on an int cast."""
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        bucketed_hash_join,
        semi_anti_join,
    )

    left = pd.DataFrame({"k": np.arange(10, dtype="int64"),
                         "v": np.arange(10)})
    right = pd.DataFrame({"k": [0.0, 2.0, np.nan, np.nan],
                          "w": [10, 20, 30, 40]})
    semi = semi_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                          on="k", anti=False).to_pandas()
    assert sorted(semi["k"]) == [0, 2]
    anti = semi_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                          on="k", anti=True).to_pandas()
    assert sorted(anti["k"]) == [1, 3, 4, 5, 6, 7, 8, 9]
    joined = bucketed_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on="k"
    ).to_pandas()
    assert sorted(joined["k"]) == [0, 2]


def test_corr_partitioned_merge_matches_coalesced(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_corr

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "g": rng.integers(0, 40, 20000),
        "x": rng.normal(size=20000),
    })
    df["y"] = df["x"] * 0.5 + rng.normal(size=20000)
    a = grouped_corr(rd.from_pandas(df), ["g"], "x", "y").to_pandas()
    b = grouped_corr(rd.from_pandas(df), ["g"], "x", "y",
                     merge_partitions=8).to_pandas()
    a = a.sort_values("g").reset_index(drop=True)
    b = b.sort_values("g").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns.tolist()])


def test_quantiles_sketch_high_cardinality_copartitioned(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        grouped_quantiles_sketch,
    )

    rng = np.random.default_rng(11)
    # 400 keys x ~25 rows, spread over several blocks
    g = np.repeat(np.arange(400, dtype="int64"), 25)
    df = pd.DataFrame({"g": g, "v": rng.normal(size=len(g)) * (g % 7 + 1)})
    ds = rd.from_pandas(df, override_num_blocks=6)
    base = grouped_quantiles_sketch(
        ds, ["g"], "v", [0.25, 0.9], bins=256
    ).to_pandas()
    # broadcast_max_keys below the key count forces the co-partitioned
    # (no-broadcast) path — estimates must be bit-identical
    cop = grouped_quantiles_sketch(
        ds, ["g"], "v", [0.25, 0.9], bins=256, broadcast_max_keys=10,
        num_buckets=8,
    ).to_pandas()
    base = base.sort_values("g").reset_index(drop=True)
    cop = cop.sort_values("g").reset_index(drop=True)
    # integer keys survive the no-broadcast path losslessly (dtype too)
    assert cop["g"].dtype == base["g"].dtype
    pd.testing.assert_frame_equal(cop[base.columns.tolist()], base)

    # keys above 2^53 (float64's integer ceiling) must survive exactly
    big = pd.DataFrame({
        "g": np.repeat(np.arange(40, dtype="int64") + (1 << 62), 10),
        "v": np.tile(np.arange(10, dtype="float64"), 40),
    })
    bds = rd.from_pandas(big, override_num_blocks=3)
    got = grouped_quantiles_sketch(
        bds, ["g"], "v", [0.5], bins=64, broadcast_max_keys=5,
        num_buckets=4,
    ).to_pandas()
    assert got["g"].dtype == np.dtype("int64")
    assert sorted(got["g"]) == sorted(big["g"].unique())

    # partitioned range merge matches the default path
    df2 = pd.DataFrame({"g": np.arange(100), "v": np.arange(100.0)})
    out = grouped_quantiles_sketch(
        rd.from_pandas(df2), ["g"], "v", [0.5], range_merge_partitions=4
    ).to_pandas()
    base2 = grouped_quantiles_sketch(
        rd.from_pandas(df2), ["g"], "v", [0.5]
    ).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("g").reset_index(drop=True),
        base2.sort_values("g").reset_index(drop=True),
    )


def test_grouped_rank_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_rank

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": rng.integers(0, 7, 200),
        "id": np.arange(200, dtype="int64"),
        "v": rng.normal(size=200).round(3),
    })
    out = grouped_rank(
        rd.from_pandas(df, override_num_blocks=4), ["g"], ["v", "id"],
        descending=[True, False], num_partitions=4,
    ).to_pandas().sort_values("id").reset_index(drop=True)
    truth = df.sort_values(["v", "id"], ascending=[False, True])
    truth["rank"] = truth.groupby("g").cumcount() + 1
    truth = truth.sort_values("id").reset_index(drop=True)
    assert (out["rank"].to_numpy()
            == truth["rank"].to_numpy()).all()


def test_moving_avg_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import moving_avg

    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "g": rng.integers(0, 5, 300),
        "t": np.arange(300, dtype="int64"),
        "v": rng.normal(size=300),
    })
    out = moving_avg(
        rd.from_pandas(df, override_num_blocks=4), ["g"], ["t"], "v",
        window=4, num_partitions=4,
    ).to_pandas().sort_values("t").reset_index(drop=True)
    truth = df.sort_values("t").copy()
    truth["moving_avg"] = (
        truth.groupby("g")["v"]
        .rolling(4, min_periods=1).mean()
        .droplevel(0)
    )
    truth = truth.sort_values("t").reset_index(drop=True)
    assert np.allclose(out["moving_avg"], truth["moving_avg"])


def test_text_normalizer():
    from crawler_service_ray.functions.text import TextNormalizer

    out = TextNormalizer()(pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["  Hello, WORLD!!  42 ", "\tall clean here\n"],
    })).set_index("doc_id")
    assert out.loc[1, "norm_text"] == "hello world 42"
    assert out.loc[1, "norm_len"] == len("hello world 42")
    assert out.loc[2, "norm_text"] == "all clean here"


def test_approx_count_distinct_accuracy(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        approx_count_distinct,
    )

    rng = np.random.default_rng(11)
    for true_n in (50, 5_000, 120_000):
        vals = rng.choice(true_n * 10, size=true_n, replace=False)
        rows = np.concatenate([vals, rng.choice(vals, size=true_n // 2)])
        ds = rd.from_pandas(
            pd.DataFrame({"k": rows.astype("int64")}),
            override_num_blocks=4,
        )
        est = approx_count_distinct(ds, "k").to_pandas()
        got = int(est["approx_distinct"].iloc[0])
        assert abs(got - true_n) / true_n < 0.03, (true_n, got)


def test_grouped_mode_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_mode

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "g": rng.integers(0, 9, 400),
        "v": rng.choice(list("abcd"), 400),
    })
    out = grouped_mode(
        rd.from_pandas(df, override_num_blocks=4), ["g"], "v",
        merge_partitions=2, num_partitions=4,
    ).to_pandas().sort_values("g").reset_index(drop=True)
    counts = df.groupby(["g", "v"]).size().reset_index(name="c")
    truth = (
        counts.sort_values(["c", "v"], ascending=[False, True])
        .groupby("g").head(1)
        .sort_values("g").reset_index(drop=True)
    )
    assert list(out["g"]) == list(truth["g"])
    assert list(out["mode"]) == list(truth["v"])


def test_grouped_shift_lag_and_lead(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_shift

    df = pd.DataFrame({
        "g": [0, 0, 0, 1, 1],
        "o": [2, 1, 3, 1, 2],
        "v": [20.0, 10.0, 30.0, 1.0, 2.0],
    })
    ds = rd.from_pandas(df, override_num_blocks=2)
    lag = grouped_shift(ds, ["g"], "o", "v", periods=1,
                        out_name="prev").to_pandas().sort_values(
        ["g", "o"]).reset_index(drop=True)
    assert np.isnan(lag["prev"][0]) and lag["prev"][1] == 10.0
    assert lag["prev"][2] == 20.0 and np.isnan(lag["prev"][3])
    lead = grouped_shift(ds, ["g"], "o", "v", periods=-1,
                         out_name="nxt").to_pandas().sort_values(
        ["g", "o"]).reset_index(drop=True)
    assert lead["nxt"][0] == 20.0 and np.isnan(lead["nxt"][2])


def test_ntile_matches_sql_semantics(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import ntile_in_group

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "g": rng.integers(0, 6, 200),
        "v": rng.normal(size=200),
        "id": np.arange(200),
    })
    for n in (1, 3, 4, 7, 250):  # 250 > any group size: one row per tile
        out = ntile_in_group(
            rd.from_pandas(df, override_num_blocks=3), ["g"],
            ["v", "id"], n=n, num_partitions=4,
        ).to_pandas().sort_values("id").reset_index(drop=True)
        truth = duckdb.sql(
            f"SELECT id, ntile({n}) OVER (PARTITION BY g ORDER BY v, id)"
            " AS t FROM df ORDER BY id"
        ).df()
        assert out["tile"].tolist() == truth["t"].tolist(), n


def test_string_agg_per_group(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        string_agg_per_group,
    )

    df = pd.DataFrame({"g": [1, 1, 1, 2], "s": ["b", "a", "c", "z"]})
    out = string_agg_per_group(
        rd.from_pandas(df, override_num_blocks=3), ["g"], "s",
        sep=",", out_name="j", num_partitions=2,
    ).to_pandas().sort_values("g").reset_index(drop=True)
    assert out["j"].tolist() == ["a,b,c", "z"]


def test_grouped_zscore(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_zscore

    df = pd.DataFrame({
        "g": ["a"] * 4 + ["b"] * 3,
        "x": [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0],
    })
    out = grouped_zscore(
        rd.from_pandas(df, override_num_blocks=2), ["g"], "x",
    ).to_pandas()
    a = out[out["g"] == "a"].sort_values("x")["zscore"].to_numpy()
    mu, sd = 2.5, np.sqrt(np.mean((np.arange(1, 5) - 2.5) ** 2))
    assert np.allclose(a, (np.arange(1.0, 5.0) - mu) / sd)
    # zero-variance group -> NaN (SQL NULL), not inf
    assert out[out["g"] == "b"]["zscore"].isna().all()


def test_pivot_count_matches_pandas(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import pivot_count

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "g": rng.integers(0, 7, 300),
        "v": rng.choice(list("xyz"), 300),
    })
    out = pivot_count(
        rd.from_pandas(df, override_num_blocks=4), ["g"], "v",
        categories=["x", "y", "z"], merge_partitions=2,
    ).to_pandas().sort_values("g").reset_index(drop=True)
    truth = (
        df.assign(one=1)
        .pivot_table(index="g", columns="v", values="one",
                     aggfunc="sum", fill_value=0)
        .reset_index()
    )
    for c in "xyz":
        assert list(out[f"n_{c}"]) == list(truth[c]), c
    # a category absent from the data still yields an all-zero column
    out2 = pivot_count(
        rd.from_pandas(df, override_num_blocks=2), ["g"], "v",
        categories=["x", "missing"],
    ).to_pandas()
    assert out2["n_missing"].sum() == 0
    assert out2["n_missing"].dtype == "int64"


def test_range_join_broadcast(ray_session):
    import numpy as np
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        range_join_broadcast,
    )

    iv = pd.DataFrame({"lo": [0.0, 10.0, 30.0], "hi": [10.0, 20.0, 40.0],
                       "tag": ["a", "b", "c"]})
    df = pd.DataFrame({"id": range(6),
                       "v": [5.0, 10.0, 19.9, 25.0, 30.0, 45.0]})
    ds = rd.from_pandas(df, override_num_blocks=2)
    inner = range_join_broadcast(ds, iv, "v").to_pandas().sort_values(
        "id").reset_index(drop=True)
    # 25.0 (gap) and 45.0 (beyond) drop; boundaries: lo inclusive, hi excl
    assert list(inner["id"]) == [0, 1, 2, 4]
    assert list(inner["tag"]) == ["a", "b", "b", "c"]
    left = range_join_broadcast(ds, iv, "v", how="left").to_pandas()
    assert len(left) == 6
    assert left.sort_values("id")["tag"].isna().sum() == 2
    with pytest.raises(ValueError, match="non-overlapping"):
        range_join_broadcast(
            ds, pd.DataFrame({"lo": [0.0, 5.0], "hi": [6.0, 9.0],
                              "tag": ["x", "y"]}), "v")


def test_set_op_distinct_small(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import set_op_distinct

    a = rd.from_pandas(
        pd.DataFrame({"k": [1, 1, 2, 3, 5]}), override_num_blocks=2)
    b = rd.from_pandas(
        pd.DataFrame({"k": [2, 3, 3, 4]}), override_num_blocks=2)
    inter = set_op_distinct(a, b, ["k"], op="intersect").to_pandas()
    assert sorted(inter["k"]) == [2, 3]
    exc = set_op_distinct(a, b, ["k"], op="except").to_pandas()
    assert sorted(exc["k"]) == [1, 5]
    with pytest.raises(ValueError, match="intersect"):
        set_op_distinct(a, b, ["k"], op="union")


def test_histogram_clamps_out_of_range(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import histogram

    ds = rd.from_pandas(
        pd.DataFrame({"x": [-5.0, 0.0, 2.5, 9.9, 10.0, 99.0]}),
        override_num_blocks=3)
    out = histogram(ds, "x", lo=0.0, hi=10.0, nbins=4).to_pandas()
    got = dict(zip(out["bin"], out["n"]))
    # -5 clamps into bin 0; 10.0 and 99.0 clamp into the last bin
    assert got == {0: 2, 1: 1, 3: 3}
    assert dict(zip(out["bin"], out["bin_lo"]))[3] == 7.5


def test_rollup_agg_levels(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import rollup_agg

    df = pd.DataFrame({
        "a": ["x", "x", "y", "y"],
        "b": ["p", "q", "p", "p"],
        "v": [1.0, 2.0, 3.0, 4.0],
    })
    ds = rd.from_pandas(df, override_num_blocks=2)
    out = rollup_agg(
        ds, ["a", "b"], {"s": ("v", "sum"), "n": ("v", "count")}
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    # 3 finest rows + 2 per-a subtotals + 1 grand total
    assert len(out) == 6
    grand = out[(out["a"] == "ALL") & (out["b"] == "ALL")]
    assert grand["s"].iloc[0] == 10.0 and grand["n"].iloc[0] == 4
    suby = out[(out["a"] == "y") & (out["b"] == "ALL")]
    assert suby["s"].iloc[0] == 7.0 and suby["n"].iloc[0] == 2
    with pytest.raises(ValueError, match="re-aggregatable"):
        rollup_agg(ds, ["a"], {"m": ("v", "mean")})


def test_grouped_agg_var_std_match_pandas(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_agg

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": rng.integers(0, 5, 500),
        "v": rng.normal(1000.0, 37.0, 500),
    })
    ds = rd.from_pandas(df, override_num_blocks=7)
    out = (grouped_agg(ds, ["k"], {"sd": ("v", "std"), "vr": ("v", "var")})
           .to_pandas().set_index("k").sort_index())
    want_sd = df.groupby("k")["v"].std()
    want_vr = df.groupby("k")["v"].var()
    assert np.allclose(out["sd"], want_sd, rtol=1e-9)
    assert np.allclose(out["vr"], want_vr, rtol=1e-9)


def test_cap_per_group_deterministic_and_bounded(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import cap_per_group

    df = pd.DataFrame({
        "g": np.repeat(["a", "b", "c"], 40),
        "doc_id": np.arange(120, dtype=np.int64),
    })
    runs = []
    for blocks in (2, 9):
        ds = rd.from_pandas(df, override_num_blocks=blocks)
        out = (cap_per_group(ds, ["g"], "doc_id", 7)
               .to_pandas().sort_values(["g", "doc_id"])
               .reset_index(drop=True))
        assert (out.groupby("g").size() == 7).all()
        runs.append(out)
    # parallelism-invariant: identical kept subset at any block count
    pd.testing.assert_frame_equal(runs[0], runs[1])
    # groups smaller than the cap are kept whole
    small = rd.from_pandas(df.head(3))
    assert len(cap_per_group(small, ["g"], "doc_id", 7).to_pandas()) == 3


def test_asof_join_directions(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import asof_join

    left = pd.DataFrame({
        "k": [1, 1, 2],
        "ts": pd.to_datetime(["2024-01-01 10:00", "2024-01-01 12:00",
                              "2024-01-01 10:00"]),
        "ev": ["a", "b", "c"],
    })
    right = pd.DataFrame({
        "k": [1, 1, 2],
        "ts": pd.to_datetime(["2024-01-01 09:00", "2024-01-01 11:00",
                              "2024-01-01 11:30"]),
        "val": [10, 20, 30],
    })
    l, r = rd.from_pandas(left), rd.from_pandas(right)
    back = asof_join(l, r, key="k", ts_col="ts", num_partitions=4) \
        .to_pandas().sort_values("ev")
    # k=2 row has no prior right row -> dropped (inner semantics)
    assert list(back["ev"]) == ["a", "b"]
    assert list(back["val_r"]) == [10, 20]
    fwd = asof_join(l, r, key="k", ts_col="ts", num_partitions=4,
                    direction="forward").to_pandas().sort_values("ev")
    # 'b' (12:00) has no following right row -> dropped
    assert list(fwd["ev"]) == ["a", "c"]
    assert list(fwd["val_r"]) == [20, 30]


def test_range_join_partitioned_matches_broadcast(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        range_join_broadcast,
        range_join_partitioned,
    )

    rng = np.random.default_rng(7)
    # variable-width intervals with gaps; some spanning many buckets
    steps = rng.integers(5, 40, size=60)
    starts = np.cumsum(steps).astype("float64")
    # width never reaches the next start -> guaranteed non-overlapping
    widths = np.maximum(
        1, np.minimum(rng.integers(1, 25, size=60),
                      np.append(steps[1:], 25))).astype("float64")
    iv = pd.DataFrame({
        "lo": starts, "hi": starts + widths,
        "band": np.arange(60, dtype="int64"),
    })
    probe = pd.DataFrame({
        "id": np.arange(500, dtype="int64"),
        "v": rng.uniform(-10, float(starts[-1]) + 50, size=500),
    })
    ds = rd.from_pandas(probe, override_num_blocks=4)
    ivds = rd.from_pandas(iv, override_num_blocks=3)
    want = range_join_broadcast(ds, iv, "v").to_pandas()
    # bucket_width far below max interval width -> heavy replication
    got = range_join_partitioned(
        ds, ivds, "v", bucket_width=4.0, num_partitions=8
    ).to_pandas()
    key = ["id", "band"]
    want = want[key].astype("int64").sort_values(key).reset_index(drop=True)
    got = got[key].astype("int64").sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_range_join_partitioned_left_and_overlap(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        range_join_partitioned,
    )

    iv = pd.DataFrame({"lo": [0.0, 10.0, 30.0], "hi": [10.0, 20.0, 40.0],
                       "tag": ["a", "b", "c"]})
    df = pd.DataFrame({"id": np.arange(6, dtype="int64"),
                       "v": [5.0, 10.0, 19.9, 25.0, 30.0, 45.0]})
    ds = rd.from_pandas(df, override_num_blocks=2)
    ivds = rd.from_pandas(iv)
    left = range_join_partitioned(
        ds, ivds, "v", bucket_width=8.0, how="left", num_partitions=4
    ).to_pandas().sort_values("id").reset_index(drop=True)
    assert len(left) == 6
    assert left["tag"].isna().sum() == 2  # 25.0 gap + 45.0 beyond
    assert list(left["tag"].dropna()) == ["a", "b", "b", "c"]
    # overlapping intervals are detected even though the join distributes
    bad = rd.from_pandas(pd.DataFrame(
        {"lo": [0.0, 5.0], "hi": [6.0, 9.0], "tag": ["x", "y"]}))
    with pytest.raises(Exception, match="non-overlapping"):
        range_join_partitioned(
            ds, bad, "v", bucket_width=8.0, num_partitions=4
        ).materialize()


def test_grouped_moments_support_bounds(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_moments

    df = pd.DataFrame({
        "g": [1, 1, 1, 1, 2, 2, 2, 3, 3],
        "x": [1.0, 2.0, 4.0, 8.0, 3.0, 3.0, 9.0, 5.0, 6.0],
    })
    out = grouped_moments(rd.from_pandas(df, override_num_blocks=3),
                          ["g"], "x").to_pandas().sort_values("g")
    # n=4: both defined (values pinned against DuckDB semantics)
    assert abs(out.iloc[0]["skew"] - 1.1376243669576889) < 1e-9
    assert abs(out.iloc[0]["kurt"] - 0.7576559546313808) < 1e-6
    # n=3: skew defined, kurtosis NULL; n=2: both NULL
    assert abs(out.iloc[1]["skew"] - 1.732050807568877) < 1e-9
    assert np.isnan(out.iloc[1]["kurt"])
    assert np.isnan(out.iloc[2]["skew"]) and np.isnan(out.iloc[2]["kurt"])
    # partitioned merge matches coalesced
    out2 = grouped_moments(rd.from_pandas(df, override_num_blocks=3),
                           ["g"], "x", merge_partitions=4
                           ).to_pandas().sort_values("g")
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  out2.reset_index(drop=True))


def test_grouped_arg_extreme_ties_and_modes(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        grouped_arg_extreme,
    )

    df = pd.DataFrame({
        "g": [1, 1, 1, 2, 2],
        "v": [30, 10, 20, 7, 5],
        "by": [9.0, 9.0, 1.0, 2.0, 8.0],
    })
    ds = rd.from_pandas(df, override_num_blocks=3)
    mx = grouped_arg_extreme(ds, ["g"], "v", "by").to_pandas() \
        .sort_values("g").reset_index(drop=True)
    # g=1 ties at by=9.0 -> smallest v wins (deterministic)
    assert list(mx["v"]) == [10, 5]
    mn = grouped_arg_extreme(ds, ["g"], "v", "by", mode="min",
                             merge_partitions=2).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    assert list(mn["v"]) == [20, 7]


def test_range_join_partitioned_left_with_empty_intervals(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        range_join_partitioned,
    )

    df = pd.DataFrame({"id": np.arange(4, dtype="int64"),
                       "v": [1.0, 5.0, 9.0, 13.0]})
    empty_iv = pd.DataFrame({"lo": pd.Series([], dtype="float64"),
                             "hi": pd.Series([], dtype="float64"),
                             "tag": pd.Series([], dtype=object)})
    out = range_join_partitioned(
        rd.from_pandas(df, override_num_blocks=2),
        rd.from_pandas(empty_iv), "v", bucket_width=4.0, how="left",
        num_partitions=4,
    ).to_pandas()
    assert len(out) == 4
    assert out["tag"].isna().all()
    # inner drops everything, but returns cleanly
    inner = range_join_partitioned(
        rd.from_pandas(df, override_num_blocks=2),
        rd.from_pandas(empty_iv), "v", bucket_width=4.0,
        num_partitions=4,
    ).to_pandas()
    assert len(inner) == 0


def test_grouped_moments_nulls_and_constant_groups(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouped_moments

    df = pd.DataFrame({
        "g": [1, 1, 1, 1, 2, 2, 2, 2],
        # g=1: three values + a NULL -> n=3: skew defined, kurt NULL
        # g=2: constant at large magnitude -> both NULL (SQL semantics)
        "x": [3.0, 3.0, 9.0, np.nan, 1e8, 1e8, 1e8, 1e8],
    })
    out = grouped_moments(rd.from_pandas(df, override_num_blocks=2),
                          ["g"], "x").to_pandas().sort_values("g")
    assert abs(out.iloc[0]["skew"] - 1.732050807568877) < 1e-9
    assert np.isnan(out.iloc[0]["kurt"])
    assert np.isnan(out.iloc[1]["skew"]) and np.isnan(out.iloc[1]["kurt"])
    assert np.isfinite(out["skew"].fillna(0)).all()  # never inf


def test_range_frame_agg_peers_and_bounds(ray_session):
    """RANGE frame includes equal-ts peers (both directions) and drops
    rows strictly older than the width; groups are independent."""
    import ray.data as rd

    from crawler_service_ray.functions.relational import range_frame_agg

    base = pd.Timestamp("2026-01-01")
    h = pd.Timedelta(hours=1)
    df = pd.DataFrame({
        "u": [1, 1, 1, 1, 1, 2],
        "ts": [base, base, base + h / 2, base + 2 * h, base + 2 * h,
               base],
        "v": [1.0, 2.0, 4.0, 8.0, 16.0, 100.0],
        "i": [0, 1, 2, 3, 4, 5],
    })
    out = range_frame_agg(
        rd.from_pandas(df, override_num_blocks=2), ["u"], "ts", "v",
        width_us=3_600_000_000, out_name="s", num_partitions=4,
    ).to_pandas().set_index("i")["s"]
    # rows 0,1 are ts-peers: both see v0+v1 = 3
    assert out[0] == 3.0 and out[1] == 3.0
    # row 2 (t=+30min) sees 1+2+4
    assert out[2] == 7.0
    # rows 3,4 (t=+2h) see only each other (peers), older rows out of range
    assert out[3] == 24.0 and out[4] == 24.0
    # group 2 independent
    assert out[5] == 100.0
    # parity with DuckDB's RANGE frame on the same data
    want = duckdb.sql("""
        SELECT i, sum(v) OVER (PARTITION BY u ORDER BY ts
            RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) s
        FROM df""").df().set_index("i")["s"]
    assert (out.sort_index() == want.sort_index()).all()


def test_cube_agg_levels(ray_session):
    """CUBE emits all 2^k grouping sets, each consistent with a direct
    pandas aggregate of the base data."""
    import ray.data as rd

    from crawler_service_ray.functions.relational import cube_agg

    df = pd.DataFrame({
        "a": ["x", "x", "y", "y", "y"],
        "b": ["p", "q", "p", "p", "q"],
        "v": [1.0, 2.0, 4.0, 8.0, 16.0],
    })
    out = cube_agg(rd.from_pandas(df, override_num_blocks=2), ["a", "b"],
                   {"s": ("v", "sum"), "n": ("v", "count")}).to_pandas()
    got = {(r.a, r.b): (r.s, r.n) for r in out.itertuples()}
    assert len(got) == len(out)  # no duplicate level rows
    assert got[("x", "p")] == (1.0, 1)
    assert got[("y", "p")] == (12.0, 2)
    assert got[("x", "ALL")] == (3.0, 2)
    assert got[("ALL", "p")] == (13.0, 3)
    assert got[("ALL", "q")] == (18.0, 2)
    assert got[("ALL", "ALL")] == (31.0, 5)


def test_grouping_sets_subset_validation(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import grouping_sets_agg

    df = pd.DataFrame({"a": ["x"], "v": [1.0]})
    with pytest.raises(ValueError, match="not a subset"):
        grouping_sets_agg(rd.from_pandas(df), ["a"], [("zz",)],
                          {"s": ("v", "sum")})


def test_funnel_steps_semantics(ray_session):
    """Strict ordering (same-ts does not advance), greedy earliest
    chain, window cutoff, incomplete users dropped."""
    import ray.data as rd

    from crawler_service_ray.functions.relational import funnel_steps

    t = lambda m: pd.Timestamp("2026-01-01") + pd.Timedelta(minutes=m)
    rows = [
        # u1 completes: A@0, B@5 (after A), C@7
        (1, "A", t(0)), (1, "B", t(5)), (1, "C", t(7)),
        # u1 also has an earlier C that must NOT count (before B)
        (1, "C", t(2)),
        # u2: B before A only -> incomplete
        (2, "B", t(0)), (2, "A", t(1)), (2, "C", t(2)),
        # wait: u2 has no B after A -> incomplete
        # u3: same-ts chain A@0 B@0 -> strict > fails -> incomplete
        (3, "A", t(0)), (3, "B", t(0)), (3, "C", t(1)),
        # u4 completes but outside the 10-minute window
        (4, "A", t(0)), (4, "B", t(5)), (4, "C", t(30)),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    out = funnel_steps(
        rd.from_pandas(df, override_num_blocks=2), "user_id",
        "event_type", "ts", steps=["A", "B", "C"],
        within_us=10 * 60 * 1_000_000, num_partitions=4,
    ).to_pandas()
    assert set(out["user_id"]) == {1}
    r = out.iloc[0]
    assert r["t1"] == t(0) and r["t2"] == t(5) and r["t3"] == t(7)
    # without the window, u4 completes too
    out2 = funnel_steps(
        rd.from_pandas(df, override_num_blocks=2), "user_id",
        "event_type", "ts", steps=["A", "B", "C"], num_partitions=4,
    ).to_pandas()
    assert set(out2["user_id"]) == {1, 4}


def test_resample_ffill_semantics(ray_session):
    """Grid floors to freq, fill is last-at-or-before, the grid point
    before a group's first event is NULL, and fills never leak across
    co-partitioned groups."""
    import ray.data as rd

    from crawler_service_ray.functions.relational import resample_ffill

    t = lambda m: pd.Timestamp("2026-01-01") + pd.Timedelta(minutes=m)
    df = pd.DataFrame({
        # group 1: events at 00:30 and 02:10 -> grid 00:00,01:00,02:00
        "u": [1, 1, 2],
        "ts": [t(30), t(130), t(45)],
        "v": [10.0, 20.0, 99.0],
    })
    out = resample_ffill(
        rd.from_pandas(df, override_num_blocks=2), ["u"], "ts", "v",
        freq_us=3_600_000_000, num_partitions=1,  # force co-residence
    ).to_pandas().sort_values(["u", "h"]).reset_index(drop=True)
    g1 = out[out["u"] == 1]
    assert list(g1["h"]) == [t(0), t(60), t(120)]
    assert np.isnan(g1["value_ff"].iloc[0])        # 00:00 precedes 00:30
    assert g1["value_ff"].iloc[1] == 10.0          # 01:00 <- 00:30 event
    assert g1["value_ff"].iloc[2] == 10.0          # 02:00 <- still 00:30
    g2 = out[out["u"] == 2]
    # group 2's 00:00 grid point must NOT pick up group 1's values
    assert list(g2["h"]) == [t(0)]
    assert np.isnan(g2["value_ff"].iloc[0])


# ---------------------------------------------------------------------------
# freq_sketch (Misra–Gries heavy hitters)
# ---------------------------------------------------------------------------

def test_freq_sketch_guarantees(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import freq_sketch

    rng = np.random.default_rng(11)
    # zipf-ish stream: a few very hot items over a long tail
    vals = np.concatenate([
        np.repeat(np.arange(5), 400),              # 5 heavy items ×400
        rng.integers(100, 2000, 6000),             # long uniform tail
    ])
    rng.shuffle(vals)
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(16)
    k = 16
    hh, n, delta = freq_sketch(ds, "v", k=k, batch_size=256)
    out = hh.to_pandas().set_index("item")

    assert n == len(vals)
    assert delta * (k + 1) <= n  # analytic decrement bound
    true = pd.Series(vals).value_counts()
    # every item with true count > delta must be present
    for item, cnt in true[true > delta].items():
        assert item in out.index, (item, cnt, delta)
    # reported counts are lower bounds and within delta of truth
    for item, row in out.iterrows():
        assert row["est_lb"] <= true[item] <= row["est_ub"]
    assert len(out) <= k


def test_freq_sketch_exact_when_few_items(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import freq_sketch

    df = pd.DataFrame({"v": np.repeat(["a", "b", "c"], [30, 20, 10])})
    ds = rd.from_pandas(df).repartition(4)
    hh, n, delta = freq_sketch(ds, "v", k=8, batch_size=16)
    out = hh.to_pandas().set_index("item")["est_lb"].to_dict()
    assert delta == 0 and n == 60
    assert out == {"a": 30, "b": 20, "c": 10}


def test_retention_cohorts_matches_pandas(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import retention_cohorts

    rng = np.random.default_rng(5)
    n = 4000
    users = rng.integers(0, 300, n)
    # event times across ~10 weeks, µs precision
    ts = np.datetime64("2024-01-01", "us") + rng.integers(
        0, 10 * 7 * 86400, n
    ).astype("timedelta64[s]").astype("timedelta64[us]")
    df = pd.DataFrame({"user_id": users, "ts": ts})
    got = (retention_cohorts(
        rd.from_pandas(df).repartition(8), "user_id", "ts",
        num_partitions=4)
        .to_pandas()
        .sort_values(["cohort", "period_offset"])
        .reset_index(drop=True))

    wk = df["ts"].to_numpy(dtype="datetime64[us]").astype("int64") \
        // 604_800_000_000
    ref = pd.DataFrame({"u": df["user_id"], "wk": wk})
    ref["cohort"] = ref.groupby("u")["wk"].transform("min")
    ref["period_offset"] = ref["wk"] - ref["cohort"]
    ref = (ref.drop_duplicates(["u", "period_offset"])
           .groupby(["cohort", "period_offset"]).size()
           .reset_index(name="n_users")
           .sort_values(["cohort", "period_offset"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_interval_coverage_matches_bruteforce(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import interval_coverage

    rng = np.random.default_rng(11)
    n = 3000
    keys = rng.integers(0, 40, n)
    lo = rng.integers(0, 10_000, n).astype("int64")
    hi = lo + rng.integers(0, 400, n)
    df = pd.DataFrame({"k": keys, "lo": lo, "hi": hi})
    got = (interval_coverage(rd.from_pandas(df).repartition(7),
                             ["k"], "lo", "hi", num_partitions=5)
           .to_pandas().sort_values("k").reset_index(drop=True))

    # brute-force oracle: per key, mark covered integer points
    rows = []
    for k, g in df.groupby("k"):
        iv = sorted(zip(g["lo"], g["hi"]))
        islands = []
        for a, b in iv:
            if islands and a <= islands[-1][1]:
                islands[-1][1] = max(islands[-1][1], b)
            else:
                islands.append([a, b])
        rows.append({"k": k, "n_intervals": len(iv),
                     "n_islands": len(islands),
                     "covered": sum(b - a for a, b in islands)})
    ref = pd.DataFrame(rows).sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_interval_coverage_touching_intervals_merge(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import interval_coverage

    # [0,5] and [5,9] touch -> one island (closed-interval semantics);
    # [20,21] is disjoint
    df = pd.DataFrame({"k": [1, 1, 1], "lo": [0, 5, 20],
                       "hi": [5, 9, 21]})
    got = interval_coverage(rd.from_pandas(df), ["k"], "lo",
                            "hi").to_pandas()
    assert got.iloc[0].to_dict() == {
        "k": 1, "n_intervals": 3, "n_islands": 2, "covered": 10}


def test_approx_count_distinct_grouped_accuracy(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        approx_count_distinct_grouped,
    )

    rng = np.random.default_rng(3)
    # three groups with very different cardinalities, incl. the
    # linear-counting and the raw-estimator regimes at p=12
    parts = []
    for g, card in [("a", 50), ("b", 3000), ("c", 20000)]:
        vals = rng.integers(0, card * 10, card * 3) % card + hash(g) % 97 * 1_000_000
        parts.append(pd.DataFrame({"g": g, "v": vals}))
    df = pd.concat(parts, ignore_index=True)
    got = (approx_count_distinct_grouped(
        rd.from_pandas(df).repartition(9), ["g"], "v", p=12,
        merge_partitions=3)
        .to_pandas().set_index("g")["approx_distinct"])
    exact = df.groupby("g")["v"].nunique()
    for g in exact.index:
        relerr = abs(got[g] - exact[g]) / exact[g]
        assert relerr <= 0.05, (g, got[g], exact[g], relerr)


def test_profile_table_counts_nulls_and_distincts(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import profile_table

    df = pd.DataFrame({
        "a": [1, 1, 2, None, None],
        "b": ["x", "y", "x", "x", None],
        "c": [1.5, 2.5, 2.5, 2.5, 1.5],
    })
    got = (profile_table(rd.from_pandas(df).repartition(3),
                         ["a", "b", "c"], merge_partitions=2)
           .to_pandas().set_index("col"))
    assert got.loc["a"].to_dict() == {
        "n_rows": 5, "n_nulls": 2, "n_distinct": 2}
    assert got.loc["b"].to_dict() == {
        "n_rows": 5, "n_nulls": 1, "n_distinct": 2}
    assert got.loc["c"].to_dict() == {
        "n_rows": 5, "n_nulls": 0, "n_distinct": 2}


def test_session_transitions_matches_pandas(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        session_transitions,
    )

    rng = np.random.default_rng(19)
    n = 5000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 120, n),
        "ts": np.datetime64("2024-01-01", "us")
        + rng.integers(0, 30 * 86400, n).astype("timedelta64[s]"
                                                ).astype("timedelta64[us]"),
        "event_id": np.arange(n, dtype="int64"),
        "event_type": rng.choice(["v", "c", "p"], n),
    })
    got = (session_transitions(rd.from_pandas(df).repartition(8),
                               "user_id", "ts", "event_type",
                               gap_seconds=3600.0, order_col="event_id",
                               num_partitions=5)
           .to_pandas().sort_values(["from_type", "to_type"])
           .reset_index(drop=True))

    p = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    same = p["user_id"].to_numpy() == np.roll(p["user_id"].to_numpy(), 1)
    same[0] = False
    gap = (p["ts"].to_numpy().view("int64")
           - np.roll(p["ts"].to_numpy().view("int64"), 1))
    ok = same & (gap <= 3600 * 10**6)
    types = p["event_type"].to_numpy()
    ref = (pd.DataFrame({"from_type": np.roll(types, 1)[ok],
                         "to_type": types[ok]})
           .groupby(["from_type", "to_type"]).size()
           .reset_index(name="n")
           .sort_values(["from_type", "to_type"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_freq_sketch_grouped_guarantees(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        freq_sketch_grouped,
    )

    rng = np.random.default_rng(13)
    # zipf-ish per-group item draws with planted per-group heavy items
    rows = []
    for g, n in [("a", 4000), ("b", 2500)]:
        items = rng.zipf(1.7, n) % 500
        rows.append(pd.DataFrame({"g": g, "v": items}))
    df = pd.concat(rows, ignore_index=True)
    k = 16
    hh = (freq_sketch_grouped(
        rd.from_pandas(df).repartition(7), ["g"], "v", k=k,
        batch_size=512, num_partitions=3).to_pandas())
    exact = df.groupby(["g", "v"]).size().reset_index(name="true")
    for g, sub in hh.groupby("g"):
        n_g = len(df[df["g"] == g])
        delta = int(sub["delta"].iloc[0])
        assert delta * (k + 1) <= n_g
        ex = exact[exact["g"] == g].set_index("v")["true"]
        for _, r in sub.iterrows():
            t = int(ex[r["item"]])
            assert r["est_lb"] <= t <= r["est_ub"]
        # every heavy item (true > delta) must be reported
        heavy = set(ex[ex > delta].index)
        assert heavy <= set(sub["item"]), (g, heavy - set(sub["item"]))
        # bounded output
        assert len(sub) <= k


def test_hll_set_ops_accuracy(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import hll_set_ops

    rng = np.random.default_rng(29)
    # |A|=3000, |B|=2000, |A∩B|=1000 — all three regimes exercised
    a_vals = np.arange(0, 3000, dtype="int64")
    b_vals = np.arange(2000, 4000, dtype="int64")
    da = pd.DataFrame({"v": rng.permutation(np.repeat(a_vals, 2))})
    db = pd.DataFrame({"v": rng.permutation(np.repeat(b_vals, 3))})
    est = hll_set_ops(rd.from_pandas(da).repartition(5),
                      rd.from_pandas(db).repartition(4), "v", p=12)
    for name, exact in [("est_a", 3000), ("est_b", 2000),
                        ("est_union", 4000),
                        ("est_intersection", 1000)]:
        got = int(est[name].iloc[0])
        # intersection inherits three absolute errors — wider band
        tol = 0.15 if name == "est_intersection" else 0.05
        assert abs(got - exact) <= tol * exact, (name, got, exact)


def test_countmin_guarantees_and_parallelism_invariance(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        countmin_query,
        countmin_sketch,
    )

    rng = np.random.default_rng(37)
    vals = (rng.zipf(1.5, 8000) % 3000).astype("int64")
    df = pd.DataFrame({"v": vals})
    M, n = countmin_sketch(rd.from_pandas(df).repartition(6), "v",
                           depth=4, width=1024, batch_size=777)
    assert n == len(df)
    assert (M.sum(axis=1) == n).all()  # per-row mass conservation
    uniq, true = np.unique(vals, return_counts=True)
    est = countmin_query(M, uniq)
    assert (est >= true).all()  # one-sided error, always
    # CM is batch-boundary independent: 1 block == 6 blocks exactly
    M1, n1 = countmin_sketch(rd.from_pandas(df), "v",
                             depth=4, width=1024)
    assert n1 == n and (M1 == M).all()
    # depth rows must be decorrelated (the numeric hash_key pitfall):
    # identical rows would make min-over-rows pointless
    assert not (M[0] == M[1]).all()
    # absent values can only collide upward, never report negatives
    probe = countmin_query(M, np.array([10**9, 10**9 + 1], dtype="int64"))
    assert (probe >= 0).all()


def test_sessionize_incremental_folds_to_batch(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        sessionize,
        sessionize_incremental,
    )

    rng = np.random.default_rng(43)
    n = 6000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 200, n),
        "ts": np.datetime64("2024-01-01", "us")
        + rng.integers(0, 20 * 86400, n).astype("timedelta64[s]"
                                                ).astype("timedelta64[us]"),
    })
    batch = (sessionize(rd.from_pandas(df), "user_id", "ts", 1800.0)
             .to_pandas().sort_values("user_id").reset_index(drop=True))

    # fold three time-ordered chunks through the state
    cuts = df["ts"].quantile([0.33, 0.66]).to_numpy()
    chunks = [df[df["ts"] <= cuts[0]],
              df[(df["ts"] > cuts[0]) & (df["ts"] <= cuts[1])],
              df[df["ts"] > cuts[1]]]
    state = None
    for c in chunks:
        state = sessionize_incremental(
            rd.from_pandas(c).repartition(4), state, "user_id", "ts",
            1800.0, num_partitions=5).materialize()
    got = (state.to_pandas()[["user_id", "n_sessions", "n_events"]]
           .sort_values("user_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, batch, check_dtype=False)

    # an empty chunk is a pure state passthrough
    state2 = sessionize_incremental(
        rd.from_pandas(df.head(0)), state, "user_id", "ts",
        1800.0).materialize()
    got2 = (state2.to_pandas()[["user_id", "n_sessions", "n_events"]]
            .sort_values("user_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got2, batch, check_dtype=False)


def test_ols_fit_matches_lstsq(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import ols_fit

    rng = np.random.default_rng(47)
    n = 5000
    x1 = rng.normal(10, 3, n)
    x2 = rng.normal(-2, 1, n)
    y = 3.5 + 1.25 * x1 - 4.0 * x2 + rng.normal(0, 0.5, n)
    df = pd.DataFrame({"x1": x1, "x2": x2, "y": y})
    coef, nn = ols_fit(rd.from_pandas(df).repartition(7),
                       ["x1", "x2"], "y")
    X = np.column_stack([np.ones(n), x1, x2])
    ref = np.linalg.lstsq(X, y, rcond=None)[0]
    assert nn == n
    np.testing.assert_allclose(coef, ref, rtol=1e-8)
    # parallelism invariance up to float reassociation
    coef1, _ = ols_fit(rd.from_pandas(df), ["x1", "x2"], "y")
    np.testing.assert_allclose(coef, coef1, rtol=1e-9)


def test_logreg_fit_recovers_planted_coefficients(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        logreg_fit,
        logreg_fit_local,
    )

    rng = np.random.default_rng(53)
    n = 8000
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    eta = -0.5 + 1.2 * x1 - 0.8 * x2
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype("float64")
    df = pd.DataFrame({"x1": x1, "x2": x2, "y": y})
    coef, nn = logreg_fit(rd.from_pandas(df).repartition(6),
                          ["x1", "x2"], "y", iters=10)
    assert nn == n
    # recovers the planted model within sampling error
    np.testing.assert_allclose(coef, [-0.5, 1.2, -0.8], atol=0.15)
    # single-node parity (identical arithmetic up to reassociation)
    X = np.column_stack([np.ones(n), x1, x2])
    ref = logreg_fit_local(X, y, iters=10)
    np.testing.assert_allclose(coef, ref, rtol=1e-8)


def test_transition_surprisal_matches_reference(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        transition_surprisal,
    )

    rng = np.random.default_rng(61)
    n = 4000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 80, n),
        "ts": np.datetime64("2024-01-01", "us")
        + rng.integers(0, 10 * 86400, n).astype("timedelta64[s]"
                                                ).astype("timedelta64[us]"),
        "event_id": np.arange(n, dtype="int64"),
        "event_type": rng.choice(["a", "b", "c"], n,
                                 p=[0.7, 0.2, 0.1]),
    })
    got = (transition_surprisal(
        rd.from_pandas(df).repartition(6), "user_id", "ts",
        "event_type", gap_seconds=7200.0, order_col="event_id",
        num_partitions=4)
        .to_pandas().sort_values("user_id").reset_index(drop=True))

    p = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    same = p["user_id"].to_numpy() == np.roll(p["user_id"].to_numpy(), 1)
    same[0] = False
    gap = (p["ts"].to_numpy().view("int64")
           - np.roll(p["ts"].to_numpy().view("int64"), 1))
    ok = same & (gap <= 7200 * 10**6)
    tr = pd.DataFrame({"u": p["user_id"].to_numpy()[ok],
                       "f": np.roll(p["event_type"].to_numpy(), 1)[ok],
                       "t": p["event_type"].to_numpy()[ok]})
    cnt = tr.groupby(["f", "t"]).size().reset_index(name="n")
    cnt["lp"] = np.log(cnt["n"] / cnt.groupby("f")["n"].transform("sum"))
    m = tr.merge(cnt[["f", "t", "lp"]], on=["f", "t"])
    ref = (m.groupby("u")["lp"].agg(["mean", "size"]).reset_index())
    ref = pd.DataFrame({"user_id": ref["u"],
                        "surprisal": np.round(-ref["mean"], 6),
                        "n_transitions": ref["size"].astype("int64")}
                       ).sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    assert (got["surprisal"] > 0).all()


def test_profile_table_keeps_all_null_columns(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import profile_table

    df = pd.DataFrame({"a": [1, 2, 3],
                       "b": pd.Series([None, None, None], dtype=object)})
    got = (profile_table(rd.from_pandas(df), ["a", "b"])
           .to_pandas().set_index("col"))
    assert got.loc["b"].to_dict() == {
        "n_rows": 3, "n_nulls": 3, "n_distinct": 0}


def test_grouped_agg_auto_partitioned_merge(ray_session, monkeypatch):
    """The ≲10^6-partial-row rule is self-enforcing: fact-scaling keys
    through the DEFAULT merge path must engage the hash-partitioned
    merge (never a driver collect), bit-identical to the driver merge."""
    import ray.data as rd

    import crawler_service_ray.functions.relational as rel

    n = 5000
    df = pd.DataFrame({"k": np.arange(n, dtype="int64"),
                       "v": (np.arange(n) % 7).astype("int64")})
    ds = rd.from_pandas(df).repartition(4)
    want = (df.groupby("k")["v"].agg(["sum", "size"])
            .reset_index().rename(columns={"sum": "s", "size": "c"}))

    calls = []
    orig = rel.grouped_apply

    def spy(*a, **kw):
        calls.append(kw.get("num_partitions"))
        return orig(*a, **kw)

    monkeypatch.setattr(rel, "grouped_apply", spy)

    # below the bar: driver merge, no partitioned path
    out = (rel.grouped_agg(ds, ["k"], {"s": ("v", "sum"),
                                       "c": ("k", "count")})
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert not calls
    pd.testing.assert_frame_equal(out, want, check_dtype=False)

    # above the bar: the partitioned merge engages, sized from the
    # measured partial count, and the result is identical
    monkeypatch.setattr(rel, "AUTO_MERGE_THRESHOLD", 1000)
    out2 = (rel.grouped_agg(ds, ["k"], {"s": ("v", "sum"),
                                        "c": ("k", "count")})
            .to_pandas().sort_values("k").reset_index(drop=True))
    assert calls and calls[0] >= 2
    pd.testing.assert_frame_equal(out2, want, check_dtype=False)


# ---------------------------------------------------------------------------
# equi_depth_histogram
# ---------------------------------------------------------------------------

def test_equi_depth_matches_rank_rule(ray_session):
    """Bucket counts/ranges equal the literal row_number bucket rule."""
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        equi_depth_histogram,
    )

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "v": np.round(rng.exponential(100.0, 1000), 2),  # skewed
        "id": np.arange(1000, dtype="int64"),
    })
    got = (equi_depth_histogram(rd.from_pandas(df), "v", ["id"],
                                num_buckets=4, num_partitions=4)
           .to_pandas().sort_values("bucket").reset_index(drop=True))

    r = df.sort_values(["v", "id"]).reset_index(drop=True)
    r["bucket"] = (np.arange(len(r), dtype="int64") * 4) // len(r)
    want = r.groupby("bucket").agg(
        n=("v", "size"), lo=("v", "min"), hi=("v", "max")).reset_index()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_equi_depth_all_equal_values(ray_session):
    """A constant column still splits into equal-count buckets."""
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        equi_depth_histogram,
    )

    df = pd.DataFrame({"v": np.full(40, 7.0), "id": np.arange(40)})
    got = (equi_depth_histogram(rd.from_pandas(df), "v", ["id"],
                                num_buckets=4, num_partitions=2)
           .to_pandas().sort_values("bucket"))
    assert got["n"].tolist() == [10, 10, 10, 10]
    assert (got["lo"] == 7.0).all() and (got["hi"] == 7.0).all()


def test_equi_depth_fewer_rows_than_buckets(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import (
        equi_depth_histogram,
    )

    df = pd.DataFrame({"v": [3.0, 1.0], "id": [0, 1]})
    got = (equi_depth_histogram(rd.from_pandas(df), "v", ["id"],
                                num_buckets=8, num_partitions=2)
           .to_pandas().sort_values("bucket"))
    # rank*8//2: rank 0 -> bucket 0, rank 1 -> bucket 4
    assert got["bucket"].tolist() == [0, 4]
    assert got["n"].tolist() == [1, 1]
    assert got["lo"].tolist() == [1.0, 3.0]


# ---------------------------------------------------------------------------
# ks_statistic
# ---------------------------------------------------------------------------

def _numpy_ks(a: np.ndarray, b: np.ndarray) -> float:
    pts = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), pts, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), pts, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def test_ks_matches_numpy_with_ties(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import ks_statistic

    rng = np.random.default_rng(17)
    # 1-dp rounding forces heavy ties, the case naive formulas miss
    a = np.round(rng.normal(0.0, 1.0, 400), 1)
    b = np.round(rng.normal(0.4, 1.3, 300), 1)
    df = pd.DataFrame({
        "g": ["a"] * len(a) + ["b"] * len(b),
        "v": np.concatenate([a, b]),
    })
    out = ks_statistic(rd.from_pandas(df), "v", "g", "a", "b",
                       coarse_bins=64, num_partitions=4).to_pandas()
    assert int(out["n_a"].iloc[0]) == 400
    assert int(out["n_b"].iloc[0]) == 300
    assert out["ks_d"].iloc[0] == _numpy_ks(a, b)


def test_ks_identical_distributions_zero(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import ks_statistic

    v = np.arange(100, dtype="float64")
    df = pd.DataFrame({"g": ["a"] * 100 + ["b"] * 100,
                       "v": np.concatenate([v, v])})
    out = ks_statistic(rd.from_pandas(df), "v", "g", "a", "b",
                       coarse_bins=16, num_partitions=3).to_pandas()
    assert out["ks_d"].iloc[0] == 0.0


def test_ks_disjoint_supports_one(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import ks_statistic

    df = pd.DataFrame({"g": ["a"] * 10 + ["b"] * 10,
                       "v": list(range(10)) + list(range(100, 110))})
    out = ks_statistic(rd.from_pandas(df), "v", "g", "a", "b",
                       num_partitions=2).to_pandas()
    assert out["ks_d"].iloc[0] == 1.0


def test_mannwhitney_matches_quadratic_reference(ray_session):
    import ray.data as rd

    from crawler_service_ray.functions.relational import mannwhitney_u

    rng = np.random.default_rng(23)
    a = np.round(rng.normal(0.0, 1.0, 120), 1)   # heavy ties
    b = np.round(rng.normal(0.5, 1.0, 90), 1)
    df = pd.DataFrame({"g": ["a"] * len(a) + ["b"] * len(b),
                       "v": np.concatenate([a, b])})
    out = mannwhitney_u(rd.from_pandas(df), "v", "g", "a", "b",
                        coarse_bins=32, num_partitions=4).to_pandas()
    # quadratic reference: U_a = #(a < b) + 0.5 #(a == b)
    u_ref = float((a[:, None] < b[None, :]).sum()
                  + 0.5 * (a[:, None] == b[None, :]).sum())
    assert out["u_a"].iloc[0] == u_ref
    assert out["u_a"].iloc[0] + out["u_b"].iloc[0] == len(a) * len(b)
