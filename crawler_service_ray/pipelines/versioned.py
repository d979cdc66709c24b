"""Snapshot-versioned parquet tables — time travel over plain files.

The storage side (the export manifest, `compact`) lacked the primitive
a resumable 100-TB pipeline leans on hardest: *read the table exactly
as it was before the last load*.
This module is the minimal Delta/Iceberg-style commit log over plain
parquet, with the same crash-safety discipline as the export manifest
and `compact_dir`:

- ``root/data/`` holds IMMUTABLE data files (uuid-free deterministic
  names ``s{version}-{i}.parquet``; a version's files are written
  before its manifest, so a crash strands invisible orphans, never a
  readable-but-partial version).
- ``root/_versions/v{N}.json`` manifests list the RELATIVE file set
  (plus row counts) that constitutes version N. The atomic rename of
  the manifest temp file IS the commit point — readers either see
  version N fully or not at all.
- ``snapshot_write(ds, root, mode="append"|"overwrite")`` commits a
  new version: append unions the parent manifest's file list with the
  new files (the new data is written ONCE; history shares data files,
  like Delta's add-file log); overwrite starts a fresh file set while
  prior versions stay readable.
- ``read_version(root, version=None)`` → a streaming
  ``ray.data.read_parquet`` over exactly the manifest's files — no
  directory listing races with concurrent writers, old versions
  readable forever (until vacuumed).
- ``vacuum(root, keep_latest=k)`` drops manifests older than the last
  ``k`` and deletes data files no kept manifest references — the
  retention pass; it never touches files a kept version needs.

Scale notes: the manifest is O(#files) JSON — at 100 TB with GB-sized
files that is 10^5 lines, driver-trivial; data files never rewrite on
commit (append is metadata + new files only), so commit cost is
independent of table size. Reference analog: none (the reference has
no columnar storage at all); pattern is public Delta/Iceberg commit
protocol over a POSIX rename.
"""

from __future__ import annotations

import json
import os
import shutil

import ray.data as rd

_VDIR = "_versions"


def _manifest_path(root: str, version: int) -> str:
    return os.path.join(root, _VDIR, f"v{version:06d}.json")


def list_versions(root: str) -> list[int]:
    vdir = os.path.join(root, _VDIR)
    if not os.path.isdir(vdir):
        return []
    out = []
    for f in os.listdir(vdir):
        if f.startswith("v") and f.endswith(".json"):
            out.append(int(f[1:-5]))
    return sorted(out)


def _read_manifest(root: str, version: int) -> dict:
    with open(_manifest_path(root, version)) as fh:
        return json.load(fh)


def snapshot_write(ds: rd.Dataset, root: str,
                   mode: str = "append") -> int:
    """Commit ``ds`` as a new version of the table at ``root``.

    Returns the new version number. ``append`` keeps the parent
    version's files in the new manifest; ``overwrite`` starts fresh.
    Crash-safe: data files land first, the manifest rename commits.
    """
    if mode not in ("append", "overwrite"):
        raise ValueError(f"mode must be append|overwrite, got {mode!r}")
    versions = list_versions(root)
    parent = versions[-1] if versions else None
    new_v = (parent + 1) if parent is not None else 1

    data_dir = os.path.join(root, "data", f"s{new_v:06d}")
    os.makedirs(data_dir, exist_ok=True)
    ds.write_parquet(data_dir)
    files = sorted(
        os.path.join("data", f"s{new_v:06d}", f)
        for f in os.listdir(data_dir) if f.endswith(".parquet"))

    if mode == "append" and parent is not None:
        files = _read_manifest(root, parent)["files"] + files

    os.makedirs(os.path.join(root, _VDIR), exist_ok=True)
    manifest = {"version": new_v, "parent": parent, "mode": mode,
                "files": files}
    tmp = _manifest_path(root, new_v) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh)
    os.rename(tmp, _manifest_path(root, new_v))
    return new_v


def read_version(root: str, version: int | None = None,
                 **read_kwargs) -> rd.Dataset:
    """Streaming read of the table exactly as of ``version``
    (default: latest)."""
    versions = list_versions(root)
    if not versions:
        raise FileNotFoundError(f"no versions at {root}")
    v = versions[-1] if version is None else version
    if v not in versions:
        raise FileNotFoundError(f"version {v} not in {versions}")
    m = _read_manifest(root, v)
    paths = [os.path.join(root, f) for f in m["files"]]
    return rd.read_parquet(paths, **read_kwargs)


def snapshot_compact(root: str, target_files: int = 1) -> int:
    """OPTIMIZE as a commit: rewrite the LATEST version's row set into
    ``target_files`` files and commit it as a new OVERWRITE version.
    Old versions (and their small files) stay readable until
    ``vacuum`` retires them — compaction is never destructive, and a
    crash mid-compact leaves only invisible orphans (the manifest
    rename still gates visibility). At 100 TB, run one invocation per
    key-range table (the shard-per-invocation seam `compact_dir`
    documents); within one table the repartition is the only
    exchange."""
    if target_files < 1:
        raise ValueError("target_files must be >= 1")
    ds = read_version(root)
    return snapshot_write(ds.repartition(target_files), root,
                          mode="overwrite")


def vacuum(root: str, keep_latest: int = 1) -> dict:
    """Drop all but the newest ``keep_latest`` manifests and delete
    data files no kept manifest references. Returns counts."""
    if keep_latest < 1:
        raise ValueError("keep_latest must be >= 1")
    versions = list_versions(root)
    keep = set(versions[-keep_latest:])
    referenced: set[str] = set()
    for v in keep:
        referenced.update(_read_manifest(root, v)["files"])
    dropped_manifests = 0
    for v in versions:
        if v not in keep:
            os.remove(_manifest_path(root, v))
            dropped_manifests += 1
    dropped_files = 0
    data_root = os.path.join(root, "data")
    for dirpath, _dirnames, filenames in os.walk(data_root):
        for f in filenames:
            rel = os.path.relpath(os.path.join(dirpath, f), root)
            if f.endswith(".parquet") and rel not in referenced:
                os.remove(os.path.join(dirpath, f))
                dropped_files += 1
    # sweep now-empty snapshot dirs
    for d in sorted(os.listdir(data_root)) if os.path.isdir(data_root) \
            else []:
        p = os.path.join(data_root, d)
        if os.path.isdir(p) and not os.listdir(p):
            shutil.rmtree(p)
    return {"dropped_manifests": dropped_manifests,
            "dropped_files": dropped_files,
            "kept_versions": sorted(keep)}
