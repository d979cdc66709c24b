"""POSIX directory-tree source: the SAME crawl engine over a real local
filesystem — the non-corpus proof of the Source seam (SURVEY.md §2.10).

The reference's POSIX crawlers walk a tree with ``os.walk`` and emit one
metadata record per file (`/root/reference/crawlers/local_posix.py:197-230`,
`legacy/posix_crawler.py:188-234`, funcX remote listing
`crawlers/local_funcx.py:148-169`). Here the same semantics ride the
frontier engine unchanged: a directory "URL" fetches to a doc whose link
spans are its child entries (subdirectory links = the reference's
``to_crawl.put``; file links = crawlable leaf records), and a file URL
fetches to a doc carrying its stat metadata as a text span (+ a media
span for binary extensions) — extension extraction per
`crawlers/globus_base_preserved.py:157-169`.

URL mapping: ``posix://<alias>/<relpath>`` with a fixed alias host, so
politeness, robots, the seen filter, canonicalization and partitioning
all apply verbatim. Paths containing ``#``/``?``/``//`` would collide
with URL canonicalization; the fetcher is for well-formed trees (the
reference makes the same assumption, quoting only on the Postgres edge,
`crawlers/local_posix.py:177-195`).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .fetch import FETCHED_SCHEMA

_TEXT_EXTS = {"txt", "md", "csv", "json", "py", "log", "html", "xml"}


class PosixFetcher:
    """Fetcher-seam implementation over a local directory tree. Same
    ``__call__(frontier batch) -> FETCHED_SCHEMA`` contract as
    ``CorpusFetcher`` — the epoch driver cannot tell them apart."""

    def __init__(self, root: str, epoch: int = 0, alias: str = "data"):
        self.root = os.path.abspath(root)
        self.alias = alias
        self.epoch = epoch

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def _path_of(self, url: str) -> str | None:
        prefix = f"posix://{self.alias}"
        # exact host match only: posix://database/... must NOT prefix-match
        # the "data" alias into the tree
        if url != prefix and not url.startswith(prefix + "/"):
            return None
        rel = url[len(prefix):].lstrip("/")
        p = os.path.normpath(os.path.join(self.root, rel))
        # traversal guard: never escape the root
        if p != self.root and not p.startswith(self.root + os.sep):
            return None
        return p

    def _url_of(self, path: str) -> str:
        rel = os.path.relpath(path, self.root)
        if rel == ".":
            return f"posix://{self.alias}"
        return f"posix://{self.alias}/" + rel.replace(os.sep, "/")

    def _doc_spans(self, path: str) -> list[dict] | None:
        """Spans of one filesystem entry; None = 404 (missing/denied)."""
        if os.path.isdir(path):
            try:
                entries = sorted(os.listdir(path))
            except OSError:
                return None
            spans = [
                {"kind": "text",
                 "text": f"dir {os.path.basename(path) or '.'} "
                         f"entries {len(entries)}",
                 "media_ref": "", "offset": 0}
            ]
            for name in entries:
                spans.append(
                    {"kind": "link", "text": name,
                     "media_ref": self._url_of(os.path.join(path, name)),
                     "offset": len(spans)}
                )
            return spans
        if os.path.isfile(path):
            try:
                st = os.stat(path)
            except OSError:
                return None
            name = os.path.basename(path)
            ext = name.rsplit(".", 1)[1].lower() if "." in name[1:] else ""
            spans = [
                {"kind": "text",
                 "text": f"file {name} size {st.st_size} ext {ext}",
                 "media_ref": "", "offset": 0}
            ]
            if ext and ext not in _TEXT_EXTS:
                spans.append(
                    {"kind": "media", "text": "",
                     "media_ref": self._url_of(path), "offset": 1}
                )
            return spans
        return None

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.Table.from_pylist([], schema=FETCHED_SCHEMA)
        urls = t["url"].to_numpy(zero_copy_only=False)
        hosts = t["host"].to_numpy(zero_copy_only=False)
        prios = t["priority"].to_numpy(zero_copy_only=False)
        depths = t["depth"].to_numpy(zero_copy_only=False)
        ranks = t["host_rank"].to_numpy(zero_copy_only=False)
        ts = t["virtual_ts_ms"].to_numpy(zero_copy_only=False)
        retries = (
            t["retries"].to_numpy(zero_copy_only=False)
            if "retries" in t.schema.names
            else np.zeros(n, dtype=np.int16)
        )
        rows = []
        for i in range(n):
            p = self._path_of(str(urls[i]))
            spans = self._doc_spans(p) if p else None
            status = 200 if spans is not None else 404
            spans = spans or []
            n_text = sum(1 for s in spans if s["kind"] == "text")
            n_media = sum(1 for s in spans if s["kind"] == "media")
            n_links = sum(1 for s in spans if s["kind"] == "link")
            nbytes = sum(len(s["text"]) + len(s["media_ref"]) for s in spans)
            rows.append(
                {
                    "doc_id": str(urls[i]), "url": str(urls[i]),
                    "host": str(hosts[i]), "priority": float(prios[i]),
                    "depth": int(depths[i]), "fetch_epoch": self.epoch,
                    "host_rank": int(ranks[i]),
                    "virtual_ts_ms": int(ts[i]),
                    "retries": int(retries[i]), "status": status,
                    "src": "fetch", "spans": spans,
                    "n_text_spans": n_text, "n_media_spans": n_media,
                    "n_links": n_links, "bytes": nbytes,
                }
            )
        return pa.Table.from_pylist(rows, schema=FETCHED_SCHEMA)


def walk_expected(root: str, alias: str = "data") -> set[str]:
    """os.walk ground truth: every directory and file URL reachable from
    the root (test oracle for the posix source)."""
    root = os.path.abspath(root)

    def url_of(path):
        rel = os.path.relpath(path, root)
        return (f"posix://{alias}" if rel == "."
                else f"posix://{alias}/" + rel.replace(os.sep, "/"))

    out = {url_of(root)}
    for dirpath, dirnames, filenames in os.walk(root):
        for d in dirnames:
            out.add(url_of(os.path.join(dirpath, d)))
        for f in filenames:
            out.add(url_of(os.path.join(dirpath, f)))
    return out
