"""Multimodal columns: opaque binary payloads + typed metadata.

Images/audio/video are carried as ``binary`` columns with metadata.
``media_features`` decodes as an actor-pool ``map_batches`` stage; the
export's per-ref ``media_ref_features`` is a plain function (mapped as
tasks, or called in-process by a small export).

MIME types are SNIFFED from payload magic bytes — the analog of the
reference's ``magic.Magic(mime=True).from_file(path)``
(`/root/reference/crawlers/local_funcx.py:128,163-166`) — never derived
from the ref string. The synthetic payload generator emits WELL-FORMED
minimal headers (PNG signature + IHDR, GIF89a logical screen descriptor,
JPEG SOI + SOF0 frame, RIFF/WAVE fmt chunk), and ``HeaderCodec`` parses
real dimensions / sample rates out of those headers, so sniff + decode
exercise genuine byte-level parsing end-to-end. Full-frame decoding
(pixel data) would need PIL/libav, absent in this container — unknown
magic raises ``NotImplementedError`` exactly like a codec error would.
"""

from __future__ import annotations

import struct
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("doc_id", pa.string()),
        ("payload", pa.binary()),
    ]
)


# -- synthetic payload generation (deterministic, well-formed headers) ------

def _png_payload(h: int) -> bytes:
    w, ht = 64 + h % 1920, 64 + (h >> 16) % 1080
    ihdr = struct.pack(">II5B", w, ht, 8, 2, 0, 0, 0)
    body = ((h % 251 + 1).to_bytes(1, "little")) * (h % 2048 + 32)
    return (b"\x89PNG\r\n\x1a\n"
            + struct.pack(">I", 13) + b"IHDR" + ihdr + b"\x00" * 4 + body)


def _gif_payload(h: int) -> bytes:
    w, ht = 16 + h % 1024, 16 + (h >> 16) % 768
    body = ((h % 249 + 1).to_bytes(1, "little")) * (h % 1024 + 16)
    return b"GIF89a" + struct.pack("<HH", w, ht) + b"\x00" * 3 + body


def _jpeg_payload(h: int) -> bytes:
    w, ht = 32 + h % 4096, 32 + (h >> 16) % 2160
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
    sof0 = b"\xff\xc0" + struct.pack(">HBHHB", 11, 8, ht, w, 3)
    body = ((h % 253 + 1).to_bytes(1, "little")) * (h % 1536 + 16)
    return b"\xff\xd8" + app0 + sof0 + body + b"\xff\xd9"


def _wav_payload(h: int) -> bytes:
    rate = (8000, 16000, 22050, 44100)[h % 4]
    channels = 1 + (h >> 8) % 2
    fmt = struct.pack("<HHIIHH", 1, channels, rate,
                      rate * channels * 2, channels * 2, 16)
    data = ((h % 251).to_bytes(1, "little")) * (h % 4096 + 64)
    riff = b"WAVEfmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack(
        "<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


_PAYLOAD_BUILDERS = (_png_payload, _gif_payload, _jpeg_payload, _wav_payload)


def synth_payload(ref_hash: int) -> bytes:
    """Deterministic well-formed payload for a media ref: one of the four
    real formats, or a headerless blob (1 in 5) exercising the
    unknown-type path."""
    k = ref_hash % 5
    if k == 4:
        return ((ref_hash % 251 + 1).to_bytes(1, "little")) * (
            ref_hash % 1024 + 64
        )
    return _PAYLOAD_BUILDERS[k](ref_hash >> 3)


# -- sniffing + header parsing (the real codec surface) ---------------------

def sniff_mime(payload: bytes) -> str:
    """MIME from magic bytes (M5 analog — the reference shells out to
    libmagic; this is the same dispatch for the formats the corpus
    carries)."""
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        return "image/png"
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return "image/gif"
    if payload[:3] == b"\xff\xd8\xff":
        return "image/jpeg"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "audio/wav"
    return "application/octet-stream"


class HeaderCodec:
    """Parses real features out of format headers: PNG IHDR / GIF screen
    descriptor / JPEG SOF0 / WAV fmt chunk. Raises ``NotImplementedError``
    for unknown magic — the same failure surface a real codec (PIL/libav,
    not installed here) presents for an undecodable payload."""

    def decode(self, payload: bytes) -> dict:
        mime = sniff_mime(payload)
        if mime == "image/png":
            w, h = struct.unpack(">II", payload[16:24])
            return {"media_type": mime, "width": w, "height": h,
                    "sample_rate": 0, "channels": 0}
        if mime == "image/gif":
            w, h = struct.unpack("<HH", payload[6:10])
            return {"media_type": mime, "width": w, "height": h,
                    "sample_rate": 0, "channels": 0}
        if mime == "image/jpeg":
            # scan markers for SOF0..SOF3 (baseline frame headers)
            i = 2
            while i + 9 < len(payload):
                if payload[i] != 0xFF:
                    break
                marker = payload[i + 1]
                seglen = struct.unpack(">H", payload[i + 2:i + 4])[0]
                if 0xC0 <= marker <= 0xC3:
                    h, w = struct.unpack(">HH", payload[i + 5:i + 9])
                    return {"media_type": mime, "width": w, "height": h,
                            "sample_rate": 0, "channels": 0}
                i += 2 + seglen
            raise NotImplementedError("jpeg without SOF frame header")
        if mime == "audio/wav":
            channels, rate = struct.unpack("<HI", payload[22:28])
            return {"media_type": mime, "width": 0, "height": 0,
                    "sample_rate": rate, "channels": channels}
        raise NotImplementedError(f"no codec for magic {payload[:4]!r}")


def media_table_from_fetched(t: pa.Table) -> pa.Table:
    """Extract media spans from fetched docs into a media table with a
    synthetic well-formed binary payload (deterministic bytes derived
    from the ref — stands in for the fetched object)."""
    spans = t["spans"].combine_chunks()
    flat = spans.flatten()
    parents = pc.list_parent_indices(spans)
    is_media = pc.equal(flat.field("kind"), "media")
    refs = flat.field("media_ref").filter(is_media)
    owners = t["doc_id"].combine_chunks().take(parents.filter(is_media))
    refs_np = refs.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(refs_np, dtype=object))
    payloads = [synth_payload(int(x)) for x in h]
    return pa.Table.from_arrays(
        [refs, owners, pa.array(payloads, type=pa.binary())],
        schema=MEDIA_SCHEMA,
    )


class MediaFeatures:
    """Actor-pool stage: codec constructed once per actor (ST3 analog,
    `/root/reference/crawlers/local_funcx.py:128` loads `magic` once);
    per batch sniffs MIME from magic bytes and parses header features.
    Batches must stay SMALL for large binary rows — callers pass
    batch_size sized by bytes, not rows."""

    def __init__(self):
        self.codec = HeaderCodec()

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t["payload"].to_pylist()
        n = len(payloads)
        mtypes = np.empty(n, dtype=object)
        width = np.zeros(n, dtype=np.int32)
        height = np.zeros(n, dtype=np.int32)
        rate = np.zeros(n, dtype=np.int32)
        channels = np.zeros(n, dtype=np.int32)
        ok = np.zeros(n, dtype=bool)
        for i, p in enumerate(payloads):
            try:
                f = self.codec.decode(p)
                mtypes[i] = f["media_type"]
                width[i], height[i] = f["width"], f["height"]
                rate[i], channels[i] = f["sample_rate"], f["channels"]
                ok[i] = True
            except (NotImplementedError, struct.error):
                # unknown magic OR a truncated/corrupt header that passed
                # the sniff — both surface as an undecodable row, never a
                # stage crash
                mtypes[i] = sniff_mime(p)
                ok[i] = False
        return pa.Table.from_arrays(
            [
                t["media_ref"].combine_chunks(),
                t["doc_id"].combine_chunks(),
                pa.array([len(p) for p in payloads], type=pa.int64()),
                pa.array(mtypes, type=pa.string()),
                pa.array(width),
                pa.array(height),
                pa.array(rate),
                pa.array(channels),
                pa.array(ok),
            ],
            names=[
                "media_ref", "doc_id", "payload_bytes", "media_type",
                "width", "height", "sample_rate", "channels", "decoded",
            ],
        )


def media_features(ds: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    """fetched-docs Dataset → per-media feature rows. Small batch_size:
    binary payloads make rows wide, so blocks are bounded by bytes."""
    media = ds.map_batches(
        media_table_from_fetched, batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return media.map_batches(
        MediaFeatures,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 4),
        # max_restarts=0: actor restart would need constructor refs from
        # the object store (which may be gone); rely on Ray Data task
        # retry + fresh actor instead of an in-place restart.
        max_restarts=0,
    )


# -- interleaved text+media documents (the north-rule corpus shape) ---------
#
# The training-data side of multimodality: documents as ORDERED sequences
# of text and media segments (the `input_hint` shape; the reference's
# family blob likewise preserves every file kind in order,
# `/root/reference/crawlers/globus_base_preserved.py:320-346`). The
# synthetic derivation below is a pure deterministic function of
# (doc_id, text) computable by both engines, so segment order, media
# identity and packing are all SQL-oracle-checkable.

SEGMENT_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)


def parent_lists(values: pa.Array, parents: np.ndarray,
                 n: int) -> pa.ListArray:
    """``n`` lists over the flat ``values``: list i holds the values
    whose parent is i. ``parents`` must ascend, so each list is one
    contiguous run (offsets[i] = the values with parent < i)."""
    return pa.ListArray.from_arrays(
        pa.array(np.searchsorted(parents, np.arange(n + 1)),
                 type=pa.int32()), values)


def _segment_arrays(
    df: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    words_per_chunk: int = 20,
    ref_mod: int = 257,
):
    """Vectorized interleaved-segment derivation for one batch.

    Splits each doc's text into ``words_per_chunk``-word chunks and
    inserts a deterministic media segment between consecutive chunks
    (ref = ``m{(doc_id*131 + chunk) % ref_mod}`` — refs repeat across
    docs, so corpus-level media dedup is non-trivial). Split is on a
    single space to match DuckDB ``string_split(text, ' ')`` exactly.

    Returns (doc_idx, pos, kind, content) numpy arrays sorted by
    (doc, pos) — content holds the chunk text for text segments and the
    media ref for media segments — plus per-doc (n_chunks, n_media,
    n_words).
    """
    ids = df[id_col].to_numpy()
    words = df[text_col].astype(str).str.split(" ")
    lens = words.str.len().to_numpy().astype(np.int64)
    nch = (lens + words_per_chunk - 1) // words_per_chunk
    n = len(df)

    # chunk join: one flat word array, chunk ids via the arange trick
    flat = np.concatenate(
        [w for w in words.to_numpy() if w]
    ).astype(object) if lens.sum() else np.array([], dtype=object)
    W0 = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=W0[1:])
    C0 = np.zeros(n + 1, np.int64)
    np.cumsum(nch, out=C0[1:])
    pos_in_doc = np.arange(int(lens.sum())) - np.repeat(W0[:-1], lens)
    chunk_global = np.repeat(C0[:-1], lens) + pos_in_doc // words_per_chunk
    # every chunk holds >= 1 word, so no chunk id is skipped: one Arrow
    # join, no Python call per chunk
    chunks = pc.binary_join(parent_lists(
        pa.array(flat, type=pa.string()), chunk_global, int(nch.sum())),
        " ").to_numpy(zero_copy_only=False)

    # text segment rows: doc d chunk c at pos 2c
    t_doc = np.repeat(np.arange(n), nch)
    t_c = np.arange(int(nch.sum())) - np.repeat(C0[:-1], nch)
    # media rows: between chunks (c < nch-1) at pos 2c+1
    nme = np.maximum(nch - 1, 0)
    m_doc = np.repeat(np.arange(n), nme)
    M0 = np.zeros(n + 1, np.int64)
    np.cumsum(nme, out=M0[1:])
    m_c = np.arange(int(nme.sum())) - np.repeat(M0[:-1], nme)
    m_ref_num = (ids[m_doc].astype(np.int64) * 131 + m_c) % ref_mod
    m_content = np.char.add(
        "m", m_ref_num.astype(np.int64).astype(str)).astype(object)

    doc_idx = np.concatenate([t_doc, m_doc])
    pos = np.concatenate([2 * t_c, 2 * m_c + 1]).astype(np.int32)
    kind = np.concatenate([
        np.full(len(t_doc), "text", dtype=object),
        np.full(len(m_doc), "media", dtype=object),
    ])
    content = np.concatenate([chunks, m_content]) if len(doc_idx) else \
        np.array([], dtype=object)
    order = np.lexsort((pos, doc_idx))
    return (doc_idx[order], pos[order], kind[order], content[order],
            nch, nme, lens)


def segment_rows(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    words_per_chunk: int = 20,
    ref_mod: int = 257,
) -> rd.Dataset:
    """Documents → exploded interleaved segment rows
    (doc_id, pos, kind, content) in document order — the span-order
    parity surface (one batch pass, no shuffle)."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_idx, pos, kind, content, _, _, _ = _segment_arrays(
            df, text_col, id_col, words_per_chunk, ref_mod)
        ids = df[id_col].to_numpy()
        return pd.DataFrame({
            id_col: ids[doc_idx],
            "pos": pos.astype("int64"),
            "kind": kind,
            "content": content,
        })

    return ds.map_batches(explode, batch_format="pandas")


def interleaved_batch(t: pa.Table, text_col: str = "text",
                      id_col: str = "doc_id", keep_cols: tuple = (),
                      words_per_chunk: int = 20,
                      ref_mod: int = 257) -> pa.Table:
    """:func:`interleaved_docs`' kernel over one Arrow table of docs."""
    df = pd.DataFrame({
        id_col: t[id_col].to_numpy(zero_copy_only=False),
        text_col: t[text_col].to_numpy(zero_copy_only=False),
    })
    doc_idx, pos, kind, content, nch, nme, lens = _segment_arrays(
        df, text_col, id_col, words_per_chunk, ref_mod)
    is_text = kind == "text"
    seg_text = np.where(is_text, content, "").astype(object)
    seg_ref = np.where(is_text, "", content).astype(object)
    flat = pa.StructArray.from_arrays(
        [
            pa.array(kind, type=pa.string()),
            pa.array(seg_text, type=pa.string()),
            pa.array(seg_ref, type=pa.string()),
            pa.array(pos, type=pa.int32()),
        ],
        fields=list(SEGMENT_STRUCT),
    )
    offsets = np.zeros(len(df) + 1, np.int64)
    np.cumsum((nch + nme), out=offsets[1:])
    segments = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), flat)
    cols = {
        id_col: t[id_col],
        text_col: t[text_col],
        "n_tokens": pa.array(lens, type=pa.int64()),
        "n_media": pa.array(nme.astype("int64"), type=pa.int64()),
        "segments": segments,
    }
    for c in keep_cols:
        cols[c] = t[c]
    return pa.Table.from_arrays(
        list(cols.values()), names=list(cols.keys()))


def interleaved_docs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: tuple = (),
    words_per_chunk: int = 20,
    ref_mod: int = 257,
) -> rd.Dataset:
    """Documents → one row per doc with an Arrow ``segments``
    list<struct<kind, text, media_ref, offset>> column (text+media in
    document order), plus n_tokens (word count) and n_media — the
    per-document multimodal shape the export/pack stages consume."""
    return ds.map_batches(
        partial(interleaved_batch, text_col=text_col, id_col=id_col,
                keep_cols=tuple(keep_cols),
                words_per_chunk=words_per_chunk, ref_mod=ref_mod),
        batch_format="pyarrow")


def media_ref_features(df: pd.DataFrame) -> pd.DataFrame:
    """Payload features over UNIQUE media refs: materialize the payload
    (``synth_payload`` stands in for the object fetch — deterministic
    bytes from the ref; a real deployment fetches the blob here),
    content-hash it (md5 — the M9 analog,
    `/root/reference/legacy/posix_crawler.py:71-91`), sniff the MIME and
    parse header features. Runs AFTER ref-level dedup, so payload work
    is paid once per distinct ref, never per occurrence. Stateless
    (``HeaderCodec`` holds nothing), so it maps as plain tasks."""
    import hashlib

    codec = HeaderCodec()
    refs = df["media_ref"].to_numpy(dtype=object)
    h = pd.util.hash_array(refs)
    n = len(refs)
    chash = np.empty(n, dtype=object)
    nbytes = np.zeros(n, dtype=np.int64)
    mtypes = np.empty(n, dtype=object)
    decoded = np.zeros(n, dtype=bool)
    for i in range(n):
        p = synth_payload(int(h[i]))
        chash[i] = hashlib.md5(p).hexdigest()
        nbytes[i] = len(p)
        try:
            mtypes[i] = codec.decode(p)["media_type"]
            decoded[i] = True
        except (NotImplementedError, struct.error):
            mtypes[i] = sniff_mime(p)
    return df.assign(content_hash=chash, payload_bytes=nbytes,
                     media_type=mtypes, decoded=decoded)


def media_canon(part: pd.DataFrame, ref_col: str = "media_ref",
                hash_col: str = "content_hash") -> pd.DataFrame:
    """:func:`media_content_dedup`'s kernel over any set of whole
    content-hash groups: ``canonical_ref`` (the group's min ref) and
    ``content_dup_count`` per row."""
    part = part.sort_values([hash_col, ref_col], kind="mergesort")
    gb = part.groupby(hash_col, sort=False)
    return part.assign(
        canonical_ref=gb[ref_col].transform("first"),
        content_dup_count=gb[ref_col].transform("size").astype("int64"),
    )


def media_content_dedup(
    ds: rd.Dataset,
    ref_col: str = "media_ref",
    hash_col: str = "content_hash",
    num_partitions: int = 16,
) -> rd.Dataset:
    """Content-level media dedup: refs whose payloads hash identically
    collapse to one canonical ref (the min, deterministic) — the second
    dedup tier after ref-level (distinct URLs can serve identical
    bytes). One (hash → partition) shuffle of the already-deduped ref
    table; adds ``canonical_ref`` and ``content_dup_count`` columns."""
    from .relational import grouped_apply

    return grouped_apply(
        ds, [hash_col], partial(media_canon, ref_col=ref_col,
                                hash_col=hash_col),
        num_partitions=num_partitions)
