"""Multimodal (image/audio/video) column plumbing.

Binary payloads are opaque ``binary`` columns with typed metadata
(media_type, width/height or sample_rate, codec).  Decode is tiered:
PIL/cv2 (images) or soundfile (audio) when installed, else the
pure-numpy BMP/PNG and stdlib WAV decoders here, and for any other
payload a deterministic fake decoder (:func:`fake_decode`,
:func:`fake_decode_audio`) so a stage never aborts on one row.

Scale notes: binary rows are wide — these stages run with small
``batch_size`` (64-256) and ``batch_format="pyarrow"`` so payloads stay
zero-copy in the object store; never convert a binary column to pandas.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("media_type", pa.string()),  # "image" | "audio" | "video"
        ("payload", pa.binary()),
        (
            "meta",
            pa.struct(
                [
                    ("width", pa.int32()),
                    ("height", pa.int32()),
                    ("sample_rate", pa.int32()),
                    ("codec", pa.string()),
                ]
            ),
        ),
    ]
)


def decode_bmp(payload: bytes) -> np.ndarray:
    """Pure-numpy decoder for uncompressed (BI_RGB) 24/32-bit BMP ->
    HWC uint8 RGB.  Handles bottom-up and top-down rows and 4-byte row
    padding; drops the alpha channel of 32-bit payloads.  This is the
    always-available tier-3 real decode path (no imaging library needed),
    so the container exercises genuine bytes-to-pixels decode end-to-end
    instead of only the deterministic fake."""
    b = payload or b""
    if len(b) < 54 or b[:2] != b"BM":
        raise ValueError("not a BMP payload")
    off = int.from_bytes(b[10:14], "little")
    width = int.from_bytes(b[18:22], "little", signed=True)
    height = int.from_bytes(b[22:26], "little", signed=True)
    bits = int.from_bytes(b[28:30], "little")
    comp = int.from_bytes(b[30:34], "little")
    if comp != 0 or bits not in (24, 32) or width <= 0 or height == 0:
        raise ValueError(
            f"unsupported BMP (bits={bits}, compression={comp}): only "
            "uncompressed 24/32-bit payloads decode without an imaging lib"
        )
    h = abs(height)
    stride = ((bits * width + 31) // 32) * 4
    if len(b) < off + stride * h:
        raise ValueError("truncated BMP payload")
    rows = np.frombuffer(b, np.uint8, stride * h, off).reshape(h, stride)
    ch = bits // 8
    px = rows[:, : width * ch].reshape(h, width, ch)
    if height > 0:  # bottom-up storage (the BMP default)
        px = px[::-1]
    return px[..., 2::-1].copy()  # BGR(A) -> RGB


def encode_bmp(arr: np.ndarray) -> bytes:
    """HWC uint8 RGB -> minimal uncompressed 24-bit BMP bytes (fixture
    builder for the tier-3 decode path; round-trips with decode_bmp)."""
    a = np.asarray(arr, dtype=np.uint8)
    h, w = a.shape[0], a.shape[1]
    stride = ((24 * w + 31) // 32) * 4
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, : w * 3] = a[..., ::-1].reshape(h, w * 3)  # RGB -> BGR
    data = rows[::-1].tobytes()  # bottom-up
    header = (
        b"BM"
        + (54 + len(data)).to_bytes(4, "little")
        + b"\x00\x00\x00\x00"
        + (54).to_bytes(4, "little")
        + (40).to_bytes(4, "little")
        + w.to_bytes(4, "little", signed=True)
        + h.to_bytes(4, "little", signed=True)
        + (1).to_bytes(2, "little")
        + (24).to_bytes(2, "little")
        + (0).to_bytes(4, "little")
        + len(data).to_bytes(4, "little")
        + (2835).to_bytes(4, "little")
        + (2835).to_bytes(4, "little")
        + (0).to_bytes(4, "little")
        + (0).to_bytes(4, "little")
    )
    return header + data


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def decode_png(payload: bytes) -> np.ndarray:
    """Pure-python (stdlib zlib + numpy) decoder for non-interlaced 8-bit
    RGB/RGBA PNG -> HWC uint8 RGB (alpha dropped).  The most common real
    image format this container can exercise end-to-end: chunk walk,
    IDAT zlib inflate, and full scanline unfiltering (filters 0-4).

    Unfiltering is vectorized where the recurrence allows (None, Sub via
    per-lane modular cumsum, Up as a whole-row add); Average/Paeth carry
    a per-pixel dependency on the previous pixel AND row, so those rows
    fall back to a per-pixel loop — acceptable for a tier-3 path whose
    production replacement is PIL/cv2 (first tiers of the dispatch).
    """
    b = payload or b""
    if len(b) < 45 or b[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, ihdr, idat = 8, None, []
    while pos + 8 <= len(b):
        ln = int.from_bytes(b[pos : pos + 4], "big")
        typ = b[pos + 4 : pos + 8]
        data = b[pos + 8 : pos + 8 + ln]
        if len(data) < ln:
            raise ValueError("truncated PNG chunk")
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
        pos += 12 + ln  # len + type + data + crc
    if ihdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    width = int.from_bytes(ihdr[0:4], "big")
    height = int.from_bytes(ihdr[4:8], "big")
    depth, color, interlace = ihdr[8], ihdr[9], ihdr[12]
    if depth != 8 or color not in (2, 6) or interlace != 0:
        raise ValueError(
            f"unsupported PNG (depth={depth}, color={color}, "
            f"interlace={interlace}): only non-interlaced 8-bit RGB/RGBA "
            "decode without an imaging lib"
        )
    import zlib

    ch = 3 if color == 2 else 4
    raw = zlib.decompress(b"".join(idat))
    stride = width * ch
    if len(raw) < height * (stride + 1):
        raise ValueError("truncated PNG pixel data")
    rows = np.frombuffer(raw, np.uint8, height * (stride + 1)).reshape(
        height, stride + 1
    )
    filters, data = rows[:, 0], rows[:, 1:]
    out = np.zeros((height, stride), dtype=np.uint8)
    for y in range(height):
        f, cur = filters[y], data[y]
        prev = out[y - 1] if y else np.zeros(stride, np.uint8)
        if f == 0:
            out[y] = cur
        elif f == 1:  # Sub: recon(x) = filt(x) + recon(x-ch) — modular
            # cumsum per byte lane (uint8 wraps mod 256 natively)
            out[y] = np.cumsum(
                cur.reshape(width, ch), axis=0, dtype=np.uint8
            ).reshape(stride)
        elif f == 2:  # Up: whole-row add
            out[y] = cur + prev
        elif f == 3:  # Average: needs recon(x-ch) — per-pixel over the row
            row = out[y]
            row[:ch] = cur[:ch] + (prev[:ch] // 2)
            for x in range(ch, stride, ch):
                row[x : x + ch] = cur[x : x + ch] + (
                    (
                        row[x - ch : x].astype(np.uint16)
                        + prev[x : x + ch].astype(np.uint16)
                    )
                    // 2
                ).astype(np.uint8)
        elif f == 4:  # Paeth predictor — per-pixel over the row
            row = out[y]
            row[:ch] = cur[:ch] + prev[:ch]  # left=0 -> predictor is up
            for x in range(ch, stride, ch):
                a = row[x - ch : x].astype(np.int16)
                up = prev[x : x + ch].astype(np.int16)
                c = prev[x - ch : x].astype(np.int16)
                p = a + up - c
                pa_, pb, pc_ = np.abs(p - a), np.abs(p - up), np.abs(p - c)
                pred = np.where(
                    (pa_ <= pb) & (pa_ <= pc_), a, np.where(pb <= pc_, up, c)
                )
                row[x : x + ch] = cur[x : x + ch] + pred.astype(np.uint8)
        else:
            raise ValueError(f"invalid PNG filter type {f}")
    px = out.reshape(height, width, ch)
    return px[..., :3].copy()  # drop alpha


def encode_png(arr: np.ndarray) -> bytes:
    """HWC uint8 RGB(A) -> minimal non-interlaced 8-bit PNG bytes
    (filter-0 scanlines; fixture builder, round-trips with decode_png)."""
    import zlib

    a = np.asarray(arr, dtype=np.uint8)
    h, w, ch = a.shape
    color = {3: 2, 4: 6}[ch]
    scan = np.zeros((h, w * ch + 1), dtype=np.uint8)
    scan[:, 1:] = a.reshape(h, w * ch)

    def chunk(typ: bytes, data: bytes) -> bytes:
        return (
            len(data).to_bytes(4, "big")
            + typ
            + data
            + (zlib.crc32(typ + data) & 0xFFFFFFFF).to_bytes(4, "big")
        )

    ihdr = (
        w.to_bytes(4, "big")
        + h.to_bytes(4, "big")
        + bytes([8, color, 0, 0, 0])
    )
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(scan.tobytes(), 6))
        + chunk(b"IEND", b"")
    )


def decode_wav(payload: bytes, sample_rate: int = 16000) -> np.ndarray:
    """Stdlib+numpy decoder for RIFF/WAVE PCM -> mono float32 in [-1, 1]
    (8/16/32-bit integer PCM; channels averaged).  The always-available
    tier-3 real audio decode path."""
    import io
    import wave

    b = payload or b""
    if len(b) < 12 or b[:4] != b"RIFF" or b[8:12] != b"WAVE":
        raise ValueError("not a WAV payload")
    with wave.open(io.BytesIO(b)) as w:
        sw = w.getsampwidth()
        nch = w.getnchannels()
        frames = w.readframes(w.getnframes())
    if sw == 2:
        pcm = np.frombuffer(frames, "<i2").astype(np.float32) / 32768.0
    elif sw == 1:  # 8-bit WAV is unsigned
        pcm = (np.frombuffer(frames, np.uint8).astype(np.float32) - 128.0) / 128.0
    elif sw == 4:
        pcm = np.frombuffer(frames, "<i4").astype(np.float32) / 2147483648.0
    else:
        raise ValueError(f"unsupported WAV sample width {sw}")
    if nch > 1:
        pcm = pcm.reshape(-1, nch).mean(axis=1).astype(np.float32)
    return pcm


def encode_wav(pcm: np.ndarray, sample_rate: int = 16000) -> bytes:
    """Mono float vector in [-1, 1] -> 16-bit PCM WAV bytes (fixture
    builder; round-trips with decode_wav to 1/32767 quantization)."""
    import io
    import wave

    x = np.clip(np.asarray(pcm, dtype=np.float64), -1.0, 1.0)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(np.rint(x * 32767.0).astype("<i2").tobytes())
    return buf.getvalue()


def detect_image_decoder():
    """Probe for a real imaging library (PIL first, then cv2) and return
    a decode callable matching the stage decoder signature; the final
    tier is always available: pure-numpy :func:`decode_bmp` for
    uncompressed BMP payloads, with non-BMP payloads falling through to
    the deterministic fake (the documented container limitation for
    compressed codecs).

    Runs once per actor at stage ``__init__`` — a production environment
    with PIL/cv2 installed gets real decode with zero code change.  The
    requested width/height kwargs are accepted for signature
    compatibility but a real decode uses the payload's intrinsic
    dimensions.
    """
    try:
        import io

        from PIL import Image

        def _pil_decode(payload: bytes, width: int = 8, height: int = 8):
            img = Image.open(io.BytesIO(payload or b"")).convert("RGB")
            return np.asarray(img, dtype=np.uint8)

        return _pil_decode
    except ImportError:
        pass
    try:
        import cv2

        def _cv2_decode(payload: bytes, width: int = 8, height: int = 8):
            arr = cv2.imdecode(
                np.frombuffer(payload or b"", np.uint8), cv2.IMREAD_COLOR
            )
            if arr is None:  # cv2 returns None (no raise) on bad payloads
                raise ValueError(
                    f"cv2.imdecode could not decode a {len(payload or b'')}-byte payload"
                )
            return arr[..., ::-1].astype(np.uint8)  # BGR -> RGB

        return _cv2_decode
    except ImportError:
        pass

    def _numpy_decode(payload: bytes, width: int = 8, height: int = 8):
        b = payload or b""
        if b[:2] == b"BM":
            # best-effort tier: a sniffed-but-undecodable payload
            # (palette/RLE BMP, truncation, or 2^-16 random bytes that
            # start with "BM") falls through to the fake instead of
            # killing the whole map_batches job on one bad row
            try:
                return decode_bmp(b)
            except Exception:
                pass
        if b[:8] == _PNG_SIG:
            # same best-effort contract for sniffed PNGs (16-bit,
            # palette, interlaced, or corrupt payloads fall through)
            try:
                return decode_png(b)
            except Exception:
                pass
        return fake_decode(b, width=width, height=height)

    return _numpy_decode


def detect_audio_decoder():
    """Probe for a real audio library (soundfile) and return a decode
    callable matching the stage decoder signature; the final tier is
    always available: stdlib :func:`decode_wav` for RIFF/WAVE PCM
    payloads, non-WAV payloads falling through to the deterministic fake
    (see :func:`detect_image_decoder`)."""
    try:
        import io

        import soundfile as sf

        def _sf_decode(payload: bytes, sample_rate: int = 16000):
            data, _sr = sf.read(io.BytesIO(payload or b""), dtype="float32")
            return data if data.ndim == 1 else data.mean(axis=1)

        return _sf_decode
    except ImportError:
        pass

    def _numpy_audio_decode(payload: bytes, sample_rate: int = 16000):
        b = payload or b""
        if b[:4] == b"RIFF":
            # RIFF covers non-WAVE containers too (WebP/AVI), and WAV
            # itself spans formats decode_wav doesn't handle (float32,
            # ADPCM, 24-bit — wave.Error, not ValueError); best-effort
            # tier, so fall through to the fake rather than abort
            try:
                return decode_wav(b, sample_rate=sample_rate)
            except Exception:
                pass
        return fake_decode_audio(b, sample_rate=sample_rate)

    return _numpy_audio_decode


def fake_decode(payload: bytes, width: int = 8, height: int = 8) -> np.ndarray:
    """Deterministic stand-in decoder: bytes -> pseudo-pixels via SHA256
    expansion.  Shape (height, width, 3) uint8, stable across processes."""
    out = np.empty(height * width * 3, dtype=np.uint8)
    h = payload or b"\x00"
    pos = 0
    counter = 0
    while pos < out.size:
        d = hashlib.sha256(h + counter.to_bytes(4, "little")).digest()
        n = min(len(d), out.size - pos)
        out[pos : pos + n] = np.frombuffer(d[:n], dtype=np.uint8)
        pos += n
        counter += 1
    return out.reshape(height, width, 3)


class ImageFeatures:
    """Actor-pool stage: decode (tiered, see module doc) + feature-extract
    per image.

    Emits (media_id, mean_r, mean_g, mean_b, brightness) — the plumbing a
    CLIP/embedding extractor would use, with decode swapped in.
    """

    def __init__(self, decoder=None):
        self.decode = decoder or detect_image_decoder() or fake_decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, feats = [], []
        meta = batch["meta"].to_pylist()
        for mid, payload, m in zip(
            batch["media_id"].to_pylist(),
            batch["payload"].to_pylist(),
            meta,
        ):
            w = (m or {}).get("width") or 8
            h = (m or {}).get("height") or 8
            px = self.decode(payload, width=w, height=h).astype(np.float64)
            ids.append(mid)
            feats.append(
                [px[..., 0].mean(), px[..., 1].mean(), px[..., 2].mean(), px.mean()]
            )
        f = np.asarray(feats, dtype=np.float64).reshape(len(ids), 4)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "mean_r": pa.array(f[:, 0], pa.float64()),
                "mean_g": pa.array(f[:, 1], pa.float64()),
                "mean_b": pa.array(f[:, 2], pa.float64()),
                "brightness": pa.array(f[:, 3], pa.float64()),
            }
        )


def fake_decode_audio(payload: bytes, sample_rate: int = 16000) -> np.ndarray:
    """Deterministic stand-in decoder: bytes -> pseudo-PCM float32 in
    [-1, 1], length proportional to payload size, stable across
    processes."""
    raw = fake_decode(payload, width=max(1, len(payload or b"") // 24), height=8)
    pcm = raw.reshape(-1).astype(np.float32)
    return (pcm - 127.5) / 127.5


class AudioFeatures:
    """Actor-pool stage: decode (tiered) + per-clip audio features
    (duration, RMS energy, zero-crossing rate) — the plumbing a
    wav2vec-style embedder would use, with decode swapped in."""

    def __init__(self, decoder=None, sample_rate: int = 16000):
        self.decode = decoder or detect_audio_decoder() or fake_decode_audio
        self.sample_rate = sample_rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, feats = [], []
        for mid, payload, m in zip(
            batch["media_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["meta"].to_pylist(),
        ):
            sr = (m or {}).get("sample_rate") or self.sample_rate
            pcm = self.decode(payload, sample_rate=sr).astype(np.float64)
            n = max(len(pcm), 1)
            rms = float(np.sqrt(np.mean(pcm**2))) if len(pcm) else 0.0
            zc = (
                float(np.mean(np.signbit(pcm[1:]) != np.signbit(pcm[:-1])))
                if len(pcm) > 1
                else 0.0
            )
            ids.append(mid)
            feats.append([n / max(sr, 1), rms, zc])
        f = np.asarray(feats, dtype=np.float64).reshape(len(ids), 3)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "duration_s": pa.array(f[:, 0], pa.float64()),
                "rms": pa.array(f[:, 1], pa.float64()),
                "zero_cross_rate": pa.array(f[:, 2], pa.float64()),
            }
        )


def make_bmp_media_table(n: int = 32, seed: int = 3, size: int = 8) -> pa.Table:
    """Media fixture whose payloads are GENUINE uncompressed 24-bit BMP
    bytes (deterministic pixels), so the tier-3 numpy decoder exercises
    a real bytes-to-pixels decode end-to-end in this container."""
    rng = np.random.RandomState(seed)
    payloads = [
        encode_bmp(rng.randint(0, 256, (size, size, 3)).astype(np.uint8))
        for _ in range(n)
    ]
    return pa.table(
        {
            "media_id": pa.array([f"m{i:05d}" for i in range(n)], pa.string()),
            "media_type": pa.array(["image"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(
                [
                    {
                        "width": size,
                        "height": size,
                        "sample_rate": 0,
                        "codec": "bmp",
                    }
                    for _ in range(n)
                ],
                MEDIA_SCHEMA.field("meta").type,
            ),
        },
        schema=MEDIA_SCHEMA,
    )


def make_png_media_table(
    n: int = 32, seed: int = 7, size: int = 8, alpha_every: int = 3
) -> pa.Table:
    """Media fixture whose payloads are GENUINE non-interlaced 8-bit PNG
    bytes (deterministic pixels; every ``alpha_every``-th image RGBA), so
    the tier-3 pure-python PNG decoder exercises a real zlib-inflate +
    unfilter decode end-to-end in this container."""
    rng = np.random.RandomState(seed)
    payloads = []
    for i in range(n):
        ch = 4 if alpha_every and i % alpha_every == 0 else 3
        payloads.append(
            encode_png(rng.randint(0, 256, (size, size, ch)).astype(np.uint8))
        )
    return pa.table(
        {
            "media_id": pa.array([f"p{i:05d}" for i in range(n)], pa.string()),
            "media_type": pa.array(["image"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(
                [
                    {
                        "width": size,
                        "height": size,
                        "sample_rate": 0,
                        "codec": "png",
                    }
                    for _ in range(n)
                ],
                MEDIA_SCHEMA.field("meta").type,
            ),
        },
        schema=MEDIA_SCHEMA,
    )


def make_wav_media_table(
    n: int = 32, seed: int = 3, n_samples: int = 256, sample_rate: int = 8000
) -> pa.Table:
    """Media fixture whose payloads are GENUINE 16-bit PCM WAV bytes
    (deterministic sinusoid + noise), for the tier-3 WAV decode path."""
    rng = np.random.RandomState(seed)
    t = np.arange(n_samples)
    payloads = []
    for i in range(n):
        freq = 0.01 + 0.02 * (i % 7)
        pcm = 0.5 * np.sin(2 * np.pi * freq * t) + 0.1 * rng.randn(n_samples)
        payloads.append(encode_wav(pcm, sample_rate))
    return pa.table(
        {
            "media_id": pa.array([f"a{i:05d}" for i in range(n)], pa.string()),
            "media_type": pa.array(["audio"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(
                [
                    {
                        "width": 0,
                        "height": 0,
                        "sample_rate": sample_rate,
                        "codec": "pcm16",
                    }
                    for _ in range(n)
                ],
                MEDIA_SCHEMA.field("meta").type,
            ),
        },
        schema=MEDIA_SCHEMA,
    )

