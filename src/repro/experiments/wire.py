"""Pluggable array wire formats: how model state crosses processes.

Every fan-out in the system — fleet device rounds, and any caller of
:func:`repro.experiments.parallel.run_jobs` that ships ndarrays — moves
``{name: ndarray}`` dicts between processes.  This module makes that
transport a registry (:data:`repro.registry.WIRE_FORMATS`, same alias +
"did you mean" semantics as BACKENDS/SCENARIOS) of bitwise-lossless
codecs:

``json-b64``
    The reference codec: base64 of the raw bytes plus dtype + shape,
    JSON-compatible end to end.  Slowest (base64 inflates bytes by 4/3
    and copies twice), but fully self-contained — the archival format,
    and the correctness oracle the other formats are tested against.
``shm``
    Zero-(re)copy transport through ``multiprocessing.shared_memory``:
    all arrays of a payload are packed into **one** named segment and
    only a small JSON manifest (name, dtype, shape, byte offset)
    crosses the pipe.  Lifecycle is deterministic: the sender creates
    the segment, exactly one receiver attaches, copies out, and
    unlinks; the sender's :meth:`WireFormat.release` is a best-effort
    backstop that unlinks any segment the receiver never consumed
    (worker crash), so segments cannot leak.
``delta``
    Content-hash deltas for repeated sends over a named ``channel``
    (fleet broadcasts): only arrays whose blake2b content hash changed
    since the previous send on that channel are shipped (through an
    inner ``shm`` or ``json-b64`` codec); the receiver merges them over
    its cached base and verifies every array it delivers, shipped or
    reused, against the sender's hash, so neither a stale cache nor a
    damaged payload can silently corrupt a round.
``delta-q8``
    ``delta`` with changed float arrays int8-quantized (per-array
    scale + integer zero point).  **Lossy**: per-element error is at
    most ``(max(x, 0) - min(x, 0)) / 255``; exact zeros stay exactly
    zero; integer/bool/small arrays and every full (first) send stay
    bitwise.  ~4x smaller changed-array traffic.

:func:`encode_array`/:func:`decode_array` are the one place an array
becomes JSON-safe bytes: the ``json-b64`` table, the serve TCP
requests (:mod:`repro.serve.net`), scenario checkpoints and the
fleet's global-model overlay all use them, and :func:`decode_array`
rejects malformed specs with :class:`WireProtocolError`.

The lossless formats are exact: ``decode(encode(arrays))`` is
bitwise-identical to the input for every dtype/shape, including
float64, 0-d, and empty arrays (the round-trip property tests in
``tests/integration/test_wire_formats.py`` enforce this across the
whole registry).  The serial==parallel identity invariant holds under
*every* format — lossy codecs quantize identically wherever they run —
while the fleet-of-1 == plain-Session identity additionally requires a
lossless broadcast leg, so it is asserted for
:func:`lossless_wire_format_names` only (registrations carry a
``lossless`` metadata flag; see docs/FLEET.md's tolerance table).

Selection: pass ``wire_format=`` to :class:`FleetCoordinator` /
``run_fleet`` (or ``--wire-format`` on the CLI), or set the
``REPRO_WIRE_FORMAT`` environment variable as the process default.
Unset, the coordinator picks ``delta`` for cross-process rounds.
"""

from __future__ import annotations

import base64
import hashlib
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.registry import WIRE_FORMATS, UnknownComponentError, register_wire_format

__all__ = [
    "WIRE_FORMATS",
    "register_wire_format",
    "WireFormat",
    "WireProtocolError",
    "JsonB64Format",
    "ShmFormat",
    "DeltaFormat",
    "DeltaQ8Format",
    "array_hash",
    "encode_array",
    "decode_array",
    "lossless_wire_format_names",
    "create_wire_format",
    "get_wire_format",
    "resolve_wire_format",
    "default_wire_format",
    "decode_state_payload",
    "shm_available",
    "outstanding_shm_segments",
    "WIRE_FORMAT_ENV",
]

#: Environment variable naming the process-default wire format (the
#: CLI's ``--wire-format`` sets it; CI's wire matrix exports it).
WIRE_FORMAT_ENV = "REPRO_WIRE_FORMAT"

#: Array offsets inside a shared-memory segment are rounded up to this
#: (cache-line) alignment so decoded views are never split-line.
_SHM_ALIGN = 64

#: The most bytes a numpy array can span (its index type's maximum).
_MAX_BYTES = np.iinfo(np.intp).max


class WireProtocolError(RuntimeError):
    """A wire payload could not be decoded (malformed array spec,
    missing delta base, hash mismatch, unknown segment): the
    transport-level named error."""


class WireFormat:
    """Codec for ``{name: ndarray}`` dicts crossing a process boundary.

    Implementations must be bitwise-lossless and keyword-constructible
    (registry factories are invoked with keywords only).  ``channel``
    identifies a long-lived point-to-point stream (one fleet device);
    stateless codecs ignore it, ``delta`` keys its caches by it.
    """

    #: Canonical registered name, stamped into encoded payloads so the
    #: receiver can dispatch without out-of-band agreement.
    name: str = "base"

    #: Whether ``decode(encode(x))`` is bitwise ``x`` on *every* send.
    #: Lossy codecs (``delta-q8``) set this False and document their
    #: error bound; identity tests that require an exact broadcast leg
    #: enumerate :func:`lossless_wire_format_names`.
    lossless: bool = True

    @property
    def response_format(self) -> str:
        """The format the *reply* direction should use.  Deltas only pay
        off on repeated sends of mostly-unchanged state (broadcasts), so
        :class:`DeltaFormat` answers with its inner codec; stateless
        codecs answer with themselves."""
        return self.name

    def encode(
        self, arrays: Dict[str, np.ndarray], *, channel: Optional[str] = None
    ) -> Dict[str, Any]:
        """Encode an array dict into a picklable/JSON-ish payload."""
        raise NotImplementedError

    def decode(
        self, payload: Dict[str, Any], *, channel: Optional[str] = None
    ) -> Dict[str, np.ndarray]:
        """Exact inverse of :meth:`encode`; the returned arrays are
        owned by the caller (never views into shared state)."""
        raise NotImplementedError

    def release(self, payload: Dict[str, Any]) -> None:
        """Sender-side cleanup for a payload that may never have been
        decoded (crashed receiver).  Idempotent; default no-op."""

    def payload_nbytes(self, payload: Dict[str, Any]) -> int:
        """Approximate array bytes this payload carries across the
        transport (manifest/JSON framing excluded) — what the fleet's
        bytes-sent and compression-ratio metrics report.  0 when a
        codec cannot tell."""
        return 0

    # -- channel-state hooks (no-ops for stateless codecs) --------------
    def note_sent(self, channel: str, arrays: Dict[str, np.ndarray]) -> None:
        """Sender hook: the receiver on ``channel`` now holds exactly
        ``arrays`` (e.g. a worker returned its round output)."""

    def note_received(self, channel: str, arrays: Dict[str, np.ndarray]) -> None:
        """Receiver hook: the local side of ``channel`` now holds
        exactly ``arrays`` (the base for the next delta)."""

    def invalidate(self, channel: Optional[str] = None) -> None:
        """Forget channel state so the next encode ships a full payload
        (e.g. the receiver process was respawned).  ``None`` = all."""

    def retire(
        self,
        arrays: Dict[str, np.ndarray],
        *,
        receiver: Optional["WireFormat"] = None,
        defer: Iterable[str] = (),
    ) -> None:
        """Broadcast hook: drop the channel entries the next send of
        ``arrays`` ships anyway, here and in ``receiver`` (the in-process
        receiving codec); channels in ``defer`` wait for a later call."""


# ----------------------------------------------------------------------
# Instance plumbing: per-process receiver singletons + sender factories.
# ----------------------------------------------------------------------
_INSTANCES: Dict[str, WireFormat] = {}


def create_wire_format(name: str) -> WireFormat:
    """A fresh codec instance (sender side: one per coordinator)."""
    return WIRE_FORMATS.create(WIRE_FORMATS.get(name).name)


def get_wire_format(name: str) -> WireFormat:
    """The per-process singleton codec (receiver side: workers decode
    through this so channel caches persist across jobs)."""
    canonical = WIRE_FORMATS.get(name).name
    instance = _INSTANCES.get(canonical)
    if instance is None:
        instance = _INSTANCES[canonical] = WIRE_FORMATS.create(canonical)
    return instance


def decode_state_payload(payload: Dict[str, Any]) -> Dict[str, np.ndarray]:
    """Decode any wire payload via its self-describing ``wire`` key.

    A payload that is not an object, lacks ``wire`` or names no
    registered format is a :class:`WireProtocolError`, like every
    defect the named format's ``decode`` meets."""
    name = _field(payload, "wire", str, "wire payload")
    try:
        codec = get_wire_format(name)
    except UnknownComponentError as exc:
        raise WireProtocolError(
            f"wire payload names an unknown format: {exc}"
        ) from None
    return codec.decode(payload)


def resolve_wire_format(name: Optional[str] = None) -> Optional[str]:
    """Canonical wire-format name, or None meaning "coordinator picks".

    Precedence: explicit ``name`` > :data:`WIRE_FORMAT_ENV` > None.
    Unknown names raise :class:`~repro.registry.UnknownComponentError`
    with a "did you mean ...?" suggestion.
    """
    if name is None:
        name = os.environ.get(WIRE_FORMAT_ENV) or None
    if name is None:
        return None
    return WIRE_FORMATS.get(name).name


def default_wire_format() -> str:
    """The format the coordinator picks for cross-process rounds when
    nothing is selected: ``delta`` (which rides ``shm`` where the
    platform supports it and ``json-b64`` otherwise)."""
    return "delta"


def lossless_wire_format_names() -> List[str]:
    """Registered formats whose round trip is bitwise on every send
    (``lossless`` registration metadata; lossy compressed deltas are
    excluded).  The fleet-of-1 == plain-Session identity contract is
    asserted over exactly this set."""
    return sorted(
        entry.name
        for entry in WIRE_FORMATS.entries()
        if entry.metadata.get("lossless", True)
    )


def _raw_view(contiguous: np.ndarray) -> memoryview:
    """The array's bytes as a flat view — no copy (DESIGN.md §7).

    ``memoryview.cast`` rejects zero-size views, so empty arrays map to
    an empty view explicitly.
    """
    if contiguous.nbytes == 0:
        return memoryview(b"")
    return memoryview(contiguous).cast("B")


def array_hash(value: Any) -> str:
    """Content hash of an array: blake2b over dtype + shape + raw bytes.

    Bitwise-sensitive (two arrays hash equal iff dtype, shape, and every
    byte agree), so it is safe as the ``delta`` format's change test.
    """
    array = np.asarray(value)
    contiguous = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(tuple(array.shape)).encode("ascii"))
    digest.update(_raw_view(contiguous))
    return digest.hexdigest()


def _field(payload: Any, key: str, kinds: Any, what: str) -> Any:
    """``payload[key]``, checked: a payload that is not an object, a
    missing key, or a value not of ``kinds`` is a
    :class:`WireProtocolError` naming ``what`` and the key."""
    if not isinstance(payload, dict):
        raise WireProtocolError(
            f"{what} must be an object, got {type(payload).__name__}"
        )
    if key not in payload:
        raise WireProtocolError(f"{what} is missing {key!r}")
    value = payload[key]
    if not isinstance(value, kinds):
        raise WireProtocolError(
            f"{what} {key!r} has the wrong kind: {type(value).__name__}"
        )
    return value


def _array_dtype(name: Any, what: str = "array") -> np.dtype:
    """The dtype a payload names; a :class:`WireProtocolError` naming
    ``what`` unless it is a numpy dtype with fixed-size raw bytes."""
    dtype = None
    if isinstance(name, str):
        try:
            dtype = np.dtype(name)
        except (TypeError, ValueError):
            pass
    if dtype is None or dtype.hasobject or dtype.itemsize == 0:
        raise WireProtocolError(
            f"{what} dtype {name!r} is not a numpy dtype with fixed-size raw "
            "bytes (unknown, object or unsized)"
        )
    return dtype


def _array_layout(spec: Dict[str, Any]) -> Tuple[np.dtype, Tuple[int, ...]]:
    """The dtype and shape an array spec (or shm manifest entry)
    declares; a :class:`WireProtocolError` for a bad dtype
    (:func:`_array_dtype`) or a shape that is not a list of
    non-negative integers."""
    dtype = _array_dtype(spec.get("dtype"))
    shape = spec.get("shape")
    if not isinstance(shape, (list, tuple)) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise WireProtocolError(
            f"array shape must list non-negative integers, got {shape!r}"
        )
    # numpy refuses a shape whose nonzero dimensions overflow its index
    # type even when another dimension is 0.
    if math.prod(dim for dim in shape if dim) * dtype.itemsize > _MAX_BYTES:
        raise WireProtocolError(f"array shape {list(shape)} is too large for numpy")
    return dtype, tuple(shape)


# ----------------------------------------------------------------------
# The per-array JSON codec, and json-b64 (the bit-exact reference
# format) built on it.
# ----------------------------------------------------------------------
def encode_array(value: Any) -> Dict[str, Any]:
    """One array as ``{"dtype", "shape", "data"}``: ``dtype.str``, the
    shape as a list, and base64 of the raw C-order bytes."""
    array = np.asarray(value)
    # ascontiguousarray promotes 0-d to 1-d, so record the true shape
    # first; the raw bytes are identical either way.  The encoder reads
    # the buffer in place through a memoryview — state_dict() already
    # owns fresh copies, so materializing a second one via tobytes()
    # would be pure overhead (DESIGN.md §7).
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(_raw_view(contiguous)).decode("ascii"),
    }


def decode_array(spec: Any) -> np.ndarray:
    """Exact inverse of :func:`encode_array`, returning an owned array.

    Also reads the ``str(dtype)`` spelling (``"float32"``) that older
    scenario checkpoints carry.  Specs arrive from other processes and
    from the network, so every defect is a :class:`WireProtocolError`:
    a non-dict spec or missing key, an unknown, object or unsized
    dtype, a negative or non-integer dimension, undecodable data, or a
    byte count other than ``itemsize * prod(shape)``.
    """
    if not isinstance(spec, dict):
        raise WireProtocolError(
            f"array spec must be an object, got {type(spec).__name__}"
        )
    missing = [key for key in ("dtype", "shape", "data") if key not in spec]
    if missing:
        raise WireProtocolError(f"array spec is missing {', '.join(missing)}")
    dtype, shape = _array_layout(spec)
    try:
        raw = base64.b64decode(spec["data"])
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise WireProtocolError(f"array data is not base64 ({exc})") from None
    expected = dtype.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise WireProtocolError(
            f"array data holds {len(raw)} bytes; dtype {dtype.str} with shape "
            f"{list(shape)} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


@register_wire_format(
    "json-b64", label="Base64 JSON", aliases=("json", "b64"), lossless=True
)
class JsonB64Format(WireFormat):
    """Base64 of the raw bytes + dtype + shape (the archival format)."""

    name = "json-b64"

    def encode(
        self, arrays: Dict[str, np.ndarray], *, channel: Optional[str] = None
    ) -> Dict[str, Any]:
        return {
            "wire": self.name,
            "arrays": {key: encode_array(value) for key, value in arrays.items()},
        }

    def decode(
        self, payload: Dict[str, Any], *, channel: Optional[str] = None
    ) -> Dict[str, np.ndarray]:
        table = _field(payload, "arrays", dict, "json-b64 payload")
        return {key: decode_array(spec) for key, spec in table.items()}

    def payload_nbytes(self, payload: Dict[str, Any]) -> int:
        # base64 expands 3 raw bytes into 4 characters (padded).
        return sum(
            len(spec["data"]) * 3 // 4 for spec in payload["arrays"].values()
        )


# ----------------------------------------------------------------------
# shm: one shared-memory segment per payload + a JSON manifest.
# ----------------------------------------------------------------------
_SHM_AVAILABLE: Optional[bool] = None

#: Segment names created by *this* process that no decode/release has
#: confirmed unlinked yet — the leak-check surface for tests and the
#: perf suite (empty after every round when the lifecycle is honored).
_LIVE_SEGMENTS: set = set()


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works here (cached
    one-time probe; restricted sandboxes may lack /dev/shm)."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=1)
            segment.close()
            segment.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


def outstanding_shm_segments() -> List[str]:
    """Segment names this process created and has not seen unlinked."""
    return sorted(_LIVE_SEGMENTS)


@register_wire_format(
    "shm", label="Shared memory", aliases=("shared-memory",), lossless=True
)
class ShmFormat(WireFormat):
    """Arrays ride a named shared-memory segment; only the manifest
    (dtype/shape/offset per array) crosses the pipe.

    Lifecycle: ``encode`` creates the segment and closes its own
    mapping (the name keeps it alive); exactly one ``decode`` attaches,
    copies the arrays out, and **unlinks**; the sender calls
    :meth:`release` afterwards as an idempotent backstop, which unlinks
    only if the receiver never did (e.g. it crashed).  Exactly one
    unlink ever happens, and tests verify the name is gone either way.
    """

    name = "shm"

    def __init__(self) -> None:
        if not shm_available():
            raise RuntimeError(
                "wire format 'shm' needs a working multiprocessing."
                "shared_memory (no /dev/shm here?); use 'json-b64' instead"
            )

    def encode(
        self, arrays: Dict[str, np.ndarray], *, channel: Optional[str] = None
    ) -> Dict[str, Any]:
        from multiprocessing import shared_memory

        manifest: Dict[str, Dict[str, Any]] = {}
        staged = []
        size = 0
        for key, value in arrays.items():
            array = np.asarray(value)
            contiguous = np.ascontiguousarray(array)
            if contiguous.nbytes:
                size = -(-size // _SHM_ALIGN) * _SHM_ALIGN
                staged.append((contiguous, size))
                offset: Optional[int] = size
                size += contiguous.nbytes
            else:  # empty arrays carry no bytes, only manifest shape
                offset = None
            manifest[key] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        if size == 0:
            return {"wire": self.name, "segment": None, "size": 0, "arrays": manifest}
        segment = shared_memory.SharedMemory(create=True, size=size)
        try:
            for contiguous, offset in staged:
                dest = np.frombuffer(
                    segment.buf,
                    dtype=contiguous.dtype,
                    count=contiguous.size,
                    offset=offset,
                )
                dest[:] = contiguous.reshape(-1)
                del dest
        except BaseException:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views released above
                pass
            segment.unlink()
            raise
        name = segment.name
        segment.close()  # the *name* keeps the segment alive, not our mapping
        _LIVE_SEGMENTS.add(name)
        from repro.obs import metrics

        metrics().counter("wire.shm_bytes").inc(size)
        return {"wire": self.name, "segment": name, "size": size, "arrays": manifest}

    @staticmethod
    def _manifest(payload: Any) -> Dict[str, tuple]:
        """Each array's ``(dtype, shape, offset)``, checked: an offset
        is a non-negative integer, or null for an array of no bytes
        (and always null without a segment)."""
        segment = _field(payload, "segment", (str, type(None)), "shm payload")
        table = _field(payload, "arrays", dict, "shm payload")
        layout = {}
        for key, spec in table.items():
            what = f"shm manifest entry {key!r}"
            offset = _field(spec, "offset", (int, type(None)), what)
            dtype, shape = _array_layout(spec)
            nbytes = dtype.itemsize * math.prod(shape)
            if offset is None and nbytes:
                raise WireProtocolError(f"{what} has no offset for its {nbytes} bytes")
            if offset is not None and (
                type(offset) is not int or offset < 0 or segment is None
            ):
                raise WireProtocolError(
                    f"{what} has offset {offset!r}: not a byte offset into "
                    f"segment {segment!r}"
                )
            layout[key] = (dtype, shape, offset)
        return layout

    def decode(
        self, payload: Dict[str, Any], *, channel: Optional[str] = None
    ) -> Dict[str, np.ndarray]:
        from multiprocessing import shared_memory

        layout = self._manifest(payload)
        out: Dict[str, np.ndarray] = {}
        name = payload["segment"]
        if name is None:  # all-empty payload: no segment was created
            for key, (dtype, shape, _) in layout.items():
                out[key] = np.zeros(shape, dtype=dtype)
            return out
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            raise WireProtocolError(
                f"shared-memory segment {name!r} is gone (decoded twice, or "
                "released before decode?)"
            ) from exc
        except OSError as exc:  # not a usable segment name
            raise WireProtocolError(
                f"cannot attach shared-memory segment {name!r}: {exc}"
            ) from exc
        try:
            for key, (dtype, shape, offset) in layout.items():
                if offset is None:
                    out[key] = np.zeros(shape, dtype=dtype)
                    continue
                count = math.prod(shape)
                end = offset + dtype.itemsize * count
                if end > segment.size:
                    raise WireProtocolError(
                        f"shm manifest entry {key!r} runs past its segment: "
                        f"bytes {offset}..{end} of {segment.size}"
                    )
                src = np.frombuffer(
                    segment.buf, dtype=dtype, count=count, offset=offset
                )
                out[key] = src.reshape(shape).copy()
                del src  # drop the buffer export before close()
        finally:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views released above
                pass
            try:
                segment.unlink()  # receiver owns the unlink on the happy path
            except FileNotFoundError:  # pragma: no cover - racing release()
                pass
            _LIVE_SEGMENTS.discard(name)
        return out

    def payload_nbytes(self, payload: Dict[str, Any]) -> int:
        return int(payload.get("size") or 0)

    def release(self, payload: Dict[str, Any]) -> None:
        from multiprocessing import shared_memory

        name = payload.get("segment")
        if not name:
            return
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            _LIVE_SEGMENTS.discard(name)  # receiver already unlinked it
            return
        try:
            segment.close()
        except BufferError:  # pragma: no cover - no views were taken
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - racing decode
            pass
        _LIVE_SEGMENTS.discard(name)


# ----------------------------------------------------------------------
# delta: ship only arrays whose content hash changed on this channel.
# ----------------------------------------------------------------------
@register_wire_format("delta", label="Content-hash delta", aliases=("diff",), lossless=True)
class DeltaFormat(WireFormat):
    """Hash-diffed sends over named channels, for fleet-style repeats.

    The first send on a channel (and any send after
    :meth:`invalidate`) ships every array; subsequent sends ship only
    the arrays whose :func:`array_hash` changed since the last send,
    through the inner codec (``shm`` where available, else
    ``json-b64``).  The receiver merges changed arrays over its cached
    base and verifies every array it delivers against the sender's
    hash, so worker respawns, cache drift or a damaged payload fail
    loudly (:class:`WireProtocolError`) instead of corrupting a round.

    Compressed variants subclass this and override the
    :meth:`_compress`/:meth:`_decompress` pair.  The protocol hashes
    the sender-side *reconstruction* (what the receiver will actually
    hold after decompressing), never the pre-compression array — both
    sides run the same deterministic arithmetic, so the receiver's
    hash verification still catches any cache drift while agreeing
    bitwise on the lossy payload itself.  Lossy subclasses set
    ``lossless = False``; since the sent hashes are reconstruction
    hashes, the next send diffs against what the receiver truly holds.
    """

    name = "delta"

    def __init__(self, inner: Optional[str] = None) -> None:
        inner_name = inner if inner is not None else (
            "shm" if shm_available() else "json-b64"
        )
        self.inner_name = WIRE_FORMATS.get(inner_name).name
        if self.inner_name == self.name:
            raise ValueError("delta cannot nest inside itself")
        self._inner: WireFormat = WIRE_FORMATS.create(self.inner_name)
        self._sent_hashes: Dict[str, Dict[str, str]] = {}  # sender side
        self._replied: set = set()  # channels noted since the last retire
        self._cache: Dict[str, Dict[str, np.ndarray]] = {}  # receiver side

    @property
    def response_format(self) -> str:
        return self.inner_name

    # -- compression hooks (identity in the lossless base class) --------
    def _compress(
        self, key: str, array: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], Optional[Dict[str, Any]], np.ndarray]:
        """Compress one changed array into wire entries.

        Returns ``(entries, meta, reconstruction)``: the inner-codec
        arrays to ship (keys namespaced by the codec), a JSON-ish meta
        dict (``None`` = shipped raw), and the array the receiver will
        reconstruct — bitwise equal to ``array`` iff lossless.
        """
        return {key: array}, None, array

    def _decompress(
        self, key: str, entries: Dict[str, np.ndarray], meta: Dict[str, Any]
    ) -> np.ndarray:
        """Inverse of :meth:`_compress` for entries carrying meta."""
        raise WireProtocolError(
            f"wire format {self.name!r} cannot decode codec meta for {key!r}"
        )

    def encode(
        self, arrays: Dict[str, np.ndarray], *, channel: Optional[str] = None
    ) -> Dict[str, Any]:
        prev = self._sent_hashes.get(channel) if channel is not None else None
        full = prev is None  # first send (or invalidated, or channel-less)
        hashes: Dict[str, str] = {}
        changed: Dict[str, np.ndarray] = {}
        codec: Dict[str, Dict[str, Any]] = {}
        for key, value in arrays.items():
            array = np.asarray(value)
            if full:
                # Full sends are bitwise under every delta codec: they
                # (re)establish the exact base after respawn/invalidate.
                changed[key] = array
                hashes[key] = array_hash(array)
                continue
            true_hash = array_hash(array)
            if prev.get(key) == true_hash:
                hashes[key] = true_hash
                continue
            entries, meta, recon = self._compress(key, array)
            recon_hash = true_hash if meta is None else array_hash(recon)
            hashes[key] = recon_hash
            if prev.get(key) == recon_hash:
                continue  # compresses to exactly what the receiver holds
            changed.update(entries)
            if meta is not None:
                codec[key] = meta
        if channel is not None:
            self._sent_hashes[channel] = hashes
        return {
            "wire": self.name,
            "channel": channel,
            "full": full,
            "hashes": hashes,
            "codec": codec,
            "inner": self._inner.encode(changed, channel=channel),
        }

    def decode(
        self, payload: Dict[str, Any], *, channel: Optional[str] = None
    ) -> Dict[str, np.ndarray]:
        what = f"{self.name} payload"
        channel = _field(payload, "channel", (str, type(None)), what)
        full = _field(payload, "full", bool, what)
        hashes: Dict[str, str] = _field(payload, "hashes", dict, what)
        if not all(isinstance(value, str) for value in hashes.values()):
            raise WireProtocolError(f"{what} 'hashes' must map names to strings")
        codec = payload.get("codec") or {}
        if not isinstance(codec, dict):
            raise WireProtocolError(f"{what} 'codec' must be an object")
        changed = self._inner.decode(_field(payload, "inner", dict, what))
        stray = sorted(set(changed) - set(hashes))
        if stray:
            raise WireProtocolError(f"{what} ships arrays it has no hash for: {stray}")
        if full:
            base: Dict[str, np.ndarray] = {}
        else:
            cached = self._cache.get(channel)
            if cached is None:
                raise WireProtocolError(
                    f"delta payload on channel {channel!r} has no cached base "
                    "in this process (receiver respawned without the sender "
                    "invalidating the channel?)"
                )
            base = cached
        # Every delivered array is checked against the sender's content
        # hash: a codec reconstruction, a shipped array, or one reused
        # from the cache.
        out: Dict[str, np.ndarray] = {}
        for key, expected in hashes.items():
            meta = codec.get(key)
            if meta is not None:
                value = self._decompress(key, changed, meta)
                source = "codec reconstruction"
            elif key in changed:
                value = changed[key]
                source = "shipped array"
            else:
                value = base.get(key)
                source = "delta cache entry"
            if value is None or array_hash(value) != expected:
                raise WireProtocolError(
                    f"{source} {key!r} on channel {channel!r} does not match "
                    "the sender's content hash"
                )
            out[key] = value
        if channel is not None:
            self._cache[channel] = dict(out)
        return dict(out)

    def release(self, payload: Dict[str, Any]) -> None:
        self._inner.release(payload["inner"])

    def payload_nbytes(self, payload: Dict[str, Any]) -> int:
        # Only the changed arrays ride the inner codec; hashes/manifest
        # are negligible next to array bytes.
        return self._inner.payload_nbytes(payload["inner"])

    def note_sent(self, channel: str, arrays: Dict[str, np.ndarray]) -> None:
        self._sent_hashes[channel] = {
            key: array_hash(value) for key, value in arrays.items()
        }
        self._replied.add(channel)

    def note_received(self, channel: str, arrays: Dict[str, np.ndarray]) -> None:
        self._cache[channel] = dict(arrays)

    def invalidate(self, channel: Optional[str] = None) -> None:
        if channel is None:
            self._sent_hashes.clear()
            self._cache.clear()
        else:
            self._sent_hashes.pop(channel, None)
            self._cache.pop(channel, None)

    def retire(self, arrays, *, receiver=None, defer=()):
        # encode skips a key only if its held hash is the new array's content
        # or reconstruction hash: dropping any other changes no payload.  Each
        # reply is checked once; later arrays come from later reports.
        hashes: Dict[str, Tuple[str, str]] = {}
        tables = [self._sent_hashes] + ([receiver._cache] if receiver is not None else [])
        kept = self._replied.intersection(defer)
        for channel in self._replied - kept:
            held = self._sent_hashes.get(channel, {})
            stale = set()
            for key in arrays.keys() & held.keys():
                if key not in hashes:
                    array = np.asarray(arrays[key])
                    true_hash = array_hash(array)
                    _, meta, recon = self._compress(key, array)
                    hashes[key] = (true_hash, true_hash if meta is None else array_hash(recon))
                if held[key] not in hashes[key]:
                    stale.add(key)
            # Rebuilt, not deleted from: a dict never shrinks its table.
            for table in tables:
                if channel in table:
                    table[channel] = {k: v for k, v in table[channel].items() if k not in stale}
        self._replied = kept


# ----------------------------------------------------------------------
# Compressed delta: the lossy codec for bandwidth-constrained broadcasts.
# ----------------------------------------------------------------------
@register_wire_format(
    "delta-q8",
    label="Int8-quantized delta",
    aliases=("q8", "quantized"),
    lossless=False,
)
class DeltaQ8Format(DeltaFormat):
    """``delta`` with changed float arrays quantized to int8.

    Tolerance contract (docs/FLEET.md codec table):

    * Quantization is affine with a per-array float scale and integer
      zero point: ``q = clip(rint(x / scale) + zp, -128, 127)``,
      ``x_hat = (q - zp) * scale`` with
      ``scale = (max(x, 0) - min(x, 0)) / 255`` — so the per-element
      absolute error is at most ``scale``.
    * Exact zeros are preserved exactly (the zero point is an integer,
      so ``x == 0`` reconstructs to ``0.0`` bitwise).
    * Non-float dtypes, arrays smaller than ``min_size`` elements,
      non-finite arrays, and full (first / post-invalidate) sends ship
      raw — bitwise.
    * Reply legs use the lossless inner codec (``response_format``), so
      only the broadcast direction is quantized.

    Both ends compute the reconstruction with identical float64
    arithmetic, so the hash-verified protocol state stays consistent
    and quantization is deterministic wherever it runs (serial ==
    parallel holds under this codec too).
    """

    name = "delta-q8"
    lossless = False

    def __init__(self, inner: Optional[str] = None, min_size: int = 64) -> None:
        super().__init__(inner=inner)
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        self.min_size = int(min_size)

    def _compress(self, key, array):
        if (
            array.dtype.kind != "f"
            or array.size < self.min_size
            or not bool(np.isfinite(array).all())
        ):
            return {key: array}, None, array
        lo = min(float(array.min()), 0.0)
        hi = max(float(array.max()), 0.0)
        scale = (hi - lo) / 255.0
        if scale == 0.0:  # all-zero array: raw is already one byte/elem shy
            return {key: array}, None, array
        zero_point = int(round(-128.0 - lo / scale))
        q = np.clip(
            np.rint(array.astype(np.float64) / scale) + zero_point, -128, 127
        ).astype(np.int8)
        recon = self._dequantize(q, scale, zero_point, array.dtype)
        meta = {
            "kind": "q8",
            "scale": scale,
            "zero_point": zero_point,
            "dtype": array.dtype.str,
        }
        return {key: q}, meta, recon

    @staticmethod
    def _dequantize(
        q: np.ndarray, scale: float, zero_point: int, dtype: np.dtype
    ) -> np.ndarray:
        return ((q.astype(np.float64) - zero_point) * scale).astype(dtype)

    def _decompress(self, key, entries, meta):
        q = entries.get(key)
        if q is None:
            raise WireProtocolError(f"delta-q8 payload is missing array {key!r}")
        what = f"delta-q8 codec entry {key!r}"
        scale = float(_field(meta, "scale", (int, float), what))
        zero_point = _field(meta, "zero_point", int, what)
        dtype = _array_dtype(meta.get("dtype"), what)
        # What _compress can emit: a positive finite scale, a zero point
        # inside the int8 range, int8 codes and a float dtype.
        if not (
            math.isfinite(scale)
            and scale > 0
            and type(zero_point) is int
            and -128 <= zero_point <= 127
            and q.dtype == np.int8
            and dtype.kind == "f"
        ):
            raise WireProtocolError(
                f"{what} is not a q8 encoding: scale {scale!r}, zero point "
                f"{zero_point!r}, codes {q.dtype}, dtype {dtype.str}"
            )
        return self._dequantize(q, scale, zero_point, dtype)
