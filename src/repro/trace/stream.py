"""Streaming (incremental) reading of live JSONL trace files.

:func:`repro.trace.sinks.iter_trace_records` assumes a *finished* file: a partial
trailing line — exactly what a live :class:`~repro.trace.JsonlTraceSink`
leaves between flushes, or what a killed run leaves behind — is malformed
JSON and raises.  :class:`StreamingTraceReader` is the tailer: each
:meth:`~StreamingTraceReader.poll` reads whatever bytes were appended since
the previous poll, parses every *complete* line, and buffers the incomplete
tail until a later poll completes it.  A not-yet-created file, an empty
file and a header-only file are all valid "nothing yet" states, so a
consumer can start tailing before the producer has opened the file.

``repro trace tail`` and ``repro campaign --progress`` sit on top of this,
feeding :class:`repro.analysis.timeline.StreamingTimeline` — whose bins are
identical to the batch reader's on the same records
(``tests/trace/test_stream.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..exceptions import TraceError
from .records import TRACE_FORMAT, TRACE_VERSION, TraceRecord

__all__ = ["StreamingTraceReader"]


class StreamingTraceReader:
    """Incremental reader of one (possibly still growing) JSONL trace file.

    Stateful across :meth:`poll` calls: the byte offset, the buffered
    partial line and the parsed header survive between polls, so each poll
    costs one ``open``/``seek``/``read`` of only the new bytes.  Records
    split across a sink flush boundary (or across a crash) parse exactly as
    they would in a batch read — a record only surfaces once its trailing
    newline exists.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._offset = 0
        self._partial = b""
        self._lineno = 0
        #: parsed header line (``None`` until its newline has been written)
        self.header: Optional[Dict[str, Any]] = None
        #: total records returned across all polls
        self.records_read = 0

    @property
    def header_seen(self) -> bool:
        return self.header is not None

    def poll(self) -> List[TraceRecord]:
        """Parse and return every record completed since the previous poll.

        Returns ``[]`` when the file does not exist yet or nothing complete
        was appended.  Raises :class:`~repro.exceptions.TraceError` on a
        malformed *complete* line, a bad header, or a file that shrank
        (truncation/rotation mid-tail is not recoverable).
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise TraceError(
                f"cannot read trace file {str(self.path)!r}: {exc}"
            ) from exc
        with handle:
            if os.fstat(handle.fileno()).st_size < self._offset:
                raise TraceError(
                    f"trace file {str(self.path)!r} shrank while being tailed"
                )
            handle.seek(self._offset)
            chunk = handle.read()
        if not chunk:
            return []
        self._offset += len(chunk)
        data = self._partial + chunk
        lines = data.split(b"\n")
        # the final element has no newline yet: keep it for the next poll
        # (b"" when the chunk ended exactly on a record boundary)
        self._partial = lines.pop()
        records: List[TraceRecord] = []
        for raw_line in lines:
            self._lineno += 1
            text = raw_line.decode("utf-8").strip()
            if not text:
                continue
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"{self.path}: malformed JSON on line {self._lineno}: {exc}"
                ) from exc
            if self.header is None:
                self._accept_header(raw)
                continue
            records.append(TraceRecord.from_dict(raw))
        self.records_read += len(records)
        return records

    def _accept_header(self, raw: Any) -> None:
        if not isinstance(raw, dict) or raw.get("format") != TRACE_FORMAT:
            raise TraceError(
                f"{self.path}: not a {TRACE_FORMAT} file (bad or missing header)"
            )
        version = raw.get("version")
        if version != TRACE_VERSION:
            raise TraceError(
                f"{self.path}: unsupported trace version {version!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        self.header = raw
