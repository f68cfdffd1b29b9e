"""The one function that writes an artifact file, and the writer process
that runs it for the files a run hands over (see ``core.write_behind``).

    python -I -S _writer.py

reads frames from stdin until an end frame. A frame is a kind byte, a
4-byte little-endian payload length and the payload:

* ``L`` text: a label for the requests that follow (the pipeline sends the
  stage's name);
* ``O`` path: a file; ``D`` frames with its bytes follow, then ``C``
  (commit: rename it over the path) or ``A`` (abort: remove it). It is
  opened, with its missing directories, at its first ``D`` or its ``C``;
* ``E``: the end of the stream. A process forked while the stream is open
  inherits its pipe, so the end cannot be EOF.

Requests are carried out in order. At its first failure the process writes
the marshalled ``(label, OSError arguments)`` to stdout and exits 1,
reading no further frame, so no file after the failed one is created, as
when the write that fails raises in the process that asked for it. The
process imports nothing but the interpreter's frozen and built-in modules.
"""

import marshal
import os


def write_file(path: str, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path + ".partial"``, then
    rename it over ``path``; if taking a chunk or writing fails, ``path``
    is untouched and the ``.partial`` file removed. The first chunk is
    taken before the open, which creates a missing directory of ``path``
    only when it finds one missing: a file that fails after its first
    chunk may leave the directory its ``.partial`` file needed."""
    partial = path + ".partial"
    chunks = iter(chunks)
    first = next(chunks, b"")
    try:
        try:
            f = open(partial, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(partial), exist_ok=True)
            f = open(partial, "wb")
        with f:
            f.write(first)
            for chunk in chunks:
                f.write(chunk)
        os.replace(partial, path)
    except BaseException:
        try:
            os.unlink(partial)
        except FileNotFoundError:
            pass
        raise


class _Aborted(Exception):
    pass


def _frames(stream):
    while True:
        head = stream.read(5)
        size = int.from_bytes(head[1:], "little")
        payload = stream.read(size)
        if len(head) < 5 or len(payload) < size:
            raise EOFError("the stream ended without an end frame")
        yield head[:1], payload


def serve(stream, report_fd: int) -> int:
    """Carry out the requests framed on ``stream`` up to its end frame;
    returns the exit status."""
    frames = _frames(stream)
    label = ""

    def data():
        for kind, payload in frames:
            if kind != b"D":
                if kind == b"C":
                    return
                raise _Aborted
            yield payload

    try:
        for kind, payload in frames:
            if kind == b"E":
                return 0
            if kind == b"L":
                label = payload.decode()
            elif kind == b"O":
                try:
                    write_file(os.fsdecode(payload), data())
                except _Aborted:
                    pass
    except OSError as exc:
        args = (exc.errno, exc.strerror, exc.filename, None, exc.filename2) if exc.errno else (str(exc),)
        os.write(report_fd, marshal.dumps((label, *args)))
        return 1
    except EOFError:  # the parent is gone; the file it was sending is removed
        return 1


if __name__ == "__main__":
    # every file is closed: skip the interpreter's teardown, which the parent waits out
    os._exit(serve(open(0, "rb"), 1))
