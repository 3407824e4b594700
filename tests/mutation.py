"""Byte mutations of a valid input file, for the reader boundary tests.

A mutation is a list of edits, each overwriting, inserting or deleting a
chunk at an offset (taken modulo the length), and then an optional cut of
the file's tail.  Chunks are random bytes or tokens that readers treat
specially: numbers out of range, quotes, brackets, separators, line ends
and bytes that are not UTF-8.
"""

from hypothesis import strategies as st

TOKENS = [b"nan", b"inf", b"-1", b"1e309", b"0", b"9", b".", b"e", b"-", b'"', b"'",
          b"[", b"]", b"{", b"}", b",", b":", b"=", b" ", b"\n", b"\r", b"\x00", b"\xff",
          b"\xef\xbb\xbf", b"true", b"null"]

edits = st.lists(st.tuples(st.sampled_from(("put", "insert", "delete")),
                           st.integers(0, 1 << 20),
                           st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=4)),
                 min_size=1, max_size=4)

cuts = st.none() | st.integers(0, 1 << 20)


def mutate(raw: bytes, changes, cut) -> bytes:
    """`raw` with each edit applied in turn, then cut to `cut` bytes (taken
    modulo the length plus one), or whole when `cut` is None."""
    out = bytearray(raw)
    for kind, offset, chunk in changes:
        at = offset % (len(out) + 1)
        if kind == "put":
            out[at : at + len(chunk)] = chunk
        elif kind == "insert":
            out[at:at] = chunk
        else:
            del out[at : at + len(chunk)]
    return bytes(out if cut is None else out[: cut % (len(out) + 1)])
