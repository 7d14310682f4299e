"""The package's compiled kernels: one C library built from every .c file
next to this module, loaded by ctypes on first use.

  * _chain.c's chain_chunk runs sampler.run_chain's Metropolis steps;
  * _repr.c's format_rows writes a float matrix as CSV lines, every cell
    as float.__repr__ writes it (write_rows, for diagnostics._write_csv).

The first library() call in a process builds the library with _CC and
_CFLAGS (no fused multiply-add, so the chain's bytes are those of its
definition) into _CACHE_DIR, under a name keyed on the sources and the
flags, unless it is there already, and computes the formatter's
power-of-5 multipliers from exact integers.  Importing this module builds
and loads nothing.
"""

import ctypes
import glob
import os

import numpy as np

from .errors import BuildError

_HERE = os.path.dirname(__file__)
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
_CC = ["cc"]
_CFLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]
# format_rows' buffer in bytes, grown to one line's worst case: 25 bytes a
# cell (its comma and at most 24 characters) and 22 for the row number and
# the line end
_BUFFER = 1 << 20
_lib = None
_tables = None


def _pow5_tables():
    """Ryu's multipliers for _repr.c, each an exact integer below 2^128
    stored as (low, high) 64-bit words: inv[q] = floor(2^(L(q) - 1 + 125)
    / 5^q) + 1 for q < 342 and pos[q] = 5^q scaled to 125 bits,
    floor(5^q / 2^(L(q) - 125)), for q < 326, with L(q) the bit length of
    5^q."""
    def words(values):
        return np.array([(v & (2**64 - 1), v >> 64) for v in values], dtype=np.uint64)

    inv = ((1 << ((5**q).bit_length() - 1 + 125)) // 5**q + 1 for q in range(342))
    pos = ((5**q << 125) >> (5**q).bit_length() for q in range(326))
    return words(inv), words(pos)


def library():
    """The compiled library with the argument types of chain_chunk and
    format_rows set.  The first call in a process builds it unless the
    cache holds it; a temporary name replaced into place keeps concurrent
    builders from loading a half-written file.  An unwritable cache
    builds into a temporary directory instead, removed once the library
    is loaded, so such an install builds again in every process."""
    global _lib, _tables
    if _lib is not None:
        return _lib
    import contextlib
    import hashlib
    import subprocess
    import tempfile

    sources = sorted(glob.glob(os.path.join(_HERE, "*.c")))
    digest = hashlib.sha256(" ".join(_CFLAGS).encode())
    for source in sources:
        with open(source, "rb") as fh:
            digest.update(os.path.basename(source).encode() + b"\0" + fh.read())
    try:
        os.makedirs(_CACHE_DIR, exist_ok=True)
        writable = os.access(_CACHE_DIR, os.W_OK)
    except OSError:
        writable = False
    with (contextlib.nullcontext(_CACHE_DIR) if writable
          else tempfile.TemporaryDirectory(prefix="microshell-")) as cache:
        path = os.path.join(cache, "_kernel-%s.so" % digest.hexdigest()[:16])
        if not os.path.exists(path):
            tmp = "%s.%d.tmp" % (path, os.getpid())
            try:
                subprocess.run(_CC + _CFLAGS + ["-o", tmp] + sources + ["-lm"],
                               check=True, capture_output=True, text=True)
            except (OSError, subprocess.CalledProcessError) as exc:
                raise BuildError(
                    "cannot build the kernel library with %r into %s: %s"
                    % (" ".join(_CC), cache, getattr(exc, "stderr", None) or exc)
                ) from exc
            os.replace(tmp, path)
        # a library stays mapped after its file is removed
        lib = ctypes.CDLL(path)
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.chain_chunk.argtypes = [i64, i64, dbl] + [i64] * 4 + [ptr] * 15
    lib.chain_chunk.restype = None
    lib.format_rows.argtypes = [ptr, i64, i64, i64, ptr, ptr, ptr, i64, ptr]
    lib.format_rows.restype = i64
    _tables = _pow5_tables()
    _lib = lib
    return lib


def write_rows(fh, cells):
    """Write a 2-D float64 array to the binary file fh, one CSV line per
    row: the row's number, then its cells as their repr, comma-separated,
    ending in "\\r\\n".  format_rows fills one buffer of at least _BUFFER
    bytes with whole lines, and each filling is written out, so memory
    stays bounded whatever the array's size."""
    lib = library()
    cells = np.ascontiguousarray(cells, dtype=np.float64)
    rows, cols = cells.shape
    buf = np.empty(max(_BUFFER, 25 * cols + 22), dtype=np.uint8)
    used = np.zeros(1, dtype=np.int64)
    inv, pos = _tables
    done = 0
    while done < rows:
        done += lib.format_rows(cells[done:].ctypes.data, rows - done, cols, done,
                                inv.ctypes.data, pos.ctypes.data, buf.ctypes.data,
                                buf.size, used.ctypes.data)
        fh.write(buf[:used[0]])
