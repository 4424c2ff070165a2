"""Format (tau, mu) blocks of a spectrum as CSV rows, with the standard library only.

``spectra.spectrum_to_csv`` formats its first run of blocks with
``write_blocks`` and may hand each later run to this file run as a script,

    python -I -S _csvrows.py PART_PATH

which reads its share from standard input one block at a time and writes
the rows to PART_PATH.  ``send_share`` and ``read_share`` hold the format of
a share: the text line ``"<n_blocks> <n_freq>"``, one line per block head
(``"tau,mu,"``), one per frequency string, and then, per block, its re, im
and abs columns as raw native float64.  The script imports neither the
package nor numpy, so it starts in about the time of a bare interpreter.
"""

import sys

# Rows formatted at once: their floats, reprs and joined text, a few MB.
ROWS_PER_WRITE = 4096


def write_blocks(fh, freqs, blocks) -> None:
    """Write each ``(head, re, im, abs)`` block as the CRLF rows
    ``head + freq,re,im,abs``, one per entry of ``freqs``, ROWS_PER_WRITE
    rows at a time.  The columns are float sequences that slice and have
    ``tolist`` (numpy arrays, or memoryviews cast to "d"); the values are
    written as shortest round-trip ``repr``s."""
    for head, *cols in blocks:
        for lo in range(0, len(freqs), ROWS_PER_WRITE):
            hi = lo + ROWS_PER_WRITE
            fh.write(head + ("\r\n" + head).join(map(",".join, zip(
                freqs[lo:hi], *(map(repr, c[lo:hi].tolist()) for c in cols)))) + "\r\n")


def send_share(out, heads, freqs, blocks) -> None:
    """Write a share to the binary file ``out``: the counts, the block heads
    and the frequency strings as text lines, then each block's re, im and
    abs columns, given as one C-contiguous 3 x n_freq float64 buffer per
    block."""
    out.write("\n".join([f"{len(heads)} {len(freqs)}", *heads, *freqs, ""]).encode())
    for block in blocks:
        out.write(block)


def read_share(stream):
    """The frequency strings and an iterator over the ``(head, re, im, abs)``
    blocks of a share that ``send_share`` wrote to the binary ``stream``,
    which reads one block's columns at a time."""
    n_blocks, n_freq = map(int, stream.readline().split())
    heads = [stream.readline()[:-1].decode() for _ in range(n_blocks)]
    freqs = [stream.readline()[:-1].decode() for _ in range(n_freq)]

    def blocks():
        for b, head in enumerate(heads):
            raw = stream.read(24 * n_freq)
            if len(raw) != 24 * n_freq:
                raise ValueError(f"share ends in block {b} of {n_blocks} of {n_freq} x 3 values")
            values = memoryview(raw).cast("d")
            yield head, values[:n_freq], values[n_freq:2 * n_freq], values[2 * n_freq:]
        if stream.read(1):
            raise ValueError(f"share holds more than {n_blocks} blocks of {n_freq} x 3 values")

    return freqs, blocks()


def main(part_path: str) -> None:
    freqs, blocks = read_share(sys.stdin.buffer)
    with open(part_path, "w", newline="") as fh:
        write_blocks(fh, freqs, blocks)


if __name__ == "__main__":
    main(sys.argv[1])
