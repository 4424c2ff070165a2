"""Format (tau, mu) blocks of a spectrum as CSV rows, with the standard library only.

``spectra.spectrum_to_csv`` formats its first run of blocks with
``write_blocks`` and may hand each later run to this file run as a script,

    python -I -S _csvrows.py PART_PATH

which reads its whole share from standard input and then writes the rows to
PART_PATH.  ``send_share`` and ``read_share`` hold the format of a share:
the text line ``"<n_blocks> <n_freq>"``, one line per block head
(``"tau,mu,"``), one per frequency string, and then, per block, its re, im
and abs columns as raw native float64.  The script imports neither the
package nor numpy, so it starts in about the time of a bare interpreter.
"""

import sys


def write_blocks(fh, freqs, blocks) -> None:
    """Write each ``(head, re, im, abs)`` block as the CRLF rows
    ``head + freq,re,im,abs``, one per entry of ``freqs``; the columns are
    sequences of Python floats, written as shortest round-trip ``repr``s."""
    for head, *cols in blocks:
        rows = ("\r\n" + head).join(map(",".join, zip(freqs, *(map(repr, c) for c in cols))))
        if rows:
            fh.write(head + rows + "\r\n")


def send_share(pipe, heads, freqs, blocks) -> None:
    """Write a share to a binary ``pipe``: the counts, the block heads and
    the frequency strings as text lines, then each block's re, im and abs
    columns, given as one C-contiguous 3 x n_freq float64 buffer per block."""
    pipe.write("\n".join([f"{len(heads)} {len(freqs)}", *heads, *freqs, ""]).encode())
    for block in blocks:
        pipe.write(block)


def read_share(data: bytes):
    """The frequency strings and the ``(head, re, im, abs)`` blocks of a
    share that ``send_share`` wrote."""
    first, rest = data.split(b"\n", 1)
    n_blocks, n_freq = map(int, first.split())
    *lines, raw = rest.split(b"\n", n_blocks + n_freq)
    heads = [line.decode() for line in lines[:n_blocks]]
    freqs = [line.decode() for line in lines[n_blocks:]]
    values = memoryview(raw).cast("d")
    if len(values) != 3 * n_blocks * n_freq:
        raise ValueError(f"share holds {len(values)} values, not 3 x {n_blocks} x {n_freq}")
    return freqs, ((head, *(values[o:o + n_freq].tolist()
                            for o in range(3 * b * n_freq, 3 * (b + 1) * n_freq, n_freq)))
                   for b, head in enumerate(heads))


def main(part_path: str) -> None:
    freqs, blocks = read_share(sys.stdin.buffer.read())
    with open(part_path, "w", newline="") as fh:
        write_blocks(fh, freqs, blocks)


if __name__ == "__main__":
    main(sys.argv[1])
