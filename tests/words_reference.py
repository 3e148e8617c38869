"""Frozen references for word enumeration and the spectrum table.

`reference_enumerate_reduced_words` is the recursive enumeration, one call
per letter, and `reference_spectrum_table` the table that keeps a dict of
the canonical words already seen.  The library enumerates over a stack of
letter iterators and picks each row's key from the word alone; the
differential tests hold it to these.  Do not update them to follow the
library.
"""

from mlsgraph.fungroup import canonical_cyclic_word, enumerate_reduced_words, marked_length


def reference_enumerate_reduced_words(rank, max_len):
    alphabet = [s * k for k in range(1, rank + 1) for s in (1, -1)]

    def extend(prefix, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for letter in alphabet:
            if prefix and prefix[-1] == -letter:
                continue
            prefix.append(letter)
            yield from extend(prefix, remaining - 1)
            prefix.pop()

    for n in range(1, max_len + 1):
        yield from extend([], n)


def reference_spectrum_table(basis, max_len):
    """Budget checks left out: the tests stay far inside the budget."""
    rows = {}
    for w in enumerate_reduced_words(basis.rank, max_len):
        key = canonical_cyclic_word(w)
        if key and key not in rows:
            rows[key] = marked_length(basis, key)
    return sorted(rows.items(), key=lambda kv: (len(kv[0]), kv[0]))
