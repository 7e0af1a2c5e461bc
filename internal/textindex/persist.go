package textindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Index serialization: a compact binary snapshot (varint-delta encoded
// posting lists) so large collections can be indexed once and reloaded
// quickly. The format is versioned and self-contained; the tokenizer
// configuration is NOT stored — the loader supplies it, and it must
// match the one used at build time.

// snapshotMagic identifies the snapshot format ("MPIX" + version 1).
var snapshotMagic = [5]byte{'M', 'P', 'I', 'X', 1}

// WriteTo serializes the index to w. It returns the number of bytes
// written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return bw.n, err
	}
	// Documents.
	writeUvarint(bw, uint64(len(ix.docIDs)))
	for i, id := range ix.docIDs {
		writeString(bw, id)
		writeUvarint(bw, uint64(ix.docLen[i]))
	}
	// Terms, sorted for determinism.
	terms := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	writeUvarint(bw, uint64(len(terms)))
	for _, t := range terms {
		writeString(bw, t)
		pl := ix.postings[t]
		writeUvarint(bw, uint64(len(pl)))
		prev := int32(0)
		for _, p := range pl {
			// Doc ordinals are strictly increasing: delta-encode.
			writeUvarint(bw, uint64(p.doc-prev))
			writeUvarint(bw, uint64(p.tf))
			prev = p.doc
		}
	}
	if err := bw.err; err != nil {
		return bw.n, err
	}
	return bw.n, bw.w.(*bufio.Writer).Flush()
}

// ReadIndex deserializes an index written by WriteTo, attaching the
// given tokenizer (nil for the default). The snapshot is validated
// structurally; malformed input yields an error, never a panic.
func ReadIndex(r io.Reader, tok *Tokenizer) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("textindex: reading snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("textindex: not an index snapshot (magic %q)", magic[:4])
	}
	ix := NewIndex(tok)

	numDocs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("textindex: document count: %w", err)
	}
	if numDocs > 1<<31 {
		return nil, fmt.Errorf("textindex: implausible document count %d", numDocs)
	}
	ix.docIDs = make([]string, numDocs)
	ix.docLen = make([]int, numDocs)
	for i := range ix.docIDs {
		if ix.docIDs[i], err = readString(br); err != nil {
			return nil, fmt.Errorf("textindex: document %d id: %w", i, err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("textindex: document %d length: %w", i, err)
		}
		ix.docLen[i] = int(n)
	}

	numTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("textindex: term count: %w", err)
	}
	if numTerms > 1<<31 {
		return nil, fmt.Errorf("textindex: implausible term count %d", numTerms)
	}
	for t := uint64(0); t < numTerms; t++ {
		term, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("textindex: term %d: %w", t, err)
		}
		plLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("textindex: term %q posting count: %w", term, err)
		}
		if plLen > numDocs {
			return nil, fmt.Errorf("textindex: term %q has %d postings for %d documents", term, plLen, numDocs)
		}
		pl := make([]posting, plLen)
		prev := int32(0)
		for i := range pl {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("textindex: term %q posting %d: %w", term, i, err)
			}
			tf, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("textindex: term %q posting %d tf: %w", term, i, err)
			}
			doc := prev + int32(delta)
			if i > 0 && delta == 0 {
				return nil, fmt.Errorf("textindex: term %q postings not strictly increasing", term)
			}
			if doc < 0 || uint64(doc) >= numDocs || tf == 0 || tf > 1<<30 {
				return nil, fmt.Errorf("textindex: term %q posting %d out of range (doc %d, tf %d)", term, i, doc, tf)
			}
			pl[i] = posting{doc: doc, tf: int32(tf)}
			prev = doc
		}
		ix.postings[term] = pl
	}
	return ix, nil
}

// countingWriter tracks bytes written and the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func writeUvarint(w *countingWriter, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *countingWriter, s string) {
	writeUvarint(w, uint64(len(s)))
	io.WriteString(w, s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
