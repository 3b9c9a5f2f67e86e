package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"balancesort"
	"balancesort/internal/record"
)

// digest is an order-independent fingerprint of a multiset of records:
// the count plus the wrapping sum of a 64-bit mix of each record. A
// sorted output with the input's digest is a permutation of the input
// (up to a 2^-64 collision); a swapped pair keeps the digest but breaks
// the order, an altered record keeps the order but breaks the digest.
type digest struct {
	n   int64
	sum uint64
}

func mix(r balancesort.Record) uint64 {
	// splitmix64 finalizer over both words, so neither a key nor a Loc
	// change can cancel out in the sum.
	z := r.Key*0x9e3779b97f4a7c15 ^ (r.Loc + 0x632be59bd9b4e019)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (d *digest) add(r balancesort.Record) {
	d.n++
	d.sum += mix(r)
}

func digestOf(recs []balancesort.Record) digest {
	var d digest
	for _, r := range recs {
		d.add(r)
	}
	return d
}

// checkSorted reads a record stream and reports an error unless it is
// sorted and has digest want.
func checkSorted(rd io.Reader, want digest) error {
	br := bufio.NewReaderSize(rd, 1<<16)
	buf := make([]byte, record.EncodedSize)
	var got digest
	var prev balancesort.Record
	for {
		if _, err := io.ReadFull(br, buf); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("output truncated after %d records: %w", got.n, err)
		}
		r := record.Decode(buf)
		if got.n > 0 && r.Less(prev) {
			return fmt.Errorf("output not sorted at record %d", got.n)
		}
		got.add(r)
		prev = r
	}
	if got != want {
		return fmt.Errorf("output is not a permutation of the input: %d records, digest %x (input: %d records, digest %x)",
			got.n, got.sum, want.n, want.sum)
	}
	return nil
}

// checkSortedFile checks a record file; see checkSorted.
func checkSortedFile(path string, want digest) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return checkSorted(f, want)
}
