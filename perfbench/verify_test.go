package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"balancesort"
	"balancesort/internal/record"
)

func sortedInput(t *testing.T) ([]balancesort.Record, digest) {
	t.Helper()
	in := balancesort.NewWorkload(balancesort.Zipf, 4096, 7)
	want := digestOf(in)
	out := append([]balancesort.Record(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, want
}

func TestCheckSortedAcceptsSortedPermutation(t *testing.T) {
	out, want := sortedInput(t)
	if err := checkSorted(bytes.NewReader(record.EncodeSlice(out)), want); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSortedCatchesDefects(t *testing.T) {
	cases := map[string]struct {
		mutate func([]balancesort.Record) []balancesort.Record
		msg    string
	}{
		"swapped pair": {func(rs []balancesort.Record) []balancesort.Record {
			rs[100], rs[101] = rs[101], rs[100]
			return rs
		}, "not sorted"},
		"altered key": {func(rs []balancesort.Record) []balancesort.Record {
			rs[len(rs)-1].Key++ // the last record: the order still holds
			return rs
		}, "not a permutation"},
		"altered loc": {func(rs []balancesort.Record) []balancesort.Record {
			rs[len(rs)-1].Loc += 1 << 40
			return rs
		}, "not a permutation"},
		"dropped record": {func(rs []balancesort.Record) []balancesort.Record {
			return rs[:len(rs)-1]
		}, "not a permutation"},
		"duplicated record": {func(rs []balancesort.Record) []balancesort.Record {
			return append(rs, rs[len(rs)-1])
		}, "not a permutation"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			out, want := sortedInput(t)
			buf := record.EncodeSlice(c.mutate(out))
			err := checkSorted(bytes.NewReader(buf), want)
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("got %v, want an error containing %q", err, c.msg)
			}
		})
	}
}

func TestCheckSortedCatchesTruncatedRecord(t *testing.T) {
	out, want := sortedInput(t)
	buf := record.EncodeSlice(out)
	if err := checkSorted(bytes.NewReader(buf[:len(buf)-3]), want); err == nil {
		t.Fatal("a torn final record passed the check")
	}
}
