package model_test

import (
	"slices"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
)

// decodeConvoys turns fuzz bytes into a convoy list: data[0] is the number
// of convoys (mod len+1) the Cover check adds before probing, and every
// following pair of bytes is one convoy — the first a bitmask over objects
// 0–7 (0 is the empty set), the second its start (low 3 bits) and its
// span (next 3 bits). Small universes make duplicates, nested spans and
// equal object sets common.
func decodeConvoys(data []byte) (cs []model.Convoy, added int) {
	if len(data) == 0 {
		return nil, 0
	}
	for b := data[1:]; len(b) >= 2; b = b[2:] {
		var ids []int32
		for o := int32(0); o < 8; o++ {
			if b[0]&(1<<o) != 0 {
				ids = append(ids, o)
			}
		}
		start := int32(b[1] & 7)
		cs = append(cs, model.NewConvoy(model.NewObjSet(ids...), start, start+int32(b[1]>>3&7)))
	}
	return cs, int(data[0]) % (len(cs) + 1)
}

// FuzzMaximal holds model.Maximal, Cover.Filter and Cover.Covers to the
// brute-force filter minetest.ReferenceMaximal and to SubConvoyOf over
// every pair.
func FuzzMaximal(f *testing.F) {
	f.Add([]byte{2, 0x07, 0x08, 0x03, 0x09, 0x07, 0x08}) // a duplicate and a nested subset
	f.Add([]byte{1, 0x03, 0x10, 0x03, 0x09, 0x03, 0x21}) // one object set, nested spans
	f.Add([]byte{3, 0x00, 0x02, 0x00, 0x18, 0x05, 0x10}) // empty sets
	f.Add([]byte{0, 0x0f, 0x3f, 0xf0, 0x3f, 0xff, 0x00}) // disjoint sets, a point-span superset
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, added := decodeConvoys(data)
		in := slices.Clone(cs)
		want := minetest.ReferenceMaximal(cs)
		if got := model.Maximal(cs); !slices.EqualFunc(got, want, model.Convoy.Equal) {
			t.Fatalf("Maximal(%v) = %v, want %v", in, got, want)
		}
		if !slices.EqualFunc(cs, in, model.Convoy.Equal) {
			t.Fatalf("Maximal reordered its input %v into %v", in, cs)
		}

		var c model.Cover
		for _, v := range cs[:added] {
			c.Add(v)
		}
		for _, v := range cs {
			covered := slices.ContainsFunc(cs[:added], v.SubConvoyOf)
			if got := c.Covers(v); got != covered {
				t.Fatalf("after adding %v: Covers(%v) = %v, want %v", cs[:added], v, got, covered)
			}
		}

		got := c.Filter(slices.Clone(cs))
		model.SortConvoys(got)
		if !slices.EqualFunc(got, want, model.Convoy.Equal) {
			t.Fatalf("Filter(%v) = %v, want %v", in, got, want)
		}
		for _, v := range cs {
			if !c.Covers(v) {
				t.Fatalf("after Filter(%v): %v not covered", in, v)
			}
		}
	})
}
