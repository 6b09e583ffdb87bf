package dcm

import (
	"slices"
	"testing"

	"repro/internal/model"
)

// quadraticMerge is Merge as it was before pairs were found through a
// postings.Index: every accumulator convoy is intersected with every convoy
// of the slice. It is frozen here as FuzzMerge's reference.
func quadraticMerge(slices [][]model.Convoy, minSize int) []model.Convoy {
	var (
		results, acc, next []model.Convoy
		cover              model.Cover
	)
	for _, cur := range slices {
		next = next[:0]
		for _, v := range acc {
			extended := false
			for _, w := range cur {
				if v.End != w.Start {
					continue
				}
				inter := v.Objs.Intersect(w.Objs)
				if len(inter) < minSize {
					continue
				}
				next = append(next, model.Convoy{Objs: inter, Start: v.Start, End: w.End})
				if len(inter) == len(v.Objs) {
					extended = true
				}
			}
			if !extended {
				results = append(results, v)
			}
		}
		next = append(next, cur...)
		acc, next = cover.Filter(next), acc
	}
	results = append(results, acc...)
	model.SortConvoys(results)
	return results
}

// decodeMergeSlices turns a fuzz byte stream into at most 16 adjacent
// slices. Per slice, one header byte: bits 0–1 give its span (1–4 ticks
// after the tick it shares with the previous slice) and bits 2–4 its convoy
// count (0–7, so empty slices occur). Per convoy, two bytes:
//   - a bitmask over an 8-object universe (0 is the empty set), so convoys
//     of one slice overlap as flock disks do and adjacent slices share
//     members;
//   - a placement: with bit 7 clear the convoy spans the whole slice, as
//     k/2-hop's spanning convoys do; with it set, bits 0–2 and 3–5 give a
//     start and end inside the slice, as DCM's partition convoys may have.
func decodeMergeSlices(data []byte) [][]model.Convoy {
	var out [][]model.Convoy
	first := int32(0)
	for i := 0; i < len(data) && len(out) < 16; {
		h := data[i]
		i++
		span := int32(h&3) + 1
		cur := []model.Convoy{}
		for n := int(h>>2) & 7; n > 0 && i+1 < len(data); n-- {
			mask, place := data[i], data[i+1]
			i += 2
			var ids []int32
			for b := int32(0); b < 8; b++ {
				if mask&(1<<b) != 0 {
					ids = append(ids, b)
				}
			}
			start, end := first, first+span
			if place&0x80 != 0 {
				start += int32(place&7) % (span + 1)
				end = start + int32(place>>3&7)%(first+span-start+1)
			}
			cur = append(cur, model.NewConvoy(model.NewObjSet(ids...), start, end))
		}
		out = append(out, cur)
		first += span
	}
	return out
}

// FuzzMerge holds Merge to quadraticMerge on fuzz-chosen slices: the same
// convoys in the same order, whatever the slices' shape.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mByte uint8) {
		minSize := int(mByte%4) + 1
		in := decodeMergeSlices(data)
		got, want := Merge(in, minSize), quadraticMerge(in, minSize)
		if !slices.EqualFunc(got, want, model.Convoy.Equal) {
			t.Fatalf("slices %v, minSize %d:\n got %v\nwant %v", in, minSize, got, want)
		}
	})
}
