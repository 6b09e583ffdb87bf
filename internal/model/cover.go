package model

import (
	"cmp"
	"slices"
)

// Cover is the maximality filter of the paper's update() (§4.4–4.6): it
// tells whether a convoy is a sub-convoy of one already known. Every added
// convoy is posted under each of its member objects, and a convoy that
// covers v holds every member of v, so Covers compares v only with the
// convoys posted under v's rarest member. The zero value is an empty
// Cover; it is not safe for concurrent use.
type Cover struct {
	added []Convoy
	// The postings of added[:indexed]: lists maps an object to its list,
	// whose entries are threaded through postings, newest first.
	indexed  int
	lists    map[int32]postingList
	postings []posting
}

type postingList struct{ head, n int32 } // head: 1 + index in postings; 0 = empty

type posting struct{ conv, prev int32 } // conv indexes added; prev is the next head

// Add records v. It does not check whether v is covered, and it drops
// nothing v covers. v is posted when Covers next runs, so a cover that
// never holds two convoys at once — most steps of an extension walk —
// builds no index at all.
func (c *Cover) Add(v Convoy) { c.added = append(c.added, v) }

// Covers reports whether v is a sub-convoy of some added convoy.
func (c *Cover) Covers(v Convoy) bool {
	if len(c.added) == 0 {
		return false
	}
	if len(v.Objs) == 0 { // no member to look up: try every added convoy
		return slices.ContainsFunc(c.added, v.SubConvoyOf)
	}
	c.index()
	rarest := c.lists[v.Objs[0]]
	for _, o := range v.Objs[1:] {
		if l := c.lists[o]; l.n < rarest.n {
			rarest = l
		}
	}
	for at := rarest.head; at != 0; at = c.postings[at-1].prev {
		if v.SubConvoyOf(c.added[c.postings[at-1].conv]) {
			return true
		}
	}
	return false
}

// index posts the convoys added since the last call.
func (c *Cover) index() {
	if c.lists == nil {
		c.lists = map[int32]postingList{}
	}
	for ; c.indexed < len(c.added); c.indexed++ {
		for _, o := range c.added[c.indexed].Objs {
			l := c.lists[o]
			c.postings = append(c.postings, posting{conv: int32(c.indexed), prev: l.head})
			c.lists[o] = postingList{head: int32(len(c.postings)), n: l.n + 1}
		}
	}
}

// Filter empties the cover and returns the convoys of cs that no other
// convoy of cs covers, one of each group of equal convoys. Afterwards the
// cover holds exactly the result.
//
// cs is sorted by object count, then length, both descending, so a strict
// super-convoy, which is larger in one of the two and smaller in neither,
// comes before everything it covers. One pass then keeps each convoy no
// kept convoy covers, and nothing kept is ever dropped. The result is a
// prefix of cs's reordered array, and the cover's own arrays are reused
// from the previous call, so a caller that filters once per step
// allocates only when a step outgrows every earlier one.
func (c *Cover) Filter(cs []Convoy) []Convoy {
	clear(c.added)
	c.added, c.indexed, c.postings = c.added[:0], 0, c.postings[:0]
	clear(c.lists)
	slices.SortFunc(cs, func(a, b Convoy) int {
		if d := cmp.Compare(len(b.Objs), len(a.Objs)); d != 0 {
			return d
		}
		return cmp.Compare(int64(b.End)-int64(b.Start), int64(a.End)-int64(a.Start))
	})
	out := cs[:0]
	for _, v := range cs {
		if !c.Covers(v) {
			c.Add(v)
			out = append(out, v)
		}
	}
	return out
}

// Maximal returns the convoys of cs that no other convoy of cs covers,
// once each, in canonical order. cs is left as it is.
func Maximal(cs []Convoy) []Convoy {
	var c Cover
	out := c.Filter(append([]Convoy{}, cs...))
	SortConvoys(out)
	return out
}
