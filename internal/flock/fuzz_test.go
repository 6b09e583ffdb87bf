package flock

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// decodeFlock draws 6–15 objects over 12–31 ticks, m ∈ {2, 3}, k ∈ 4…8
// and R = 1.2 from data. Every object but the first picks an earlier
// object to follow: at three ticks in four it copies that object's
// position plus a jitter of up to ±0.75 in each axis (so pairs fit a disk
// of radius 1.2 most of the time but not always); otherwise it walks on
// its own. The bytes past the header drive those choices one by one; when
// they run out, a generator seeded from the whole input supplies the rest.
func decodeFlock(data []byte) (*model.Dataset, Config) {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	i := 0
	next := func() byte {
		if i < len(data) {
			i++
			return data[i-1]
		}
		return byte(rng.Intn(256))
	}
	objs := 6 + int(next()%10)
	ticks := 12 + int(next()%20)
	pk := next()
	cfg := Config{M: 2 + int(pk%2), K: 4 + int(pk>>1%5), R: 1.2}

	leader := make([]int, objs)
	x, y := make([]float64, objs), make([]float64, objs)
	for o := range objs {
		if o > 0 {
			leader[o] = int(next()) % o
		}
		x[o], y[o] = float64(next())/16, float64(next())/16
	}
	jitter := func() float64 { return (float64(next()) - 127.5) / 170 }
	var pts []model.Point
	for t := range ticks {
		for o := range objs {
			if o > 0 && next() < 0xC0 {
				l := leader[o]
				x[o], y[o] = x[l]+jitter(), y[l]+jitter()
			} else {
				x[o] += 2 * jitter()
				y[o] += 2 * jitter()
			}
			pts = append(pts, model.Point{OID: int32(o), T: int32(t), X: x[o], Y: y[o]})
		}
	}
	return model.NewDataset(pts), cfg
}

// FuzzFlockK2Hop holds MineK2Hop to Sweep, and every flock it mines to the
// definition: its members, fetched at every tick of its lifespan, fit one
// disk of radius R (FitsDisk, independent of the DiskGroups cover both
// miners group with). Flock candidates are final — no validation runs
// after the pipeline — so this is the check that one extension pass each
// way finds every maximal flock and admits nothing else.
func FuzzFlockK2Hop(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, cfg := decodeFlock(data)
		ms := storage.NewMemStore(ds)
		want, err := Sweep(ms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := MineK2Hop(ms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !model.ConvoysEqual(got, want) {
			t.Fatalf("cfg %+v:\n got %v\nwant %v", cfg, got, want)
		}
		for _, fl := range got {
			for tt := fl.Start; tt <= fl.End; tt++ {
				pts, err := ms.Fetch(tt, fl.Objs)
				if err != nil {
					t.Fatal(err)
				}
				if len(pts) != len(fl.Objs) || !FitsDisk(pts, cfg.R) {
					t.Fatalf("cfg %+v: flock %v at t=%d: fetched %d of %d members %v, want all in one disk of radius %g",
						cfg, fl, tt, len(pts), len(fl.Objs), pts, cfg.R)
				}
			}
		}
	})
}
