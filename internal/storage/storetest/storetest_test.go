package storetest

import (
	"testing"

	"repro/internal/storage"
)

func TestMemStoreConformance(t *testing.T) {
	ds := RandomDataset(7, 40, 30, 0.8)
	Run(t, storage.NewMemStore(ds), ds)
}
