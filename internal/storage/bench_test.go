package storage

import "testing"

// BenchmarkBufferPoolView reads pages past a pool that holds none of
// them, as a heap scan of a large table does: the in-memory disk lends
// its bytes, a chaos-wrapped one (no rules) reads a copy.
func BenchmarkBufferPoolView(b *testing.B) {
	for _, c := range []struct {
		name string
		disk func() DiskManager
	}{
		{"mem", func() DiskManager { return NewMemDisk() }},
		{"chaos", func() DiskManager { return WrapDisk(NewMemDisk(), nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			disk := c.disk()
			var ids []PageID
			for i := 0; i < 64; i++ {
				id, err := disk.Allocate()
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, id)
			}
			bp, err := NewBufferPool(disk, 8)
			if err != nil {
				b.Fatal(err)
			}
			var sum byte
			read := func(p []byte) error { sum += p[PageSize-1]; return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bp.View(ids[i%len(ids):][:1], read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
