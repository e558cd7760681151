package dmsii

import (
	"fmt"
	"testing"

	"sim/internal/pager"
)

// BenchmarkCommitOnePage commits one-page transactions on a store whose
// pool holds 64 or 8192 resident clean frames. The store is in memory,
// so the timing is the commit path's CPU — capture, journaling, page
// checksums, write-back, publish — without an fsync. A commit that walks
// the whole pool shows up as ns/op growing with the resident frames.
func BenchmarkCommitOnePage(b *testing.B) {
	for _, resident := range []int{64, 8192} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			s, err := OpenMemory(Options{PoolPages: 2 * resident})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tx, err := s.Begin()
			if err != nil {
				b.Fatal(err)
			}
			var target pager.PageID
			for i := 0; i < resident; i++ {
				f, err := s.AllocPage()
				if err != nil {
					b.Fatal(err)
				}
				s.MarkDirty(f)
				target = f.ID
				s.Release(f)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := s.Begin()
				if err != nil {
					b.Fatal(err)
				}
				f, err := s.Get(target)
				if err != nil {
					b.Fatal(err)
				}
				s.Prepare(f)
				f.Data[0] = byte(i)
				s.MarkDirty(f)
				s.Release(f)
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
