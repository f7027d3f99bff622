package mem

import (
	"bytes"
	"sync"
	"testing"

	"cecsan/internal/splitmix"
)

// TestChunkStoreResetProperty applies seeded random fills and byte writes
// from concurrent writers and checks, round after round on the same store,
// that the store holds exactly what was written and that Reset returns it
// to the state of a new store: every chunk zero, nothing materialized,
// nothing dirty. Writer w owns bytes [w*stripe, (w+1)*stripe) of every
// chunk, so writers share chunks (and their dirty marks) without racing on
// bytes, and the last writer owns every chunk's last byte.
func TestChunkStoreResetProperty(t *testing.T) {
	const (
		nChunks = 6
		writers = 4
		stripe  = ChunkSize / writers
		rounds  = 5
		ops     = 300
	)
	s := NewChunkStore(nChunks * ChunkSize)
	for seed := uint64(1); seed <= rounds; seed++ {
		ref := make([]byte, nChunks*ChunkSize)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := splitmix.New(seed<<8 | uint64(w))
				for i := 0; i < ops; i++ {
					ci := rng.Next() % nChunks
					lo := ci*ChunkSize + uint64(w*stripe)
					off := rng.Next() % stripe
					n := int64(rng.Next()%(stripe-off)) + 1
					if i%8 == 0 && w == writers-1 {
						off, n = stripe-1, 1 // the chunk's last byte
					}
					pos := lo + off
					v := byte(rng.Next())
					if rng.Next()%2 == 0 {
						if got := s.Fill(pos, n, v); got != n {
							t.Errorf("Fill wrote %d of %d bytes", got, n)
						}
						for k := int64(0); k < n; k++ {
							ref[pos+uint64(k)] = v
						}
					} else {
						if got := s.Write(pos, []byte{v}); got != 1 {
							t.Errorf("Write wrote %d of 1 bytes", got)
						}
						ref[pos] = v
					}
				}
			}(w)
		}
		wg.Wait()
		// A fill and a write across a chunk boundary, after the writers.
		s.Fill(2*ChunkSize-3, 6, 0x5A)
		s.Write(4*ChunkSize-2, []byte{1, 2, 3, 4})
		copy(ref[2*ChunkSize-3:], bytes.Repeat([]byte{0x5A}, 6))
		copy(ref[4*ChunkSize-2:], []byte{1, 2, 3, 4})

		got := make([]byte, len(ref))
		if n := s.Read(0, got); n != int64(len(got)) || !bytes.Equal(got, ref) {
			t.Fatalf("round %d: store contents differ from the writes (read %d bytes)", seed, n)
		}
		if s.TouchedBytes() != nChunks*ChunkSize {
			t.Fatalf("round %d: TouchedBytes = %d, want %d", seed, s.TouchedBytes(), nChunks*ChunkSize)
		}

		s.Reset()
		if s.TouchedBytes() != 0 || len(s.touchedIdx) != 0 {
			t.Fatalf("round %d: after Reset TouchedBytes = %d, %d chunks recorded", seed, s.TouchedBytes(), len(s.touchedIdx))
		}
		for i := range s.chunks {
			if s.chunks[i].Load() != nil || s.dirtyHi[i].Load() != 0 {
				t.Fatalf("round %d: chunk %d still mapped or dirty after Reset", seed, i)
			}
		}
		if len(s.spare) != nChunks {
			t.Fatalf("round %d: %d spare chunks, want %d", seed, len(s.spare), nChunks)
		}
		for i, c := range s.spare {
			if !bytes.Equal(c[:], make([]byte, ChunkSize)) {
				t.Fatalf("round %d: spare chunk %d not zero after Reset", seed, i)
			}
		}
	}
}

// TestChunkStoreFaultHook checks that a vetoed materialization stops Fill,
// Write and Read at the chunk boundary and reports how far they got.
func TestChunkStoreFaultHook(t *testing.T) {
	s := NewChunkStore(4 * ChunkSize)
	s.Fill(0, 1, 1) // chunk 0 is mapped before the hook
	s.SetFaultHook(func() bool { return true })
	if n := s.Fill(ChunkSize-4, 8, 7); n != 4 {
		t.Errorf("Fill across a vetoed chunk wrote %d bytes, want 4", n)
	}
	if n := s.Write(ChunkSize-2, []byte{1, 2, 3}); n != 2 {
		t.Errorf("Write across a vetoed chunk wrote %d bytes, want 2", n)
	}
	if n := s.Read(ChunkSize-1, make([]byte, 2)); n != 1 {
		t.Errorf("Read across a vetoed chunk read %d bytes, want 1", n)
	}
	if b := s.Byte(2 * ChunkSize); b != 0 {
		t.Errorf("Byte of a vetoed chunk = %d, want 0", b)
	}
	s.Reset() // clears the hook
	if n := s.Fill(ChunkSize, 1, 9); n != 1 || s.Byte(ChunkSize) != 9 {
		t.Errorf("Fill after Reset wrote %d bytes, byte = %d", n, s.Byte(ChunkSize))
	}
}

// BenchmarkFill is one 4 KiB fill of a non-zero byte, the size of the
// sanitizer models' allocation poisoning and tagging.
func BenchmarkFill(b *testing.B) {
	s := NewChunkStore(ChunkSize)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		s.Fill(0, 4096, 0xFA)
	}
}
