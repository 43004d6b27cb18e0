package allocs

import "testing"

var sink []byte

// TestCountSeesRareAllocations: an allocation made by one run in a hundred
// is counted, where testing.AllocsPerRun's rounded mean reads 0.
func TestCountSeesRareAllocations(t *testing.T) {
	i := 0
	rare := func() {
		if i++; i%100 == 0 {
			sink = make([]byte, 64)
		}
	}
	if n := Count(100, rare); n != 1 {
		t.Errorf("Count = %d, want 1", n)
	}
	if avg := testing.AllocsPerRun(100, rare); avg != 0 {
		t.Errorf("AllocsPerRun = %v; the premise is that it rounds to 0", avg)
	}
	if n := Count(10, func() {}); n != 0 {
		t.Errorf("Count of an empty function = %d, want 0", n)
	}
}
