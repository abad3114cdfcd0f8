package core

import "testing"

func TestStorageBitsMatchesPaperAccounting(t *testing.T) {
	// Paper §V-B: "PRCAT uses 2 bytes per counter for T=16K" (14 counter
	// bits rounded to 16 with the 2-bit weight register in DRCAT).
	prcat := mustTree(t, Config{Rows: 1 << 16, Counters: 64, MaxLevels: 11,
		RefreshThreshold: 16384, Policy: PRCAT})
	drcat := mustTree(t, Config{Rows: 1 << 16, Counters: 64, MaxLevels: 11,
		RefreshThreshold: 16384, Policy: DRCAT})
	// 64 counters * 14 bits + 63 inode rows * (2*6 ptr bits + 2 flags).
	wantPRCAT := 64*14 + 63*14
	if got := prcat.StorageBits(); got != wantPRCAT {
		t.Errorf("PRCAT storage = %d bits, want %d", got, wantPRCAT)
	}
	// DRCAT adds the 2-bit weight register per counter: 16 bits/counter,
	// the paper's "first 16 bits for the counter and the two last bits".
	if got := drcat.StorageBits() - prcat.StorageBits(); got != 64*2 {
		t.Errorf("DRCAT weight overhead = %d bits, want 128", got)
	}
}
