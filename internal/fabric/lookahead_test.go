package fabric

import "testing"

func blockShardOf(ranks, shards int) func(int) int {
	return func(r int) int { return r * shards / ranks }
}

func TestLookaheadMatrixFlat(t *testing.T) {
	cfg := DefaultConfig()
	m := LookaheadMatrix(cfg, 8, 4, blockShardOf(8, 4))
	want := Lookahead(cfg)
	for i := range m {
		for j := range m[i] {
			if m[i][j] != want {
				t.Fatalf("flat matrix [%d][%d] = %v, want uniform %v", i, j, m[i][j], want)
			}
		}
	}
}

func TestLookaheadMatrixEmptyShard(t *testing.T) {
	cfg := DefaultConfig()
	// Map every rank to shard 0; shards 1 and 2 are empty and still get the
	// sound uniform floor.
	m := LookaheadMatrix(cfg, 4, 3, func(int) int { return 0 })
	if len(m) != 3 {
		t.Fatalf("matrix has %d rows, want 3", len(m))
	}
	for _, pair := range [][2]int{{1, 2}, {0, 1}, {2, 0}} {
		if got := m[pair[0]][pair[1]]; got != Lookahead(cfg) {
			t.Fatalf("empty-shard entry [%d][%d] = %v, want %v", pair[0], pair[1], got, Lookahead(cfg))
		}
	}
}

func TestLookaheadMatrixRejectsBadShardOf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range shardOf did not panic")
		}
	}()
	LookaheadMatrix(DefaultConfig(), 4, 2, func(int) int { return 5 })
}
