package bench

import (
	"testing"

	"rftp/internal/core"
	"rftp/internal/telemetry"
)

// TestMRCacheRepeatedSessions is the acceptance criterion for the
// pin-down cache: 10 sequential connections sharing one cache per side
// must hit on at least 90% of registrations (only the first connection
// registers fresh regions), with the hit counters visible in telemetry.
func TestMRCacheRepeatedSessions(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 16
	cfg.SinkBlocks = 32
	reg := telemetry.NewRegistry("bench")
	results, rep, err := RunRFTPRepeated(RoCELAN(), RFTPOptions{
		Config: cfg, TotalBytes: 64 << 20, Telemetry: reg,
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results, want 10", len(results))
	}
	t.Logf("hits=%d misses=%d evictions=%d hit-rate=%.2f idle=%d",
		rep.Hits, rep.Misses, rep.Evictions, rep.HitRate, rep.Idle)
	if rep.HitRate < 0.9 {
		t.Fatalf("hit rate %.2f, want >= 0.90 (hits=%d misses=%d)", rep.HitRate, rep.Hits, rep.Misses)
	}
	// Later connections must not be slower than the first: reissued
	// registrations behave identically to fresh ones.
	if last := results[9].BandwidthGbps; last < 0.95*results[0].BandwidthGbps {
		t.Fatalf("cached-registration conn slower: %.2f vs %.2f Gbps", last, results[0].BandwidthGbps)
	}
	// The cache counters must surface through the telemetry registry.
	var hits, misses int64
	for _, child := range reg.Snapshot().Children {
		if child.Name == "src_mrcache" || child.Name == "dst_mrcache" {
			hits += child.Counters["mr_cache_hits"]
			misses += child.Counters["mr_cache_misses"]
		}
	}
	if hits != rep.Hits || misses != rep.Misses {
		t.Fatalf("telemetry mirror disagrees: counters %d/%d vs report %d/%d",
			hits, misses, rep.Hits, rep.Misses)
	}
}
