package bench

import (
	"fmt"

	"rftp/internal/core"
)

// ShardScaleTestbed is a 100 Gbps RoCE LAN: small blocks on a link this
// fast make per-block verbs CPU (post + completion + interrupt) the
// bottleneck of a single reactor thread, which is exactly the regime
// the sharded data path exists for. The host parameters match the
// RoCE-LAN testbed; only the wire is faster.
func ShardScaleTestbed() Testbed {
	tb := RoCELAN()
	tb.Name = "RoCE-100G"
	tb.NICGbps = 100
	tb.Link.RateBps = 100e9
	return tb
}

// shardScaleConfig is the workload AblationReactors and
// TestShardScalingShape share: 8 KiB blocks over 4 data channels with
// immediate notification, so the per-block reactor cost dominates and
// goodput tracks how many cores the data path can use.
func shardScaleConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.BlockSize = 8 << 10
	cfg.Channels = 4
	cfg.IODepth = 64
	cfg.SinkBlocks = 128
	cfg.NotifyViaImm = true
	return cfg
}

// ShardScaleReactorCounts is the reactor sweep both the ablation and
// the benchmark run.
var ShardScaleReactorCounts = []int{1, 2, 4}

// RunShardScalePoint runs one reactor-count point of the shard-scaling
// sweep (loaders and storers scale with the reactor count so storage
// threads never bind).
func RunShardScalePoint(reactors int, scale Scale) (RunResult, error) {
	cfg := shardScaleConfig()
	return RunRFTP(ShardScaleTestbed(), RFTPOptions{
		Config:     cfg,
		TotalBytes: scale.bytes(2 << 30),
		Loaders:    reactors,
		Storers:    reactors,
		Reactors:   reactors,
	})
}

// AblationReactors sweeps the number of reactor shards on the 100G
// testbed: with one reactor the data path is CPU-bound on a single
// core; each added shard contributes its own post/completion budget
// until the wire binds.
func AblationReactors(scale Scale) ([]Row, error) {
	var rows []Row
	for _, n := range ShardScaleReactorCounts {
		r, err := RunShardScalePoint(n, scale)
		if err != nil {
			return nil, fmt.Errorf("ablation-reactors n=%d: %w", n, err)
		}
		rows = append(rows, Row{
			Figure: "ablation-reactors", Testbed: ShardScaleTestbed().Name, Tool: "RFTP",
			BlockSize: shardScaleConfig().BlockSize, Streams: shardScaleConfig().Channels, Depth: n,
			Gbps: r.BandwidthGbps, ClientCPU: r.ClientCPU, ServerCPU: r.ServerCPU,
			Stalls: r.Stalls, RNR: r.RNR,
			AllocsPerOp: r.AllocsPerBlock, CopiedPerOp: r.CopiedPerBlock,
			CtrlPerOp: r.CtrlPerBlock, GrantBatch: r.GrantBatchMean,
			Note: fmt.Sprintf("reactors=%d", n),
		})
	}
	return rows, nil
}

// AblationMRCache measures the pin-down cache on repeated short
// sessions: 8 sequential connections over one fabric, each tearing its
// pools down into the shared cache. The first connection misses on
// every registration; the rest hit.
func AblationMRCache(scale Scale) ([]Row, error) {
	cfg := core.DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 16
	cfg.SinkBlocks = 32
	const conns = 8
	results, rep, err := RunRFTPRepeated(RoCELAN(), RFTPOptions{
		Config: cfg, TotalBytes: scale.bytes(1 << 30),
	}, conns)
	if err != nil {
		return nil, fmt.Errorf("ablation-mrcache: %w", err)
	}
	var rows []Row
	for i, r := range results {
		rows = append(rows, Row{
			Figure: "ablation-mrcache", Testbed: RoCELAN().Name, Tool: "RFTP",
			BlockSize: cfg.BlockSize, Depth: i + 1,
			Gbps: r.BandwidthGbps,
			Note: fmt.Sprintf("conn=%d", i+1),
		})
	}
	rows = append(rows, Row{
		Figure: "ablation-mrcache", Testbed: RoCELAN().Name, Tool: "RFTP",
		BlockSize: cfg.BlockSize, Depth: conns,
		Gbps: results[len(results)-1].BandwidthGbps,
		Note: fmt.Sprintf("summary: hit-rate=%.0f%% hits=%d misses=%d evictions=%d",
			100*rep.HitRate, rep.Hits, rep.Misses, rep.Evictions),
	})
	return rows, nil
}
