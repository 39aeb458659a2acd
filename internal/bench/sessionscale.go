package bench

import (
	"fmt"

	"rftp/internal/core"
)

// Session-scaling sweep: many concurrent tenants multiplexed over one
// connection's shared data channels, fed by the sink's per-tenant DRR
// credit scheduler. The claims under test are the session manager's
// deliverables: aggregate goodput stays near the single-session rate
// as tenants multiply, Jain's fairness index stays >= 0.95 at equal
// weights, a 2:1 weight split yields 2:1 goodput shares, and
// per-tenant memory stays bounded (the shared pool amortizes, it does
// not replicate).

// SessionScaleCounts is the tenant sweep both the ablation and
// TestSessionScalingShape run.
var SessionScaleCounts = []int{1, 8, 64, 256, 1024}

// sessionScaleMax extends the ablation (only) to the 10k-tenant point:
// two orders of magnitude past the sink pool, every tenant at the DRR
// scheduler's 1-credit floor, with the per-tenant byte floor pushing
// ~20 GiB through even at quick scale. The test sweep stops at 1024 to
// keep tier-1 runtime sane; mem/tenant and RNR at 10k are the columns
// that prove the control rings and the shared pool, not the tenant
// count, bound the footprint.
const sessionScaleMax = 10240

// sessionScaleConfig is the shared workload: 256 KiB blocks over 4
// channels with a 256-block sink pool, so at the top of the sweep the
// pool is 4x oversubscribed and every tenant runs at the scheduler's
// 1-credit floor.
func sessionScaleConfig(sessions int) core.Config {
	cfg := core.DefaultConfig()
	cfg.BlockSize = 256 << 10
	cfg.Channels = 4
	cfg.IODepth = 64
	cfg.SinkBlocks = 256
	cfg.MaxSessions = sessions
	return cfg
}

// RunSessionScalePoint runs one tenant-count point of the sweep.
// weights cycle over the tenants (nil = equal). The byte volume is
// floored at 8 blocks per tenant so per-tenant rates stay measurable
// at the top of the sweep.
func RunSessionScalePoint(sessions int, weights []int, scale Scale) (RunResult, error) {
	cfg := sessionScaleConfig(sessions)
	total := scale.bytes(2 << 30)
	if min := int64(sessions) * 8 * int64(cfg.BlockSize); total < min {
		total = min
	}
	return RunRFTP(RoCELAN(), RFTPOptions{
		Config:         cfg,
		TotalBytes:     total,
		Sessions:       sessions,
		SessionWeights: weights,
	})
}

// AblationSessions sweeps 1 -> 10240 concurrent tenants at equal
// weights, then adds a 2:1 weighted run whose note reports the
// measured goodput share ratio between the two tenant classes.
func AblationSessions(scale Scale) ([]Row, error) {
	var rows []Row
	counts := append(append([]int{}, SessionScaleCounts...), sessionScaleMax)
	for _, n := range counts {
		r, err := RunSessionScalePoint(n, nil, scale)
		if err != nil {
			return nil, fmt.Errorf("ablation-sessions n=%d: %w", n, err)
		}
		rows = append(rows, sessionRow(r, fmt.Sprintf("sessions=%d equal-weight", n)))
	}
	const weighted = 8
	r, err := RunSessionScalePoint(weighted, []int{2, 1}, scale)
	if err != nil {
		return nil, fmt.Errorf("ablation-sessions weighted: %w", err)
	}
	rows = append(rows, sessionRow(r, fmt.Sprintf(
		"sessions=%d weights=2:1 share-ratio=%.2f", weighted, ShareRatio(r.SessionGbps, []int{2, 1}))))
	return rows, nil
}

// sessionRow normalizes one sweep point into a report row.
func sessionRow(r RunResult, note string) Row {
	cfg := sessionScaleConfig(r.Sessions)
	return Row{
		Figure: "ablation-sessions", Testbed: RoCELAN().Name, Tool: "RFTP",
		BlockSize: cfg.BlockSize, Streams: cfg.Channels,
		Sessions: r.Sessions, Gbps: r.BandwidthGbps, GoodputAgg: r.BandwidthGbps,
		JainIndex: r.JainIndex, MemPerSess: r.MemPerSession,
		ClientCPU: r.ClientCPU, ServerCPU: r.ServerCPU,
		Stalls: r.Stalls, RNR: r.RNR,
		CtrlPerOp: r.CtrlPerBlock, GrantBatch: r.GrantBatchMean,
		Note: note,
	}
}

// ShareRatio is the mean goodput of the weight-cycle's first class
// over the mean of its second (tenant i carries weights[i % len]); a
// 2:1 schedule should yield a ratio near 2.
func ShareRatio(rates []float64, weights []int) float64 {
	var hi, lo float64
	var nHi, nLo int
	for i, r := range rates {
		if weights[i%len(weights)] == weights[0] {
			hi += r
			nHi++
		} else {
			lo += r
			nLo++
		}
	}
	if nHi == 0 || nLo == 0 || lo == 0 {
		return 0
	}
	return (hi / float64(nHi)) / (lo / float64(nLo))
}
