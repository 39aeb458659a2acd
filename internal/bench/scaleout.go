package bench

import (
	"fmt"

	"rftp/internal/core"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/sim"
)

// ScaleOut reproduces the programmatic context of the paper (the DOE
// ANI/ESnet goal of filling a 100 Gbps backbone with hosts that each
// have a 10 Gbps RoCE NIC): n independent RFTP host pairs share one
// 100 Gbps trunk. Aggregate bandwidth should scale linearly until the
// trunk saturates at ten pairs.
func ScaleOut(scale Scale) ([]Row, error) {
	var rows []Row
	for _, n := range []int{1, 2, 4, 8, 10, 12} {
		agg, err := runScaleOut(n, scale)
		if err != nil {
			return nil, fmt.Errorf("scale-out n=%d: %w", n, err)
		}
		rows = append(rows, Row{
			Figure: "scale-out", Testbed: "ANI-100G", Tool: "RFTP",
			BlockSize: 4 << 20, Streams: n,
			Gbps: agg,
			Note: fmt.Sprintf("%d pairs x 10G NIC over shared 100G trunk", n),
		})
	}
	return rows, nil
}

// runScaleOut runs n concurrent pairs and returns aggregate goodput.
func runScaleOut(n int, scale Scale) (float64, error) {
	tb := RoCEWAN()
	sched := sim.New(1)
	fab := simfabric.New(sched)
	bb := fab.NewBackbone(100e9)

	perPair := scale.bytes(4 << 30)
	type pairState struct {
		source *core.Source
		done   bool
	}
	pairs := make([]*pairState, n)
	var firstErr error
	for i := 0; i < n; i++ {
		cfg := core.DefaultConfig()
		cfg.BlockSize = 4 << 20
		cfg.IODepth = rftpDepthFor(tb, cfg.BlockSize)
		cfg.SinkBlocks = 2 * cfg.IODepth
		p, err := newSimPair(fab, bb, tb, fmt.Sprint(i), RFTPOptions{Config: cfg})
		if err != nil {
			return 0, err
		}
		source, _, err := p.connect()
		if err != nil {
			return 0, err
		}
		ps := &pairState{source: source}
		pairs[i] = ps
		source.Start(func(err error) {
			if err != nil {
				firstErr = err
				return
			}
			source.Transfer(p.memSource(perPair), perPair, func(r core.TransferResult) {
				if r.Err != nil && firstErr == nil {
					firstErr = r.Err
				}
				ps.done = true
			})
		})
	}
	sched.RunAll()
	if firstErr != nil {
		return 0, firstErr
	}
	var aggregate float64
	for i, ps := range pairs {
		if !ps.done {
			return 0, fmt.Errorf("pair %d never finished", i)
		}
		aggregate += ps.source.Stats().BandwidthGbps()
	}
	return aggregate, nil
}
